type config = { max_batch : int; max_linger_s : float }

let default_config = { max_batch = 32; max_linger_s = 0.005 }
let deadline_margin_s = 0.05

type 'a item = { payload : 'a; enqueued : float; flush_by : float }

type 'a t = {
  cfg : config;
  now : unit -> float;
  m : Mutex.t;
  q : 'a item Queue.t;
  mutable flushes_full : int;
  mutable flushes_timed : int;
}

let create ?now cfg =
  if cfg.max_batch < 1 then invalid_arg "Batcher.create: max_batch must be >= 1";
  if cfg.max_linger_s < 0.0 then invalid_arg "Batcher.create: max_linger_s must be >= 0";
  let now = Option.value now ~default:Unix.gettimeofday in
  { cfg; now; m = Mutex.create (); q = Queue.create (); flushes_full = 0; flushes_timed = 0 }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let push t ?deadline payload =
  let enqueued = t.now () in
  (* A request may linger at most max_linger_s — and strictly less when its
     own deadline is close: it must flush with at least deadline_margin_s of
     headroom left to run the batch, clamped so an already-tight request
     flushes immediately rather than in the past. *)
  let flush_by =
    let linger = enqueued +. t.cfg.max_linger_s in
    match deadline with
    | None -> linger
    | Some d -> Float.max enqueued (Float.min linger (d -. deadline_margin_s))
  in
  with_lock t (fun () -> Queue.push { payload; enqueued; flush_by } t.q)

let length t = with_lock t (fun () -> Queue.length t.q)

(* The earliest flush obligation is always the head's: flush_by is clamped
   to at least the enqueue time and enqueue times are monotonic per clock,
   but a later push CAN carry an earlier flush_by (tight deadline), so scan
   the whole queue. *)
let next_flush t =
  with_lock t (fun () ->
      Queue.fold
        (fun acc it ->
          match acc with
          | None -> Some it.flush_by
          | Some f -> Some (Float.min f it.flush_by))
        None t.q)

let due t =
  with_lock t (fun () ->
      Queue.length t.q >= t.cfg.max_batch
      || (not (Queue.is_empty t.q))
         &&
         let now = t.now () in
         Queue.fold (fun acc it -> acc || it.flush_by <= now) false t.q)

let pop_upto t k =
  let rec go acc k =
    if k = 0 || Queue.is_empty t.q then List.rev acc
    else go (Queue.pop t.q :: acc) (k - 1)
  in
  go [] k

let take t =
  with_lock t (fun () ->
      let n = Queue.length t.q in
      if n = 0 then []
      else if n >= t.cfg.max_batch then begin
        t.flushes_full <- t.flushes_full + 1;
        List.map (fun it -> it.payload) (pop_upto t t.cfg.max_batch)
      end
      else
        let now = t.now () in
        if Queue.fold (fun acc it -> acc || it.flush_by <= now) false t.q then begin
          t.flushes_timed <- t.flushes_timed + 1;
          List.map (fun it -> it.payload) (pop_upto t n)
        end
        else [])

let drain t =
  with_lock t (fun () ->
      List.map (fun it -> it.payload) (pop_upto t (Queue.length t.q)))

let flushes t = with_lock t (fun () -> (t.flushes_full, t.flushes_timed))
