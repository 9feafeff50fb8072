type t = {
  m : Mutex.t;
  mutable served : int;
  mutable ok : int;
  mutable degraded : int;
  mutable shed_count : int;
  errors : (Serve_error.code, int ref) Hashtbl.t;
  ring : float array;
  mutable ring_len : int;  (* samples stored, <= Array.length ring *)
  mutable ring_pos : int;  (* next write slot *)
  (* Batching: forward passes executed and the most items one carried. *)
  mutable batches : int;
  mutable max_batch : int;
  (* Routing: extra upstream attempts behind one client-visible answer.
     The answer itself still counts exactly once in [served]/[ok]. *)
  mutable retries : int;
  mutable hedges : int;
  mutable degraded_router : int;
  (* Per-backend serve counts, keyed by the reply's "backend" field. *)
  backends : (string, int ref) Hashtbl.t;
}

type summary = {
  served : int;
  ok : int;
  degraded : int;
  shed : int;
  errors : (string * int) list;
  p50_ms : float;
  p99_ms : float;
  batches : int;
  max_batch : int;
  retries : int;
  hedges : int;
  degraded_router : int;
  backends : (string * int) list;
}

let create () =
  {
    m = Mutex.create ();
    served = 0;
    ok = 0;
    degraded = 0;
    shed_count = 0;
    errors = Hashtbl.create 8;
    ring = Array.make 1024 0.0;  (* the most recent latency samples *)
    ring_len = 0;
    ring_pos = 0;
    batches = 0;
    max_batch = 0;
    retries = 0;
    hedges = 0;
    degraded_router = 0;
    backends = Hashtbl.create 4;
  }

let record ?backend t ~ok ~degraded ~code ~latency_s =
  Mutex.protect t.m (fun () ->
      t.served <- t.served + 1;
      if ok then t.ok <- t.ok + 1;
      if degraded then t.degraded <- t.degraded + 1;
      (match backend with
      | None -> ()
      | Some b -> (
        match Hashtbl.find_opt t.backends b with
        | Some r -> incr r
        | None -> Hashtbl.add t.backends b (ref 1)));
      (match code with
      | None -> ()
      | Some c -> (
        match Hashtbl.find_opt t.errors c with
        | Some r -> incr r
        | None -> Hashtbl.add t.errors c (ref 1)));
      t.ring.(t.ring_pos) <- latency_s;
      t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
      t.ring_len <- min (t.ring_len + 1) (Array.length t.ring))

let record_batch t ~size =
  Mutex.protect t.m (fun () ->
      t.batches <- t.batches + 1;
      if size > t.max_batch then t.max_batch <- size)

let shed t = Mutex.protect t.m (fun () -> t.shed_count <- t.shed_count + 1)
let record_retry t = Mutex.protect t.m (fun () -> t.retries <- t.retries + 1)
let record_hedge t = Mutex.protect t.m (fun () -> t.hedges <- t.hedges + 1)

let record_degraded_router t =
  Mutex.protect t.m (fun () -> t.degraded_router <- t.degraded_router + 1)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let snapshot t =
  Mutex.protect t.m (fun () ->
      let samples = Array.sub t.ring 0 t.ring_len in
      Array.sort compare samples;
      {
        served = t.served;
        ok = t.ok;
        degraded = t.degraded;
        shed = t.shed_count;
        errors =
          List.filter_map
            (fun c ->
              match Hashtbl.find_opt t.errors c with
              | Some r -> Some (Serve_error.code_string c, !r)
              | None -> None)
            Serve_error.all_codes;
        p50_ms = 1000.0 *. percentile samples 0.50;
        p99_ms = 1000.0 *. percentile samples 0.99;
        batches = t.batches;
        max_batch = t.max_batch;
        retries = t.retries;
        hedges = t.hedges;
        degraded_router = t.degraded_router;
        backends =
          Hashtbl.fold (fun b r acc -> (b, !r) :: acc) t.backends []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
      })
