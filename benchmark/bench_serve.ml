(* Socket workloads: the built `cachebox serve` binary (and, for [routed],
   `cachebox route` in front of two single-domain daemons) on unix
   sockets, driven from one thread that multiplexes two connections with
   select.

   Open loop: requests are due on a fixed schedule whatever the replies
   do, and each is timed from its scheduled send time, so a stall also
   charges the requests queued behind it. Closed loop (capacity): each
   connection keeps 8 requests in flight and sends the next as soon as a
   reply arrives. *)

open Bench_common

let conns = 2
let closed_depth = 8

(* Rates (requests per second), calibrated on a 2-core host where the
   direct daemon's closed-loop capacity is about 110 rps and the routed
   pair's about 140 (a fifth of its requests come from the memo):
   [fixed_rate] is well below both, [high] is about three quarters of the
   direct capacity, [peak] is at it and [over] lies above both. Frozen:
   changing them redefines the metrics. *)
let fixed_rate = 30.0

let ladder =
  [ ("low", 30.0); ("mid", 55.0); ("high", 80.0); ("peak", 110.0); ("over", 140.0) ]

(* Replies at the steps above [high] may fail without failing the run. *)
let exempt_step rate = rate > 80.0

(* The latency limit the ladder judges p90 against. *)
let limit_ms = 100.0

(* --- wire helpers --- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* One blocking request/reply on a fresh connection (control ops). *)
let call path line =
  match connect path with
  | None -> None
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        try
          output_string oc line;
          output_char oc '\n';
          flush oc;
          match Sjson.parse (input_line ic) with Ok j -> Some j | Error _ -> None
        with Sys_error _ | End_of_file | Unix.Unix_error _ -> None)

let is_ok j = Sjson.member "ok" j = Some (Sjson.Bool true)
let str_field k j = Option.bind (Sjson.member k j) Sjson.to_str
let num_field k j = Option.value (Option.bind (Sjson.member k j) Sjson.to_float) ~default:0.0

let healthy ?(router_backends = 0) path =
  match call path "{\"op\": \"health\"}" with
  | Some j when is_ok j ->
    router_backends = 0 || num_field "backends_up" j = float_of_int router_backends
  | _ -> false

(* --- the cluster under test --- *)

type cluster = {
  front : string;  (** the socket clients talk to *)
  pids : int list;
  daemons : string list;  (** backend daemon sockets (the front itself for serve) *)
  router : bool;
}

let serve_argv ~sock ~domains =
  Array.of_list
    ([
       cachebox_exe;
       "serve";
       "--socket";
       sock;
       "--checkpoint";
       Lazy.force Bench_offline.teacher_ckpt;
       "--student";
       Lazy.force Bench_offline.student_ckpt;
     ]
    @ match domains with None -> [] | Some d -> [ "--domains"; string_of_int d ])

let start ~routed k =
  let sock name = scratch_file (Printf.sprintf "%s%d.sock" name k) in
  if not routed then begin
    let s = sock "serve" in
    let pid = spawn ~log:"serve.log" (serve_argv ~sock:s ~domains:None) in
    { front = s; pids = [ pid ]; daemons = [ s ]; router = false }
  end
  else begin
    let a = sock "a" and b = sock "b" and r = sock "route" in
    let pa = spawn ~log:"a.log" (serve_argv ~sock:a ~domains:(Some 1)) in
    let pb = spawn ~log:"b.log" (serve_argv ~sock:b ~domains:(Some 1)) in
    let pr =
      spawn ~log:"route.log"
        [| cachebox_exe; "route"; "--socket"; r; "--backend"; "a=unix:" ^ a; "--backend"; "b=unix:" ^ b |]
    in
    { front = r; pids = [ pa; pb; pr ]; daemons = [ a; b ]; router = true }
  end

(* Set-up time: spawn until the first ok health — from every backend and,
   through the router, with both backends up. *)
let wait_ready c =
  let t_end = now () +. 120.0 in
  let ready () =
    List.for_all healthy c.daemons
    && ((not c.router) || healthy ~router_backends:(List.length c.daemons) c.front)
  in
  let rec go () =
    if ready () then true
    else if now () > t_end then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let stop c =
  (* Router first, so it never sees its backends vanish under it. *)
  let order = if c.router then c.front :: c.daemons else c.daemons in
  List.iter (fun s -> ignore (call s "{\"op\": \"shutdown\"}")) order;
  List.iter (fun pid -> if not (wait_exit ~timeout:10.0 pid) then stop_child pid) c.pids

(* --- the load generator --- *)

type record = {
  req : int;
  line : string;
  conn : int;
  sched : float;  (** when it was due *)
  mutable sent : float;
  mutable reply_at : float;  (** nan until answered *)
  mutable reply : string;
}

type conn = {
  fd : Unix.file_descr;
  mutable wbuf : string;
  mutable woff : int;
  outq : string Queue.t;
  rbuf : Buffer.t;
  inflight : record Queue.t;
  mutable dead : bool;  (** the peer closed or reset the connection *)
}

let open_conns path =
  Array.init conns (fun _ ->
      match connect path with
      | None -> failwith ("cannot connect to " ^ path)
      | Some fd ->
        Unix.set_nonblock fd;
        {
          fd;
          wbuf = "";
          woff = 0;
          outq = Queue.create ();
          rbuf = Buffer.create 65536;
          inflight = Queue.create ();
          dead = false;
        })

let close_conns cs = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs

let wants_write c =
  (not c.dead) && (c.woff < String.length c.wbuf || not (Queue.is_empty c.outq))

let flush_some c =
  let continue = ref true in
  while !continue && wants_write c do
    if c.woff >= String.length c.wbuf then begin
      c.wbuf <- Queue.pop c.outq;
      c.woff <- 0
    end;
    match Unix.write_substring c.fd c.wbuf c.woff (String.length c.wbuf - c.woff) with
    | n -> c.woff <- c.woff + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> c.dead <- true
  done

let chunk = Bytes.create 65536

(* Read what is available; complete lines answer the oldest in-flight
   request on the connection (replies are FIFO per connection). Returns
   the records answered; a closed or reset connection is marked dead and
   its unanswered requests stay missing. *)
let read_some c =
  let answered = ref [] in
  let continue = ref true in
  while !continue do
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      c.dead <- true;
      continue := false
    | n ->
      let t = now () in
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes c.rbuf chunk !start (i - !start);
          start := i + 1;
          match Queue.take_opt c.inflight with
          | Some r ->
            r.reply <- Buffer.contents c.rbuf;
            r.reply_at <- t;
            answered := r :: !answered;
            Buffer.clear c.rbuf
          | None -> Buffer.clear c.rbuf
        end
      done;
      Buffer.add_subbytes c.rbuf chunk !start (n - !start)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ ->
      c.dead <- true;
      continue := false
  done;
  List.rev !answered

let send cs r =
  let c = cs.(r.conn) in
  r.sent <- now ();
  Queue.push (r.line ^ "\n") c.outq;
  Queue.push r c.inflight;
  flush_some c

(* Drive the connections until [finished ()] or [deadline]; [on_reply] is
   called for every answered record, [due ()] gives the next scheduled send
   time (infinity when none) and [fire ()] sends what is due. *)
let pump cs ~deadline ~due ~fire ~on_reply ~finished =
  let by_fd = Hashtbl.create 4 in
  Array.iter (fun c -> Hashtbl.replace by_fd c.fd c) cs;
  let live () = List.filter (fun fd -> not (Hashtbl.find by_fd fd).dead) (Array.to_list (Array.map (fun c -> c.fd) cs)) in
  while (not (finished ())) && now () < deadline && live () <> [] do
    fire ();
    let fds = live () in
    let t = now () in
    let timeout = Float.max 0.0 (Float.min (due () -. t) (deadline -. t)) in
    let ws = List.filter (fun fd -> wants_write (Hashtbl.find by_fd fd)) fds in
    match Unix.select fds ws [] (Float.min timeout 0.05) with
    | r, w, _ ->
      List.iter (fun fd -> flush_some (Hashtbl.find by_fd fd)) w;
      List.iter (fun fd -> List.iter on_reply (read_some (Hashtbl.find by_fd fd))) r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let in_flight cs = Array.fold_left (fun n c -> n + Queue.length c.inflight) 0 cs

type step = {
  records : record list;
  late_max_ms : float;
  inflight_at_end : int;
  duration : float;
}

(* Open loop at [rate] for [seconds]: request k is due at t0 + k/rate on
   connection k mod 2. After the schedule ends, the step waits (up to 10 s)
   for the replies still owed. *)
let open_loop cs ~next ~rate ~seconds =
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let pending = Array.init n (fun _ -> next ()) in
  let t0 = now () +. 0.01 in
  let records =
    Array.mapi
      (fun k (req, line) ->
        { req; line; conn = k mod conns; sched = t0 +. (float_of_int k /. rate); sent = nan; reply_at = nan; reply = "" })
      pending
  in
  let k = ref 0 and late = ref 0.0 in
  let due () = if !k < n then records.(!k).sched else Float.infinity in
  let fire () =
    while !k < n && records.(!k).sched <= now () do
      let r = records.(!k) in
      send cs r;
      late := Float.max !late (r.sent -. r.sched);
      incr k
    done
  in
  let t_end = t0 +. (float_of_int n /. rate) in
  pump cs ~deadline:t_end ~due ~fire ~on_reply:ignore ~finished:(fun () -> false);
  let inflight_at_end = in_flight cs in
  pump cs ~deadline:(now () +. 10.0) ~due:(fun () -> Float.infinity) ~fire:ignore
    ~on_reply:ignore ~finished:(fun () -> in_flight cs = 0);
  {
    records = Array.to_list records;
    late_max_ms = 1000.0 *. !late;
    inflight_at_end;
    duration = t_end -. t0;
  }

(* Closed loop for [seconds]; throughput counts the replies that arrive
   inside the window. *)
let closed_loop cs ~next ~seconds =
  let records = ref [] and in_window = ref 0 in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let issue conn =
    let req, line = next () in
    let r = { req; line; conn; sched = now (); sent = nan; reply_at = nan; reply = "" } in
    records := r :: !records;
    send cs r
  in
  for conn = 0 to conns - 1 do
    for _ = 1 to closed_depth do
      issue conn
    done
  done;
  let on_reply r =
    if r.reply_at <= t_end then begin
      incr in_window;
      issue r.conn
    end
  in
  pump cs ~deadline:t_end ~due:(fun () -> Float.infinity) ~fire:ignore ~on_reply
    ~finished:(fun () -> false);
  pump cs ~deadline:(now () +. 10.0) ~due:(fun () -> Float.infinity) ~fire:ignore
    ~on_reply:ignore ~finished:(fun () -> in_flight cs = 0);
  ({ records = List.rev !records; late_max_ms = 0.0; inflight_at_end = 0; duration = seconds }, !in_window)

(* --- reply checks --- *)

let latency_ms r = 1000.0 *. (r.reply_at -. r.sched)

(* A reply counts as failed when it is missing, not ok, degraded, or
   answered by another backend than requested. *)
let reply_failed ~backend_of r =
  Float.is_nan r.reply_at
  ||
  match Sjson.parse r.reply with
  | Error _ -> true
  | Ok j ->
    (not (is_ok j))
    || Sjson.member "degraded" j = Some (Sjson.Bool true)
    || str_field "backend" j <> Some (backend_of r.req)

let step_stats ~backend_of s =
  let answered = List.filter (fun r -> not (Float.is_nan r.reply_at)) s.records in
  let lat = List.map latency_ms answered in
  let failed = List.length (List.filter (reply_failed ~backend_of) s.records) in
  let pct p = if lat = [] then Float.infinity else Bstats.percentile lat p in
  (pct 0.5, pct 0.9, pct 0.99, List.length lat, failed)

(* Per-backend counters and the other counters the stats op reports. *)
let counters path =
  match call path "{\"op\": \"stats\"}" with
  | None -> []
  | Some (Sjson.Obj fields) ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Sjson.Num x
          when String.length k > 4
               && (String.sub k 0 4 = "err_"
                  || (String.length k > 8 && String.sub k 0 8 = "backend_")
                  || List.mem k
                       [ "served"; "shed"; "degraded_count"; "retries"; "hedges"; "memo_hits"; "ws_allocs" ]) ->
          Some (k, x)
        | _ -> None)
      fields
  | Some _ -> []

let delta before after =
  List.map (fun (k, v) -> (k, v -. Option.value (List.assoc_opt k before) ~default:0.0)) after

let counter k l = Option.value (List.assoc_opt k l) ~default:0.0
let backend_key b = "backend_" ^ String.map (fun c -> if c = '-' then '_' else c) b

(* Every served reply must equal what Serve_engine.handle_line answers in
   process for the same line, except for latency_ms (and the router's
   memo flag). *)
let comparable json =
  match json with
  | Sjson.Obj fields ->
    Sjson.Obj
      (List.sort compare (List.filter (fun (k, _) -> k <> "latency_ms" && k <> "memo") fields))
  | j -> j

let check_replies records =
  let engine =
    let model = Bench_offline.load_teacher () in
    Serve_engine.create ~spec:Bench_inputs.spec ~model:(Some model)
      ~student_path:(Lazy.force Bench_offline.student_ckpt)
      (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ())
  in
  let mismatches = ref 0 and first = ref "" in
  List.iter
    (fun r ->
      if not (Float.is_nan r.reply_at) then begin
        let expected =
          match Serve_engine.handle_line engine r.line with
          | Serve_engine.Reply j | Serve_engine.Shutdown_reply j -> comparable j
        in
        match Sjson.parse r.reply with
        | Ok got when comparable got = expected -> ()
        | _ ->
          incr mismatches;
          if !first = "" then
            first := Printf.sprintf "request %d: served %s, in process %s" r.req r.reply
                (Sjson.to_string expected)
      end)
    records;
  check "served replies = in-process handle_line" (!mismatches = 0) (fun () ->
      Printf.sprintf "%d mismatches; first %s" !mismatches !first)

(* --- the workload --- *)

let count_replies records pred =
  List.length
    (List.filter
       (fun r -> match Sjson.parse r.reply with Ok j -> pred j | Error _ -> false)
       records)

let is_memo j = Sjson.member "memo" j = Some (Sjson.Bool true)

let run ~routed ~seed ~seconds ~traced =
  if host_cores () < 2 then begin
    Printf.eprintf "benchmark: the %s workload needs at least 2 cores (host has %d)\n"
      (if routed then "routed" else "serve") (host_cores ());
    exit 2
  end;
  let stream =
    Bench_inputs.request_stream ~seed ~repeat_every:(if routed then Some 4 else None)
  in
  let backend_tbl = Hashtbl.create 1024 and origin_tbl = Hashtbl.create 1024 in
  let inputs = ref [] in
  let next () =
    let r = stream () in
    Hashtbl.replace backend_tbl r.Bench_inputs.index r.Bench_inputs.backend;
    Hashtbl.replace origin_tbl r.Bench_inputs.index r.Bench_inputs.origin;
    if List.length !inputs < 64 then inputs := r.Bench_inputs.trace :: !inputs;
    (r.Bench_inputs.index, Bench_inputs.request_line r)
  in
  let backend_of i = Hashtbl.find backend_tbl i in
  (* Set-up: cold starts timed to the first ok health (three when untraced;
     the median is reported). The last cluster stays up for the load. *)
  let start_timed k =
    scaled_time (fun () ->
        let c = start ~routed k in
        if not (wait_ready c) then failwith "daemons did not become healthy within 120 s";
        c)
  in
  let reps = if traced then 1 else 3 in
  let setups = List.init reps start_timed in
  List.iteri (fun i (c, _) -> if i < reps - 1 then stop c) setups;
  let cluster = fst (List.nth setups (reps - 1)) in
  let setup_times = List.map snd setups in
  let watched = if routed then cluster.front :: cluster.daemons else cluster.daemons in
  let cs = open_conns cluster.front in
  (* [counted] records are held to the no-failure rule; replies from the
     ladder's step above capacity are exempt. *)
  let all_records = ref [] and counted = ref [] in
  let keep ?(exempt = false) s =
    all_records := s.records @ !all_records;
    if not exempt then counted := s.records @ !counted
  in
  let before = List.map counters watched in
  keep (fst (closed_loop cs ~next ~seconds:0.3));
  let metrics, details =
    if not traced then begin
      let fixed = open_loop cs ~next ~rate:fixed_rate ~seconds in
      keep fixed;
      let p50, p90, _, _, _ = step_stats ~backend_of fixed in
      (* Goodput at the offered rate: accesses of the requests answered ok
         within the latency limit, per second from the first scheduled send
         to the last reply. It stays at the offered load while the server
         keeps up and falls when it does not; latency carries the finer
         signal. *)
      let good =
        List.filter
          (fun r -> (not (reply_failed ~backend_of r)) && latency_ms r <= limit_ms)
          fixed.records
      in
      let span_s =
        List.fold_left
          (fun m r -> if Float.is_nan r.reply_at then m else Float.max m r.reply_at)
          0.0 fixed.records
        -. (List.hd fixed.records).sched
      in
      let rss = List.fold_left (fun acc pid -> acc +. peak_rss_mb pid) 0.0 cluster.pids in
      ( [
          metric "setup_s" "s" (Bstats.median setup_times);
          metric "kacc_s" "kacc/s"
            (float_of_int (List.length good * Bench_inputs.request_len) /. span_s /. 1000.0);
          metric "p50_ms" "ms" p50;
          metric "p90_ms" "ms" p90;
          metric "peak_rss_mb" "MB" rss;
        ],
        [
          ("fixed_rate", Sjson.Num fixed_rate);
          ("fixed_late_ms_max", Sjson.Num fixed.late_max_ms);
          ("setup_s_all", Sjson.Arr (List.map (fun x -> Sjson.Num x) setup_times));
        ]
        @ latency_details
            (List.map latency_ms
               (List.filter (fun r -> not (Float.is_nan r.reply_at)) fixed.records)) )
    end
    else begin
      (* Capacity, then the rate ladder, stopping after the first step
         that fails. The load generator stamps every request in either
         mode; the spans are assembled from those stamps after the load, so
         tracing adds nothing while it runs. *)
      let cap, completed = closed_loop cs ~next ~seconds:(0.3 *. seconds) in
      keep cap;
      let rec climb acc = function
        | [] -> List.rev acc
        | (name, rate) :: rest ->
          let s = open_loop cs ~next ~rate ~seconds:(0.7 *. seconds /. float_of_int (List.length ladder)) in
          keep ~exempt:(exempt_step rate) s;
          let p50, p90, p99, n, failed = step_stats ~backend_of s in
          let st =
            {
              Bstats.rate;
              p90_ms = p90;
              failed;
              inflight_end = s.inflight_at_end;
              late_ms_max = s.late_max_ms;
            }
          in
          let acc = (name, st, (p50, p99, n)) :: acc in
          if Bstats.judge_step ~limit_ms st = Bstats.Pass then climb acc rest else List.rev acc
      in
      let steps = climb [] ladder in
      List.iter
        (fun r ->
          if not (Float.is_nan r.reply_at) then begin
            let parent = record_span ~req:r.req "request" ~t0:r.sched ~t1:r.reply_at in
            ignore (record_span ~parent ~req:r.req "loadgen.send" ~t0:r.sched ~t1:r.sent);
            ignore (record_span ~parent ~req:r.req "socket.reply" ~t0:r.sent ~t1:r.reply_at)
          end)
        !all_records;
      let judged = List.map (fun (_, st, _) -> st) steps in
      let verdict st = Bstats.judge_step ~limit_ms st in
      ( [
          metric "trace.overhead_pct" "%" 0.0;
          metric "serve.goodput_rps" "1/s" (Bstats.goodput ~limit_ms judged);
          metric "loadgen.inflight_at_step_end" "count"
            (float_of_int
               (List.fold_left
                  (fun m (_, st, _) ->
                    if verdict st = Bstats.Invalid then m else max m st.Bstats.inflight_end)
                  0 steps));
        ],
        [
          ( "ladder",
            Sjson.Arr
              (List.map
                 (fun (name, (st : Bstats.step), (p50, p99, n)) ->
                   Sjson.Obj
                     [
                       ("step", Sjson.Str name);
                       ("rate", Sjson.Num st.rate);
                       ("p50_ms", Sjson.Num p50);
                       ("p90_ms", Sjson.Num st.p90_ms);
                       ("p99_ms", Sjson.Num p99);
                       ("samples", Sjson.Num (float_of_int n));
                       ("failed", Sjson.Num (float_of_int st.failed));
                       ("inflight_at_end", Sjson.Num (float_of_int st.inflight_end));
                       ("late_ms_max", Sjson.Num st.late_ms_max);
                       ( "verdict",
                         Sjson.Str
                           (match verdict st with
                           | Bstats.Pass -> "pass"
                           | Over_limit -> "p90 over limit"
                           | Failed_replies -> "failed replies"
                           | Backlog -> "backlog"
                           | Invalid -> "invalid: generator late") );
                     ])
                 steps) );
          ("limit_ms", Sjson.Num limit_ms);
          ("capacity_rps", Sjson.Num (float_of_int completed /. cap.duration));
        ] )
    end
  in
  let after = List.map counters watched in
  close_conns cs;
  stop cluster;
  let records = !all_records in
  let deltas = List.map2 delta before after in
  let front = List.hd deltas in
  (* Reconcile what the clients saw with the daemons' own counters: every
     ok reply credits one backend counter on the front; behind a router,
     the backends count every reply the memo did not answer. *)
  List.iter
    (fun (b, _) ->
      let k = backend_key b in
      let seen =
        float_of_int (count_replies records (fun j -> is_ok j && str_field "backend" j = Some b))
      in
      check (k ^ " counted = replies") (counter k front = seen) (fun () ->
          Printf.sprintf "front counted %.0f, clients saw %.0f" (counter k front) seen);
      if routed then begin
        let memo =
          float_of_int
            (count_replies records (fun j -> is_memo j && str_field "backend" j = Some b))
        in
        let upstream =
          List.fold_left (fun acc d -> acc +. counter k d) 0.0 (List.tl deltas)
        in
        check (k ^ " backends counted = replies - memo") (upstream = seen -. memo) (fun () ->
            Printf.sprintf "backends counted %.0f, clients saw %.0f, %.0f from the memo"
              upstream seen memo)
      end)
    Bench_inputs.backend_mix;
  let shed_seen =
    float_of_int (count_replies records (fun j -> str_field "error" j = Some "overloaded"))
  in
  check "shed counted = shed replies" (counter "shed" front = shed_seen) (fun () ->
      Printf.sprintf "front counted %.0f, clients saw %.0f" (counter "shed" front) shed_seen);
  let memo_hits = float_of_int (count_replies records is_memo) in
  if routed then
    check "memo hits counted = memo replies" (counter "memo_hits" front = memo_hits) (fun () ->
        Printf.sprintf "router counted %.0f, clients saw %.0f" (counter "memo_hits" front) memo_hits);
  check_replies records;
  let repeats =
    List.length (List.filter (fun r -> Hashtbl.find origin_tbl r.req <> r.req) records)
  in
  let sum k ds = List.fold_left (fun acc d -> acc +. counter k d) 0.0 ds in
  let layer_counts =
    [
      metric "router.memo_hit_ratio" "ratio" (memo_hits /. float_of_int (max 1 (List.length records)));
      metric "router.retries" "count" (if routed then counter "retries" front else 0.0);
      metric "router.hedges" "count" (if routed then counter "hedges" front else 0.0);
      metric "serve.shed" "count" (sum "shed" deltas);
      metric "serve.degraded" "count" (sum "degraded_count" deltas);
      metric "serve.ws_allocs_growth" "count"
        (sum "ws_allocs" (if routed then List.tl deltas else deltas));
    ]
  in
  {
    metrics = (if traced then metrics @ layer_counts else metrics);
    attempted = List.length !counted;
    failed = List.length (List.filter (reply_failed ~backend_of) !counted);
    details =
      details
      @ [
          ("requests", Sjson.Num (float_of_int (List.length records)));
          ("repeats", Sjson.Num (float_of_int repeats));
          ("memo_hits", Sjson.Num memo_hits);
          ( "counter_deltas",
            Sjson.Obj
              (List.map2
                 (fun path d ->
                   (Filename.basename path, Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.Num v)) d)))
                 watched deltas) );
        ];
    inputs = Array.of_list (List.rev !inputs);
  }
