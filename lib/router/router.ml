(* The cachebox shard router: one front process consistent-hashing wire
   requests across N backend serve daemons.

   Requests are keyed by the canonical config descriptor
   [Cache.config_tag] (and its CRC-32 digest), so every request for one
   cache geometry lands on one shard — its predictions stay hot in that
   backend's batches and in the router's memo. Fault tolerance is end to
   end:

   + per-backend health probes with EWMA latency and consecutive-failure
     ejection ([Backend_health], fed by probes and real requests alike);
   + bounded retry with jittered exponential backoff onto the next ring
     replica ([Hash_ring.successors] is the failover order);
   + a per-backend circuit breaker ([Breaker]) that backs off a shard that
     keeps failing or shedding;
   + hedged per-attempt timeouts that always honor the request deadline;
   + graceful degradation to the in-process HRD/STM baseline — tagged
     [degraded:true, source:"router-..."] — when no replica is usable;
   + a content-addressed prediction memo ([Predmemo]) so identical
     (digest, trace-window) requests short-circuit without an upstream hop.

   Threading mirrors the serve daemon: one [Reactor] owns all client I/O
   and pushes admitted lines into a bounded [Squeue]; a small pool of
   forwarder threads drains it, each talking to backends over blocking
   [Client] connections whose timeout is the per-attempt timeout. One
   connection carries one outstanding request, so replies can never alias
   across requests; idle connections are pooled per backend. A prober
   thread health-checks every backend each interval, so a dead shard is
   ejected within one probe interval even with no traffic, and re-admitted
   by the first successful probe after it returns. *)

type config = {
  listen : Serve_daemon.listen;
  backends : (string * Serve_daemon.listen) list;  (* name -> address *)
  queue_depth : int;
  workers : int;  (* forwarder threads *)
  vnodes : int;
  max_attempts : int;  (* total upstream attempts per request *)
  backoff_base_s : float;
  backoff_max_s : float;
  attempt_timeout_s : float;  (* hedge trigger; clamped to the deadline *)
  reload_timeout_s : float;  (* reloads load and compile a model: generous *)
  probe_interval_s : float;
  probe_timeout_s : float;
  eject_after : int;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  fallback : Cbox_infer.fallback;
  memo_capacity : int;
  default_deadline_s : float;
  max_trace_len : int;
}

let default_config ~listen ~backends =
  {
    listen;
    backends;
    queue_depth = 128;
    workers = 4;
    vnodes = 128;
    max_attempts = 3;
    backoff_base_s = 0.025;
    backoff_max_s = 0.5;
    attempt_timeout_s = 2.0;
    reload_timeout_s = 120.0;
    probe_interval_s = 1.0;
    probe_timeout_s = 0.5;
    eject_after = 3;
    breaker_threshold = 3;
    breaker_cooldown_s = 5.0;
    fallback = Cbox_infer.Fallback_hrd;
    memo_capacity = 256;
    default_deadline_s = 5.0;
    max_trace_len = Validate.default_max_trace_len;
  }

type backend = {
  b_name : string;
  b_listen : Serve_daemon.listen;
  b_health : Backend_health.t;
  b_breaker : Breaker.t;
  b_pool : Client.t list ref;  (* idle persistent upstream conns *)
  b_pm : Mutex.t;
  mutable b_attempts : int;  (* request attempts routed here (not probes) *)
}

type t = {
  cfg : config;
  ring : Hash_ring.t;
  backends : backend array;
  by_name : (string, backend) Hashtbl.t;
  stats : Serve_stats.t;
  memo : Predmemo.t;
  journal : Runlog.t option;
  now : unit -> float;
  draining : bool Atomic.t;
}

type job = { line : string; arrival : float; ticket : Reactor.ticket }

let journal t kind fields = Option.iter (fun j -> Runlog.event j kind fields) t.journal

let record ?backend t ~arrival ~ok ~degraded ~code =
  Serve_stats.record ?backend t.stats ~ok ~degraded ~code
    ~latency_s:(t.now () -. arrival)

let answer ?backend t job ~arrival ~ok ~degraded ~code reply =
  record ?backend t ~arrival ~ok ~degraded ~code;
  Reactor.resolve job.ticket (Sjson.to_string reply)

let answer_error t job ?id ~arrival e =
  answer t job ~arrival ~ok:false ~degraded:false ~code:(Some e.Serve_error.code)
    (Serve_engine.error_reply ?id e)

(* --- shard + memo keys (built from [Cache.config_tag]) --- *)

let shard_key tag = Printf.sprintf "cachebox-shard/1|%s" tag

let trace_digest arr =
  let b = Buffer.create (8 * Array.length arr) in
  Array.iter (fun a -> Buffer.add_int64_le b (Int64.of_int a)) arr;
  Crc32.digest (Buffer.contents b)

(* None = not memoizable (trace files can change on disk under the same
   path, so they are never content-addressed by name). *)
let memo_key tag = function
  | Validate.Inline arr ->
    Some
      (Printf.sprintf "cachebox-predmemo/1|%s|inline:%d:%08x" tag (Array.length arr)
         (trace_digest arr))
  | Validate.Benchmark { name; length } ->
    Some (Printf.sprintf "cachebox-predmemo/1|%s|bench:%s:%d" tag name length)
  | Validate.File _ -> None

let strip_fields json keys =
  match json with
  | Sjson.Obj l -> Sjson.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) l)
  | j -> j

(* --- upstream I/O --- *)

let take_pooled b =
  Mutex.lock b.b_pm;
  let conn = match !(b.b_pool) with
    | conn :: rest ->
      b.b_pool := rest;
      Some conn
    | [] -> None
  in
  Mutex.unlock b.b_pm;
  conn

let give_back b conn =
  Mutex.lock b.b_pm;
  b.b_pool := conn :: !(b.b_pool);
  Mutex.unlock b.b_pm

let flush_pool b =
  Mutex.lock b.b_pm;
  let conns = !(b.b_pool) in
  b.b_pool := [];
  Mutex.unlock b.b_pm;
  List.iter Client.close conns

let run_attempt b conn line ~timeout =
  Client.set_timeout conn timeout;
  match Client.request conn line with
  | Ok reply ->
    give_back b conn;
    `Reply reply
  | Error e -> (
    (* After a timeout the late reply may still arrive on this conn; never
       reuse it, or it would alias against the next request. *)
    Client.close conn;
    match e with
    | Client.Timeout -> `Timeout
    | Client.Eof -> `Down "connection closed by backend"
    | Client.Io why -> `Down why)

(* One bounded-time request/reply exchange. An idle pooled connection may
   have died while parked (backend restart): a transport error on a pooled
   conn flushes the pool and retries once on a fresh connect, so a healthy
   restarted backend is not mistaken for a dead one. *)
let upstream_call b line ~timeout =
  let fresh () =
    match Client.connect b.b_listen with
    | Ok conn -> run_attempt b conn line ~timeout
    | Error why -> `Down why
  in
  match take_pooled b with
  | None -> fresh ()
  | Some fd -> (
    match run_attempt b fd line ~timeout with
    | `Down _ ->
      flush_pool b;
      fresh ()
    | r -> r)

(* --- health bookkeeping (requests and probes feed the same streaks) --- *)

let health_success t b ~latency_s =
  if Backend_health.record_success b.b_health ~latency_s then
    journal t "readmit" [ ("backend", Runlog.S b.b_name) ]

let health_failure t b ~why =
  if Backend_health.record_failure b.b_health then
    journal t "eject" [ ("backend", Runlog.S b.b_name); ("why", Runlog.S why) ]

(* --- routing --- *)

(* All replicas for the key are down/unusable: answer from the in-process
   baseline, tagged so clients and stats can tell router-level degradation
   from backend-level degradation. *)
let degrade t job ~id ~arrival ~cache ~source reason =
  journal t "degraded_router" [ ("reason", Runlog.S reason) ];
  match Validate.resolve_trace ~max_len:t.cfg.max_trace_len source with
  | Error e -> answer_error t job ?id ~arrival e
  | Ok trace -> (
    match Cbox_infer.baseline_hit_rate t.cfg.fallback cache trace with
    | Some hit_rate ->
      Serve_stats.record_degraded_router t.stats;
      let fb = Cbox_infer.fallback_name t.cfg.fallback in
      answer ~backend:fb t job ~arrival ~ok:true ~degraded:true ~code:None
        (Serve_engine.hit_rate_reply ?id ~degraded:true ~source:("router-" ^ fb) ~backend:fb
           ~reason:(Some reason)
           ~latency_ms:(1000.0 *. (t.now () -. arrival))
           hit_rate)
    | None ->
      answer_error t job ?id ~arrival
        (Serve_error.v Serve_error.Upstream_unavailable
           "no live replica for this shard (%s) and fallback is off" reason)
    | exception e -> answer_error t job ?id ~arrival (Serve_error.of_exn e))

let reply_is_shed json =
  (not (Client.is_ok json)) && Client.error_code json = Some Serve_error.Overloaded

(* Forward the final upstream reply verbatim, recording it exactly once in
   client-visible stats — attempts that were shed or failed along the way
   left no mark here (only in retries/hedges and per-backend counters). *)
let finalize t job ~arrival ~memo_key json line =
  let ok = Client.is_ok json and code = Client.error_code json in
  let degraded = Option.bind (Sjson.member "degraded" json) Sjson.to_bool = Some true in
  let backend =
    if ok then Option.bind (Sjson.member "backend" json) Sjson.to_str else None
  in
  record ?backend t ~arrival ~ok ~degraded ~code;
  (match memo_key with
  | Some key
    when ok && (not degraded)
         && Option.bind (Sjson.member "source" json) Sjson.to_str = Some "model" ->
    Predmemo.add t.memo key (strip_fields json [ "id"; "latency_ms"; "memo" ])
  | _ -> ());
  Reactor.resolve job.ticket line

let answer_from_memo t job ~id ~arrival cached =
  let fields = match cached with Sjson.Obj l -> l | j -> [ ("value", j) ] in
  let backend = Option.bind (Sjson.member "backend" cached) Sjson.to_str in
  answer ?backend t job ~arrival ~ok:true ~degraded:false ~code:None
    (Sjson.Obj
       (Serve_engine.base_fields id @ fields
       @ [
           ("latency_ms", Sjson.Num (1000.0 *. (t.now () -. arrival)));
           ("memo", Sjson.Bool true);
         ]))

let route_infer t rng job ~id ~sets ~ways ~source ~deadline_s ~backend =
  let arrival = job.arrival in
  match Validate.cache_config ~sets ~ways () with
  | Error e -> answer_error t job ?id ~arrival e
  | Ok cache -> (
    let budget = Option.value deadline_s ~default:t.cfg.default_deadline_s in
    let deadline = arrival +. budget in
    let tag = Cache.config_tag cache in
    (* The raw line (and its "backend" field) is forwarded verbatim, so the
       memo key must be backend-scoped: an int8 answer may not satisfy a
       float32 request for the same config/trace. An absent field stays
       distinct from an explicit "float32" — the daemon's default backend is
       its own business. *)
    let mtag =
      match backend with
      | None -> tag
      | Some b -> tag ^ "+" ^ Cbox_infer.backend_name b
    in
    let mkey = memo_key mtag source in
    match Option.bind mkey (Predmemo.find t.memo) with
    | Some cached -> answer_from_memo t job ~id ~arrival cached
    | None ->
      let candidates =
        List.filter_map
          (Hashtbl.find_opt t.by_name)
          (Hash_ring.successors t.ring ~key:(shard_key tag)
             (Array.length t.backends))
      in
      let finish_deadline () =
        answer_error t job ?id ~arrival
          (Serve_error.v Serve_error.Deadline_exceeded
             "deadline (%.0f ms) expired while routing" (1000.0 *. budget))
      in
      let rec go attempt =
        let now = t.now () in
        if now >= deadline then finish_deadline ()
        else if attempt >= t.cfg.max_attempts then
          degrade t job ~id ~arrival ~cache ~source "upstream_exhausted"
        else begin
          let usable =
            List.filter
              (fun b -> Backend_health.up b.b_health && Breaker.allow b.b_breaker)
              candidates
          in
          match usable with
          | [] ->
            degrade t job ~id ~arrival ~cache ~source
              (if List.exists (fun b -> Backend_health.up b.b_health) candidates then
                 "breakers_open"
               else "all_backends_down")
          | _ -> (
            let b = List.nth usable (attempt mod List.length usable) in
            let timeout = Float.min t.cfg.attempt_timeout_s (deadline -. now) in
            Mutex.lock b.b_pm;
            b.b_attempts <- b.b_attempts + 1;
            Mutex.unlock b.b_pm;
            let t0 = t.now () in
            match upstream_call b job.line ~timeout with
            | `Reply line -> (
              let latency = t.now () -. t0 in
              match Sjson.parse line with
              | Error _ ->
                Breaker.record_failure b.b_breaker;
                health_failure t b ~why:"garbage reply";
                retry attempt
              | Ok json ->
                if reply_is_shed json then begin
                  (* Alive but shedding: a load signal for the breaker, not
                     a liveness failure. *)
                  Breaker.record_failure b.b_breaker;
                  retry attempt
                end
                else begin
                  Breaker.record_success b.b_breaker;
                  health_success t b ~latency_s:latency;
                  finalize t job ~arrival ~memo_key:mkey json line
                end)
            | `Timeout ->
              (* Hedge: abandon the slow attempt and move on immediately —
                 the wait already burned the backoff budget. *)
              Serve_stats.record_hedge t.stats;
              Breaker.record_failure b.b_breaker;
              health_failure t b ~why:"timeout";
              go (attempt + 1)
            | `Down why ->
              Breaker.record_failure b.b_breaker;
              health_failure t b ~why;
              retry attempt)
        end
      and retry attempt =
        let next = attempt + 1 in
        if next < t.cfg.max_attempts && t.now () < deadline then begin
          Serve_stats.record_retry t.stats;
          (* Jittered exponential backoff, never sleeping past the
             deadline: [min(max, base*2^k) * U(0.5, 1)]. *)
          let ceilinged =
            Float.min
              (t.cfg.backoff_base_s *. (2.0 ** float_of_int attempt))
              t.cfg.backoff_max_s
          in
          let d = ceilinged *. (0.5 +. (0.5 *. Prng.float rng 1.0)) in
          let d = Float.min d (deadline -. t.now () -. 0.001) in
          if d > 0.0 then Thread.delay d
        end;
        go next
      in
      go 0)

(* --- control-plane ops --- *)

let backends_up t =
  Array.fold_left
    (fun acc b -> if Backend_health.up b.b_health then acc + 1 else acc)
    0 t.backends

let health_reply t =
  let up = backends_up t in
  let total = Array.length t.backends in
  Sjson.Obj
    [
      ("ok", Sjson.Bool true);
      ("op", Sjson.Str "health");
      ( "status",
        Sjson.Str (if up = total then "ok" else if up > 0 then "degraded" else "down")
      );
      ("role", Sjson.Str "router");
      ("backends_up", Sjson.Num (float_of_int up));
      ("backends_total", Sjson.Num (float_of_int total));
      ("fallback", Sjson.Str (Cbox_infer.fallback_name t.cfg.fallback));
    ]

let backend_json b =
  Sjson.Obj
    [
      ("name", Sjson.Str b.b_name);
      ("up", Sjson.Bool (Backend_health.up b.b_health));
      ("breaker", Sjson.Str (Breaker.state_name (Breaker.state b.b_breaker)));
      ("ewma_ms", Sjson.Num (Backend_health.ewma_ms b.b_health));
      ( "consecutive_failures",
        Sjson.Num (float_of_int (Backend_health.consecutive_failures b.b_health)) );
      ("attempts", Sjson.Num (float_of_int b.b_attempts));
      ("successes", Sjson.Num (float_of_int (Backend_health.successes b.b_health)));
      ("failures", Sjson.Num (float_of_int (Backend_health.failures b.b_health)));
      ("ejections", Sjson.Num (float_of_int (Backend_health.ejections b.b_health)));
      ( "readmissions",
        Sjson.Num (float_of_int (Backend_health.readmissions b.b_health)) );
    ]

(* The router credits whichever backend the upstream reply names. *)
let stats_reply t =
  Sjson.Obj
    (Serve_engine.stats_fields (Serve_stats.snapshot t.stats)
       [
         ("role", Sjson.Str "router");
         ("memo_hits", Sjson.Num (float_of_int (Predmemo.hits t.memo)));
         ("memo_entries", Sjson.Num (float_of_int (Predmemo.length t.memo)));
         ("backends_up", Sjson.Num (float_of_int (backends_up t)));
         ("backends", Sjson.Arr (Array.to_list (Array.map backend_json t.backends)));
       ])

(* Rolling reload across every backend, one at a time, so at most one shard
   is reloading a model at any moment while the others keep serving. The
   memo is cleared afterwards — the old model's predictions are stale. *)
let broadcast_reload t job ~id ~checkpoint =
  let arrival = job.arrival in
  let line =
    Sjson.to_string
      (Sjson.Obj
         (("op", Sjson.Str "reload")
         :: (match checkpoint with
            | None -> []
            | Some c -> [ ("checkpoint", Sjson.Str c) ])))
  in
  let results =
    Array.to_list
      (Array.map
         (fun b ->
           let outcome =
             match upstream_call b line ~timeout:t.cfg.reload_timeout_s with
             | `Reply l -> (
               match Sjson.parse l with
               | Ok json -> strip_fields json [ "id" ]
               | Error _ ->
                 Serve_engine.error_reply
                   (Serve_error.v Serve_error.Internal "garbage reply"))
             | `Timeout ->
               Serve_engine.error_reply
                 (Serve_error.v Serve_error.Deadline_exceeded "reload timed out")
             | `Down why ->
               Serve_engine.error_reply
                 (Serve_error.v Serve_error.Upstream_unavailable "%s" why)
           in
           ( b.b_name,
             match outcome with
             | Sjson.Obj l -> Sjson.Obj (("backend", Sjson.Str b.b_name) :: l)
             | j -> j ))
         t.backends)
  in
  Predmemo.clear t.memo;
  let all_ok = List.for_all (fun (_, j) -> Client.is_ok j) results in
  journal t "reload_broadcast"
    [ ("ok", Runlog.B all_ok); ("backends", Runlog.I (List.length results)) ];
  let code =
    if all_ok then None else List.find_map (fun (_, j) -> Client.error_code j) results
  in
  answer t job ~arrival ~ok:all_ok ~degraded:false ~code
    (Sjson.Obj
       (Serve_engine.base_fields id
       @ [ ("ok", Sjson.Bool all_ok); ("op", Sjson.Str "reload") ]
       @ (match code with
         | Some c when not all_ok ->
           (* Surface the first backend's taxonomy code at top level so
              [cachebox call] exits with the real cause, not [internal]. *)
           [ ("error", Sjson.Str (Serve_error.code_string c)) ]
         | _ -> [])
       @ [ ("results", Sjson.Arr (List.map snd results)) ]))

(* --- the serving loops --- *)

let shed_reply t ~why =
  Serve_stats.shed t.stats;
  Serve_engine.error_reply (Serve_error.v Serve_error.Overloaded "%s" why)

let process t rng queue job =
  if Atomic.get t.draining then
    Reactor.resolve job.ticket (Sjson.to_string (shed_reply t ~why:"router shutting down"))
  else
    let arrival = job.arrival in
    match Validate.request ~max_trace_len:t.cfg.max_trace_len job.line with
    | Error e -> answer_error t job ~arrival e
    | Ok Validate.Health ->
      answer t job ~arrival ~ok:true ~degraded:false ~code:None (health_reply t)
    | Ok Validate.Stats_request ->
      answer t job ~arrival ~ok:true ~degraded:false ~code:None (stats_reply t)
    | Ok Validate.Shutdown ->
      journal t "router_stop" [];
      Atomic.set t.draining true;
      answer t job ~arrival ~ok:true ~degraded:false ~code:None
        (Sjson.Obj [ ("ok", Sjson.Bool true); ("op", Sjson.Str "shutdown") ]);
      Squeue.close queue
    | Ok (Validate.Reload { id; checkpoint }) -> broadcast_reload t job ~id ~checkpoint
    | Ok
        ( Validate.Stream_open { id; _ }
        | Validate.Stream_feed { id; _ }
        | Validate.Stream_resume { id; _ }
        | Validate.Stream_close { id; _ } ) ->
      (* Streaming sessions are stateful and bound to one backend's
         session registry; a hit-rate-hashing forwarder cannot carry
         them. Clients stream against a shard daemon directly. *)
      answer_error t job ~arrival ?id
        (Serve_error.v Serve_error.Bad_request
           "stream ops are not routable; connect to a backend daemon directly")
    | Ok (Validate.Infer { id; sets; ways; source; deadline_s; backend }) ->
      route_infer t rng job ~id ~sets ~ways ~source ~deadline_s ~backend

(* Total: a forwarder that dies would strand its ticket and hang the
   client's FIFO; any escaped exception becomes an internal reply. *)
let process_total t rng queue job =
  match process t rng queue job with
  | () -> ()
  | exception e ->
    let e = { (Serve_error.of_exn e) with Serve_error.code = Serve_error.Internal } in
    answer_error t job ~arrival:job.arrival e

let worker_loop t queue k () =
  let rng = Prng.of_label (Printf.sprintf "router-worker-%d" k) in
  let rec go () =
    match Squeue.pop queue with
    | None -> ()
    | Some job ->
      process_total t rng queue job;
      go ()
  in
  go ()

let prober_loop t stop () =
  let line = Sjson.to_string (Sjson.Obj [ ("op", Sjson.Str "health") ]) in
  while not (Atomic.get stop) do
    Array.iter
      (fun b ->
        if not (Atomic.get stop) then begin
          let t0 = t.now () in
          match upstream_call b line ~timeout:t.cfg.probe_timeout_s with
          | `Reply _ -> health_success t b ~latency_s:(t.now () -. t0)
          | `Timeout -> health_failure t b ~why:"probe timeout"
          | `Down why -> health_failure t b ~why:("probe: " ^ why)
        end)
      t.backends;
    let slept = ref 0.0 in
    while (not (Atomic.get stop)) && !slept < t.cfg.probe_interval_s do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

let make_backend cfg (name, listen) =
  (* An unresolvable host is a config error at startup, not a dead shard. *)
  ignore (Serve_daemon.sockaddr listen);
  {
    b_name = name;
    b_listen = listen;
    b_health = Backend_health.create ~eject_after:cfg.eject_after ();
    b_breaker =
      Breaker.create ~threshold:cfg.breaker_threshold ~cooldown:cfg.breaker_cooldown_s
        ~now:Unix.gettimeofday ();
    b_pool = ref [];
    b_pm = Mutex.create ();
    b_attempts = 0;
  }

let run ?journal ?(ready = fun () -> ()) (config : config) =
  if config.backends = [] then
    Serve_error.fail Serve_error.Invalid_config "router needs at least one backend";
  let names = List.map fst config.backends in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    Serve_error.fail Serve_error.Invalid_config "backend names must be distinct";
  if config.workers < 1 then
    Serve_error.fail Serve_error.Invalid_config "router needs at least one worker";
  (* Settings under which the router could never forward a request, or
     would probe in a busy loop. *)
  if config.max_attempts < 1 then
    Serve_error.fail Serve_error.Invalid_config "router needs at least one attempt";
  List.iter
    (fun (what, v) ->
      if not (v > 0.0) then
        Serve_error.fail Serve_error.Invalid_config "%s must be positive (got %g s)" what v)
    [
      ("default deadline", config.default_deadline_s);
      ("attempt timeout", config.attempt_timeout_s);
      ("probe interval", config.probe_interval_s);
    ];
  (* Upstream writes race with backend crashes by design; a broken pipe
     must surface as EPIPE on the write, not kill the router. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* As in the daemon: whatever a configured number can make a constructor
     reject is built before the socket is bound. *)
  let t, queue =
    try
      let t =
        {
          cfg = config;
          ring = Hash_ring.create ~vnodes:config.vnodes names;
          backends = Array.of_list (List.map (make_backend config) config.backends);
          by_name = Hashtbl.create 8;
          stats = Serve_stats.create ();
          memo = Predmemo.create ~capacity:config.memo_capacity;
          journal;
          now = Unix.gettimeofday;
          draining = Atomic.make false;
        }
      in
      (t, (Squeue.create ~capacity:config.queue_depth : job Squeue.t))
    with Invalid_argument m -> Serve_error.fail Serve_error.Invalid_config "%s" m
  in
  Array.iter (fun b -> Hashtbl.replace t.by_name b.b_name b) t.backends;
  let listener = Serve_daemon.bind_listener config.listen in
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  Option.iter
    (fun j ->
      Runlog.event j "router_start"
        [
          ("backends", Runlog.I (Array.length t.backends));
          ("workers", Runlog.I config.workers);
          ("vnodes", Runlog.I config.vnodes);
        ])
    journal;
  let reactor = Reactor.create ~listener () in
  Reactor.set_on_line reactor (fun ticket line ->
      if Atomic.get t.draining then
        Reactor.resolve ticket
          (Sjson.to_string (shed_reply t ~why:"router shutting down"))
      else begin
        let job = { line; arrival = t.now (); ticket } in
        if not (Squeue.try_push queue job) then
          Reactor.resolve ticket
            (Sjson.to_string (shed_reply t ~why:"request queue full"))
      end);
  let workers =
    List.init config.workers (fun k -> Thread.create (worker_loop t queue k) ())
  in
  let stop_probe = Atomic.make false in
  let prober = Thread.create (prober_loop t stop_probe) () in
  (* Workers exit once the queue is closed (shutdown op) and drained; only
     then may the reactor stop, with every ticket resolved. *)
  let closer =
    Thread.create
      (fun () ->
        List.iter Thread.join workers;
        Atomic.set stop_probe true;
        Thread.join prober;
        Reactor.stop reactor)
      ()
  in
  ready ();
  Reactor.run reactor;
  Thread.join closer;
  Array.iter flush_pool t.backends;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  match config.listen with
  | Serve_daemon.Unix_socket path -> (
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Serve_daemon.Tcp _ -> ()
