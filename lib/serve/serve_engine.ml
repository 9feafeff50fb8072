type config = {
  fallback : Cbox_infer.fallback;
  default_backend : Cbox_infer.backend;
  default_deadline_s : float;
  max_trace_len : int;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  grace_lo : float;
  grace_hi : float;
}

let default_config ?(fallback = Cbox_infer.Fallback_hrd)
    ?(default_backend = Cbox_infer.Backend_float32) () =
  {
    fallback;
    default_backend;
    default_deadline_s = 5.0;
    max_trace_len = Validate.default_max_trace_len;
    breaker_threshold = 3;
    breaker_cooldown_s = 5.0;
    grace_lo = -0.25;
    grace_hi = 1.25;
  }

type reload_spec = {
  reload_seed : int;
  reload_model_cfg : Cbgan.config;
  reload_default_path : string option;
  reload_student_path : string option;
      (* student checkpoint re-read on every reload so SIGHUP hot-swaps the
         distilled backend along with the teacher *)
}

(* --- the backend table ---

   One generation of learned backends: each rung's compiled program (None
   means the backend is not loaded) and the rung a failure falls to. The
   list is in ladder order — every rung precedes the rung it falls to — so
   one left fold over it runs a whole batch down the ladder. *)

type rung = {
  program : Cbox_infer.generator option;
  falls_to : Cbox_infer.backend option;
      (* a failure here re-runs on that rung, flagged, breaker untouched;
         None on the float32 rung, whose failures are model faults *)
}

type generation = (Cbox_infer.backend * rung) list

let rung gen b = List.assoc b gen
let loaded gen b = Option.is_some (rung gen b).program

(* The backend's name as a reason prefix and stats key: backend_student_int8. *)
let key_of b = String.map (fun c -> if c = '-' then '_' else c) (Cbox_infer.backend_name b)

let resolve gen b =
  let rec go reason b =
    let r = rung gen b in
    match r.program with
    | Some g -> Some (g, b, reason)
    | None -> Option.bind r.falls_to (go (Some (key_of b ^ "_unavailable")))
  in
  go None b

let generation ?prev ?only ?(on_reject = fun _ _ -> ()) ~spec ~model ?student_path () =
  (* A float model's program and its int8 compile, both built entirely off
     to the side. Both compiles are eager, so no rung pays packing or
     calibration on the serving path; an int8 compile that fails leaves its
     rung empty and its requests fall to float32. *)
  let family ~compile_float ~compile_int8 ~int8 m =
    let g = compile_float m in
    let q =
      if Option.fold ~none:false ~some:(( <> ) int8) only then None
      else try Some (Cbox_infer.of_qgen (compile_int8 m)) with _ -> None
    in
    (Some g, q)
  in
  let teacher, int8 =
    match model with
    | None -> (None, None)
    | Some m ->
      family ~compile_float:Cbox_infer.of_cbgan ~compile_int8:(Qgen.of_model ~spec)
        ~int8:Cbox_infer.Backend_int8 m
  in
  (* The student is optional and independent: no path, or a checkpoint that
     fails to load (missing, corrupt, wrong schema), keeps the previous
     generation's student rungs — none at startup. A bad student artifact
     must never degrade a fleet that was serving fine. *)
  let student, student_int8 =
    let keep () =
      match prev with
      | None -> (None, None)
      | Some g ->
        ( (rung g Cbox_infer.Backend_student).program,
          (rung g Cbox_infer.Backend_student_int8).program )
    in
    match student_path with
    | None -> keep ()
    | Some p -> (
      match Student.load p with
      | s ->
        family ~compile_float:Cbox_infer.of_student ~compile_int8:(Qgen.of_student ~spec)
          ~int8:Cbox_infer.Backend_student_int8 s
      | exception e ->
        on_reject p (Printexc.to_string e);
        keep ())
  in
  let derived program = { program; falls_to = Some Cbox_infer.Backend_float32 } in
  [
    (Cbox_infer.Backend_int8, derived int8);
    (Cbox_infer.Backend_student, derived student);
    (Cbox_infer.Backend_student_int8, derived student_int8);
    (Cbox_infer.Backend_float32, { program = teacher; falls_to = None });
  ]

type t = {
  cfg : config;
  spec : Heatmap.spec;
  now : unit -> float;
  journal : Runlog.t option;
  mutable gen : generation;
      (* read once per batch, replaced by one write per reload: a batch
         never pairs one generation's teacher with another's compile *)
  breaker : Breaker.t;
  stats : Serve_stats.t;
  em : Mutex.t;  (* guards ewma_model_s and req_count across entrants *)
  mutable ewma_model_s : float;  (* 0 until the first model inference *)
  mutable req_count : int;
  reload : reload_spec option;
  rm : Mutex.t;  (* held for the duration of a reload; try_lock rejects overlap *)
  mutable reloads : int;
  mutable reload_failures : int;
  mutable extra_stats : unit -> (string * Sjson.t) list;
      (* extension point: the stream-session manager contributes its gauges
         to the stats reply without the engine depending on it *)
}

let create ?now ?journal ?reload ?student_path ~spec ~model cfg =
  (* Settings under which no infer could ever be answered. *)
  if not (cfg.default_deadline_s > 0.0) then
    invalid_arg "Serve_engine.create: default_deadline_s must be > 0";
  if cfg.max_trace_len < Heatmap.accesses_per_image spec then
    invalid_arg
      (Printf.sprintf "Serve_engine.create: max_trace_len must be >= %d (one heatmap image)"
         (Heatmap.accesses_per_image spec));
  let now = Option.value now ~default:Unix.gettimeofday in
  let on_reject p why =
    Option.iter
      (fun j ->
        Runlog.event j "student_reject" [ ("path", Runlog.S p); ("why", Runlog.S why) ])
      journal
  in
  {
    cfg;
    spec;
    now;
    journal;
    gen = generation ~on_reject ~spec ~model ?student_path ();
    breaker =
      Breaker.create ~threshold:cfg.breaker_threshold ~cooldown:cfg.breaker_cooldown_s ~now
        ();
    stats = Serve_stats.create ();
    em = Mutex.create ();
    ewma_model_s = 0.0;
    req_count = 0;
    reload;
    rm = Mutex.create ();
    reloads = 0;
    reload_failures = 0;
    extra_stats = (fun () -> []);
  }

let model_of_checkpoint ~seed model_cfg ~path =
  if not (Sys.file_exists path) then
    Error (Serve_error.v Serve_error.Model_unavailable "checkpoint %s not found" path)
  else
    Validate.load_checkpoint (fun () ->
        let model = Cbgan.create ~seed model_cfg in
        Cbgan.load model path;
        model)

let journal t kind fields = Option.iter (fun j -> Runlog.event j kind fields) t.journal

let stats t = Serve_stats.snapshot t.stats
let breaker_state t = Breaker.state t.breaker
let model_loaded t = loaded t.gen Cbox_infer.Backend_float32
let student_loaded t = loaded t.gen Cbox_infer.Backend_student
let requests_seen t = t.req_count
let reloads t = t.reloads
let now t = t.now ()
let spec t = t.spec
let set_extra_stats t f = t.extra_stats <- f

(* --- zero-downtime reload ---

   Load and compile the new checkpoint (and re-read the student's) entirely
   off to the side, then hand the new generation over with one field write.
   In-flight batches read [t.gen] at batch start, so they drain on the old
   generation; the next batch picks up the new one. Nothing below ever
   blocks the serving path: overlapping reloads are rejected ([try_lock]),
   and a checkpoint that fails to load leaves the old generation serving
   untouched. *)
let reload t ?path () =
  match t.reload with
  | None ->
    Error
      (Serve_error.v Serve_error.Invalid_config
         "daemon has no reload source (started without a model configuration)")
  | Some r -> (
    let resolved =
      match (path, r.reload_default_path) with
      | Some p, _ | None, Some p -> Ok p
      | None, None ->
        Error
          (Serve_error.v Serve_error.Bad_request
             "reload needs a \"checkpoint\" path (daemon has no default)")
    in
    match resolved with
    | Error e -> Error e
    | Ok path ->
      if not (Mutex.try_lock t.rm) then
        Error (Serve_error.v Serve_error.Overloaded "reload already in progress")
      else
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.rm)
          (fun () ->
            journal t "reload_start" [ ("path", Runlog.S path) ];
            match model_of_checkpoint ~seed:r.reload_seed r.reload_model_cfg ~path with
            | Error e ->
              t.reload_failures <- t.reload_failures + 1;
              journal t "reload_reject"
                [ ("path", Runlog.S path); ("why", Runlog.S e.Serve_error.message) ];
              Error e
            | Ok m ->
              t.gen <-
                generation ~prev:t.gen
                  ~on_reject:(fun p why ->
                    journal t "student_reject"
                      [ ("path", Runlog.S p); ("why", Runlog.S why) ])
                  ~spec:t.spec ~model:(Some m) ?student_path:r.reload_student_path ();
              t.reloads <- t.reloads + 1;
              journal t "reload_ok"
                [ ("path", Runlog.S path); ("generation", Runlog.I t.reloads) ];
              Ok ()))

(* --- reply construction --- *)

let base_fields id = match id with None -> [] | Some id -> [ ("id", Sjson.Str id) ]

let error_reply ?id (e : Serve_error.t) =
  Sjson.Obj
    (base_fields id
    @ [
        ("ok", Sjson.Bool false);
        ("error", Sjson.Str (Serve_error.code_string e.Serve_error.code));
        ("message", Sjson.Str e.Serve_error.message);
      ])

let hit_rate_reply ?id ~degraded ~source ~backend ~reason ~latency_ms hit_rate =
  Sjson.Obj
    (base_fields id
    @ [
        ("ok", Sjson.Bool true);
        ("op", Sjson.Str "infer");
        ("hit_rate", Sjson.Num hit_rate);
        ("degraded", Sjson.Bool degraded);
        ("source", Sjson.Str source);
        ("backend", Sjson.Str backend);
      ]
    @ (match reason with None -> [] | Some r -> [ ("reason", Sjson.Str r) ])
    @ [ ("latency_ms", Sjson.Num latency_ms) ])

let backend_counter b = "backend_" ^ key_of b

let stats_fields (s : Serve_stats.summary) extra =
  let num n = Sjson.Num (float_of_int n) in
  [
    ("ok", Sjson.Bool true);
    ("op", Sjson.Str "stats");
    ("served", num s.served);
    ("ok_count", num s.ok);
    ("degraded_count", num s.degraded);
    ("shed", num s.shed);
    ("p50_ms", Sjson.Num s.p50_ms);
    ("p99_ms", Sjson.Num s.p99_ms);
    (* Routing counters are zero on a plain backend; the router fills
       them in. Present everywhere so the stats schema is uniform. *)
    ("retries", num s.retries);
    ("hedges", num s.hedges);
    ("degraded_router", num s.degraded_router);
  ]
  @ extra
  (* All six backends, so clients can take deltas without existence checks. *)
  @ List.map
      (fun b ->
        ( backend_counter b,
          num
            (Option.value ~default:0
               (List.assoc_opt (Cbox_infer.backend_name b) s.backends)) ))
      Cbox_infer.backends
  @ List.map (fun (code, n) -> ("err_" ^ code, num n)) s.errors

let health_reply t =
  let breaker = Breaker.state t.breaker in
  let healthy = model_loaded t && breaker = Breaker.Closed in
  Sjson.Obj
    [
      ("ok", Sjson.Bool true);
      ("op", Sjson.Str "health");
      ("status", Sjson.Str (if healthy then "ok" else "degraded"));
      ("model_loaded", Sjson.Bool (model_loaded t));
      ("student_loaded", Sjson.Bool (student_loaded t));
      ("breaker", Sjson.Str (Breaker.state_name breaker));
      ("fallback", Sjson.Str (Cbox_infer.fallback_name t.cfg.fallback));
    ]

let stats_reply t =
  let s = Serve_stats.snapshot t.stats in
  let num n = Sjson.Num (float_of_int n) in
  Sjson.Obj
    (stats_fields s
       ([
          (* Model forwards run, and the most items one carried: whether work
             that queued behind a running forward shared the next one. *)
          ("batches", num s.batches);
          ("max_batch", num s.max_batch);
          ("breaker", Sjson.Str (Breaker.state_name (Breaker.state t.breaker)));
          ("breaker_opens", num (Breaker.times_opened t.breaker));
          (* Workspace-arena counters: ws_allocs should plateau after the first
             requests; steady growth under load means scratch buffers are not
             being reused (an allocation regression). *)
          ("ws_allocs", num (Workspace.alloc_count ()));
          ("ws_borrows", num (Workspace.borrow_count ()));
          ("reloads", num t.reloads);
          ("reload_failures", num t.reload_failures);
        ]
       @ t.extra_stats ()))

(* --- inference --- *)

let record_and_reply ?backend t ~arrival ~ok ~degraded ~code reply =
  Serve_stats.record ?backend t.stats ~ok ~degraded ~code
    ~latency_s:(t.now () -. arrival);
  reply

let internal_reply ?id t ~arrival exn =
  let e = { (Serve_error.of_exn exn) with Serve_error.code = Serve_error.Internal } in
  record_and_reply t ~arrival ~ok:false ~degraded:false ~code:(Some Serve_error.Internal)
    (error_reply ?id e)

(* An analytical answer from [fallback]'s predictor. With a [reason] it is
   the bottom rung of the ladder: flagged [degraded] and journalled. With
   none it is an explicitly requested hrd/stm backend: a first-class,
   non-degraded answer that needs no model and never touches the breaker. *)
let baseline t ~arrival ~id ~fallback ~reason cache trace =
  let degraded = reason <> None in
  match Cbox_infer.baseline_hit_rate fallback cache trace with
  | Some hit_rate ->
    let name = Cbox_infer.fallback_name fallback in
    Option.iter
      (fun r ->
        journal t "degraded" [ ("reason", Runlog.S r); ("source", Runlog.S name) ])
      reason;
    record_and_reply t ~backend:name ~arrival ~ok:true ~degraded ~code:None
      (hit_rate_reply ?id ~degraded ~source:name ~backend:name ~reason
         ~latency_ms:(1000.0 *. (t.now () -. arrival))
         hit_rate)
  | None ->
    let reason = Option.value reason ~default:"" in
    let code =
      if reason = "deadline" then Serve_error.Deadline_exceeded
      else Serve_error.Model_unavailable
    in
    let e = Serve_error.v code "learned model unusable (%s) and fallback is off" reason in
    record_and_reply t ~arrival ~ok:false ~degraded:false ~code:(Some code)
      (error_reply ?id e)
  | exception e ->
    let e = Serve_error.of_exn e in
    record_and_reply t ~arrival ~ok:false ~degraded:false
      ~code:(Some e.Serve_error.code) (error_reply ?id e)

(* --- hooks for the stream-session layer (Stream_session) ---

   The session manager answers on its own (quota sheds, poisoned sessions,
   protocol misuse, per-window degradation) but must keep the engine's
   counters and journal truthful, so its replies route through these. *)

let shed_reply ?id ?why t e =
  Serve_stats.shed t.stats;
  journal t "shed" (match why with None -> [] | Some w -> [ ("why", Runlog.S w) ]);
  error_reply ?id e

let error_reply_counted ?id t ~arrival (e : Serve_error.t) =
  record_and_reply t ~arrival ~ok:false ~degraded:false ~code:(Some e.Serve_error.code)
    (error_reply ?id e)

let ok_counted t ~arrival json =
  record_and_reply t ~arrival ~ok:true ~degraded:false ~code:None json

let degraded_reply ?id t ~arrival ~reason cache trace =
  baseline t ~arrival ~id ~fallback:t.cfg.fallback ~reason:(Some reason) cache trace

let journal_breaker_transition t before =
  let after = Breaker.state t.breaker in
  if after <> before then
    journal t "breaker"
      [
        ("from", Runlog.S (Breaker.state_name before));
        ("to", Runlog.S (Breaker.state_name after));
      ]

let next_index t =
  Mutex.lock t.em;
  t.req_count <- t.req_count + 1;
  let i = t.req_count in
  Mutex.unlock t.em;
  i

let update_ewma t dur =
  Mutex.lock t.em;
  t.ewma_model_s <-
    (if t.ewma_model_s = 0.0 then dur else (0.7 *. t.ewma_model_s) +. (0.3 *. dur));
  Mutex.unlock t.em

let ewma t =
  Mutex.lock t.em;
  let v = t.ewma_model_s in
  Mutex.unlock t.em;
  v

type outcome = Reply of Sjson.t | Shutdown_reply of Sjson.t

(* Perform a reload and build the wire reply. Total: callers may run this
   on a dedicated thread with nothing above it to catch exceptions. *)
let do_reload t ~arrival ~id ~checkpoint =
  match reload t ?path:checkpoint () with
  | Ok () ->
    record_and_reply t ~arrival ~ok:true ~degraded:false ~code:None
      (Sjson.Obj
         (base_fields id
         @ [
             ("ok", Sjson.Bool true);
             ("op", Sjson.Str "reload");
             ("reloads", Sjson.Num (float_of_int t.reloads));
             ("latency_ms", Sjson.Num (1000.0 *. (t.now () -. arrival)));
           ]))
  | Error e ->
    record_and_reply t ~arrival ~ok:false ~degraded:false ~code:(Some e.Serve_error.code)
      (error_reply ?id e)
  | exception e -> internal_reply ?id t ~arrival e

(* --- batched execution ---

   Every infer request runs through [infer_batch]: the daemon's batcher
   thread hands it whatever was queued together, and [handle_line] a batch
   of one. *)

type infer_item = {
  item_id : string option;
  item_arrival : float;
  item_index : int;  (* admission order; the fault-injection index *)
  item_cache : Cache.config;
  item_trace : int array;
  item_access : Tensor.t option;
      (* prebuilt access heatmap (a streamed window blitted out of
         Heatmap.Accum); None = build from item_trace as usual. The trace
         is still carried for the analytical-baseline degradation path. *)
  item_deadline : float;  (* absolute, on the engine clock *)
  item_backend : Cbox_infer.backend;  (* resolved (request or daemon default) *)
}

type classified =
  | Immediate of outcome
  | Batchable of infer_item
  | Deferred of (unit -> outcome)
      (* slow control-plane work (reload): run the thunk off the batcher
         thread so model loading never stalls the serving path *)
  | Stream of Validate.request
      (* a stream_* op: the daemon hands it to the session manager with
         its connection identity and completion callbacks *)

(* One streamed window as a batchable item: the access heatmap was already
   blitted out of the session's accumulator (bit-identical to of_trace on
   the window's trace), and the window's trace tail rides along so the
   degradation ladder (HRD/STM per window) and fault containment work
   exactly as they do for offline requests. Stamped with the engine's
   admission index, so CACHEBOX_FAULT indices reach streamed windows. *)
let stream_item t ~arrival ~cache ~trace ~access =
  {
    item_id = None;
    item_arrival = arrival;
    item_index = next_index t;
    item_cache = cache;
    item_trace = trace;
    item_access = Some access;
    item_deadline = arrival +. t.cfg.default_deadline_s;
    item_backend = t.cfg.default_backend;
  }

let classify_request t ~arrival req =
  match req with
  | Validate.Infer { id; sets; ways; source; deadline_s; backend } -> (
    let fail_with e = Immediate (Reply (error_reply_counted ?id t ~arrival e)) in
    match
      match Validate.cache_config ~sets ~ways () with
      | Error e -> fail_with e
      | Ok cache -> (
        match Validate.resolve_trace ~max_len:t.cfg.max_trace_len source with
        | Error e -> fail_with e
        | Ok trace -> (
          match Validate.trace_for_spec t.spec ~max_len:t.cfg.max_trace_len trace with
          | Error e -> fail_with e
          | Ok () ->
            let budget = Option.value deadline_s ~default:t.cfg.default_deadline_s in
            Batchable
              {
                item_id = id;
                item_arrival = arrival;
                item_index = next_index t;
                item_cache = cache;
                item_trace = trace;
                item_access = None;
                item_deadline = arrival +. budget;
                item_backend = Option.value backend ~default:t.cfg.default_backend;
              }))
    with
    | c -> c
    | exception e -> Immediate (Reply (internal_reply ?id t ~arrival e)))
  | Validate.Reload { id; checkpoint } ->
    Deferred (fun () -> Reply (do_reload t ~arrival ~id ~checkpoint))
  | ( Validate.Stream_open _ | Validate.Stream_feed _ | Validate.Stream_resume _
    | Validate.Stream_close _ ) as req ->
    Stream req
  | Validate.Health -> Immediate (Reply (ok_counted t ~arrival (health_reply t)))
  | Validate.Stats_request -> Immediate (Reply (ok_counted t ~arrival (stats_reply t)))
  | Validate.Shutdown ->
    journal t "serve_stop" [];
    Immediate
      (Shutdown_reply
         (ok_counted t ~arrival
            (Sjson.Obj [ ("ok", Sjson.Bool true); ("op", Sjson.Str "shutdown") ])))

let classify_line ?arrival t line =
  let arrival = Option.value arrival ~default:(t.now ()) in
  match Validate.request ~max_trace_len:t.cfg.max_trace_len line with
  | Error e -> Immediate (Reply (error_reply_counted t ~arrival e))
  | Ok req -> classify_request t ~arrival req

(* Per-item execution plan, decided once at batch start: the admission
   decision (breaker state, headroom) is made for the whole batch, so a
   breaker that trips while the batch runs affects the NEXT batch, not
   batch mates that already went through the shared forward pass. *)
type plan =
  | P_expired
  | P_analytic of Cbox_infer.fallback  (* explicitly requested hrd/stm *)
  | P_baseline of string  (* degradation reason *)
  | P_fault of string  (* model fault raised before the forward *)
  | P_forward

let infer_batch t items =
  match items with
  | [] -> []
  | _ ->
    let t0 = t.now () in
    (* Read the backend table once: a concurrent reload swaps it with one
       field write, and this batch drains entirely on the generation it
       started with. *)
    let gen = t.gen in
    let have_model = loaded gen Cbox_infer.Backend_float32 in
    let model_usable = have_model && Breaker.allow t.breaker in
    let est = ewma t in
    let pairs =
      List.map
        (fun it ->
          let plan =
            if t0 > it.item_deadline then P_expired
            else
              match it.item_backend with
              | Cbox_infer.Backend_hrd -> P_analytic Cbox_infer.Fallback_hrd
              | Cbox_infer.Backend_stm -> P_analytic Cbox_infer.Fallback_stm
              | Cbox_infer.Backend_float32 | Cbox_infer.Backend_int8
              | Cbox_infer.Backend_student | Cbox_infer.Backend_student_int8 ->
                if not model_usable then
                  P_baseline (if have_model then "breaker_open" else "model_unavailable")
                else if t0 +. est > it.item_deadline then P_baseline "deadline"
                else if Faultinject.checkpoint_fault ~index:it.item_index then
                  P_fault "checkpoint unreadable (injected fault)"
                else P_forward
          in
          (it, plan))
        items
    in
    let fwd = List.filter_map (fun (it, p) -> if p = P_forward then Some it else None) pairs in
    List.iter (fun it -> if Faultinject.crash_now ~index:it.item_index then Unix._exit 42) fwd;
    (* A slow (or hung) fault stalls the whole batch (the forward pass is
       shared), by the summed delay of its items. *)
    let slow =
      List.fold_left
        (fun acc it ->
          acc
          +. Faultinject.slow_delay ~index:it.item_index
          +. Faultinject.hang_delay ~index:it.item_index)
        0.0 fwd
    in
    if slow > 0.0 then Unix.sleepf slow;
    let n_fwd = List.length fwd in
    (* item_index -> Ok (hit rate, serving backend, degradation reason) or
       the fault that stops this item trusting the model family at all. *)
    let results : (int, (float * string * string option, string) result) Hashtbl.t =
      Hashtbl.create 16
    in
    (if n_fwd > 0 then begin
       let input_of it =
         ( it.item_cache,
           match it.item_access with
           | Some img -> [ img ]
           | None -> Heatmap.of_trace t.spec it.item_trace )
       in
       (* Score one rung's group — one homogeneous batched forward of its
          program; backends never mix inside a forward pass — and record
          each item's validated hit rate (or why it failed). A raised
          forward is returned for the ladder to decide. *)
       let score backend g group =
         let inputs = List.map (fun (it, _) -> input_of it) group in
         match Cbox_infer.run g t.spec inputs with
         | synth ->
           List.iter2
             (fun (it, reason) ((_, access), syn) ->
               Faultinject.poison_output ~index:it.item_index syn;
               let r =
                 match Heatmap.hit_rate t.spec ~access ~miss:syn with
                 | raw ->
                   Cbox_infer.validate_hit_rate ~lo:t.cfg.grace_lo ~hi:t.cfg.grace_hi raw
                 | exception e -> Error (Printexc.to_string e)
               in
               Hashtbl.replace results it.item_index
                 (Result.map (fun hr -> (hr, Cbox_infer.backend_name backend, reason)) r))
             group
             (List.combine inputs synth);
           Ok ()
         | exception e -> Error (Printexc.to_string e)
       in
       (* One fold down the ladder. Each rung scores the items that asked
          for it plus those that fell to it. A rung with somewhere to fall
          hands on every failure — not loaded, a raised forward, an invalid
          answer — flagged [<rung>_unavailable] or [<rung>_fault], without
          touching the breaker: trouble in a derived model says nothing
          about the float reference's health. The float32 rung has nowhere
          to fall; its failures are model faults, counted by the breaker
          when the replies are built below. *)
       let step (pending, failed) (backend, rung) =
         let mine, others = List.partition (fun (b, _) -> b = backend) pending in
         let group = List.map snd mine in
         match (group, rung.falls_to) with
         | [], _ -> (pending, failed)
         | _, Some lower ->
           let fall why = List.map (fun (it, _) -> (lower, (it, Some why))) in
           let fault = key_of backend ^ "_fault" in
           let fallen =
             match rung.program with
             | None -> fall (key_of backend ^ "_unavailable") group
             | Some g -> (
               match score backend g group with
               | Error why ->
                 journal t fault [ ("why", Runlog.S why) ];
                 fall fault group
               | Ok () ->
                 List.filter
                   (fun (it, _) ->
                     match Hashtbl.find_opt results it.item_index with
                     | Some (Error why) ->
                       journal t fault [ ("why", Runlog.S why) ];
                       true
                     | _ -> false)
                   group
                 |> fall fault)
           in
           (others @ fallen, failed)
         | _, None -> (
           match
             match rung.program with
             | None -> Error "model not loaded"
             | Some g -> score backend g group
           with
           | Ok () -> (others, failed)
           | Error why ->
             (* The shared forward died: every batch mate records the fault. *)
             List.iter (fun (it, _) -> Hashtbl.replace results it.item_index (Error why)) group;
             (others, true))
       in
       let t_f0 = t.now () in
       let _, failed =
         List.fold_left step (List.map (fun it -> (it.item_backend, (it, None))) fwd, false) gen
       in
       if not failed then begin
         update_ewma t ((t.now () -. t_f0) /. float_of_int n_fwd);
         Serve_stats.record_batch t.stats ~size:n_fwd
       end
     end);
    (* Replies and breaker bookkeeping, in item order. *)
    List.map
      (fun (it, plan) ->
        let arrival = it.item_arrival and id = it.item_id in
        let fault why =
          let before = Breaker.state t.breaker in
          Breaker.record_failure t.breaker;
          journal_breaker_transition t before;
          journal t "model_fault" [ ("why", Runlog.S why) ];
          degraded_reply ?id t ~arrival ~reason:("model_fault: " ^ why) it.item_cache
            it.item_trace
        in
        match plan with
        | P_expired ->
          let budget = it.item_deadline -. arrival in
          error_reply_counted ?id t ~arrival
            (Serve_error.v Serve_error.Deadline_exceeded
               "deadline (%.0f ms) expired before processing started" (1000.0 *. budget))
        | P_analytic fallback ->
          baseline t ~arrival ~id ~fallback ~reason:None it.item_cache it.item_trace
        | P_baseline reason ->
          degraded_reply ?id t ~arrival ~reason it.item_cache it.item_trace
        | P_fault why -> fault why
        | P_forward -> (
          match Hashtbl.find_opt results it.item_index with
          | Some (Ok (hit_rate, served_backend, reason)) ->
            let before = Breaker.state t.breaker in
            Breaker.record_success t.breaker;
            journal_breaker_transition t before;
            if t.now () > it.item_deadline then
              (* The answer arrived too late to trust the time budget; serve
                 the (cheap) analytical answer, flagged. *)
              degraded_reply ?id t ~arrival ~reason:"deadline" it.item_cache it.item_trace
            else begin
              let degraded = reason <> None in
              Option.iter
                (fun r ->
                  journal t "degraded"
                    [ ("reason", Runlog.S r); ("source", Runlog.S "model") ])
                reason;
              record_and_reply t ~backend:served_backend ~arrival ~ok:true ~degraded
                ~code:None
                (hit_rate_reply ?id ~degraded ~source:"model" ~backend:served_backend ~reason
                   ~latency_ms:(1000.0 *. (t.now () -. arrival))
                   hit_rate)
            end
          | Some (Error why) -> fault why
          | None ->
            (* Unreachable: every P_forward item was given a result above. *)
            fault "batch result missing"))
      pairs

(* The daemon's dispatch, run in place: an infer is a batch of one, a
   deferred reload runs inline, and a stream op, which needs a connection
   and a batcher, is refused. *)
let handle_line ?arrival t line =
  let arrival = Option.value arrival ~default:(t.now ()) in
  match classify_line ~arrival t line with
  | Immediate o -> o
  | Deferred f -> f ()
  | Stream
      ( Validate.Stream_open { id; _ }
      | Validate.Stream_feed { id; _ }
      | Validate.Stream_resume { id; _ }
      | Validate.Stream_close { id; _ } ) ->
    Reply
      (error_reply_counted ?id t ~arrival
         (Serve_error.v Serve_error.Bad_request
            "stream ops are only served by the streaming daemon path"))
  | Stream _ -> assert false (* classify_request makes Stream of stream ops only *)
  | Batchable it -> (
    (* Total: a bug below this point is an [internal] reply, not a dead
       worker. *)
    match infer_batch t [ it ] with
    | [ r ] -> Reply r
    | _ -> assert false
    | exception e -> Reply (internal_reply ?id:it.item_id t ~arrival e))
