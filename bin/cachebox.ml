(* CacheBox command-line interface.

   Subcommands mirror the paper artifact's workflow:
     list       - enumerate the benchmark roster
     simulate   - trace-driven cache/hierarchy simulation (ChampSim role)
     heatmap    - trace -> access/miss heatmaps (HeatmapDataGenerator role)
     train      - train a CB-GAN and write a checkpoint
     infer      - load a checkpoint and predict hit rates (+ hit-rate calc)
     baselines  - HRD / STM / TabSynth predictions for comparison
     serve      - hardened line-delimited-JSON inference daemon
     call       - one-shot client for a running serve daemon
     route      - fault-tolerant shard router over N serve daemons

   Every externally-caused failure exits with the stable taxonomy code
   (see Serve_error): bad request/config 2, corrupt input 3, model
   unavailable 4, deadline 5, overloaded 6, internal 7. *)

open Cmdliner

let die (e : Serve_error.t) =
  Fmt.epr "%a@." Serve_error.pp e;
  exit (Serve_error.exit_code e.Serve_error.code)

let or_die = function Ok v -> v | Error e -> die e

(* A bad flag is a typed invalid_config error (exit 2), reported before any
   model is loaded, trace generated or dataset built. *)
let require ok fmt =
  Printf.ksprintf
    (fun message -> if not ok then die { Serve_error.code = Invalid_config; message })
    fmt

let require_trace_len ~min trace_len =
  require (trace_len >= min) "--trace-len must be at least %d (got %d)" min trace_len

(* Commands that cut heatmaps need at least one image's worth of accesses. *)
let require_images spec ~trace_len =
  let per_image = Heatmap.accesses_per_image spec in
  require (trace_len >= per_image) "--trace-len must be at least %d, one heatmap image (got %d)"
    per_image trace_len

(* --- shared arguments --- *)

let sets_arg =
  Arg.(value & opt int 64 & info [ "sets" ] ~docv:"N" ~doc:"Number of cache sets (power of two).")

let ways_arg = Arg.(value & opt int 12 & info [ "ways" ] ~docv:"N" ~doc:"Cache associativity.")

let trace_len_arg =
  Arg.(value & opt int 16_000 & info [ "trace-len" ] ~docv:"N" ~doc:"Accesses per benchmark trace.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
      ~docv:"N"
      ~doc:
        "Worker domains for the parallel compute backend (default: \
         $(b,CACHEBOX_DOMAINS) or all cores). Results are bit-identical for \
         every value.")

let apply_domains = function
  | None -> ()
  | Some n ->
    require (n >= 1) "--domains must be at least 1 (got %d)" n;
    Dpool.set_domains n

let workload_arg idx =
  Arg.(required & pos idx (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see $(b,cachebox list)).")

let find_workload name =
  try Suite.find name
  with Not_found ->
    die (Serve_error.v Serve_error.Invalid_config "unknown benchmark %S; try `cachebox list`" name)

(* All CLI cache geometry flows through the shared Validate gate: an
   impossible --sets/--ways prints the taxonomy error and exits 2 instead
   of dying on an uncaught Invalid_argument. *)
let cache_config ~sets ~ways = or_die (Validate.cache_config ~sets ~ways ())

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun suite ->
        Fmt.pr "== %s ==@." (Workload.suite_name suite);
        List.iter
          (fun w -> Fmt.pr "  %-28s (group %s)@." w.Workload.name w.Workload.group)
          (Suite.of_suite suite))
      [ Workload.Spec; Workload.Ligra; Workload.Polybench ]
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark roster")
    Term.(const run $ const ())

(* --- simulate --- *)

let simulate_cmd =
  let levels_arg =
    Arg.(value & opt int 1 & info [ "levels" ] ~docv:"N" ~doc:"Hierarchy depth (1-3).")
  in
  let prefetcher_arg =
    Arg.(value & opt string "none" & info [ "prefetcher" ] ~docv:"KIND" ~doc:"L1 prefetcher: none, next-line or stride.")
  in
  let run name sets ways trace_len levels prefetcher =
    require (levels >= 1 && levels <= 3) "--levels must be 1, 2 or 3 (got %d)" levels;
    let pf =
      match prefetcher with
      | "none" -> Prefetch.No_prefetch
      | "next-line" -> Prefetch.Next_line
      | "stride" -> Prefetch.Stride { degree = 2; table_size = 64 }
      | other ->
        die
          (Serve_error.v Serve_error.Invalid_config
             "unknown --prefetcher %S (none|next-line|stride)" other)
    in
    let l1 = cache_config ~sets ~ways in
    let l2 = if levels >= 2 then Some (cache_config ~sets:(sets * 4) ~ways:8) else None in
    let l3 = if levels >= 3 then Some (cache_config ~sets:(sets * 8) ~ways:16) else None in
    or_die (Validate.hierarchy_configs (l1 :: (Option.to_list l2 @ Option.to_list l3)));
    let w = find_workload name in
    let trace = w.Workload.generate trace_len in
    let h = Hierarchy.create ?l2 ?l3 ~l1_prefetcher:pf ~l1 () in
    Hierarchy.run h trace;
    Fmt.pr "benchmark: %s (%d accesses)@." name trace_len;
    List.iter
      (fun (lvl, (s : Cache.stats)) ->
        Fmt.pr "%s: accesses %8d  hits %8d  misses %8d  hit rate %.4f@."
          (Hierarchy.level_name lvl) s.Cache.accesses s.Cache.hits s.Cache.misses
          (Cache.hit_rate s))
      (Hierarchy.stats h);
    let pf_count = Array.length (Hierarchy.prefetched_addresses h) in
    if pf_count > 0 then Fmt.pr "prefetches issued: %d@." pf_count
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a benchmark through the cache hierarchy simulator")
    Term.(const run $ workload_arg 0 $ sets_arg $ ways_arg $ trace_len_arg $ levels_arg $ prefetcher_arg)

(* --- heatmap --- *)

let heatmap_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Write PGM images into DIR.")
  in
  let run name sets ways trace_len out =
    let spec = Heatmap.spec () in
    require_images spec ~trace_len;
    let w = find_workload name in
    let trace = w.Workload.generate trace_len in
    let cache = Cache.create (cache_config ~sets ~ways) in
    let hits = Array.map (fun a -> Cache.access cache a) trace in
    let pairs = Heatmap.pair_of_trace spec ~addresses:trace ~hits in
    Fmt.pr "%d heatmap pair(s); true hit rate %.4f@." (List.length pairs)
      (Heatmap.hit_rate spec ~access:(List.map fst pairs) ~miss:(List.map snd pairs));
    (match pairs with
    | (a, m) :: _ ->
      Fmt.pr "access heatmap:@.%s" (Heatmap.render_ascii a);
      Fmt.pr "miss heatmap:@.%s" (Heatmap.render_ascii m)
    | [] -> ());
    match out with
    | None -> ()
    | Some dir ->
      List.iteri
        (fun i (a, m) ->
          let base = Filename.concat dir (Printf.sprintf "%s_%02d" name i) in
          Heatmap.write_pgm (base ^ "_access.pgm") a;
          Heatmap.write_pgm (base ^ "_miss.pgm") m)
        pairs;
      Fmt.pr "wrote %d PGM pairs to %s@." (List.length pairs) dir
  in
  Cmd.v (Cmd.info "heatmap" ~doc:"Generate access/miss heatmaps for a benchmark")
    Term.(const run $ workload_arg 0 $ sets_arg $ ways_arg $ trace_len_arg $ out_arg)

(* --- train --- *)

let checkpoint_arg =
  Arg.(value & opt string "cachebox.ckpt" & info [ "checkpoint" ] ~docv:"FILE" ~doc:"Model checkpoint path.")

let epochs_arg = Arg.(value & opt int 10 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")

(* The flags [train] and [distill] share. *)

let count_arg =
  Arg.(value & opt int 10 & info [ "benchmarks" ] ~docv:"N" ~doc:"Training benchmarks (from the train split).")

(* --snapshot-every, --snapshot-dir, --resume and --journal as
   (snapshot_every, snapshot_dir, resume, journal): the directory is passed
   on only when snapshots are written or resumed from. *)
let resilience_term =
  let snapshot_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Write a snapshot of the run every N batches (atomic, checksummed; the last 3 \
             are kept). Required for $(b,--resume).")
  in
  let snapshot_dir =
    Arg.(
      value
      & opt string "_snapshots"
      & info [ "snapshot-dir" ] ~docv:"DIR" ~doc:"Directory for rotating run snapshots.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the newest loadable snapshot in $(b,--snapshot-dir); the continued \
             run is bit-identical to one that was never interrupted.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Append run events (snapshots, divergence rollbacks, resumes) to a JSONL journal.")
  in
  let combine every dir resume journal =
    (every, (if every <> None || resume then Some dir else None), resume, journal)
  in
  Term.(const combine $ snapshot_every $ snapshot_dir $ resume $ journal)

(* Each trainer needs at least one benchmark with at least one image. *)
let check_dataset_flags spec ~count ~trace_len =
  require (count >= 1) "--benchmarks must be at least 1 (got %d)" count;
  require_images spec ~trace_len

(* The first [count] workloads of the train split, simulated on [cfg]. *)
let train_split_samples spec cfg ~count ~trace_len =
  let split = Suite.split (Suite.all ()) in
  let train_ws = List.filteri (fun i _ -> i < count) split.Suite.train in
  Fmt.pr "building dataset: %d benchmarks, %s, %d-access traces@." (List.length train_ws)
    (Cache.config_name cfg) trace_len;
  Cbox_dataset.to_samples (Cbox_dataset.build_l1 spec ~configs:[ cfg ] ~trace_len train_ws)

let train_cmd =
  let run sets ways trace_len epochs ckpt count domains
      (snapshot_every, snapshot_dir, resume, journal) =
    apply_domains domains;
    let spec = Heatmap.spec () in
    let cfg = cache_config ~sets ~ways in
    check_dataset_flags spec ~count ~trace_len;
    let samples = train_split_samples spec cfg ~count ~trace_len in
    let model = Cbgan.create ~seed:42 (Cbgan.default_config ()) in
    let options =
      {
        (Cbox_train.default_options ~epochs ~batch_size:4 ?snapshot_every ?snapshot_dir ?journal ())
        with
        Cbox_train.lr = 1e-3;
      }
    in
    ignore (Cbox_train.train ~log:print_endline ~resume model spec options samples);
    Cbgan.save model ckpt;
    Fmt.pr "checkpoint written to %s (%d parameters)@." ckpt (Cbgan.parameter_count model)
  in
  Cmd.v (Cmd.info "train" ~doc:"Train CB-GAN on the training split and save a checkpoint")
    Term.(
      const run $ sets_arg $ ways_arg $ trace_len_arg $ epochs_arg $ checkpoint_arg $ count_arg
      $ domains_arg $ resilience_term)

(* --- distill --- *)

let distill_cmd =
  let out_arg =
    Arg.(value & opt string "student.ckpt" & info [ "out" ] ~docv:"FILE" ~doc:"Student checkpoint path to write.")
  in
  let temperature_arg =
    Arg.(value & opt float 1.0 & info [ "temperature" ] ~docv:"T" ~doc:"Teacher-imitation weight in [0, 1]: 0 trains purely against ground truth (the teacher is never evaluated), 1 purely against the teacher's heatmaps.")
  in
  let feat_weight_arg =
    Arg.(value & opt float 0.0 & info [ "feat-weight" ] ~docv:"W" ~doc:"Bottleneck feature-matching weight; 0 disables the term (and its training-time adapter).")
  in
  let depth_div_arg =
    Arg.(value & opt int 2 & info [ "depth-div" ] ~docv:"D" ~doc:"Student depth = teacher levels / D (floor 2).")
  in
  let width_div_arg =
    Arg.(value & opt int 2 & info [ "width-div" ] ~docv:"D" ~doc:"Student width = teacher channels / D.")
  in
  let run sets ways trace_len epochs ckpt out count temperature feat_weight depth_div
      width_div domains (snapshot_every, snapshot_dir, resume, journal) =
    apply_domains domains;
    let spec = Heatmap.spec () in
    let cfg = cache_config ~sets ~ways in
    check_dataset_flags spec ~count ~trace_len;
    require (depth_div >= 1) "--depth-div must be at least 1 (got %d)" depth_div;
    require (width_div >= 1) "--width-div must be at least 1 (got %d)" width_div;
    require (temperature >= 0.0 && temperature <= 1.0) "--temperature must be in [0, 1] (got %g)"
      temperature;
    require (feat_weight >= 0.0 && Float.is_finite feat_weight)
      "--feat-weight must be a finite non-negative number (got %g)" feat_weight;
    let teacher =
      match
        Serve_engine.model_of_checkpoint ~seed:42 (Cbgan.default_config ()) ~path:ckpt
      with
      | Ok model -> model
      | Error e ->
        Fmt.epr "%a@." Serve_error.pp e;
        Fmt.epr "distillation needs a trained teacher; run `cachebox train` first@.";
        exit (Serve_error.exit_code e.Serve_error.code)
    in
    let samples = train_split_samples spec cfg ~count ~trace_len in
    let scfg =
      Distill.student_config ~depth_div ~width_div (Cbgan.model_config teacher)
    in
    let student = Student.create ~seed:7 scfg in
    Fmt.pr "student: %d levels, ngf %d — %d parameters (teacher %d)@."
      scfg.Unet.levels scfg.Unet.ngf
      (Unet.parameter_count student)
      (Cbgan.parameter_count teacher);
    let options =
      {
        (Distill.default_options ~epochs ~temperature ~feat_weight ?snapshot_every
           ?snapshot_dir ?journal ())
        with
        Distill.batch_size = 4;
      }
    in
    let stats = Distill.train ~log:print_endline ~resume ~teacher student spec options samples in
    (match List.rev stats with
    | last :: _ ->
      Fmt.pr "final epoch %d: pixel loss %.6f, feature loss %.6f over %d batches@."
        last.Distill.epoch last.Distill.pixel last.Distill.feat last.Distill.batches
    | [] -> ());
    Student.save student out;
    Fmt.pr "student checkpoint written to %s (%d parameters)@." out
      (Unet.parameter_count student)
  in
  Cmd.v
    (Cmd.info "distill"
       ~doc:
         "Distill a trained CB-GAN teacher into a half-depth/half-width student \
          checkpoint for the student/student-int8 serving backends")
    Term.(
      const run $ sets_arg $ ways_arg $ trace_len_arg $ epochs_arg $ checkpoint_arg
      $ out_arg $ count_arg $ temperature_arg $ feat_weight_arg $ depth_div_arg
      $ width_div_arg $ domains_arg $ resilience_term)

(* --- infer --- *)

let fallback_arg =
  Arg.(
    value
    & opt string "none"
    & info [ "fallback" ] ~docv:"KIND"
        ~doc:
          "Analytical fallback when the learned model is unusable: $(b,hrd), $(b,stm) or \
           $(b,none). With $(b,none), a missing or corrupt checkpoint is a hard taxonomy \
           error.")

let parse_fallback s =
  match Cbox_infer.fallback_of_string s with
  | Some f -> f
  | None ->
    die (Serve_error.v Serve_error.Bad_request "unknown fallback %S (hrd|stm|none)" s)

let backend_arg =
  Arg.(
    value
    & opt string "float32"
    & info [ "backend" ] ~docv:"KIND"
        ~env:(Cmd.Env.info "CACHEBOX_BACKEND")
        ~doc:
          "Serving backend: $(b,float32) (the learned model), $(b,int8) (its \
           post-training quantization), $(b,student) (the distilled half-depth/\
           half-width generator), $(b,student-int8) (the student's int8 \
           quantization; the two speedups compose), or the analytical \
           $(b,hrd)/$(b,stm) predictors. Every derived backend degrades to \
           float32 when its model is unavailable or faults.")

let parse_backend s =
  match Cbox_infer.backend_of_string s with
  | Some b -> b
  | None ->
    die
      (Serve_error.v Serve_error.Invalid_config
         "unknown backend %S (float32|int8|student|student-int8|hrd|stm)" s)

let student_checkpoint_arg =
  Arg.(
    value
    & opt string "student.ckpt"
    & info [ "student" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "CACHEBOX_STUDENT")
        ~doc:
          "Distilled student checkpoint, used by the $(b,student) and \
           $(b,student-int8) backends (written by $(b,cachebox distill)).")

let infer_cmd =
  let run name sets ways trace_len ckpt student_ckpt domains fallback backend =
    apply_domains domains;
    let fallback = parse_fallback fallback in
    let backend = parse_backend backend in
    let spec = Heatmap.spec () in
    require_images spec ~trace_len;
    let cfg = cache_config ~sets ~ways in
    let w = find_workload name in
    let data = Cbox_dataset.build_l1 spec ~configs:[ cfg ] ~trace_len [ w ] in
    let report (d : Cbox_dataset.benchmark_data) ~predicted suffix =
      Fmt.pr "%-24s %s: true %.4f predicted %.4f |diff| %.2f%%%s@."
        d.Cbox_dataset.workload.Workload.name (Cache.config_name cfg)
        d.Cbox_dataset.true_hit_rate predicted
        (Metrics.abs_pct_diff ~truth:d.Cbox_dataset.true_hit_rate ~predicted)
        suffix
    in
    let analytical fb suffix =
      List.iter
        (fun (d : Cbox_dataset.benchmark_data) ->
          let trace = d.Cbox_dataset.workload.Workload.generate trace_len in
          report d ~predicted:(Option.get (Cbox_infer.baseline_hit_rate fb d.cache trace)) suffix)
        data
    in
    match backend with
    | Cbox_infer.Backend_hrd | Cbox_infer.Backend_stm ->
      (* Explicitly requested analytical backends are first-class answers,
         not degradations: no checkpoint is loaded at all. *)
      analytical
        (if backend = Cbox_infer.Backend_hrd then Cbox_infer.Fallback_hrd
         else Cbox_infer.Fallback_stm)
        (Printf.sprintf " (backend %s)" (Cbox_infer.backend_name backend))
    | Cbox_infer.Backend_float32 | Cbox_infer.Backend_int8 | Cbox_infer.Backend_student
    | Cbox_infer.Backend_student_int8 -> (
      (* The daemon's backend table, resolved once: an unusable derived
         model re-runs on the float32 teacher, flagged, never silently. *)
      let teacher =
        Serve_engine.model_of_checkpoint ~seed:42 (Cbgan.default_config ()) ~path:ckpt
      in
      let student_path =
        match backend with
        | Cbox_infer.Backend_student | Cbox_infer.Backend_student_int8 -> Some student_ckpt
        | _ -> None
      in
      let gen =
        Serve_engine.generation ~only:backend ~spec
          ~on_reject:(fun p why ->
            Fmt.epr "student backend unusable (%s: %s); degrading to float32@." p why)
          ~model:(Result.to_option teacher) ?student_path ()
      in
      match (Serve_engine.resolve gen backend, teacher) with
      | Some (g, served, reason), _ ->
        let suffix =
          match (reason, served) with
          | Some r, _ -> Printf.sprintf " (backend %s, degraded: %s)" (Cbox_infer.backend_name served) r
          | None, Cbox_infer.Backend_float32 -> ""
          | None, _ -> Printf.sprintf " (backend %s)" (Cbox_infer.backend_name served)
        in
        List.iter
          (fun d -> report d ~predicted:(Cbox_infer.predict g spec d).predicted_hit_rate suffix)
          data
      | None, Ok _ -> assert false (* a loaded teacher always resolves *)
      | None, Error e ->
        Fmt.epr "%a@." Serve_error.pp e;
        if fallback = Cbox_infer.No_fallback then begin
          Fmt.epr "no fallback enabled; rerun with --fallback hrd|stm or `cachebox train`@.";
          exit (Serve_error.exit_code e.Serve_error.code)
        end;
        Fmt.epr "degrading to the %s analytical baseline@." (Cbox_infer.fallback_name fallback);
        analytical fallback
          (Printf.sprintf " (degraded: %s fallback)" (Cbox_infer.fallback_name fallback)))
  in
  Cmd.v (Cmd.info "infer" ~doc:"Predict a benchmark's hit rate with a trained checkpoint")
    Term.(
      const run $ workload_arg 0 $ sets_arg $ ways_arg $ trace_len_arg $ checkpoint_arg
      $ student_checkpoint_arg $ domains_arg $ fallback_arg $ backend_arg)

(* --- serve / call --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path (default cachebox.sock).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen/connect on 127.0.0.1:PORT instead of a unix socket.")

let listen_of ~socket ~port =
  match (socket, port) with
  | _, Some p -> Serve_daemon.Tcp ("127.0.0.1", p)
  | Some path, None -> Serve_daemon.Unix_socket path
  | None, None -> Serve_daemon.Unix_socket "cachebox.sock"

let serve_cmd =
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc:"Bounded request-queue capacity; overflow is shed with an $(b,overloaded) reply.")
  in
  let deadline_arg =
    Arg.(value & opt int 5000 & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Default per-request deadline.")
  in
  let breaker_threshold_arg =
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"N" ~doc:"Consecutive model faults before the circuit breaker opens.")
  in
  let breaker_cooldown_arg =
    Arg.(value & opt int 5000 & info [ "breaker-cooldown-ms" ] ~docv:"MS" ~doc:"Cooldown before a half-open model probe.")
  in
  let max_trace_arg =
    Arg.(value & opt int Validate.default_max_trace_len & info [ "max-trace-len" ] ~docv:"N" ~doc:"Largest accepted trace, in accesses.")
  in
  let journal_serve_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc:"Append serve events (start/stop, degradations, breaker trips, sheds) to a JSONL journal.")
  in
  let batch_max_arg =
    Arg.(value & opt int Batcher.default_config.Batcher.max_batch & info [ "batch-max" ] ~docv:"N" ~doc:"Micro-batching: flush as soon as N infer requests have coalesced.")
  in
  let batch_linger_arg =
    Arg.(value & opt float 5.0 & info [ "batch-linger-ms" ] ~docv:"MS" ~doc:"Micro-batching: longest any request waits for batch mates before its batch is flushed.")
  in
  let senv name = Cmd.Env.info ("CACHEBOX_" ^ name) in
  let idle_timeout_arg =
    Arg.(value & opt int 0 & info [ "idle-timeout-ms" ] ~docv:"MS" ~env:(senv "IDLE_TIMEOUT_MS") ~doc:"Close connections idle this long with no reply owed (0 disables). Streaming connections are exempt while their session is live.")
  in
  let stream_sessions_arg =
    Arg.(value & opt int Stream_session.default_config.Stream_session.max_sessions & info [ "stream-sessions" ] ~docv:"N" ~env:(senv "STREAM_SESSIONS") ~doc:"Live streaming sessions admitted before opens shed with $(b,overloaded).")
  in
  let stream_credit_arg =
    Arg.(value & opt int Stream_session.default_config.Stream_session.retain_windows & info [ "stream-credit" ] ~docv:"W" ~env:(senv "STREAM_CREDIT") ~doc:"Per-session credit horizon: un-acknowledged window results retained for replay; feed credit never outruns this ring.")
  in
  let stream_pending_arg =
    Arg.(value & opt int Stream_session.default_config.Stream_session.max_pending_windows & info [ "stream-pending" ] ~docv:"N" ~env:(senv "STREAM_PENDING") ~doc:"Streamed windows in flight across all sessions before further windows degrade to the analytical baseline.")
  in
  let stream_bytes_arg =
    Arg.(value & opt int Stream_session.default_config.Stream_session.max_bytes & info [ "stream-bytes" ] ~docv:"B" ~env:(senv "STREAM_BYTES") ~doc:"Summed session buffer bytes before opens shed with $(b,overloaded).")
  in
  let stream_ttl_arg =
    Arg.(value & opt int 300_000 & info [ "stream-ttl-ms" ] ~docv:"MS" ~env:(senv "STREAM_TTL_MS") ~doc:"Idle streaming sessions older than this are evicted and release their quota.")
  in
  let student_arg =
    Arg.(value & opt (some string) None & info [ "student" ] ~docv:"FILE" ~env:(senv "STUDENT") ~doc:"Distilled student checkpoint for the $(b,student)/$(b,student-int8) backends; re-read on every reload/SIGHUP so the student hot-swaps with the teacher. A checkpoint that fails to load is rejected (journalled $(b,student_reject)) while float32 keeps serving.")
  in
  let run socket port ckpt student fallback backend queue_depth deadline_ms
      breaker_threshold breaker_cooldown_ms max_trace_len journal batch_max
      batch_linger_ms idle_timeout_ms stream_sessions stream_credit
      stream_pending stream_bytes stream_ttl_ms domains =
    apply_domains domains;
    if Faultinject.arm_from_env () then
      Fmt.epr "cachebox serve: fault armed from CACHEBOX_FAULT@.";
    let fallback = parse_fallback fallback in
    let default_backend = parse_backend backend in
    let spec = Heatmap.spec () in
    let model =
      match
        Serve_engine.model_of_checkpoint ~seed:42 (Cbgan.default_config ()) ~path:ckpt
      with
      | Ok model -> Some model
      | Error e ->
        (* Startup survives a bad checkpoint: serve analytically, degraded,
           so callers keep getting (flagged) answers while the model is
           repaired. *)
        Fmt.epr "%a@." Serve_error.pp e;
        Fmt.epr "starting DEGRADED: every inference will use the %s baseline@."
          (Cbox_infer.fallback_name fallback);
        None
    in
    if model = None && fallback = Cbox_infer.No_fallback then begin
      Fmt.epr "no model and no fallback: refusing to start@.";
      exit (Serve_error.exit_code Serve_error.Model_unavailable)
    end;
    let listen = listen_of ~socket ~port in
    let config =
      {
        Serve_daemon.listen;
        queue_depth;
        batcher = { Batcher.max_batch = batch_max; max_linger_s = batch_linger_ms /. 1000.0 };
        engine =
          {
            (Serve_engine.default_config ~fallback ~default_backend ()) with
            Serve_engine.default_deadline_s = float_of_int deadline_ms /. 1000.0;
            breaker_threshold;
            breaker_cooldown_s = float_of_int breaker_cooldown_ms /. 1000.0;
            max_trace_len;
          };
        stream =
          {
            Stream_session.max_sessions = stream_sessions;
            retain_windows = stream_credit;
            max_pending_windows = stream_pending;
            max_bytes = stream_bytes;
            session_ttl_s = float_of_int stream_ttl_ms /. 1000.0;
          };
        idle_timeout_s =
          (if idle_timeout_ms > 0 then Some (float_of_int idle_timeout_ms /. 1000.0)
           else None);
      }
    in
    let ready () =
      Fmt.pr
        "cachebox serve: listening on %s (model %s, student %s, fallback %s, default \
         backend %s)@."
        (match listen with
        | Serve_daemon.Unix_socket p -> "unix:" ^ p
        | Serve_daemon.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p)
        (if model = None then "UNAVAILABLE" else "loaded")
        (match student with None -> "none" | Some p -> p)
        (Cbox_infer.fallback_name fallback)
        (Cbox_infer.backend_name default_backend)
    in
    (* Hot-swap is always armed: a reload request (or SIGHUP) re-reads the
       same checkpoint path unless the request names another one; the
       student checkpoint rides along on every swap. *)
    let reload =
      {
        Serve_engine.reload_seed = 42;
        reload_model_cfg = Cbgan.default_config ();
        reload_default_path = Some ckpt;
        reload_student_path = student;
      }
    in
    let serve journal =
      try Serve_daemon.run ?journal ~reload ?student_path:student ~ready ~spec ~model config
      with Serve_error.Error e -> die e
    in
    match journal with
    | None -> serve None
    | Some path -> Runlog.with_journal path (fun j -> serve (Some j))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve hit-rate predictions over line-delimited JSON (hardened: validated \
          ingestion, deadlines, bounded queue, circuit breaker, analytical fallback)")
    Term.(
      const run $ socket_arg $ port_arg $ checkpoint_arg $ student_arg
      $ Arg.(
          value
          & opt string "hrd"
          & info [ "fallback" ] ~docv:"KIND"
              ~doc:"Analytical fallback for degraded answers: $(b,hrd), $(b,stm) or $(b,none).")
      $ backend_arg $ queue_arg $ deadline_arg $ breaker_threshold_arg $ breaker_cooldown_arg
      $ max_trace_arg $ journal_serve_arg $ batch_max_arg $ batch_linger_arg
      $ idle_timeout_arg $ stream_sessions_arg $ stream_credit_arg
      $ stream_pending_arg $ stream_bytes_arg $ stream_ttl_arg $ domains_arg)

let call_cmd =
  let request_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JSON" ~doc:"One request object, e.g. '{\"op\": \"health\"}'.")
  in
  let call_backend_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"KIND"
          ~env:(Cmd.Env.info "CACHEBOX_BACKEND")
          ~doc:
            "Inject $(docv) as the $(b,backend) field of an infer request that doesn't \
             already carry one: $(b,float32), $(b,int8), $(b,student), \
             $(b,student-int8), $(b,hrd) or $(b,stm).")
  in
  let run socket port backend request =
    (* The request line is normally forwarded verbatim; --backend decorates
       an infer request with the backend field (an explicit field in the
       JSON wins, and non-infer ops are never touched). *)
    let request =
      match backend with
      | None -> request
      | Some s -> (
        let b = parse_backend s in
        match Sjson.parse request with
        | Ok (Sjson.Obj fields)
          when List.assoc_opt "op" fields = Some (Sjson.Str "infer")
               && not (List.mem_assoc "backend" fields) ->
          Sjson.to_string
            (Sjson.Obj (fields @ [ ("backend", Sjson.Str (Cbox_infer.backend_name b)) ]))
        | _ -> request)
    in
    match Client.call (listen_of ~socket ~port) request with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 1
    | Ok line ->
      print_endline line;
      (* Exit status mirrors the reply: 0 for ok (degraded included), the
         stable taxonomy exit code for errors. *)
      exit
        (match Sjson.parse line with
        | Ok json -> Client.exit_code json
        | Error _ -> Serve_error.exit_code Serve_error.Internal)
  in
  Cmd.v
    (Cmd.info "call" ~doc:"Send one request line to a running serve daemon and print the reply")
    Term.(const run $ socket_arg $ port_arg $ call_backend_arg $ request_arg)

(* --- stream: pour a trace into a live daemon over a streaming session ---

   Prints one "window=I hit_rate=H ..." line per window with hex floats,
   so two runs (say, an uninterrupted one and a kill-then-resume one) can
   be diffed bit-for-bit. Respects the server's credit grants, and has the
   failure knobs the robustness smoke test drives: die abruptly after K
   windows with a feed still in flight, resume from a session token, or
   corrupt one chunk and expect the typed poison. *)

let stream_cmd =
  let trace_file_arg =
    Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc:"Stream this trace file (text or binary). Default: generate $(b,--benchmark) client-side.")
  in
  let stream_benchmark_arg =
    Arg.(value & opt string "600.perlbench_s-734B" & info [ "benchmark" ] ~docv:"NAME" ~doc:"Benchmark to generate when no $(b,--trace-file) is given.")
  in
  let stream_trace_len_arg =
    Arg.(value & opt int 16_000 & info [ "trace-len" ] ~docv:"N" ~doc:"Length of the generated trace.")
  in
  let sets_arg =
    Arg.(value & opt int 64 & info [ "sets" ] ~docv:"N" ~doc:"Cache sets for the session.")
  in
  let ways_arg =
    Arg.(value & opt int 4 & info [ "ways" ] ~docv:"N" ~doc:"Cache ways for the session.")
  in
  let chunk_arg =
    Arg.(value & opt int 1024 & info [ "chunk" ] ~docv:"N" ~doc:"Accesses per feed chunk, at least 1 (clipped to the server's credit).")
  in
  let kill_after_arg =
    Arg.(value & opt (some int) None & info [ "kill-after-windows" ] ~docv:"K" ~doc:"After K windows, send one more chunk and close the socket without reading — simulates a client dying mid-stream. The session survives for $(b,--resume).")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"TOKEN" ~doc:"Resume this session instead of opening one; replayed windows are printed, then pouring continues from the server's $(b,consumed) position.")
  in
  let resume_from_arg =
    Arg.(value & opt int (-1) & info [ "resume-from" ] ~docv:"W" ~doc:"With $(b,--resume): acknowledge windows up to this index (they are pruned, not replayed).")
  in
  let corrupt_at_arg =
    Arg.(value & opt (some int) None & info [ "corrupt-at" ] ~docv:"SEQ" ~doc:"Replace chunk SEQ's payload with a non-integer element and expect the typed $(b,corrupt_input) poison (exit 3).")
  in
  let run socket port trace_file benchmark trace_len sets ways chunk kill_after resume
      resume_from corrupt_at =
    if chunk < 1 then
      die (Serve_error.v Serve_error.Invalid_config "--chunk must be at least 1 (got %d)" chunk);
    let module S = Client.Stream in
    let fail message code =
      Fmt.epr "%s@." message;
      exit code
    in
    let conn =
      match Client.connect ~timeout:60.0 (listen_of ~socket ~port) with
      | Ok conn -> conn
      | Error e -> fail ("cannot connect: " ^ e) 1
    in
    let ok = function
      | Ok v -> v
      | Error (S.Rejected j) -> fail (Sjson.to_string j) (Client.exit_code j)
      | Error (S.Broken e) -> fail (Client.error_message e) 1
      | Error (S.Protocol m) -> fail m (Serve_error.exit_code Serve_error.Internal)
    in
    let trace =
      match trace_file with
      | Some f -> (
        match Validate.read_trace_file f with Ok t -> t | Error e -> die e)
      | None -> (find_workload benchmark).Workload.generate trace_len
    in
    let on_window i w =
      match Option.bind (Sjson.member "hit_rate" w) Sjson.to_float with
      | Some h ->
        Fmt.pr "window=%d hit_rate=%h degraded=%b@." i h
          (Sjson.(member "degraded" w |> Option.map to_bool) = Some (Some true))
      | None ->
        Fmt.pr "window=%d error=%s@." i
          (Option.value (Option.bind (Sjson.member "error" w) Sjson.to_str) ~default:"?")
    in
    let s =
      match resume with
      | None ->
        let s, _ = ok (S.open_ conn ~sets ~ways ~on_window) in
        Fmt.pr "session=%s@." (S.token s);
        s
      | Some token ->
        let s = ok (S.resume conn ~token ~last_window:resume_from ~on_window) in
        Fmt.pr "resumed consumed=%d@." (S.consumed s);
        s
    in
    match ok (S.pour ?kill_after ?corrupt_at s trace ~chunk) with
    | Some j ->
      Fmt.pr "closed consumed=%d windows=%d@."
        (Option.value (Option.bind (Sjson.member "consumed" j) Sjson.to_int) ~default:(-1))
        (S.delivered s);
      Client.close conn
    | None -> Fmt.pr "killed windows=%d@." (S.delivered s)
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Stream a trace into a running serve daemon over a backpressured session and \
          print each window's prediction as it closes")
    Term.(
      const run $ socket_arg $ port_arg $ trace_file_arg $ stream_benchmark_arg
      $ stream_trace_len_arg $ sets_arg $ ways_arg $ chunk_arg $ kill_after_arg
      $ resume_arg $ resume_from_arg $ corrupt_at_arg)

(* --- route: fault-tolerant shard router over N serve daemons ---

   Backend specs are "unix:PATH", "HOST:PORT" or "NAME=ADDR"; the name (the
   address string when not given) seeds consistent-hash placement, so keep
   names stable across router restarts or keys will move shards. *)

let parse_backend_addr s =
  match String.index_opt s ':' with
  | Some 4 when String.sub s 0 4 = "unix" ->
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "empty unix socket path"
    else Ok (Serve_daemon.Unix_socket path)
  | Some i -> (
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Serve_daemon.Tcp (host, p))
    | _ -> Error (Printf.sprintf "bad HOST:PORT %S" s))
  | None -> Error (Printf.sprintf "backend %S is neither unix:PATH nor HOST:PORT" s)

let parse_backend_spec s =
  let named name addr =
    Result.map (fun a -> (name, a)) (parse_backend_addr addr)
  in
  match String.index_opt s '=' with
  | Some i when i > 0 && String.sub s 0 i <> "unix" ->
    named (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))
  | _ -> named s s

let route_cmd =
  let renv name = Cmd.Env.info ("CACHEBOX_ROUTER_" ^ name) in
  let backends_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "backend" ] ~docv:"SPEC" ~env:(renv "BACKENDS")
          ~doc:
            "Backend serve daemon, repeatable: $(b,unix:PATH), $(b,HOST:PORT) or \
             $(b,NAME=ADDR). The env var takes a comma-separated list.")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~env:(renv "WORKERS") ~doc:"Concurrent forwarder threads.")
  in
  let vnodes_arg =
    Arg.(value & opt int 128 & info [ "vnodes" ] ~docv:"N" ~env:(renv "VNODES") ~doc:"Consistent-hash virtual nodes per backend.")
  in
  let attempts_arg =
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~env:(renv "ATTEMPTS") ~doc:"Total upstream attempts per request before degrading.")
  in
  let attempt_timeout_arg =
    Arg.(value & opt int 2000 & info [ "attempt-timeout-ms" ] ~docv:"MS" ~env:(renv "ATTEMPT_TIMEOUT_MS") ~doc:"Per-attempt (hedge) timeout; always clamped to the request deadline.")
  in
  let probe_interval_arg =
    Arg.(value & opt int 1000 & info [ "probe-interval-ms" ] ~docv:"MS" ~env:(renv "PROBE_INTERVAL_MS") ~doc:"Health-probe cadence per backend.")
  in
  let eject_after_arg =
    Arg.(value & opt int 3 & info [ "eject-after" ] ~docv:"N" ~env:(renv "EJECT_AFTER") ~doc:"Consecutive failures (probe or request) before a backend is ejected.")
  in
  let memo_arg =
    Arg.(value & opt int 256 & info [ "memo-capacity" ] ~docv:"N" ~env:(renv "MEMO") ~doc:"Content-addressed prediction memo entries (0 disables).")
  in
  let queue_arg =
    Arg.(value & opt int 128 & info [ "queue-depth" ] ~docv:"N" ~doc:"Bounded admission queue; overflow is shed with an $(b,overloaded) reply.")
  in
  let deadline_arg =
    Arg.(value & opt int 5000 & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Default per-request deadline.")
  in
  let fallback_arg =
    Arg.(
      value
      & opt string "hrd"
      & info [ "fallback" ] ~docv:"KIND" ~env:(renv "FALLBACK")
          ~doc:
            "Router-level degradation baseline when no replica is usable: $(b,hrd), \
             $(b,stm) or $(b,none) (none turns exhaustion into \
             $(b,upstream_unavailable) errors).")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc:"Append router events (start/stop, ejections, readmissions, degradations) to a JSONL journal.")
  in
  let run socket port backends workers vnodes max_attempts attempt_timeout_ms
      probe_interval_ms eject_after memo_capacity queue_depth deadline_ms fallback
      journal =
    let fallback = parse_fallback fallback in
    (* The env var carries one comma-separated string; the flag repeats. *)
    let specs =
      List.concat_map
        (fun s -> List.filter (( <> ) "") (String.split_on_char ',' s))
        backends
    in
    if specs = [] then begin
      Fmt.epr "cachebox route: no backends (repeat --backend or set CACHEBOX_ROUTER_BACKENDS)@.";
      exit 2
    end;
    let backends =
      List.map
        (fun s ->
          match parse_backend_spec s with
          | Ok b -> b
          | Error m ->
            Fmt.epr "cachebox route: %s@." m;
            exit 2)
        specs
    in
    let listen = listen_of ~socket ~port in
    let config =
      {
        (Router.default_config ~listen ~backends) with
        Router.workers;
        vnodes;
        max_attempts;
        attempt_timeout_s = float_of_int attempt_timeout_ms /. 1000.0;
        probe_interval_s = float_of_int probe_interval_ms /. 1000.0;
        eject_after;
        memo_capacity;
        queue_depth;
        default_deadline_s = float_of_int deadline_ms /. 1000.0;
        fallback;
      }
    in
    let ready () =
      Fmt.pr "cachebox route: listening on %s, %d backends (fallback %s)@."
        (match listen with
        | Serve_daemon.Unix_socket p -> "unix:" ^ p
        | Serve_daemon.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p)
        (List.length backends)
        (Cbox_infer.fallback_name fallback)
    in
    let route journal =
      try Router.run ?journal ~ready config with Serve_error.Error e -> die e
    in
    match journal with
    | None -> route None
    | Some path -> Runlog.with_journal path (fun j -> route (Some j))
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Shard requests across serve daemons by cache-config digest (health checks, \
          retries with backoff, circuit breakers, baseline fallback, zero-downtime \
          reload broadcast)")
    Term.(
      const run $ socket_arg $ port_arg $ backends_arg $ workers_arg $ vnodes_arg
      $ attempts_arg $ attempt_timeout_arg $ probe_interval_arg $ eject_after_arg
      $ memo_arg $ queue_arg $ deadline_arg $ fallback_arg $ journal_arg)

(* --- loadgen: concurrency stress against a running daemon (Client.loadgen) --- *)

let loadgen_cmd =
  let clients_arg =
    Arg.(value & opt int 8 & info [ "n"; "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(value & opt int 32 & info [ "r"; "requests" ] ~docv:"N" ~doc:"Requests pipelined per client.")
  in
  let invalid_every_arg =
    Arg.(value & opt int 7 & info [ "invalid-every" ] ~docv:"K" ~doc:"Every Kth request on each connection is malformed JSON (0 disables).")
  in
  let loadgen_benchmark_arg =
    Arg.(value & opt string "600.perlbench_s-734B" & info [ "benchmark" ] ~docv:"NAME" ~doc:"Benchmark named by the valid infer requests.")
  in
  let loadgen_trace_arg =
    Arg.(value & opt int 4000 & info [ "trace-len" ] ~docv:"N" ~doc:"Trace length of the valid infer requests.")
  in
  let shutdown_after_arg =
    Arg.(value & flag & info [ "shutdown-after" ] ~doc:"After the run and the stats reconciliation, ask the daemon to shut down and expect a clean drain.")
  in
  let stream_flag =
    Arg.(value & flag & info [ "stream" ] ~doc:"Streaming mode: each client opens a session, pours a deterministic trace under credit, and checks exactly-once in-order window delivery; a third of the clients die mid-stream and resume, another third probe the credit limit.")
  in
  let stream_windows_arg =
    Arg.(value & opt int 6 & info [ "stream-windows" ] ~docv:"W" ~doc:"With $(b,--stream): windows each client's trace closes.")
  in
  let loadgen_backend_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"KIND"
          ~env:(Cmd.Env.info "CACHEBOX_BACKEND")
          ~doc:
            "Valid infer requests carry this $(b,backend) field ($(b,float32), \
             $(b,int8), $(b,student), $(b,student-int8), $(b,hrd) or $(b,stm)); \
             the per-backend counters in the daemon's stats are then required to \
             reconcile with the replies the clients observed.")
  in
  let backend_mix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend-mix" ] ~docv:"NAME:W,..."
          ~doc:
            "Weighted backend mix, e.g. $(b,float32:2,int8:1,student:1): each valid \
             infer request deterministically draws its $(b,backend) field from the \
             expanded weight list, so one closed-loop run exercises heterogeneous \
             batches (the daemon's batcher must still keep every wide-batch forward \
             single-backend). Mutually exclusive with $(b,--backend); the per-backend \
             reconciliation applies to every backend in the mix.")
  in
  let run socket port clients requests invalid_every benchmark trace_len backend
      backend_mix shutdown_after stream stream_windows =
    let backend = Option.map parse_backend backend in
    let mix =
      match backend_mix with
      | None -> None
      | Some s ->
        let bad why =
          Fmt.epr "--backend-mix: %s (expected NAME:W,... e.g. float32:2,int8:1)@." why;
          exit 2
        in
        let expanded =
          List.concat_map
            (fun entry ->
              match String.split_on_char ':' entry with
              | [ name; w ] -> (
                let b = parse_backend name in
                match int_of_string_opt w with
                | Some w when w > 0 -> List.init w (fun _ -> b)
                | _ -> bad (Printf.sprintf "entry %S has a non-positive weight" entry))
              | _ -> bad (Printf.sprintf "entry %S has no :WEIGHT" entry))
            (String.split_on_char ',' s)
        in
        if expanded = [] then bad "empty mix";
        Some expanded
    in
    if backend <> None && mix <> None then begin
      Fmt.epr "--backend and --backend-mix are mutually exclusive@.";
      exit 2
    end;
    let listen = listen_of ~socket ~port in
    let verdict = function
      | [] -> Fmt.pr "loadgen: OK@."
      | ps ->
        List.iter (Fmt.epr "loadgen: FAIL: %s@.") ps;
        exit 1
    in
    if stream then begin
      let r = Client.loadgen_stream listen ~clients ~windows:stream_windows ~shutdown_after in
      Fmt.pr
        "loadgen --stream: %d sessions x %d windows: %d windows delivered in order (%d \
         resumes, %d credit sheds)@."
        clients stream_windows r.Client.windows r.Client.resumes r.Client.credit_sheds;
      verdict r.Client.stream_problems
    end
    else begin
      let backends = Option.value mix ~default:(Option.to_list backend) in
      let r =
        Client.loadgen listen ~clients ~requests ~invalid_every ~benchmark ~trace_len ~backends
          ~shutdown_after
      in
      Fmt.pr
        "loadgen: %d clients x %d requests: %d answered (%d ok of which %d degraded, %d \
         bad_request, %d shed, %d past deadline)@."
        clients requests r.Client.answered r.Client.ok r.Client.degraded r.Client.bad_request
        r.Client.shed r.Client.late;
      Fmt.pr "loadgen: backends: %s@."
        (String.concat ", "
           (List.map
              (fun (b, n) -> Printf.sprintf "%s %d" (Cbox_infer.backend_name b) n)
              r.Client.per_backend));
      verdict r.Client.problems
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Stress a running serve daemon with concurrent pipelined clients and check \
          every reply for drops, duplicates and reorders")
    Term.(
      const run $ socket_arg $ port_arg $ clients_arg $ requests_arg $ invalid_every_arg
      $ loadgen_benchmark_arg $ loadgen_trace_arg $ loadgen_backend_arg $ backend_mix_arg
      $ shutdown_after_arg $ stream_flag $ stream_windows_arg)

(* --- export / import traces --- *)

let export_cmd =
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let format_arg =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc:"text or binary.")
  in
  let run name out trace_len format =
    let write =
      match format with
      | "text" -> Trace_io.write_text
      | "binary" -> Trace_io.write_binary
      | other ->
        die (Serve_error.v Serve_error.Invalid_config "unknown --format %S (text|binary)" other)
    in
    let w = find_workload name in
    write out (w.Workload.generate trace_len);
    Fmt.pr "wrote %d accesses to %s (%s)@." trace_len out format
  in
  Cmd.v (Cmd.info "export" ~doc:"Export a benchmark's address trace to a file")
    Term.(const run $ workload_arg 0 $ out_arg $ trace_len_arg $ format_arg)

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file (text or binary; auto-detected).")
  in
  let run file sets ways =
    if not (Sys.file_exists file) then begin
      Fmt.epr "no such trace file: %s@." file;
      exit 2
    end;
    let trace =
      match Trace_io.read_auto file with
      | trace -> trace
      | exception (Failure m | Sys_error m) -> die (Serve_error.v Serve_error.Corrupt_input "%s" m)
    in
    let cache = Cache.create (cache_config ~sets ~ways) in
    Array.iter (fun a -> ignore (Cache.access cache a)) trace;
    let s = Cache.stats cache in
    Fmt.pr "%s: %d accesses, hit rate %.4f (%d misses)@." file s.Cache.accesses
      (Cache.hit_rate s) s.Cache.misses
  in
  Cmd.v (Cmd.info "replay" ~doc:"Replay an imported address trace through the simulator")
    Term.(const run $ file_arg $ sets_arg $ ways_arg)

(* --- characterize --- *)

let characterize_cmd =
  let run name trace_len =
    require_trace_len ~min:1 trace_len;
    let w = find_workload name in
    let trace = w.Workload.generate trace_len in
    let s = Characterize.summarize trace in
    Fmt.pr "%s:@.  %a@." name Characterize.pp_summary s;
    Fmt.pr "  top strides (blocks):";
    List.iter (fun (d, c) -> Fmt.pr " %+d x%d" d c) (Characterize.stride_histogram ~top:6 trace);
    Fmt.pr "@.  miss-ratio curve (fully-assoc LRU):@.";
    List.iter
      (fun (cap, mr) -> Fmt.pr "    %6d blocks (%4d KiB): %.4f@." cap (cap * 64 / 1024) mr)
      (Characterize.miss_ratio_curve ~capacities:[ 64; 256; 1024; 4096; 16384 ] trace)
  in
  Cmd.v (Cmd.info "characterize" ~doc:"Summarise a benchmark's locality profile")
    Term.(const run $ workload_arg 0 $ trace_len_arg)

(* --- baselines --- *)

let baselines_cmd =
  let run name sets ways trace_len =
    (* STM profiles strides, which takes two accesses. *)
    require_trace_len ~min:2 trace_len;
    let cfg = cache_config ~sets ~ways in
    let w = find_workload name in
    let trace = w.Workload.generate trace_len in
    let cache = Cache.create cfg in
    Array.iter (fun a -> ignore (Cache.access cache a)) trace;
    let truth = Cache.hit_rate (Cache.stats cache) in
    Fmt.pr "%-12s true hit rate: %.4f@." name truth;
    let report label v =
      Fmt.pr "%-12s predicted %.4f  |diff| %.2f%%@." label v
        (Metrics.abs_pct_diff ~truth ~predicted:v)
    in
    report "HRD" (Hrd.predict_l1 cfg trace);
    report "STM" (Stm.predict cfg trace);
    report "Tab-Base" (Tabsynth.predict ~variant:Tabsynth.Base cfg trace);
    report "Tab-RD" (Tabsynth.predict ~variant:Tabsynth.Rd cfg trace);
    report "Tab-IC" (Tabsynth.predict ~variant:Tabsynth.Ic cfg trace)
  in
  Cmd.v (Cmd.info "baselines" ~doc:"Run the HRD/STM/TabSynth baseline predictors on a benchmark")
    Term.(const run $ workload_arg 0 $ sets_arg $ ways_arg $ trace_len_arg)

let () =
  let doc = "CacheBox: learning architectural cache simulator behaviour" in
  let info = Cmd.info "cachebox" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; simulate_cmd; heatmap_cmd; train_cmd; distill_cmd; infer_cmd; serve_cmd; call_cmd; stream_cmd; route_cmd; loadgen_cmd; baselines_cmd; export_cmd; replay_cmd; characterize_cmd ]))
