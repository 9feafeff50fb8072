(* Offline workloads: a list of traces in, one hit rate per trace out — the
   paper's RQ5 use, with no sockets. [sim] answers by simulating the
   3-level hierarchy (the ground truth the learned filters replace); the
   learned backends answer trace -> Heatmap.of_trace -> Cbox_infer at
   batch 8 -> Heatmap.hit_rate. *)

open Bench_common

let default_seed = 1
let teacher_cfg = Cbgan.default_config ()
let l1 = Experiments.l1_64s12w
let spec = Bench_inputs.spec

(* The checkpoints are seeded, untrained models. Forward cost does not
   depend on the weights; these models predict a hit rate of 1.0 on every
   trace, so no accuracy figure is drawn from them. *)
let teacher_ckpt =
  lazy
    (let path = scratch_file "teacher.ckpt" in
     Cbgan.save (Cbgan.create ~seed:42 teacher_cfg) path;
     path)

let student_ckpt =
  lazy
    (let path = scratch_file "student.ckpt" in
     Student.save (Student.create ~seed:7 (Distill.student_config teacher_cfg)) path;
     path)

let load_teacher () =
  let m = Cbgan.create ~seed:42 teacher_cfg in
  Cbgan.load m (Lazy.force teacher_ckpt);
  m

let load_student () = Student.load (Lazy.force student_ckpt)

(* --- the learned backends as one interface --- *)

type learned =
  | Float32 of Cbgan.t
  | Int8 of Qgen.t
  | Student of Student.t
  | Student_int8 of Qgen.t

let learned_name = function
  | Float32 _ -> "float32"
  | Int8 _ -> "int8"
  | Student _ -> "student"
  | Student_int8 _ -> "student-int8"

(* The layer whose public function each backend's pipeline goes through. *)
let synth_layer = function
  | Float32 _ -> "cbox_infer.synthesize"
  | Int8 _ | Student_int8 _ -> "cbox_infer.qsynthesize"
  | Student _ -> "cbox_infer.ssynthesize"

let synthesize ?batch_size m ~cache imgs =
  match m with
  | Float32 g -> Cbox_infer.synthesize g spec ?batch_size ~cache imgs
  | Int8 q | Student_int8 q -> Cbox_infer.qsynthesize q spec ?batch_size ~cache imgs
  | Student s -> Cbox_infer.ssynthesize s spec ?batch_size ~cache imgs

(* The raw generator forward on a normalised [n; 1; s; s] batch. *)
let forward m ~cache_params x =
  match m with
  | Float32 g ->
    Value.value (Cbgan.generator_forward g ~rng:(Prng.create 0) ~training:false ~cache_params x)
  | Int8 q | Student_int8 q -> Qgen.forward q ~cache_params x
  | Student s -> Value.value (Student.forward s ~training:false ~cache_params x)

(* The two learned backends that are workloads of their own; the traced
   run's sweep builds all four. *)
let load_learned = function
  | "float32" -> Float32 (load_teacher ())
  | "student-int8" -> Student_int8 (Qgen.of_student ~spec (load_student ()))
  | b -> invalid_arg ("no offline workload for backend " ^ b)

let predict_learned ?(req = -1) m trace =
  let access = span ~req "heatmap.of_trace" (fun () -> Heatmap.of_trace spec trace) in
  let synthetic =
    span ~req (synth_layer m) (fun () -> synthesize m ~batch_size:8 ~cache:l1 access)
  in
  span ~req "heatmap.hit_rate" (fun () -> Heatmap.hit_rate spec ~access ~miss:synthetic)

(* --- the simulator --- *)

let hierarchy () =
  Hierarchy.create ~l2:Experiments.l2_config ~l3:Experiments.l3_config ~l1 ()

let simulate ?(req = -1) h trace =
  span ~req "hierarchy.reset" (fun () -> Hierarchy.reset h);
  span ~req "hierarchy.run" (fun () -> Hierarchy.run h trace);
  span ~req "hierarchy.stats" (fun () -> Hierarchy.stats h)

let level_counts stats =
  List.concat_map
    (fun (lvl, (s : Cache.stats)) ->
      let n = String.lowercase_ascii (Hierarchy.level_name lvl) in
      [ (n ^ "_hits", s.Cache.hits); (n ^ "_misses", s.Cache.misses) ])
    stats

(* Per-level counts summed over every trace of the default seed's offline
   input: the simulator's exact output, pinned. A change meant only to
   speed up the simulator must leave these identical. *)
let golden_counts =
  [
    ("l1_hits", 1750309);
    ("l1_misses", 315241);
    ("l2_hits", 41082);
    ("l2_misses", 274159);
    ("l3_hits", 17868);
    ("l3_misses", 256291);
  ]

let sum_counts traces =
  let h = hierarchy () in
  let totals = Hashtbl.create 8 in
  Array.iter
    (fun tr ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace totals k (v + Option.value (Hashtbl.find_opt totals k) ~default:0))
        (level_counts (simulate h tr)))
    traces;
  List.map (fun (k, _) -> (k, Option.value (Hashtbl.find_opt totals k) ~default:0)) golden_counts

let check_sim_oracles ~seed ~names traces =
  let default_traces =
    if seed = default_seed then traces
    else Array.map snd (Bench_inputs.offline_traces ~seed:default_seed)
  in
  let got = sum_counts default_traces in
  check "golden per-level counts (default seed)" (got = golden_counts) (fun () ->
      String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) got));
  (* For any seed, the hierarchy's L1 must count exactly what a standalone
     cache of the same geometry counts. *)
  let h = hierarchy () in
  Array.iteri
    (fun i tr ->
      let c = Cache.create l1 in
      Array.iter (fun a -> ignore (Cache.access c a)) tr;
      let alone = Cache.stats c in
      match simulate h tr with
      | (_, (s : Cache.stats)) :: _ ->
        check "hierarchy L1 = standalone cache" (s = alone) (fun () ->
            Printf.sprintf "%s: hierarchy %d/%d, standalone %d/%d" names.(i) s.Cache.hits
              s.Cache.misses alone.Cache.hits alone.Cache.misses)
      | [] -> check "hierarchy L1 = standalone cache" false (fun () -> "no L1 stats"))
    traces

(* --- learned-backend oracles --- *)

let bits_equal a b =
  Tensor.numel a = Tensor.numel b
  &&
  let ok = ref true in
  for i = 0 to Tensor.numel a - 1 do
    if Int64.bits_of_float (Tensor.get a i) <> Int64.bits_of_float (Tensor.get b i) then
      ok := false
  done;
  !ok

(* Sum and L1 norm of the raw forward over the first two default
   calibration heatmaps at the L1 geometry, for the default seed's models.
   Every hit rate is 1.0 with untrained models, so these catch a skipped or
   altered forward; 1e-3 relative tolerates FMA reassociation. Each offline
   workload checks its own backend; the traced sweep checks all four. *)
let golden_forward =
  [
    ("float32", (-7418.4521294236183, 7418.4521294236183));
    ("int8", (-7418.4263816475868, 7418.4263816475868));
    ("student", (-7416.1008327007294, 7416.1008327007294));
    ("student-int8", (-7416.1184082627296, 7416.1184082627296));
  ]

let calib_batch () =
  let imgs = List.filteri (fun i _ -> i < 2) (Qgen.default_calib spec) in
  let n = List.length imgs in
  (Cbox_dataset.batch_images spec imgs, Cbgan.cache_params_tensor (List.init n (fun _ -> l1)))

let check_golden_forward m =
  let name = learned_name m in
  let x, cp = calib_batch () in
  let y = forward m ~cache_params:cp x in
  let sum = Tensor.sum y and l1n = Tensor.fold (fun acc v -> acc +. Float.abs v) 0.0 y in
  let gsum, gl1 = List.assoc name golden_forward in
  let rel a b = Float.abs (a -. b) /. Float.abs b in
  check (name ^ " golden forward")
    (rel sum gsum <= 1e-3 && rel l1n gl1 <= 1e-3)
    (fun () -> Printf.sprintf "sum %.17g (golden %.17g), L1 %.17g (golden %.17g)" sum gsum l1n gl1)

let check_batch_equality m trace =
  let imgs = List.filteri (fun i _ -> i < 8) (Heatmap.of_trace spec trace) in
  let b1 = synthesize m ~batch_size:1 ~cache:l1 imgs in
  let b8 = synthesize m ~batch_size:8 ~cache:l1 imgs in
  check (learned_name m ^ " batch 1 = batch 8")
    (List.length b1 = List.length b8 && List.for_all2 bits_equal b1 b8)
    (fun () -> "synthetic heatmaps differ bitwise")

(* --- the workload --- *)

let write_traces traces =
  Array.mapi
    (fun i (_, tr) ->
      let path = scratch_file (Printf.sprintf "trace%03d.bin" i) in
      Trace_io.write_binary path tr;
      path)
    traces

(* Answer traces in order, from [cursor] on and wrapping around, for
   [seconds]; a wrong answer counts in [failed]. Sim operations take about
   a millisecond, so they are timed in 0.2 s blocks between reference
   probes; a learned one is its own block. *)
let run_loop ~seconds ~traces ~cursor ~failed answer =
  let n = Array.length traces in
  timed_loop ~seconds ~block:0.2 (fun () ->
      let tr = traces.(!cursor mod n) in
      if not (answer ~req:!cursor tr) then incr failed;
      incr cursor;
      Array.length tr)

type answerer = Simulator of Hierarchy.t | Learned of learned

let answer a ~req tr =
  match a with
  | Simulator h -> (
    match simulate ~req h tr with
    | (_, (s : Cache.stats)) :: _ -> s.Cache.accesses = Array.length tr
    | [] -> false)
  | Learned m -> Result.is_ok (Cbox_infer.validate_hit_rate (predict_learned ~req m tr))

(* [backend] is "sim" or a learned backend name. Set-up reads the input
   traces back from disk and loads (and quantizes) the model; it runs five
   times and the median is reported. *)
let run ~backend ~seed ~seconds ~traced =
  let names, files =
    let named = Bench_inputs.offline_traces ~seed in
    (Array.map fst named, write_traces named)
  in
  let setup () =
    let traces = Array.map Trace_io.read_binary files in
    (traces, if backend = "sim" then Simulator (hierarchy ()) else Learned (load_learned backend))
  in
  let (traces, answerer), setup_times = timed_setup ~reps:5 setup in
  Gc.compact ();
  let cursor = ref 0 and failed = ref 0 in
  let loop seconds = run_loop ~seconds ~traces ~cursor ~failed (answer answerer) in
  let (plain, scales), traced_loop =
    if traced then
      let p, t = alternate ~seconds ~blocks:10 loop in
      ((List.concat_map fst p, List.concat_map snd p), Some (List.concat_map fst t))
    else (loop seconds, None)
  in
  (* Peak memory of set-up and the measured loop; the oracles come after. *)
  let rss = peak_rss_mb 0 in
  (match answerer with
  | Simulator _ -> check_sim_oracles ~seed ~names traces
  | Learned m ->
    check_batch_equality m traces.(0);
    check_golden_forward m);
  let details =
    [
      ("backend", Sjson.Str backend);
      ("traces", Sjson.Num (float_of_int (Array.length traces)));
      ("trace_len", Sjson.Num (float_of_int Bench_inputs.offline_len));
      ("setup_s_all", Sjson.Arr (List.map (fun x -> Sjson.Num x) setup_times));
    ]
    @ latency_details (scaled_ms plain)
    @ loop_details plain scales
  in
  let metrics =
    match traced_loop with
    | Some tl ->
      [ metric "trace.overhead_pct" "%" (100.0 *. ((kacc_s plain /. kacc_s tl) -. 1.0)) ]
    | None ->
      (metric "setup_s" "s" (Bstats.median setup_times) :: loop_metrics plain)
      @ [ metric "peak_rss_mb" "MB" rss ]
  in
  let ops = List.length plain + Option.fold ~none:0 ~some:List.length traced_loop in
  {
    Bench_common.metrics;
    attempted = ops;
    failed = !failed;
    details;
    inputs = traces;
  }
