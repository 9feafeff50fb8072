(* Training workload: build the training set from four roster workloads
   (streaming Heatmap.Accum, not of_trace), create the CB-GAN, then run
   Cbox_train.train one batch of 4 at a time at the default options. This
   is the only workload with backward GEMMs (transposed operands) and Adam,
   so an inference-only change that slows training shows here. *)

open Bench_common

let spec = Bench_inputs.spec
let batch_size = 4

let build_dataset ws =
  Simcache.set_dir None;
  Cbox_dataset.build_l1 spec ~configs:[ Experiments.l1_64s12w ]
    ~trace_len:Bench_inputs.train_trace_len ws

(* The dataset must be what a standalone cache produces: every entry's
   true hit rate (counted over the accesses its heatmaps cover) equals a
   plain Cache.access loop over the same trace. *)
let check_dataset ws data =
  let len = Bench_inputs.train_trace_len in
  let covered =
    Heatmap.accesses_per_image spec
    + ((Heatmap.image_count spec len - 1) * Heatmap.step_accesses spec)
  in
  List.iter2
    (fun (w : Workload.t) (d : Cbox_dataset.benchmark_data) ->
      let c = Cache.create d.Cbox_dataset.cache in
      let hits = ref 0 in
      Array.iteri
        (fun i a -> if Cache.access c a && i < covered then incr hits)
        (w.Workload.generate len);
      let truth = float_of_int !hits /. float_of_int covered in
      check "dataset hit rate = standalone cache"
        (Float.abs (truth -. d.Cbox_dataset.true_hit_rate) < 1e-9)
        (fun () ->
          Printf.sprintf "%s: dataset %.6f, cache %.6f" w.Workload.name
            d.Cbox_dataset.true_hit_rate truth))
    ws data

let run ~seed ~seconds ~traced =
  let ws = Bench_inputs.train_workloads ~seed in
  let setup () =
    let data = build_dataset ws in
    (data, Cbgan.create ~seed:42 (Cbgan.default_config ()))
  in
  let (data, model), setup_times = timed_setup ~reps:5 setup in
  Gc.compact ();
  let samples = Array.of_list (Cbox_dataset.shuffle (Prng.create seed) (Cbox_dataset.to_samples data)) in
  let options = Cbox_train.default_options ~epochs:1 ~batch_size () in
  let n = Array.length samples in
  let k = ref 0 in
  let losses_finite = ref true in
  (* One step: the accesses the batch's samples cover are its work. *)
  let step () =
    let batch = List.init batch_size (fun i -> samples.((!k + i) mod n)) in
    k := !k + batch_size;
    let stats =
      span ~req:(!k / batch_size) "cbox_train.train" (fun () ->
          Cbox_train.train model spec options batch)
    in
    List.iter
      (fun (s : Cbox_train.epoch_stats) ->
        if not (Float.is_finite s.g_adv && Float.is_finite s.g_l1 && Float.is_finite s.d_loss)
        then losses_finite := false)
      stats;
    batch_size * Heatmap.accesses_per_image spec
  in
  (* Steps are not scaled by the reference kernel: over a 2 s step its
     time correlates with the step's at only 0.4 (against 0.8 to 0.9 for
     the inference and simulator loops), and scaling widened the
     run-to-run spread instead of narrowing it. *)
  let loop seconds = timed_loop ~scaled:false ~seconds ~block:0.0 step in
  let plain, traced_loop =
    if traced then
      let p, t = alternate ~seconds ~blocks:6 loop in
      (List.concat_map fst p, Some (List.concat_map fst t))
    else (fst (loop seconds), None)
  in
  (* Peak memory of set-up and the measured steps; the oracles come after. *)
  let rss = peak_rss_mb 0 in
  check_dataset ws data;
  check "training losses finite" !losses_finite (fun () -> "a step produced NaN or Inf");
  let metrics =
    match traced_loop with
    | Some tl ->
      [ metric "trace.overhead_pct" "%" (100.0 *. ((kacc_s plain /. kacc_s tl) -. 1.0)) ]
    | None ->
      (metric "setup_s" "s" (Bstats.median setup_times) :: loop_metrics plain)
      @ [ metric "peak_rss_mb" "MB" rss ]
  in
  let steps = List.length plain + Option.fold ~none:0 ~some:List.length traced_loop in
  {
    metrics;
    attempted = steps;
    failed = (if !losses_finite then 0 else steps);
    details =
      [
        ("workloads", Sjson.Arr (List.map (fun (w : Workload.t) -> Sjson.Str w.Workload.name) ws));
        ("training_samples", Sjson.Num (float_of_int n));
        ("setup_s_all", Sjson.Arr (List.map (fun x -> Sjson.Num x) setup_times));
      ]
      @ latency_details (scaled_ms plain);
    inputs =
      Array.of_list
        (List.map (fun (w : Workload.t) -> w.Workload.generate Bench_inputs.train_trace_len) ws);
  }
