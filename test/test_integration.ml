(* Cross-module integration: the seams between the simulator, the heatmap
   pipeline, the dataset builder and the experiment drivers. *)

let spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let test_l2_heatmap_mass_is_l1_misses () =
  (* The de-overlapped mass of the L2 access heatmaps equals the number of
     L1 misses covered by those heatmaps. *)
  let w = Suite.find "605.mcf_s-734B" in
  let trace = w.Workload.generate 4000 in
  let h =
    Hierarchy.create ~l2:(Cache.config ~sets:8 ~ways:4 ())
      ~l1:(Cache.config ~sets:4 ~ways:2 ()) ()
  in
  let l2 = ref [] in
  Hierarchy.run_observed h trace ~f:(fun level addr _ -> if level = 1 then l2 := addr :: !l2);
  let l2 = Array.of_list (List.rev !l2) in
  let n = Array.length l2 in
  Alcotest.(check bool) "enough L2 traffic" true (n >= Heatmap.accesses_per_image spec);
  let imgs = Heatmap.of_trace spec l2 in
  let covered =
    Heatmap.accesses_per_image spec + ((List.length imgs - 1) * Heatmap.step_accesses spec)
  in
  Alcotest.(check (float 1e-3)) "mass = covered accesses" (float_of_int covered)
    (Heatmap.deoverlapped_sum spec imgs);
  match Hierarchy.stats h with
  | [ (_, s1); _ ] -> Alcotest.(check int) "L2 stream = L1 misses" s1.Cache.misses n
  | _ -> Alcotest.fail "expected two levels"

let test_trace_io_pipeline_equivalence () =
  (* Importing an exported trace and rebuilding heatmaps gives identical
     images. *)
  let w = Suite.find "atax.small" in
  let trace = w.Workload.generate 3000 in
  let path = Filename.temp_file "cbox" ".btrace" in
  Trace_io.write_binary path trace;
  let imported = Trace_io.read_auto path in
  Sys.remove path;
  let direct = Heatmap.of_trace spec trace in
  let via_file = Heatmap.of_trace spec imported in
  List.iter2
    (fun a b ->
      Alcotest.(check (array (float 0.0))) "identical heatmaps" (Tensor.to_array a)
        (Tensor.to_array b))
    direct via_file

let test_experiments_helpers () =
  let row mk_truth mk_pred =
    {
      Experiments.benchmark = "x";
      suite = Workload.Spec;
      config_name = "64set-12way";
      level = Hierarchy.L1;
      truth = mk_truth;
      predicted = mk_pred;
    }
  in
  Alcotest.(check (float 1e-9)) "row abs pct" 5.0
    (Experiments.row_abs_pct (row 0.9 0.85));
  let r = Experiments.summarize "s" [ row 0.9 0.85; row 0.8 0.83 ] in
  Alcotest.(check (float 1e-6)) "summary average" 4.0 r.Experiments.avg_abs_pct;
  Alcotest.(check (float 1e-9)) "L1 threshold" 0.65
    (Experiments.hit_rate_threshold Hierarchy.L1);
  Alcotest.(check (float 1e-9)) "L2 threshold" 0.40
    (Experiments.hit_rate_threshold Hierarchy.L2);
  Alcotest.(check (float 1e-9)) "L3 threshold" 0.35
    (Experiments.hit_rate_threshold Hierarchy.L3)

let test_experiment_configs () =
  Alcotest.(check int) "four train configs" 4 (List.length Experiments.train_configs);
  Alcotest.(check int) "three unseen configs" 3 (List.length Experiments.unseen_configs);
  (* No unseen config coincides with a training config (the point of RQ3). *)
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Cache.config_name u ^ " truly unseen")
        false
        (List.mem u Experiments.train_configs))
    Experiments.unseen_configs

let test_default_scale_env () =
  Unix.putenv "CACHEBOX_EPOCHS" "9";
  let s = Experiments.default_scale () in
  Unix.putenv "CACHEBOX_EPOCHS" "";
  Alcotest.(check int) "env override" 9 s.Experiments.epochs

let test_split_determinism () =
  let a = Suite.split ~seed:123 (Suite.all ()) in
  let b = Suite.split ~seed:123 (Suite.all ()) in
  let names ws = List.map (fun w -> w.Workload.name) ws in
  Alcotest.(check (list string)) "same train" (names a.Suite.train) (names b.Suite.train);
  let c = Suite.split ~seed:124 (Suite.all ()) in
  Alcotest.(check bool) "different seed differs" true
    (names a.Suite.train <> names c.Suite.train)

let test_fig14_histogram_totals () =
  let scale =
    { (Experiments.default_scale ()) with Experiments.trace_len = 4000 }
  in
  let h = Experiments.fig14 scale in
  let total = Array.fold_left ( + ) 0 h.Metrics.counts in
  Alcotest.(check int) "one entry per SPEC-like benchmark"
    (List.length (Suite.of_suite Workload.Spec))
    total

let test_prediction_determinism () =
  (* Same seed, same data -> bit-identical predictions. *)
  let cfg =
    { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }
  in
  let w = Suite.find "mvt.small" in
  let data =
    Cbox_dataset.build_l1 spec ~configs:[ Cache.config ~sets:4 ~ways:2 () ] ~trace_len:2000 [ w ]
  in
  let predict () =
    let model = Cbgan.create ~seed:5 cfg in
    List.map
      (fun d -> (Cbox_infer.predict (Cbox_infer.of_cbgan model) spec d).Cbox_infer.predicted_hit_rate)
      data
  in
  Alcotest.(check (list (float 0.0))) "deterministic" (predict ()) (predict ())

let suite =
  ( "integration",
    [
      Alcotest.test_case "L2 heatmaps carry L1 misses" `Quick test_l2_heatmap_mass_is_l1_misses;
      Alcotest.test_case "trace io pipeline equivalence" `Quick test_trace_io_pipeline_equivalence;
      Alcotest.test_case "experiments helpers" `Quick test_experiments_helpers;
      Alcotest.test_case "experiment configs" `Quick test_experiment_configs;
      Alcotest.test_case "scale env override" `Quick test_default_scale_env;
      Alcotest.test_case "split determinism" `Quick test_split_determinism;
      Alcotest.test_case "fig14 totals" `Quick test_fig14_histogram_totals;
      Alcotest.test_case "prediction determinism" `Quick test_prediction_determinism;
    ] )
