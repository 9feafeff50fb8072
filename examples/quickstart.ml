(* Quickstart: the full CacheBox pipeline on one benchmark, end to end.

   1. Generate a memory trace (a Polybench-style gemm kernel).
   2. Simulate an L1 cache to get ground-truth hits/misses (ChampSim role).
   3. Convert trace + misses into paired heatmaps.
   4. Train a small CB-GAN on a handful of other benchmarks.
   5. Predict the gemm miss heatmaps and compare hit rates.

   Run with:  dune exec examples/quickstart.exe
   (set CACHEBOX_EPOCHS to trade time for accuracy; default here is small) *)

let () =
  let spec = Heatmap.spec () in
  let cache = Cache.config ~sets:64 ~ways:12 () in
  let trace_len = 12_000 in
  let epochs =
    match Sys.getenv_opt "CACHEBOX_EPOCHS" with Some v -> int_of_string v | None -> 8
  in

  print_endline "=== CacheBox quickstart ===";
  Printf.printf "cache: %s (%d bytes), heatmaps: %dx%d window %d\n\n"
    (Cache.config_name cache) (Cache.size_bytes cache) spec.Heatmap.height
    spec.Heatmap.width spec.Heatmap.window;

  (* The benchmark we want to predict: completely unseen during training. *)
  let target_benchmark = Suite.find "gemm.small" in

  (* A small training set from other benchmark groups. *)
  let training_benchmarks =
    [ "2mm.small"; "atax.small"; "mvt.small"; "jacobi-2d.small";
      "600.perlbench_s-734B"; "631.deepsjeng_s-734B"; "bfs.uni-small"; "pagerank.uni-small" ]
    |> List.map Suite.find
  in

  print_endline "building ground-truth dataset (trace -> simulate -> heatmaps)...";
  let train_data =
    Cbox_dataset.build_l1 spec ~configs:[ cache ] ~trace_len training_benchmarks
  in
  let test_data = Cbox_dataset.build_l1 spec ~configs:[ cache ] ~trace_len [ target_benchmark ] in

  (* Show what the model sees. *)
  (match test_data with
  | { Cbox_dataset.pairs = (access, miss) :: _; _ } :: _ ->
    print_endline "\nReal access heatmap (gemm.small):";
    print_string (Heatmap.render_ascii ~max_rows:16 ~max_cols:48 access);
    print_endline "Real miss heatmap (after the L1 filter):";
    print_string (Heatmap.render_ascii ~max_rows:16 ~max_cols:48 miss)
  | _ -> ());

  Printf.printf "\ntraining CB-GAN on %d benchmarks x %d heatmaps (%d epochs)...\n%!"
    (List.length training_benchmarks)
    (List.fold_left (fun acc (d : Cbox_dataset.benchmark_data) -> acc + List.length d.pairs) 0 train_data)
    epochs;
  let model = Cbgan.create ~seed:7 (Cbgan.default_config ()) in
  let options = Cbox_train.default_options ~epochs ~batch_size:4 () in
  let options = { options with Cbox_train.lr = 1e-3 } in
  let _history =
    Cbox_train.train ~log:print_endline model spec options (Cbox_dataset.to_samples train_data)
  in

  print_endline "\nrunning inference on the unseen benchmark...";
  let g = Cbox_infer.of_cbgan model in
  List.iter
    (fun d ->
      let p = Cbox_infer.predict g spec d in
      (match p.Cbox_infer.synthetic with
      | synth :: _ ->
        print_endline "Synthetic miss heatmap (CB-GAN output):";
        print_string (Heatmap.render_ascii ~max_rows:16 ~max_cols:48 synth)
      | [] -> ());
      Printf.printf "\n%-12s  true hit rate %.4f  predicted %.4f  |diff| %.2f%%\n"
        p.Cbox_infer.benchmark p.Cbox_infer.true_hit_rate p.Cbox_infer.predicted_hit_rate
        (Cbox_infer.abs_pct_diff p))
    test_data;

  (* Persist the model like the artifact's TrainedModels/. *)
  let ckpt = Filename.concat (Filename.get_temp_dir_name ()) "cachebox_quickstart.ckpt" in
  Cbgan.save model ckpt;
  Printf.printf "\nmodel checkpoint written to %s (%d parameters)\n" ckpt
    (Cbgan.parameter_count model)
