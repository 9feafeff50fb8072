(* Modelling a hardware prefetcher with CacheBox (the paper's RQ7).

   Instead of miss heatmaps, the pairs here are (demand access heatmap,
   prefetched-address heatmap): CB-GAN learns to predict which lines a
   next-line prefetcher would fetch under a given access pattern, and the
   prediction quality is scored with MSE and SSIM as in Fig 13.

   Run with:  dune exec examples/prefetcher_model.exe *)

let () =
  let spec = Heatmap.spec () in
  let cache = Cache.config ~sets:64 ~ways:12 () in
  let trace_len = 12_000 in
  let epochs =
    match Sys.getenv_opt "CACHEBOX_EPOCHS" with Some v -> int_of_string v | None -> 8
  in

  let training_benchmarks =
    [ "619.lbm_s-734B"; "628.pop2_s-734B"; "649.fotonik3d_s-734B"; "654.roms_s-734B";
      "603.bwaves_s-734B"; "621.wrf_s-734B" ]
    |> List.map Suite.find
  in
  let test_benchmarks = [ Suite.find "470.lbm-734B"; Suite.find "627.cam4_s-734B" ] in

  let build ws =
    Cbox_dataset.build_prefetch spec ~config:cache ~kind:Prefetch.Next_line ~trace_len ws
  in
  Printf.printf "training CB-GAN on next-line prefetcher behaviour (%d epochs)...\n%!" epochs;
  let train_data = build training_benchmarks in
  let model = Cbgan.create ~seed:13 (Cbgan.default_config ()) in
  let options = { (Cbox_train.default_options ~epochs ~batch_size:4 ()) with Cbox_train.lr = 1e-3 } in
  ignore (Cbox_train.train ~log:print_endline model spec options (Cbox_dataset.to_samples train_data));
  let g = Cbox_infer.of_cbgan model in

  print_endline "\nevaluating on unseen benchmarks (MSE lower is better, SSIM higher):\n";
  let window = float_of_int spec.Heatmap.window in
  List.iter
    (fun (d : Cbox_dataset.benchmark_data) ->
      let access = List.map fst d.pairs and real = List.map snd d.pairs in
      let synthetic = List.hd (Cbox_infer.run g spec [ (d.cache, access) ]) in
      let scores =
        List.map2
          (fun r s ->
            ( Metrics.mse (Tensor.scale r (1.0 /. window)) (Tensor.scale s (1.0 /. window)),
              Metrics.ssim r s ))
          real synthetic
      in
      let mse = Metrics.mean (List.map fst scores) in
      let ssim = Metrics.mean (List.map snd scores) in
      Printf.printf "%-20s  MSE %.5f  SSIM %.4f\n" d.workload.Workload.name mse ssim;
      match (real, synthetic) with
      | r :: _, s :: _ ->
        print_endline "  real prefetch heatmap:";
        print_string (Heatmap.render_ascii ~max_rows:12 ~max_cols:48 r);
        print_endline "  synthetic prefetch heatmap:";
        print_string (Heatmap.render_ascii ~max_rows:12 ~max_cols:48 s)
      | _ -> ())
    (build test_benchmarks)
