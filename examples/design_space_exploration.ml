(* Design-space exploration (the paper's RQ3 use case).

   Train ONE CB-GAN on a few L1 configurations, then sweep a grid of
   set/way configurations — including ones never seen in training — and
   compare the model's predicted hit rates against exact simulation.
   This is the "early-stage design space exploration" workflow the paper
   motivates: one model, many candidate caches, no retraining.

   Run with:  dune exec examples/design_space_exploration.exe *)

let () =
  let spec = Heatmap.spec () in
  let trace_len = 12_000 in
  let epochs =
    match Sys.getenv_opt "CACHEBOX_EPOCHS" with Some v -> int_of_string v | None -> 8
  in

  let train_configs =
    [
      Cache.config ~sets:64 ~ways:12 ();
      Cache.config ~sets:128 ~ways:12 ();
      Cache.config ~sets:128 ~ways:6 ();
      Cache.config ~sets:128 ~ways:3 ();
    ]
  in
  (* The sweep includes the paper's three unseen configs and more. *)
  let sweep =
    [
      Cache.config ~sets:32 ~ways:12 ();
      Cache.config ~sets:64 ~ways:12 ();
      Cache.config ~sets:128 ~ways:6 ();
      Cache.config ~sets:256 ~ways:6 ();
      Cache.config ~sets:256 ~ways:12 ();
      Cache.config ~sets:512 ~ways:4 ();
    ]
  in

  let training_benchmarks =
    [ "603.bwaves_s-734B"; "605.mcf_s-734B"; "621.wrf_s-734B"; "625.x264_s-734B";
      "627.cam4_s-734B"; "644.nab_s-734B"; "657.xz_s-734B"; "648.exchange2_s-734B" ]
    |> List.map Suite.find
  in
  let probe_benchmark = Suite.find "638.imagick_s-734B" in

  Printf.printf "training one CB-GAN on %d configs x %d benchmarks (%d epochs)...\n%!"
    (List.length train_configs) (List.length training_benchmarks) epochs;
  let train_data =
    Cbox_dataset.build_l1 spec ~configs:train_configs ~trace_len training_benchmarks
  in
  let model = Cbgan.create ~seed:11 (Cbgan.default_config ()) in
  let options = { (Cbox_train.default_options ~epochs ~batch_size:4 ()) with Cbox_train.lr = 1e-3 } in
  ignore (Cbox_train.train ~log:print_endline model spec options (Cbox_dataset.to_samples train_data));
  let g = Cbox_infer.of_cbgan model in

  Printf.printf "\nsweeping %d candidate L1 configurations for %s:\n\n"
    (List.length sweep) probe_benchmark.Workload.name;
  Printf.printf "  %-14s %-6s %10s %10s %8s  %s\n" "config" "KiB" "simulated" "predicted" "|diff|%" "";
  List.iter
    (fun cfg ->
      let data = Cbox_dataset.build_l1 spec ~configs:[ cfg ] ~trace_len [ probe_benchmark ] in
      match data with
      | [ d ] ->
        let p = Cbox_infer.predict g spec d in
        let seen = List.exists (fun c -> c = cfg) train_configs in
        Printf.printf "  %-14s %-6d %10.4f %10.4f %8.2f  %s\n"
          (Cache.config_name cfg)
          (Cache.size_bytes cfg / 1024)
          p.Cbox_infer.true_hit_rate p.Cbox_infer.predicted_hit_rate
          (Cbox_infer.abs_pct_diff p)
          (if seen then "(seen in training)" else "(unseen)")
      | _ -> ())
    sweep;
  print_endline "\nThe model ranks candidate configurations without per-config retraining.";
  (* A tiny decision: pick the smallest config within 2 hit-rate points of
     the best predicted one — the kind of call a DSE loop automates. *)
  let predictions =
    List.filter_map
      (fun cfg ->
        match Cbox_dataset.build_l1 spec ~configs:[ cfg ] ~trace_len [ probe_benchmark ] with
        | [ d ] ->
          let p = Cbox_infer.predict g spec d in
          Some (cfg, p.Cbox_infer.predicted_hit_rate)
        | _ -> None)
      sweep
  in
  let best = List.fold_left (fun acc (_, hr) -> Float.max acc hr) 0.0 predictions in
  let pick =
    predictions
    |> List.filter (fun (_, hr) -> best -. hr < 0.02)
    |> List.sort (fun (a, _) (b, _) -> compare (Cache.size_bytes a) (Cache.size_bytes b))
  in
  match pick with
  | (cfg, hr) :: _ ->
    Printf.printf "DSE pick: %s (predicted hit rate %.4f, %d KiB)\n"
      (Cache.config_name cfg) hr (Cache.size_bytes cfg / 1024)
  | [] -> ()
