(* Aggregated test runner for the CacheBox reproduction. Each module owns
   the suite for one layer of the system; `dune runtest` runs them all. *)

let () =
  Alcotest.run "cachebox"
    [
      Test_prng.suite;
      Test_tensor.suite;
      Test_dpool.suite;
      Test_blas.suite;
      Test_blas_tiled.suite;
      Test_workspace.suite;
      Test_parallel.suite;
      Test_gradcheck.suite;
      Test_golden.suite;
      Test_conv.suite;
      Test_value.suite;
      Test_nn.suite;
      Test_cache.suite;
      Test_hierarchy.suite;
      Test_multicachesim.suite;
      Test_workloads.suite;
      Test_heatmap.suite;
      Test_baselines.suite;
      Test_extensions.suite;
      Test_characterize.suite;
      Test_metrics.suite;
      Test_core.suite;
      Test_quant.suite;
      Test_compiled.suite;
      Test_distill.suite;
      Test_dataset.suite;
      Test_resilience.suite;
      Test_serve.suite;
      Test_serve_batch.suite;
      Test_router.suite;
      Test_reload.suite;
      Test_stream.suite;
      Test_integration.suite;
      Test_client.suite;
    ]
