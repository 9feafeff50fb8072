(* Dataset pipeline: streaming accumulator vs recorded-trace heatmaps, and
   streaming-vs-reference builder bit-identity at several domain counts.

   Everything here checks *exact* equality: the streaming path is an
   optimization, not an approximation, so any deviation from the recorded
   reference implementations is a bug. *)

let block = 64

(* --- helpers --- *)

let tensor_eq a b =
  Tensor.shape a = Tensor.shape b
  &&
  let xa = Tensor.to_array a and xb = Tensor.to_array b in
  xa = xb

let tensors_eq la lb = List.length la = List.length lb && List.for_all2 tensor_eq la lb

let pairs_eq la lb =
  List.length la = List.length lb
  && List.for_all2 (fun (a1, m1) (a2, m2) -> tensor_eq a1 a2 && tensor_eq m1 m2) la lb

let data_eq (a : Cbox_dataset.benchmark_data list) (b : Cbox_dataset.benchmark_data list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Cbox_dataset.benchmark_data) (y : Cbox_dataset.benchmark_data) ->
         x.Cbox_dataset.workload.Workload.name = y.Cbox_dataset.workload.Workload.name
         && x.Cbox_dataset.cache = y.Cbox_dataset.cache
         && x.Cbox_dataset.level = y.Cbox_dataset.level
         && Int64.bits_of_float x.Cbox_dataset.true_hit_rate
            = Int64.bits_of_float y.Cbox_dataset.true_hit_rate
         && pairs_eq x.Cbox_dataset.pairs y.Cbox_dataset.pairs)
       a b

(* --- Accum vs of_trace / pair_of_trace --- *)

(* Specs are generated via an integer overlap-column count so the
   inter-image step is always positive. *)
let gen_spec =
  QCheck.Gen.(
    let* height = oneofl [ 4; 8; 16 ] in
    let* width = int_range 2 12 in
    let* window = int_range 1 8 in
    let* oc = int_range 0 (width - 1) in
    let* granularity = oneofl [ 1; 64 ] in
    return
      (Heatmap.spec ~height ~width ~window
         ~overlap:(float_of_int oc /. float_of_int width)
         ~granularity ()))

let gen_case =
  QCheck.Gen.(
    let* spec = gen_spec in
    let per_image = Heatmap.accesses_per_image spec in
    (* From one short of a full image up to ~4 images, hitting the
       exact-length boundary often. *)
    let* len = int_range (max 0 (per_image - 1)) ((4 * per_image) + 3) in
    let* seed = int_range 0 10_000 in
    return (spec, len, seed))

let arb_case =
  QCheck.make
    ~print:(fun (s, len, seed) ->
      Printf.sprintf "h%d w%d win%d ov%.3f g%d len%d seed%d" s.Heatmap.height s.Heatmap.width
        s.Heatmap.window s.Heatmap.overlap s.Heatmap.granularity len seed)
    gen_case

let test_accum_matches_trace =
  QCheck.Test.make ~name:"Accum = of_trace/pair_of_trace (bit-identical)" ~count:200 arb_case
    (fun (spec, len, seed) ->
      let rng = Prng.create seed in
      let addresses = Array.init len (fun _ -> Prng.int rng 100_000) in
      let hits = Array.init len (fun _ -> Prng.bool rng) in
      let acc = Heatmap.Accum.create ~planes:2 spec in
      Array.iteri
        (fun i addr -> Heatmap.Accum.add acc ~addr ~mask:(if hits.(i) then 1 else 3))
        addresses;
      if len < Heatmap.accesses_per_image spec then Heatmap.Accum.completed acc = 0
      else begin
        let pairs = Heatmap.pair_of_trace spec ~addresses ~hits in
        let expect_access = List.map fst pairs and expect_miss = List.map snd pairs in
        Heatmap.Accum.completed acc = List.length pairs
        && tensors_eq (Heatmap.Accum.images acc ~plane:0) expect_access
        && tensors_eq (Heatmap.Accum.images acc ~plane:1) expect_miss
        && Heatmap.Accum.deoverlapped_mass acc ~plane:0
           = Heatmap.deoverlapped_sum spec expect_access
        && Heatmap.Accum.deoverlapped_mass acc ~plane:1
           = Heatmap.deoverlapped_sum spec expect_miss
      end)

let test_accum_empty () =
  let spec = Heatmap.spec ~height:8 ~width:4 ~window:5 ~overlap:0.25 () in
  let acc = Heatmap.Accum.create ~planes:2 spec in
  Alcotest.(check int) "no images" 0 (Heatmap.Accum.completed acc);
  Alcotest.(check (float 0.0)) "no mass" 0.0 (Heatmap.Accum.deoverlapped_mass acc ~plane:0)

(* --- streaming builders vs recorded references --- *)

let spec = Heatmap.spec ()
let l1 = Cache.config ~sets:64 ~ways:8 ()

let workloads () =
  List.filteri (fun i _ -> i < 4) (Suite.of_suite Workload.Spec)

let trace_len = 4_000
let l2 = Cache.config ~sets:256 ~ways:8 ()
let l3 = Cache.config ~sets:512 ~ways:16 ()

let test_build_l1_matches_reference () =
  let ws = workloads () in
  let configs = [ l1; Cache.config ~sets:32 ~ways:4 () ] in
  let reference = Cbox_dataset.build_l1_reference spec ~configs ~trace_len ws in
  List.iter
    (fun domains ->
      let got =
        Dpool.with_domains domains (fun () -> Cbox_dataset.build_l1 spec ~configs ~trace_len ws)
      in
      Alcotest.(check bool)
        (Printf.sprintf "build_l1 bit-identical at %d domains" domains)
        true (data_eq reference got))
    [ 1; 4 ]

let test_build_hierarchy_matches_reference () =
  let ws = workloads () in
  let reference = Cbox_dataset.build_hierarchy_reference spec ~l1 ~l2 ~l3 ~trace_len ws in
  List.iter
    (fun domains ->
      let got =
        Dpool.with_domains domains (fun () ->
            Cbox_dataset.build_hierarchy spec ~l1 ~l2 ~l3 ~trace_len ws)
      in
      Alcotest.(check bool)
        (Printf.sprintf "build_hierarchy bit-identical at %d domains" domains)
        true (data_eq reference got))
    [ 1; 4 ]

let test_build_prefetch_matches_reference () =
  let ws = workloads () in
  let kind = Prefetch.Next_line in
  let reference = Cbox_dataset.build_prefetch_reference spec ~config:l1 ~kind ~trace_len ws in
  List.iter
    (fun domains ->
      let got =
        Dpool.with_domains domains (fun () ->
            Cbox_dataset.build_prefetch spec ~config:l1 ~kind ~trace_len ws)
      in
      Alcotest.(check bool)
        (Printf.sprintf "build_prefetch bit-identical at %d domains" domains)
        true (data_eq reference got))
    [ 1; 4 ]

(* Configs share each workload's trace but never each other's state: a
   several-config build is the per-config builds, workload-major. *)
let test_build_l1_configs_independent () =
  let ws = workloads () in
  let configs = [ l1; Cache.config ~sets:32 ~ways:4 (); Cache.config ~sets:16 ~ways:2 () ] in
  let together = Cbox_dataset.build_l1 spec ~configs ~trace_len ws in
  let apart =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun cfg -> Cbox_dataset.build_l1 spec ~configs:[ cfg ] ~trace_len [ w ])
          configs)
      ws
  in
  Alcotest.(check bool) "several configs = one build per config" true (data_eq apart together)

(* [cachebox infer] refuses a --trace-len below one image: under it every
   entry has no pairs and a hit rate of 0 computed over nothing. *)
let test_build_l1_first_image () =
  let ws = List.filteri (fun i _ -> i < 2) (workloads ()) in
  let configs = [ l1; Cache.config ~sets:32 ~ways:4 () ] in
  let per_image = Heatmap.accesses_per_image spec in
  let pair_counts trace_len =
    List.map
      (fun (d : Cbox_dataset.benchmark_data) -> List.length d.Cbox_dataset.pairs)
      (Cbox_dataset.build_l1 spec ~configs ~trace_len ws)
  in
  Alcotest.(check (list int)) "one access short: no pairs" [ 0; 0; 0; 0 ]
    (pair_counts (per_image - 1));
  List.iter
    (fun (d : Cbox_dataset.benchmark_data) ->
      Alcotest.(check (float 0.0)) "no image, no truth" 0.0 d.Cbox_dataset.true_hit_rate)
    (Cbox_dataset.build_l1 spec ~configs ~trace_len:(per_image - 1) ws);
  Alcotest.(check (list int)) "one image: one pair" [ 1; 1; 1; 1 ] (pair_counts per_image)

(* A level enters the hierarchy dataset only with at least one image, and
   L1, which sees the whole trace, always does. *)
let test_build_hierarchy_levels_hold_images () =
  let ws = workloads () in
  List.iter
    (fun trace_len ->
      let data = Cbox_dataset.build_hierarchy spec ~l1 ~l2 ~l3 ~trace_len ws in
      List.iter
        (fun (d : Cbox_dataset.benchmark_data) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s at %d holds an image" d.workload.Workload.name
               (Hierarchy.level_name d.level) trace_len)
            true (d.pairs <> []))
        data;
      Alcotest.(check (list string))
        (Printf.sprintf "every workload has L1 at %d" trace_len)
        (List.map (fun (w : Workload.t) -> w.Workload.name) ws)
        (List.filter_map
           (fun (d : Cbox_dataset.benchmark_data) ->
             if d.level = Hierarchy.L1 then Some d.workload.Workload.name else None)
           data))
    [ Heatmap.accesses_per_image spec; trace_len ]

(* --- golden per-level counts through the observer path --- *)

let lcg state = ((state * 1664525) + 1013904223) land 0x3FFFFFFF

let streaming_trace n = Array.init n (fun i -> i * 8 mod (256 * 1024))

let mixed_trace n =
  let state = ref 12345 in
  Array.init n (fun i ->
      match i / 1000 mod 3 with
      | 0 -> i mod 64 * block
      | 1 ->
        state := lcg !state;
        (!state mod (1024 * 1024)) land lnot 7
      | _ -> (n - i) mod 512 * 16)

let strided_trace n =
  Array.init n (fun i ->
      let phase = i / 2000 mod 4 in
      let stride = [| 8; 64; 256; 1024 |].(phase) in
      i mod 2000 * stride mod (2 * 1024 * 1024))

(* Same traces, configs and pins as test_golden.ml — but counted through
   [Hierarchy.run_observed], the streaming builders' event source, instead
   of the recorded per-level statistics. *)
let golden_observed =
  [
    ("streaming", streaming_trace 12_000,
     [ (12000, 10500, 1500); (1500, 0, 1500); (1500, 0, 1500) ]);
    ("mixed", mixed_trace 12_000, [ (12000, 7554, 4446); (4446, 646, 3800); (3800, 122, 3678) ]);
    ("strided", strided_trace 12_000,
     [ (12000, 4000, 8000); (8000, 2000, 6000); (6000, 875, 5125) ]);
  ]

let test_observed_golden (name, trace, expect) () =
  let golden_l1 = Cache.config ~sets:64 ~ways:8 () in
  List.iter
    (fun domains ->
      Dpool.with_domains domains (fun () ->
          let h = Hierarchy.create ~l2 ~l3 ~l1:golden_l1 () in
          let nlevels = Array.length (Hierarchy.levels h) in
          let acc = Array.make nlevels 0
          and hits = Array.make nlevels 0
          and misses = Array.make nlevels 0 in
          Hierarchy.run_observed h trace ~f:(fun level _addr hit ->
              acc.(level) <- acc.(level) + 1;
              if hit then hits.(level) <- hits.(level) + 1
              else misses.(level) <- misses.(level) + 1);
          let got = List.init nlevels (fun i -> (acc.(i), hits.(i), misses.(i))) in
          Alcotest.(check (list (triple int int int)))
            (Printf.sprintf "%s observed per-level counts (%d domains)" name domains)
            expect got))
    [ 1; 4 ]

(* Two algorithms on one graph, generated by two (then four) domains at
   once from fresh workloads, so nothing has built the shared graph
   beforehand: its once-only build must be domain-safe. *)
let test_shared_graph_parallel_build () =
  let spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 () in
  List.iter
    (fun domains ->
      let ws =
        List.filter
          (fun (w : Workload.t) ->
            List.mem w.Workload.name [ "bfs.uni-large"; "pagerank.uni-large" ])
          (Graphs.workloads ())
      in
      let data =
        Dpool.with_domains domains (fun () ->
            Cbox_dataset.build_l1 spec ~configs:[ Cache.config ~sets:16 ~ways:4 () ]
              ~trace_len:4000 ws)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "both workloads built (%d domains)" domains)
        [ "bfs.uni-large"; "pagerank.uni-large" ]
        (List.map (fun (d : Cbox_dataset.benchmark_data) -> d.workload.Workload.name) data))
    [ 2; 4 ]

let suite =
  ( "dataset",
    [
      QCheck_alcotest.to_alcotest test_accum_matches_trace;
      Alcotest.test_case "accum: short trace yields nothing" `Quick test_accum_empty;
      Alcotest.test_case "build_l1 = reference (1 and 4 domains)" `Quick
        test_build_l1_matches_reference;
      Alcotest.test_case "build_hierarchy = reference (1 and 4 domains)" `Quick
        test_build_hierarchy_matches_reference;
      Alcotest.test_case "build_prefetch = reference (1 and 4 domains)" `Quick
        test_build_prefetch_matches_reference;
      Alcotest.test_case "build_l1: several configs = one build per config" `Quick
        test_build_l1_configs_independent;
      Alcotest.test_case "build_l1: first pair at one image" `Quick test_build_l1_first_image;
      Alcotest.test_case "build_hierarchy: every level entry holds an image" `Quick
        test_build_hierarchy_levels_hold_images;
    ]
    @ List.map
        (fun ((name, _, _) as case) ->
          Alcotest.test_case ("observed golden: " ^ name) `Quick (test_observed_golden case))
        golden_observed
    @ [
        Alcotest.test_case "one graph, two workloads, parallel first build" `Quick
          test_shared_graph_parallel_build;
      ] )
