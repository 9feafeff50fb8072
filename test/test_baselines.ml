(* Reuse-distance engine (against a naive O(n^2) reference), the binomial
   set-associative model, and the HRD / STM / TabSynth predictors. *)

let naive_distances blocks =
  (* Stack of blocks in LRU order (most recent first). *)
  let n = Array.length blocks in
  let out = Array.make n Reuse_distance.infinite in
  let stack = ref [] in
  for i = 0 to n - 1 do
    let b = blocks.(i) in
    let rec find acc depth = function
      | [] -> (None, List.rev acc)
      | x :: rest ->
        if x = b then (Some depth, List.rev_append acc rest)
        else find (x :: acc) (depth + 1) rest
    in
    let found, without = find [] 0 !stack in
    (match found with Some d -> out.(i) <- d | None -> ());
    stack := b :: without
  done;
  out

let test_distances_vs_naive =
  QCheck.Test.make ~name:"fenwick distances = naive stack" ~count:60
    QCheck.(list_of_size Gen.(1 -- 150) (int_range 0 30))
    (fun bs ->
      let blocks = Array.of_list bs in
      let trace = Array.map (fun b -> b * 64) blocks in
      Reuse_distance.distances trace = naive_distances blocks)

let test_distances_simple () =
  (* a b c a : distance of the second a is 2 (b and c in between). *)
  let trace = [| 0; 64; 128; 0 |] in
  let d = Reuse_distance.distances trace in
  Alcotest.(check int) "cold" Reuse_distance.infinite d.(0);
  Alcotest.(check int) "distance 2" 2 d.(3)

let test_fully_associative_hit_rate =
  (* LRU stack property: hit iff distance < capacity. Cross-check with a
     fully-associative Cache (sets = 1). *)
  QCheck.Test.make ~name:"fully-assoc prediction is exact" ~count:40
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 200) (int_range 0 40)))
    (fun (ways, bs) ->
      let trace = Array.of_list (List.map (fun b -> b * 64) bs) in
      let dists = Reuse_distance.distances trace in
      let predicted = Reuse_distance.hit_rate_fully_associative ~capacity_blocks:ways dists in
      let cache = Cache.create (Cache.config ~sets:1 ~ways ()) in
      Array.iter (fun a -> ignore (Cache.access cache a)) trace;
      Float.abs (predicted -. Cache.hit_rate (Cache.stats cache)) < 1e-9)

let test_histogram () =
  let h = Reuse_distance.histogram [| 1; 1; 2; Reuse_distance.infinite |] in
  Alcotest.(check int) "entries" 3 (List.length h);
  Alcotest.(check int) "count of 1" 2 (List.assoc 1 h)

let test_binomial_extremes () =
  Alcotest.(check (float 1e-9)) "cold never hits" 0.0
    (Reuse_distance.set_associative_hit_probability ~sets:64 ~ways:8
       ~distance:Reuse_distance.infinite);
  Alcotest.(check (float 1e-9)) "distance 0 always hits" 1.0
    (Reuse_distance.set_associative_hit_probability ~sets:64 ~ways:8 ~distance:0);
  (* sets = 1 degenerates to the fully-associative rule. *)
  Alcotest.(check (float 1e-9)) "sets=1 below ways" 1.0
    (Reuse_distance.set_associative_hit_probability ~sets:1 ~ways:4 ~distance:3);
  Alcotest.(check (float 1e-9)) "sets=1 at ways" 0.0
    (Reuse_distance.set_associative_hit_probability ~sets:1 ~ways:4 ~distance:4)

let test_binomial_monotonicity () =
  (* More ways -> higher hit probability; larger distance -> lower. *)
  let p w d = Reuse_distance.set_associative_hit_probability ~sets:16 ~ways:w ~distance:d in
  Alcotest.(check bool) "ways monotone" true (p 4 32 >= p 2 32);
  Alcotest.(check bool) "distance monotone" true (p 4 16 >= p 4 64);
  let v = p 8 40 in
  Alcotest.(check bool) "probability" true (v >= 0.0 && v <= 1.0)

let test_hrd_exact_on_small_working_set () =
  (* A working set that trivially fits: HRD must predict ~the true rate. *)
  let trace = Array.concat (List.init 50 (fun _ -> [| 0; 64; 128; 192 |])) in
  let cfg = Cache.config ~sets:64 ~ways:12 () in
  let cache = Cache.create cfg in
  Array.iter (fun a -> ignore (Cache.access cache a)) trace;
  let truth = Cache.hit_rate (Cache.stats cache) in
  let predicted = Hrd.predict_l1 cfg trace in
  Alcotest.(check bool) "close to truth" true (Float.abs (truth -. predicted) < 0.02)

let test_hrd_multi_level_shape () =
  let rng = Prng.create 21 in
  let trace = Array.init 3000 (fun _ -> Prng.int rng 4096 * 64) in
  let preds =
    Hrd.predict
      ~configs:[ Cache.config ~sets:16 ~ways:4 (); Cache.config ~sets:64 ~ways:8 () ]
      trace
  in
  Alcotest.(check int) "two predictions" 2 (List.length preds);
  List.iter
    (fun p -> Alcotest.(check bool) "in [0,1]" true (p >= 0.0 && p <= 1.0))
    preds

let test_stm_profile_and_clone () =
  let trace = Array.init 2000 (fun i -> i * 8) in
  let p = Stm.profile trace in
  let clone = Stm.clone p 500 in
  Alcotest.(check int) "clone length" 500 (Array.length clone);
  (* A pure sequential trace clones into a mostly-sequential trace. *)
  let sequentialish = ref 0 in
  for i = 1 to 499 do
    if clone.(i) - clone.(i - 1) >= 0 && clone.(i) - clone.(i - 1) <= 128 then
      incr sequentialish
  done;
  Alcotest.(check bool) "clone preserves streaminess" true (!sequentialish > 350)

(* [cachebox baselines] refuses a --trace-len below 2: STM profiles strides,
   and a stride takes two accesses. *)
let test_stm_needs_two_accesses () =
  let cfg = Cache.config ~sets:4 ~ways:2 () in
  List.iter
    (fun trace ->
      Alcotest.check_raises
        (Printf.sprintf "%d access(es)" (Array.length trace))
        (Invalid_argument "Stm.profile: trace too short")
        (fun () -> ignore (Stm.predict cfg trace)))
    [ [||]; [| 0 |] ];
  let p = Stm.predict cfg [| 0; 64 |] in
  Alcotest.(check bool) "two accesses predict in [0,1]" true (p >= 0.0 && p <= 1.0)

let test_stm_prediction_on_stream () =
  (* Streaming trace: true hit rate is high (8B stride in 64B blocks);
     STM's clone should land in the right regime. *)
  let trace = Array.init 5000 (fun i -> i * 8) in
  let cfg = Cache.config ~sets:64 ~ways:12 () in
  let cache = Cache.create cfg in
  Array.iter (fun a -> ignore (Cache.access cache a)) trace;
  let truth = Cache.hit_rate (Cache.stats cache) in
  let pred = Stm.predict cfg trace in
  Alcotest.(check bool) "within 15 points" true (Float.abs (truth -. pred) < 0.15)

let test_tabsynth_lengths_and_range =
  QCheck.Test.make ~name:"tabsynth clones are well-formed" ~count:20
    QCheck.(pair small_int (int_range 50 300))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let trace = Array.init n (fun _ -> Prng.int rng 10_000 * 8) in
      List.for_all
        (fun variant ->
          let clone = Tabsynth.synthesize ~seed ~variant trace in
          Array.length clone = n && Array.for_all (fun a -> a >= 0) clone)
        [ Tabsynth.Base; Tabsynth.Rd; Tabsynth.Ic ])

let test_tab_rd_preserves_distance_profile () =
  (* The RD sampler matches the reuse-distance histogram by construction;
     verify the hit-rate consequence: a fully-associative prediction on the
     clone is close to the original's. *)
  let rng = Prng.create 31 in
  let trace = Array.init 4000 (fun _ -> Prng.zipf rng ~n:512 ~s:1.1 * 64) in
  let clone = Tabsynth.synthesize ~variant:Tabsynth.Rd trace in
  let hr t =
    Reuse_distance.hit_rate_fully_associative ~capacity_blocks:128
      (Reuse_distance.distances t)
  in
  Alcotest.(check bool) "distance profile carried over" true
    (Float.abs (hr trace -. hr clone) < 0.08)

let test_tab_ic_preserves_deltas () =
  (* A constant-stride trace has a single delta; the Markov clone must
     reproduce it exactly. *)
  let trace = Array.init 1000 (fun i -> i * 128) in
  let clone = Tabsynth.synthesize ~variant:Tabsynth.Ic ~block_bytes:64 trace in
  let ok = ref true in
  for i = 1 to 999 do
    if clone.(i) - clone.(i - 1) <> 128 then ok := false
  done;
  Alcotest.(check bool) "stride preserved" true !ok

let test_predictions_in_range () =
  let rng = Prng.create 41 in
  let trace = Array.init 1500 (fun _ -> Prng.int rng 100_000) in
  let cfg = Cache.config ~sets:32 ~ways:4 () in
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " in [0,1]") true (p >= 0.0 && p <= 1.0))
    [
      ("hrd", Hrd.predict_l1 cfg trace);
      ("stm", Stm.predict cfg trace);
      ("tab-base", Tabsynth.predict ~variant:Tabsynth.Base cfg trace);
      ("tab-rd", Tabsynth.predict ~variant:Tabsynth.Rd cfg trace);
      ("tab-ic", Tabsynth.predict ~variant:Tabsynth.Ic cfg trace);
    ]

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "baselines",
    [
      Alcotest.test_case "distances simple" `Quick test_distances_simple;
      Alcotest.test_case "histogram" `Quick test_histogram;
      Alcotest.test_case "binomial extremes" `Quick test_binomial_extremes;
      Alcotest.test_case "binomial monotonicity" `Quick test_binomial_monotonicity;
      Alcotest.test_case "hrd exact on tiny working set" `Quick test_hrd_exact_on_small_working_set;
      Alcotest.test_case "hrd multi-level" `Quick test_hrd_multi_level_shape;
      Alcotest.test_case "stm profile/clone" `Quick test_stm_profile_and_clone;
      Alcotest.test_case "stm stream prediction" `Quick test_stm_prediction_on_stream;
      Alcotest.test_case "stm needs two accesses" `Quick test_stm_needs_two_accesses;
      Alcotest.test_case "tab-rd distance profile" `Quick test_tab_rd_preserves_distance_profile;
      Alcotest.test_case "tab-ic delta preservation" `Quick test_tab_ic_preserves_deltas;
      Alcotest.test_case "predictions in range" `Quick test_predictions_in_range;
      qc test_distances_vs_naive;
      qc test_fully_associative_hit_rate;
      qc test_tabsynth_lengths_and_range;
    ] )
