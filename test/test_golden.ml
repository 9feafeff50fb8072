(* Golden-trace conformance for the simulator substrate.

   Three self-contained synthetic traces (streaming, hot-set + pointer-chase
   mix, strided with phase changes) run through the full Hierarchy and
   through Multicachesim; per-level hit/miss counts must match the golden
   values checked in below. The traces are built right here from fixed
   arithmetic — no dependency on the workload generators — so any change in
   these counts means the cache substrate itself changed behaviour. *)

let block = 64

(* A linear-congruential generator (constants from Numerical Recipes) keeps
   the "random" component reproducible forever. *)
let lcg state = ((state * 1664525) + 1013904223) land 0x3FFFFFFF

let streaming_trace n =
  (* Sequential sweep over a 256 KiB buffer, wrapping. *)
  Array.init n (fun i -> i * 8 mod (256 * 1024))

let mixed_trace n =
  (* Phases of: zipf-ish hot set, pointer chasing (LCG), stack-like reuse. *)
  let state = ref 12345 in
  Array.init n (fun i ->
      match i / 1000 mod 3 with
      | 0 -> i mod 64 * block (* hot set: 64 blocks *)
      | 1 ->
        state := lcg !state;
        (!state mod (1024 * 1024)) land lnot 7
      | _ -> (n - i) mod 512 * 16)

let strided_trace n =
  (* Stride sweeps whose stride grows each phase: 8, 64, 256, 1024 bytes. *)
  Array.init n (fun i ->
      let phase = i / 2000 mod 4 in
      let stride = [| 8; 64; 256; 1024 |].(phase) in
      i mod 2000 * stride mod (2 * 1024 * 1024))

let traces = [ ("streaming", streaming_trace 12_000); ("mixed", mixed_trace 12_000); ("strided", strided_trace 12_000) ]

let l1 = Cache.config ~sets:64 ~ways:8 ()
let l2 = Cache.config ~sets:256 ~ways:8 ()
let l3 = Cache.config ~sets:512 ~ways:16 ()

(* Golden per-level (accesses, hits, misses), produced by this exact
   configuration at the time the test was written. Regenerate with
   CACHEBOX_PRINT_GOLDEN=1 — but only after convincing yourself the
   behaviour change is intentional. *)
let golden_hierarchy =
  [
    ("streaming", [ ("L1", 12000, 10500, 1500); ("L2", 1500, 0, 1500); ("L3", 1500, 0, 1500) ]);
    ("mixed", [ ("L1", 12000, 7554, 4446); ("L2", 4446, 646, 3800); ("L3", 3800, 122, 3678) ]);
    ("strided", [ ("L1", 12000, 4000, 8000); ("L2", 8000, 2000, 6000); ("L3", 6000, 875, 5125) ]);
  ]

(* Multicachesim with the L1 geometry must miss exactly as often as the
   hierarchy's L1 (the L1 never sees what sits below it). *)
let golden_mcs = [ ("streaming", 1500); ("mixed", 4446); ("strided", 8000) ]

let run_hierarchy trace =
  let h = Hierarchy.create ~l2 ~l3 ~l1 () in
  Hierarchy.run h trace;
  List.map
    (fun (lvl, (s : Cache.stats)) ->
      (Hierarchy.level_name lvl, s.Cache.accesses, s.Cache.hits, s.Cache.misses))
    (Hierarchy.stats h)

(* The other four policies at the L1 geometry, and the 3-level hierarchy
   under each L1 prefetcher. LRU above is the paper's policy; these pin
   the rest of the simulator's behaviour. *)
let policies =
  [
    ("fifo", Cache.Fifo);
    ("plru", Cache.Plru);
    ("srrip", Cache.Srrip);
    ("rnd7", Cache.Random_policy 7);
  ]

let prefetchers =
  [ ("next-line", Prefetch.Next_line); ("stride", Prefetch.Stride { degree = 2; table_size = 64 }) ]

(* Taken with CACHEBOX_PRINT_GOLDEN=1 while LRU and FIFO sets still kept a
   use or fill stamp per way and the hierarchy recorded every access, so
   these pin the simulator across that change. *)
let golden_policies =
  [
    ( "streaming",
      [
        ("fifo", (12000, 10500, 1500));
        ("plru", (12000, 10500, 1500));
        ("srrip", (12000, 10500, 1500));
        ("rnd7", (12000, 10500, 1500));
      ] );
    ( "mixed",
      [
        ("fifo", (12000, 7549, 4451));
        ("plru", (12000, 7560, 4440));
        ("srrip", (12000, 7868, 4132));
        ("rnd7", (12000, 7578, 4422));
      ] );
    ( "strided",
      [
        ("fifo", (12000, 4000, 8000));
        ("plru", (12000, 4000, 8000));
        ("srrip", (12000, 4000, 8000));
        ("rnd7", (12000, 3977, 8023));
      ] );
  ]

(* Per prefetcher: the per-level stats and the prefetches issued. *)
let golden_prefetch =
  [
    ( "streaming",
      [
        ("next-line", ([ ("L1", 12000, 11999, 1); ("L2", 1, 0, 1); ("L3", 1, 0, 1) ], 12000));
        ( "stride",
          ([ ("L1", 12000, 10500, 1500); ("L2", 1500, 0, 1500); ("L3", 1500, 0, 1500) ], 0) );
      ] );
    ( "mixed",
      [
        ( "next-line",
          ([ ("L1", 12000, 7621, 4379); ("L2", 4379, 625, 3754); ("L3", 3754, 114, 3640) ], 12000)
        );
        ( "stride",
          ([ ("L1", 12000, 7614, 4386); ("L2", 4386, 586, 3800); ("L3", 3800, 122, 3678) ], 7598)
        );
      ] );
    ( "strided",
      [
        ( "next-line",
          ([ ("L1", 12000, 7998, 4002); ("L2", 4002, 1, 4001); ("L3", 4001, 500, 3501) ], 12000)
        );
        ( "stride",
          ([ ("L1", 12000, 10134, 1866); ("L2", 1866, 310, 1556); ("L3", 1556, 8, 1548) ], 11866)
        );
      ] );
  ]

let run_policy policy trace =
  let c = Cache.create { l1 with Cache.policy } in
  Array.iter (fun a -> ignore (Cache.access c a)) trace;
  let s = Cache.stats c in
  (s.Cache.accesses, s.Cache.hits, s.Cache.misses)

let run_prefetch kind trace =
  let h = Hierarchy.create ~l2 ~l3 ~l1_prefetcher:kind ~l1 () in
  Hierarchy.run h trace;
  ( List.map
      (fun (lvl, (s : Cache.stats)) ->
        (Hierarchy.level_name lvl, s.Cache.accesses, s.Cache.hits, s.Cache.misses))
      (Hierarchy.stats h),
    Hierarchy.prefetches h )

let print_golden () =
  let print_levels ls =
    List.iter (fun (l, a, h, m) -> Printf.printf " (%S, %d, %d, %d);" l a h m) ls
  in
  List.iter
    (fun (name, trace) ->
      Printf.printf "(%S, [" name;
      print_levels (run_hierarchy trace);
      let m = Multicachesim.create ~sets:64 ~ways:8 ~block_bytes:block in
      let misses = Multicachesim.run m trace in
      Printf.printf " ]);  (* mcs misses: %d *)\n" misses)
    traces;
  List.iter
    (fun (name, trace) ->
      Printf.printf "(%S, [" name;
      List.iter
        (fun (p, policy) ->
          let a, h, m = run_policy policy trace in
          Printf.printf " (%S, (%d, %d, %d));" p a h m)
        policies;
      Printf.printf " ]);  (* L1 policies *)\n")
    traces;
  List.iter
    (fun (name, trace) ->
      Printf.printf "(%S, [" name;
      List.iter
        (fun (p, kind) ->
          let levels, issued = run_prefetch kind trace in
          Printf.printf "\n  (%S, ([" p;
          print_levels levels;
          Printf.printf " ], %d));" issued)
        prefetchers;
      Printf.printf " ]);  (* prefetchers *)\n")
    traces

let () = if Sys.getenv_opt "CACHEBOX_PRINT_GOLDEN" <> None then print_golden ()

let quad a b c d =
  Alcotest.testable
    (fun ppf (w, x, y, z) ->
      Format.fprintf ppf "(%a, %a, %a, %a)" (Alcotest.pp a) w (Alcotest.pp b) x (Alcotest.pp c) y
        (Alcotest.pp d) z)
    (fun (w1, x1, y1, z1) (w2, x2, y2, z2) ->
      Alcotest.equal a w1 w2 && Alcotest.equal b x1 x2 && Alcotest.equal c y1 y2
      && Alcotest.equal d z1 z2)

let levels = Alcotest.list (quad Alcotest.string Alcotest.int Alcotest.int Alcotest.int)

let test_hierarchy_golden name () =
  let trace = List.assoc name traces in
  let got = run_hierarchy trace in
  Alcotest.check levels (name ^ " per-level stats") (List.assoc name golden_hierarchy) got

let test_mcs_golden name () =
  let trace = List.assoc name traces in
  let m = Multicachesim.create ~sets:64 ~ways:8 ~block_bytes:block in
  Alcotest.(check int) (name ^ " mcs misses") (List.assoc name golden_mcs) (Multicachesim.run m trace)

let test_mcs_matches_l1 name () =
  (* Structural cross-check, independent of the pinned numbers: the two
     simulator implementations must agree on the L1 miss count. *)
  let trace = List.assoc name traces in
  let l1_misses =
    match run_hierarchy trace with
    | ("L1", _, _, m) :: _ -> m
    | _ -> Alcotest.fail "hierarchy did not report L1 first"
  in
  let m = Multicachesim.create ~sets:64 ~ways:8 ~block_bytes:block in
  Alcotest.(check int) (name ^ " L1 misses agree") l1_misses (Multicachesim.run m trace)

let test_policy_golden name (p, policy) () =
  let trace = List.assoc name traces in
  Alcotest.(check (triple int int int))
    (name ^ " " ^ p ^ " L1 stats")
    (List.assoc p (List.assoc name golden_policies))
    (run_policy policy trace)

let test_prefetch_golden name (p, kind) () =
  let trace = List.assoc name traces in
  let want_levels, want_issued = List.assoc p (List.assoc name golden_prefetch) in
  let levels_got, issued = run_prefetch kind trace in
  Alcotest.check levels (name ^ " " ^ p ^ " per-level stats") want_levels levels_got;
  Alcotest.(check int) (name ^ " " ^ p ^ " prefetches") want_issued issued

(* The policy and prefetcher cases come after the LRU ones, so those keep
   their indices. *)
let suite =
  ( "golden-trace",
    List.concat_map
      (fun (name, _) ->
        [
          Alcotest.test_case (name ^ " hierarchy") `Quick (test_hierarchy_golden name);
          Alcotest.test_case (name ^ " multicachesim") `Quick (test_mcs_golden name);
          Alcotest.test_case (name ^ " mcs = hierarchy L1") `Quick (test_mcs_matches_l1 name);
        ])
      traces
    @ List.concat_map
        (fun (name, _) ->
          List.map
            (fun ((p, _) as policy) ->
              Alcotest.test_case (name ^ " " ^ p) `Quick (test_policy_golden name policy))
            policies
          @ List.map
              (fun ((p, _) as kind) ->
                Alcotest.test_case (name ^ " " ^ p ^ " prefetch") `Quick
                  (test_prefetch_golden name kind))
              prefetchers)
        traces )
