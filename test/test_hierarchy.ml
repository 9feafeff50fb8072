(* Multi-level hierarchy: the per-level event streams of [run_observed],
   miss propagation, and prefetcher integration. *)

let l1 = Cache.config ~sets:2 ~ways:2 ()
let l2 = Cache.config ~sets:4 ~ways:4 ()
let l3 = Cache.config ~sets:8 ~ways:4 ()

let blocks bs = Array.of_list (List.map (fun b -> b * 64) bs)

(* Every (address, hit) event [run_observed] reports, one list per level,
   innermost first. *)
let observe h trace =
  let events = Array.map (fun _ -> ref []) (Hierarchy.levels h) in
  Hierarchy.run_observed h trace ~f:(fun level addr hit ->
      events.(level) := (addr, hit) :: !(events.(level)));
  Array.to_list (Array.map (fun evs -> List.rev !evs) events)

let misses evs = List.filter_map (fun (a, hit) -> if hit then None else Some a) evs

let test_l1_only () =
  let h = Hierarchy.create ~l1 () in
  match observe h (blocks [ 0; 0; 1 ]) with
  | [ evs ] ->
    Alcotest.(check (list int)) "three accesses" [ 0; 0; 64 ] (List.map fst evs);
    Alcotest.(check (list bool)) "hits" [ false; true; false ] (List.map snd evs)
  | _ -> Alcotest.fail "expected one level"

let test_miss_propagation () =
  let h = Hierarchy.create ~l2 ~l3 ~l1 () in
  match observe h (blocks [ 0; 0; 1; 0 ]) with
  | [ e1; e2; e3 ] ->
    Alcotest.(check int) "L1 sees all" 4 (List.length e1);
    Alcotest.(check int) "L2 sees exactly the L1 misses" (List.length (misses e1))
      (List.length e2);
    Alcotest.(check int) "L3 sees exactly the L2 misses" (List.length (misses e2))
      (List.length e3)
  | _ -> Alcotest.fail "expected three levels"

let test_propagation_random =
  QCheck.Test.make ~name:"level i+1 stream = level i misses" ~count:50
    QCheck.(list_of_size Gen.(20 -- 300) (int_range 0 500))
    (fun bs ->
      let h = Hierarchy.create ~l2 ~l1 () in
      match observe h (blocks bs) with
      | [ e1; e2 ] -> misses e1 = List.map fst e2
      | _ -> false)

let test_stats_match_events () =
  let h = Hierarchy.create ~l2 ~l1 () in
  let events = observe h (blocks [ 0; 1; 2; 3; 0; 1 ]) in
  Alcotest.(check int) "one stats row per level" (List.length events)
    (List.length (Hierarchy.stats h));
  List.iter2
    (fun (_, (s : Cache.stats)) evs ->
      Alcotest.(check int) "accesses" s.Cache.accesses (List.length evs);
      Alcotest.(check int) "hits" s.Cache.hits (List.length (List.filter snd evs)))
    (Hierarchy.stats h) events;
  Alcotest.(check (list string)) "levels innermost first" [ "L1"; "L2" ]
    (List.map (fun (lvl, _) -> Hierarchy.level_name lvl) (Hierarchy.stats h))

(* The hierarchy is non-inclusive: no level invalidates or fills another,
   so each behaves as a lone cache fed the stream of misses above it. *)
let test_levels_are_lone_caches =
  QCheck.Test.make ~name:"each level = a lone cache fed the misses above" ~count:50
    QCheck.(list_of_size Gen.(20 -- 400) (int_range 0 600))
    (fun bs ->
      let h = Hierarchy.create ~l2 ~l3 ~l1 () in
      let trace = blocks bs in
      let observed = observe h trace in
      let lone = List.map Cache.create [ l1; l2; l3 ] in
      let expected = List.map (fun _ -> ref []) lone in
      Array.iter
        (fun addr ->
          let rec go caches logs =
            match (caches, logs) with
            | c :: cs, log :: ls ->
              let hit = Cache.access c addr in
              log := (addr, hit) :: !log;
              if not hit then go cs ls
            | _ -> ()
          in
          go lone expected)
        trace;
      observed = List.map (fun log -> List.rev !log) expected)

(* [run] is [run_observed] without an observer: the same trace leaves the
   same stats and prefetch count either way, prefetcher included. *)
let test_run_matches_run_observed =
  QCheck.Test.make ~name:"run and run_observed leave identical stats" ~count:50
    QCheck.(
      pair
        (list_of_size Gen.(20 -- 400) (int_range 0 600))
        (oneofl
           [
             Prefetch.No_prefetch;
             Prefetch.Next_line;
             Prefetch.Stride { degree = 2; table_size = 16 };
           ]))
    (fun (bs, l1_prefetcher) ->
      let trace = blocks bs in
      let plain = Hierarchy.create ~l2 ~l3 ~l1_prefetcher ~l1 () in
      Hierarchy.run plain trace;
      let observed = Hierarchy.create ~l2 ~l3 ~l1_prefetcher ~l1 () in
      ignore (observe observed trace);
      Hierarchy.stats plain = Hierarchy.stats observed
      && Hierarchy.prefetches plain = Hierarchy.prefetches observed)

let test_next_line_prefetcher () =
  let h = Hierarchy.create ~l1 ~l1_prefetcher:Prefetch.Next_line () in
  (* Block 0 misses and prefetches block 1, so a demand for block 1 hits;
     that in turn prefetches block 2. *)
  (match observe h (blocks [ 0; 1; 2 ]) with
  | [ evs ] ->
    Alcotest.(check (list bool)) "prefetched next blocks hit" [ false; true; true ]
      (List.map snd evs)
  | _ -> Alcotest.fail "expected one level");
  Alcotest.(check int) "one prefetch per access" 3 (Hierarchy.prefetches h);
  Alcotest.(check int) "prefetches are not demand accesses" 3
    (match Hierarchy.stats h with [ (_, s) ] -> s.Cache.accesses | _ -> -1)

let test_reset () =
  let l1_prefetcher = Prefetch.Next_line in
  let trace = blocks [ 0; 1; 2; 7; 0 ] in
  let h = Hierarchy.create ~l2 ~l1_prefetcher ~l1 () in
  let first = observe h trace in
  Hierarchy.reset h;
  List.iter
    (fun (_, (s : Cache.stats)) ->
      Alcotest.(check int) "stats cleared" 0 s.Cache.accesses)
    (Hierarchy.stats h);
  Alcotest.(check int) "prefetch count cleared" 0 (Hierarchy.prefetches h);
  (* Contents and prefetcher state are gone too: a rerun sees what the
     first run saw. *)
  Alcotest.(check bool) "rerun = first run" true (observe h trace = first)

let test_l3_requires_l2 () =
  Alcotest.check_raises "l3 without l2"
    (Invalid_argument "Hierarchy.create: cannot have an L3 without an L2") (fun () ->
      ignore (Hierarchy.create ~l3 ~l1 ()))

let test_level_names () =
  Alcotest.(check string) "L1" "L1" (Hierarchy.level_name Hierarchy.L1);
  Alcotest.(check string) "L2" "L2" (Hierarchy.level_name Hierarchy.L2);
  Alcotest.(check string) "L3" "L3" (Hierarchy.level_name Hierarchy.L3)

(* --- prefetcher unit behaviour --- *)

let test_prefetch_none () =
  let p = Prefetch.create Prefetch.No_prefetch in
  Alcotest.(check (list int)) "no proposals" []
    (Prefetch.on_access p ~addr:0 ~block_bytes:64);
  Alcotest.(check int) "none issued" 0 (Prefetch.issued p)

let test_prefetch_next_line () =
  let p = Prefetch.create Prefetch.Next_line in
  Alcotest.(check (list int)) "next block" [ 128 ]
    (Prefetch.on_access p ~addr:64 ~block_bytes:64);
  Alcotest.(check (list int)) "offset folded to block" [ 128 ]
    (Prefetch.on_access p ~addr:100 ~block_bytes:64);
  Alcotest.(check int) "issued counted" 2 (Prefetch.issued p)

let test_prefetch_stride () =
  let p = Prefetch.create (Prefetch.Stride { degree = 2; table_size = 16 }) in
  (* Constant stride of 2 blocks within one region; confidence builds after
     two confirmations, then prefetches fire. *)
  let accesses = [ 0; 128; 256; 384; 512 ] in
  let all = List.concat_map (fun a -> Prefetch.on_access p ~addr:a ~block_bytes:64) accesses in
  Alcotest.(check bool) "eventually fires" true (List.length all > 0);
  (* Prefetches are the next strided blocks. *)
  (match all with
  | a :: _ -> Alcotest.(check int) "strided target" 0 ((a / 64) mod 2)
  | [] -> ());
  Prefetch.reset p;
  Alcotest.(check int) "reset clears issued" 0 (Prefetch.issued p)

let test_prefetch_stride_irregular () =
  let p = Prefetch.create (Prefetch.Stride { degree = 1; table_size = 8 }) in
  (* A random walk should not build confidence. *)
  let rng = Prng.create 9 in
  let fired = ref 0 in
  let block = ref 0 in
  for _ = 1 to 50 do
    block := max 0 (!block + Prng.int rng 11 - 5);
    fired := !fired + List.length (Prefetch.on_access p ~addr:(!block * 64) ~block_bytes:64)
  done;
  Alcotest.(check bool) "mostly silent on noise" true (!fired < 10)

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "hierarchy & prefetch",
    [
      Alcotest.test_case "single level" `Quick test_l1_only;
      Alcotest.test_case "miss propagation" `Quick test_miss_propagation;
      Alcotest.test_case "stats match events" `Quick test_stats_match_events;
      Alcotest.test_case "next-line prefetcher fills L1" `Quick test_next_line_prefetcher;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "l3 requires l2" `Quick test_l3_requires_l2;
      Alcotest.test_case "level names" `Quick test_level_names;
      Alcotest.test_case "no-prefetch" `Quick test_prefetch_none;
      Alcotest.test_case "next-line proposals" `Quick test_prefetch_next_line;
      Alcotest.test_case "stride detection" `Quick test_prefetch_stride;
      Alcotest.test_case "stride ignores noise" `Quick test_prefetch_stride_irregular;
      qc test_propagation_random;
      qc test_levels_are_lone_caches;
      qc test_run_matches_run_observed;
    ] )
