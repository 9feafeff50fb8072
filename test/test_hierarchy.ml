(* Multi-level hierarchy: per-level trace recording, miss propagation, and
   prefetcher integration. *)

let l1 = Cache.config ~sets:2 ~ways:2 ()
let l2 = Cache.config ~sets:4 ~ways:4 ()
let l3 = Cache.config ~sets:8 ~ways:4 ()

let blocks bs = Array.of_list (List.map (fun b -> b * 64) bs)

let test_l1_only () =
  let h = Hierarchy.create ~l1 () in
  Hierarchy.run h (blocks [ 0; 0; 1 ]);
  match Hierarchy.level_traces h with
  | [ t ] ->
    Alcotest.(check int) "three accesses" 3 (Array.length t.Hierarchy.addresses);
    Alcotest.(check (array bool)) "hits" [| false; true; false |] t.Hierarchy.hits
  | _ -> Alcotest.fail "expected one level"

let test_miss_propagation () =
  let h = Hierarchy.create ~l2 ~l3 ~l1 () in
  Hierarchy.run h (blocks [ 0; 0; 1; 0 ]);
  match Hierarchy.level_traces h with
  | [ t1; t2; t3 ] ->
    Alcotest.(check int) "L1 sees all" 4 (Array.length t1.Hierarchy.addresses);
    let l1_misses = Array.length (Array.of_seq (Seq.filter not (Array.to_seq t1.Hierarchy.hits))) in
    Alcotest.(check int) "L2 sees exactly the L1 misses" l1_misses
      (Array.length t2.Hierarchy.addresses);
    let l2_misses = Array.length (Array.of_seq (Seq.filter not (Array.to_seq t2.Hierarchy.hits))) in
    Alcotest.(check int) "L3 sees exactly the L2 misses" l2_misses
      (Array.length t3.Hierarchy.addresses)
  | _ -> Alcotest.fail "expected three levels"

let test_propagation_random =
  QCheck.Test.make ~name:"level i+1 stream = level i misses" ~count:50
    QCheck.(list_of_size Gen.(20 -- 300) (int_range 0 500))
    (fun bs ->
      let h = Hierarchy.create ~l2 ~l1 () in
      Hierarchy.run h (blocks bs);
      match Hierarchy.level_traces h with
      | [ t1; t2 ] ->
        let missed =
          Array.to_list t1.Hierarchy.addresses
          |> List.filteri (fun i _ -> not t1.Hierarchy.hits.(i))
        in
        missed = Array.to_list t2.Hierarchy.addresses
      | _ -> false)

let test_stats_match_traces () =
  let h = Hierarchy.create ~l2 ~l1 () in
  Hierarchy.run h (blocks [ 0; 1; 2; 3; 0; 1 ]);
  List.iter2
    (fun (lvl, (s : Cache.stats)) (t : Hierarchy.level_trace) ->
      Alcotest.(check bool) "same level" true (lvl = t.Hierarchy.level);
      Alcotest.(check int) "accesses" s.Cache.accesses (Array.length t.Hierarchy.addresses);
      Alcotest.(check (float 1e-9)) "hit rate" (Cache.hit_rate s)
        (Hierarchy.trace_hit_rate t))
    (Hierarchy.stats h) (Hierarchy.level_traces h)

(* The hierarchy is non-inclusive: no level invalidates or fills another,
   so each behaves as a lone cache fed the stream of misses above it. *)
let test_levels_are_lone_caches =
  QCheck.Test.make ~name:"each level = a lone cache fed the misses above" ~count:50
    QCheck.(list_of_size Gen.(20 -- 400) (int_range 0 600))
    (fun bs ->
      let h = Hierarchy.create ~l2 ~l3 ~l1 () in
      let trace = blocks bs in
      Hierarchy.run h trace;
      let lone = List.map Cache.create [ l1; l2; l3 ] in
      let expected = List.map (fun _ -> (ref [], ref [])) lone in
      Array.iter
        (fun addr ->
          let rec go caches logs =
            match (caches, logs) with
            | c :: cs, (addrs, hits) :: ls ->
              let hit = Cache.access c addr in
              addrs := addr :: !addrs;
              hits := hit :: !hits;
              if not hit then go cs ls
            | _ -> ()
          in
          go lone expected)
        trace;
      List.for_all2
        (fun (t : Hierarchy.level_trace) (addrs, hits) ->
          Array.to_list t.Hierarchy.addresses = List.rev !addrs
          && Array.to_list t.Hierarchy.hits = List.rev !hits)
        (Hierarchy.level_traces h) expected)

(* The streaming path must report, level by level, exactly the accesses and
   hit flags that the recording path records, prefetcher included. *)
let test_run_observed_matches_run =
  QCheck.Test.make ~name:"run_observed reports what run records" ~count:50
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
      let recorded = Hierarchy.create ~l2 ~l3 ~l1_prefetcher ~l1 () in
      Hierarchy.run recorded trace;
      let observed = Hierarchy.create ~l2 ~l3 ~l1_prefetcher ~l1 () in
      let events = Array.map (fun _ -> ref []) (Hierarchy.levels observed) in
      Hierarchy.run_observed observed trace ~f:(fun level addr hit ->
          events.(level) := (addr, hit) :: !(events.(level)));
      List.for_all2
        (fun (t : Hierarchy.level_trace) evs ->
          List.rev !evs
          = List.combine (Array.to_list t.Hierarchy.addresses) (Array.to_list t.Hierarchy.hits))
        (Hierarchy.level_traces recorded) (Array.to_list events)
      && Hierarchy.stats recorded = Hierarchy.stats observed)

let test_next_line_prefetcher () =
  let h = Hierarchy.create ~l1 ~l1_prefetcher:Prefetch.Next_line () in
  (* Access block 0; next-line should have filled block 1, so a demand for
     block 1 hits. *)
  ignore (Hierarchy.access h 0);
  Alcotest.(check bool) "prefetched next block hits" true (Hierarchy.access h 64);
  let pf = Hierarchy.prefetched_addresses h in
  Alcotest.(check bool) "prefetches recorded" true (Array.length pf >= 1);
  Alcotest.(check int) "first prefetch is next line" 64 pf.(0)

let test_reset () =
  let h = Hierarchy.create ~l2 ~l1 () in
  Hierarchy.run h (blocks [ 0; 1; 2 ]);
  Hierarchy.reset h;
  List.iter
    (fun (t : Hierarchy.level_trace) ->
      Alcotest.(check int) "traces cleared" 0 (Array.length t.Hierarchy.addresses))
    (Hierarchy.level_traces h)

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
      Alcotest.test_case "stats match traces" `Quick test_stats_match_traces;
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
      qc test_run_observed_matches_run;
    ] )
