(* The ground-truth cache model: exact LRU behaviour, policy differences,
   and structural invariants. *)

let cfg ?(policy = Cache.Lru) ~sets ~ways () = Cache.config ~policy ~sets ~ways ()

let addr_of_block b = b * 64

let run_trace cache blocks =
  List.map (fun b -> Cache.access cache (addr_of_block b)) blocks

let test_cold_misses () =
  let c = Cache.create (cfg ~sets:2 ~ways:2 ()) in
  Alcotest.(check (list bool)) "all cold" [ false; false; false ]
    (run_trace c [ 0; 1; 2 ])

let test_hit_on_reuse () =
  let c = Cache.create (cfg ~sets:2 ~ways:2 ()) in
  Alcotest.(check (list bool)) "second touch hits" [ false; true ] (run_trace c [ 5; 5 ])

let test_same_block_offsets_hit () =
  let c = Cache.create (cfg ~sets:2 ~ways:2 ()) in
  ignore (Cache.access c 128);
  Alcotest.(check bool) "same 64B block" true (Cache.access c 129);
  Alcotest.(check bool) "same block top" true (Cache.access c 191);
  Alcotest.(check bool) "next block misses" false (Cache.access c 192)

let test_lru_eviction_order () =
  (* 1 set, 2 ways: blocks 0,2,4 map to set 0 (sets=2 -> even blocks). *)
  let c = Cache.create (cfg ~sets:2 ~ways:2 ()) in
  ignore (run_trace c [ 0; 2 ]);
  (* touch 0 so 2 becomes LRU *)
  ignore (Cache.access c (addr_of_block 0));
  ignore (Cache.access c (addr_of_block 4));
  (* evicts 2 *)
  Alcotest.(check bool) "0 survived" true (Cache.access c (addr_of_block 0));
  Alcotest.(check bool) "2 evicted" false (Cache.access c (addr_of_block 2))

let test_fifo_vs_lru () =
  (* FIFO ignores the re-touch; the same sequence evicts 0 under FIFO but 2
     under LRU. *)
  let seq = [ 0; 2; 0; 4; 0 ] in
  let lru = Cache.create (cfg ~sets:2 ~ways:2 ()) in
  let fifo = Cache.create (cfg ~policy:Cache.Fifo ~sets:2 ~ways:2 ()) in
  let lru_res = run_trace lru seq and fifo_res = run_trace fifo seq in
  Alcotest.(check (list bool)) "lru keeps 0" [ false; false; true; false; true ] lru_res;
  Alcotest.(check (list bool)) "fifo evicts 0" [ false; false; true; false; false ] fifo_res

(* LRU's inclusion property: a cache with more ways at the same set count
   (Mattson et al., 1970), or twice the sets at the same ways (set
   refinement, Hill & Smith, 1989), hits on a superset of the accesses the
   smaller one hits on. Both follow from LRU's stack property, so FIFO can
   break them (Belady's anomaly). A case is a power-of-two set count
   (1-16), a way count (1-6), extra ways (1-4) and up to 400 accesses over
   four times the smaller cache's blocks. *)
let arb_inclusion_case =
  QCheck.make
    ~print:(fun (sets, ways, more, blocks) ->
      Printf.sprintf "sets %d, ways %d, +%d ways, blocks [%s]" sets ways more
        (String.concat "; " (List.map string_of_int blocks)))
    QCheck.Gen.(
      let* sets = map (fun k -> 1 lsl k) (int_range 0 4) in
      let* ways = int_range 1 6 in
      let* more = int_range 1 4 in
      let* blocks = list_size (int_range 1 400) (int_range 0 ((4 * sets * ways) - 1)) in
      return (sets, ways, more, blocks))

let hits_included ~small ~big blocks =
  let small = Cache.create small and big = Cache.create big in
  List.for_all
    (fun b ->
      let hs = Cache.access small (addr_of_block b) in
      let hb = Cache.access big (addr_of_block b) in
      (not hs) || hb)
    blocks

let test_lru_way_inclusion =
  QCheck.Test.make ~name:"LRU way-inclusion" ~count:300 arb_inclusion_case
    (fun (sets, ways, more, blocks) ->
      hits_included ~small:(cfg ~sets ~ways ()) ~big:(cfg ~sets ~ways:(ways + more) ()) blocks)

let test_lru_set_refinement =
  QCheck.Test.make ~name:"LRU set-refinement inclusion" ~count:300 arb_inclusion_case
    (fun (sets, ways, _, blocks) ->
      hits_included ~small:(cfg ~sets ~ways ()) ~big:(cfg ~sets:(2 * sets) ~ways ()) blocks)

let test_stats_consistency =
  QCheck.Test.make ~name:"stats add up" ~count:60
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 1000))
    (fun blocks ->
      let c = Cache.create (cfg ~sets:8 ~ways:2 ()) in
      let hits = List.filter (fun b -> Cache.access c (addr_of_block b)) blocks in
      let s = Cache.stats c in
      s.Cache.accesses = List.length blocks
      && s.Cache.hits = List.length hits
      && s.Cache.misses = s.Cache.accesses - s.Cache.hits)

let test_probe_no_side_effect () =
  let c = Cache.create (cfg ~sets:2 ~ways:1 ()) in
  ignore (Cache.access c (addr_of_block 0));
  Alcotest.(check bool) "probe present" true (Cache.probe c (addr_of_block 0));
  Alcotest.(check bool) "probe absent" false (Cache.probe c (addr_of_block 2));
  let s = Cache.stats c in
  Alcotest.(check int) "probe did not count" 1 s.Cache.accesses

let test_insert_prefetch () =
  let c = Cache.create (cfg ~sets:2 ~ways:1 ()) in
  Cache.insert c (addr_of_block 6);
  Alcotest.(check bool) "inserted block present" true (Cache.probe c (addr_of_block 6));
  let s = Cache.stats c in
  Alcotest.(check int) "insert not a demand access" 0 s.Cache.accesses;
  Alcotest.(check bool) "subsequent demand hits" true (Cache.access c (addr_of_block 6))

let test_reset () =
  let c = Cache.create (cfg ~sets:2 ~ways:1 ()) in
  ignore (Cache.access c 0);
  Cache.reset c;
  let s = Cache.stats c in
  Alcotest.(check int) "stats cleared" 0 s.Cache.accesses;
  Alcotest.(check bool) "contents cleared" false (Cache.probe c 0)

let test_config_validation () =
  Alcotest.check_raises "sets power of two"
    (Invalid_argument "Cache.config: sets must be a power of two") (fun () ->
      ignore (Cache.config ~sets:3 ~ways:2 ()));
  Alcotest.check_raises "positive ways"
    (Invalid_argument "Cache.config: ways must be positive") (fun () ->
      ignore (Cache.config ~sets:4 ~ways:0 ()))

let test_naming_and_size () =
  let c = cfg ~sets:64 ~ways:12 () in
  Alcotest.(check string) "paper naming" "64set-12way" (Cache.config_name c);
  Alcotest.(check int) "48 KiB" (48 * 1024) (Cache.size_bytes c);
  (* The router's shard and memo keys are built from this tag: a change
     here reshards every router and empties its memo. *)
  List.iter
    (fun (policy, tag) ->
      Alcotest.(check string) tag tag (Cache.config_tag (cfg ~policy ~sets:64 ~ways:12 ())))
    [
      (Cache.Lru, "64s12w64b-lru");
      (Cache.Fifo, "64s12w64b-fifo");
      (Cache.Plru, "64s12w64b-plru");
      (Cache.Srrip, "64s12w64b-srrip");
      (Cache.Random_policy 7, "64s12w64b-rnd7");
    ];
  Alcotest.(check string) "block size in the tag" "256s8w32b-lru"
    (Cache.config_tag (Cache.config ~block_bytes:32 ~sets:256 ~ways:8 ()))

(* Two configs share a tag exactly when they are equal, so no two configs
   share a router shard key or memo entry. The second config differs from
   the first in at most one field, so near misses (ways 1 and 12, seeds 1
   and 11) and equal pairs both occur. *)
let arb_config_pair =
  let open QCheck.Gen in
  let sets = map (fun k -> 1 lsl k) (int_range 0 4) in
  let ways = int_range 1 12 in
  let block_bytes = oneofl [ 16; 32; 64 ] in
  let policy =
    oneof
      [
        oneofl [ Cache.Lru; Cache.Fifo; Cache.Plru; Cache.Srrip ];
        map (fun s -> Cache.Random_policy s) (int_range 0 12);
      ]
  in
  let config =
    let* sets = sets and* ways = ways and* block_bytes = block_bytes and* policy = policy in
    return (Cache.config ~block_bytes ~policy ~sets ~ways ())
  in
  let pair =
    let* a = config in
    let* field = int_range 0 4 in
    let* b =
      match field with
      | 0 -> map (fun sets -> { a with Cache.sets }) sets
      | 1 -> map (fun ways -> { a with Cache.ways }) ways
      | 2 -> map (fun block_bytes -> { a with Cache.block_bytes }) block_bytes
      | 3 -> map (fun policy -> { a with Cache.policy }) policy
      | _ -> return a
    in
    return (a, b)
  in
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "%s vs %s" (Cache.config_tag a) (Cache.config_tag b))
    pair

let test_config_tag_injective =
  QCheck.Test.make ~name:"config_tag equal iff configs equal" ~count:500 arb_config_pair
    (fun (a, b) -> (Cache.config_tag a = Cache.config_tag b) = (a = b))

let test_policies_smoke () =
  (* Every policy must service an arbitrary trace without error and respect
     capacity: a working set that fits never misses after warm-up. *)
  List.iter
    (fun policy ->
      let c = Cache.create (cfg ~policy ~sets:4 ~ways:2 ()) in
      for round = 1 to 3 do
        for b = 0 to 7 do
          let hit = Cache.access c (addr_of_block b) in
          if round > 1 then
            Alcotest.(check bool) "warm working set hits" true hit
        done
      done)
    [ Cache.Lru; Cache.Fifo; Cache.Plru; Cache.Srrip; Cache.Random_policy 3 ]

let test_hit_rate () =
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Cache.hit_rate { Cache.accesses = 0; hits = 0; misses = 0 });
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Cache.hit_rate { Cache.accesses = 4; hits = 2; misses = 2 })

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "cache",
    [
      Alcotest.test_case "cold misses" `Quick test_cold_misses;
      Alcotest.test_case "hit on reuse" `Quick test_hit_on_reuse;
      Alcotest.test_case "block granularity" `Quick test_same_block_offsets_hit;
      Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
      Alcotest.test_case "fifo vs lru" `Quick test_fifo_vs_lru;
      Alcotest.test_case "probe has no side effect" `Quick test_probe_no_side_effect;
      Alcotest.test_case "insert (prefetch fill)" `Quick test_insert_prefetch;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "naming and size" `Quick test_naming_and_size;
      Alcotest.test_case "all policies smoke" `Quick test_policies_smoke;
      Alcotest.test_case "hit rate" `Quick test_hit_rate;
      qc test_lru_way_inclusion;
      qc test_lru_set_refinement;
      qc test_stats_consistency;
      qc test_config_tag_injective;
    ] )
