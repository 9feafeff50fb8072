(* Trace import/export and the victim-cache extension. *)

let tmp suffix = Filename.temp_file "cbox" suffix

let test_text_roundtrip =
  QCheck.Test.make ~name:"text trace roundtrip" ~count:30
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 1_000_000))
    (fun addrs ->
      let trace = Array.of_list addrs in
      let path = tmp ".trace" in
      Trace_io.write_text path trace;
      let back = Trace_io.read_text path in
      Sys.remove path;
      back = trace)

let test_binary_roundtrip =
  (* Addresses span the full writable domain [0, 2^52]; anything larger is
     rejected at write time (see test_binary_address_bound). *)
  QCheck.Test.make ~name:"binary trace roundtrip" ~count:30
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 Trace_io.max_address))
    (fun addrs ->
      let trace = Array.of_list addrs in
      let path = tmp ".btrace" in
      Trace_io.write_binary path trace;
      let back = Trace_io.read_binary path in
      Sys.remove path;
      back = trace)

let test_binary_address_bound () =
  let path = tmp ".btrace" in
  (try
     Trace_io.write_binary path [| Trace_io.max_address + 1 |];
     Alcotest.fail "expected Invalid_argument for an address beyond 2^52"
   with Invalid_argument _ -> ());
  if Sys.file_exists path then Sys.remove path

let test_text_tolerates_comments () =
  let path = tmp ".trace" in
  let oc = open_out path in
  output_string oc "# captured with pin\n0x40\n\n80\n0XFF\n";
  close_out oc;
  let trace = Trace_io.read_text path in
  Sys.remove path;
  Alcotest.(check (array int)) "parsed" [| 0x40; 0x80; 0xFF |] trace

let test_text_rejects_garbage () =
  let path = tmp ".trace" in
  let oc = open_out path in
  output_string oc "0x40\nnot-an-address\n";
  close_out oc;
  (try
     ignore (Trace_io.read_text path);
     Sys.remove path;
     Alcotest.fail "expected failure"
   with Failure msg ->
     Sys.remove path;
     Alcotest.(check bool) "mentions line" true
       (String.length msg > 0 && String.contains msg '2'))

let test_binary_rejects_bad_magic () =
  let path = tmp ".btrace" in
  let oc = open_out_bin path in
  output_string oc "NOTTRACE\x00\x00\x00\x00\x00\x00\x00\x00";
  close_out oc;
  (try
     ignore (Trace_io.read_binary path);
     Sys.remove path;
     Alcotest.fail "expected failure"
   with Failure _ -> Sys.remove path)

let test_read_auto () =
  let trace = [| 1; 2; 3 |] in
  let p1 = tmp ".trace" and p2 = tmp ".btrace" in
  Trace_io.write_text p1 trace;
  Trace_io.write_binary p2 trace;
  Alcotest.(check (array int)) "auto text" trace (Trace_io.read_auto p1);
  Alcotest.(check (array int)) "auto binary" trace (Trace_io.read_auto p2);
  Sys.remove p1;
  Sys.remove p2

(* --- access_evict --- *)

let test_access_evict_reports_victim () =
  (* 1-way, 2-set cache: block 0 then block 2 (same set) evicts block 0. *)
  let c = Cache.create (Cache.config ~sets:2 ~ways:1 ()) in
  let hit, ev = Cache.access_evict c 0 in
  Alcotest.(check bool) "cold miss" false hit;
  Alcotest.(check (option int)) "no eviction on cold fill" None ev;
  let hit, ev = Cache.access_evict c (2 * 64) in
  Alcotest.(check bool) "conflict miss" false hit;
  Alcotest.(check (option int)) "evicted block 0" (Some 0) ev;
  let hit, ev = Cache.access_evict c (2 * 64) in
  Alcotest.(check bool) "now hits" true hit;
  Alcotest.(check (option int)) "no eviction on hit" None ev

let test_access_evict_address_reconstruction =
  QCheck.Test.make ~name:"evicted addresses are real past accesses" ~count:40
    QCheck.(list_of_size Gen.(10 -- 150) (int_range 0 64))
    (fun bs ->
      let c = Cache.create (Cache.config ~sets:4 ~ways:2 ()) in
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun b ->
          let addr = b * 64 in
          Hashtbl.replace seen addr ();
          let _, ev = Cache.access_evict c addr in
          match ev with None -> true | Some e -> Hashtbl.mem seen e)
        bs)

(* --- victim cache --- *)

let main_cfg = Cache.config ~sets:2 ~ways:1 ()

let test_victim_recovers_conflict () =
  (* Blocks 0 and 2 conflict in a 2-set 1-way cache; ping-ponging between
     them always misses without a victim buffer but hits with one. *)
  let v = Victim.create ~main:main_cfg ~victim_entries:4 in
  ignore (Victim.access v 0);
  ignore (Victim.access v (2 * 64));
  (match Victim.access v 0 with
  | `Victim_hit -> ()
  | `Main_hit -> Alcotest.fail "expected victim hit, got main hit"
  | `Miss -> Alcotest.fail "expected victim hit, got miss");
  let s = Victim.stats v in
  Alcotest.(check int) "one victim hit" 1 s.Victim.victim_hits

let test_victim_improves_hit_rate () =
  let ping_pong = Array.init 400 (fun i -> if i mod 2 = 0 then 0 else 2 * 64) in
  let plain = Cache.create main_cfg in
  Array.iter (fun a -> ignore (Cache.access plain a)) ping_pong;
  let plain_rate = Cache.hit_rate (Cache.stats plain) in
  let v = Victim.create ~main:main_cfg ~victim_entries:4 in
  Array.iter (fun a -> ignore (Victim.access v a)) ping_pong;
  let v_rate = Victim.hit_rate (Victim.stats v) in
  Alcotest.(check bool) "victim buffer rescues conflicts" true (v_rate > plain_rate +. 0.5)

let test_victim_never_hurts =
  QCheck.Test.make ~name:"victim hit rate >= plain hit rate" ~count:40
    QCheck.(list_of_size Gen.(20 -- 300) (int_range 0 32))
    (fun bs ->
      let trace = Array.of_list (List.map (fun b -> b * 64) bs) in
      let plain = Cache.create main_cfg in
      Array.iter (fun a -> ignore (Cache.access plain a)) trace;
      let v = Victim.create ~main:main_cfg ~victim_entries:4 in
      Array.iter (fun a -> ignore (Victim.access v a)) trace;
      Victim.hit_rate (Victim.stats v) >= Cache.hit_rate (Cache.stats plain) -. 1e-9)

let test_victim_stats_sum () =
  let v = Victim.create ~main:main_cfg ~victim_entries:2 in
  let rng = Prng.create 3 in
  for _ = 1 to 200 do
    ignore (Victim.access v (Prng.int rng 16 * 64))
  done;
  let s = Victim.stats v in
  Alcotest.(check int) "partition" s.Victim.accesses
    (s.Victim.main_hits + s.Victim.victim_hits + s.Victim.misses)

let test_victim_reset () =
  let v = Victim.create ~main:main_cfg ~victim_entries:2 in
  ignore (Victim.access v 0);
  Victim.reset v;
  let s = Victim.stats v in
  Alcotest.(check int) "cleared" 0 s.Victim.accesses

(* The main cache allocates on every miss, victim hit or not, so its
   contents evolve exactly as a lone cache's: the buffer only adds hits. *)
let test_victim_main_is_plain =
  QCheck.Test.make ~name:"victim: main hits are exactly a plain cache's hits" ~count:40
    QCheck.(list_of_size Gen.(20 -- 300) (int_range 0 40))
    (fun bs ->
      let cfg = Cache.config ~sets:4 ~ways:2 () in
      let plain = Cache.create cfg in
      let v = Victim.create ~main:cfg ~victim_entries:3 in
      List.for_all
        (fun b ->
          let plain_hit = Cache.access plain (b * 64) in
          plain_hit = (Victim.access v (b * 64) = `Main_hit))
        bs)

let test_victim_swap () =
  (* A victim hit swaps: the recovered block is back in the main cache and
     the block it displaced now sits in the buffer. *)
  let v = Victim.create ~main:main_cfg ~victim_entries:4 in
  ignore (Victim.access v 0);
  ignore (Victim.access v (2 * 64));
  (match Victim.access v 0 with
  | `Victim_hit -> ()
  | _ -> Alcotest.fail "expected a victim hit on block 0");
  (match Victim.access v 0 with
  | `Main_hit -> ()
  | _ -> Alcotest.fail "block 0 did not move back into the main cache");
  match Victim.access v (2 * 64) with
  | `Victim_hit -> ()
  | _ -> Alcotest.fail "the displaced block 2 is not in the buffer"

let test_victim_effective_capacity () =
  (* The buffer holds only blocks the main cache evicted, so the pair holds
     main + buffer distinct blocks: a cyclic sweep over 2 + 4 blocks misses
     only cold, one block more thrashes. *)
  let sweep nblocks =
    let v = Victim.create ~main:main_cfg ~victim_entries:4 in
    for _ = 1 to 40 do
      for b = 0 to nblocks - 1 do
        ignore (Victim.access v (b * 64))
      done
    done;
    Victim.stats v
  in
  let fits = sweep 6 and spills = sweep 7 in
  Alcotest.(check int) "cold misses only" 6 fits.Victim.misses;
  Alcotest.(check bool) "one block more thrashes" true
    (Victim.hit_rate spills < 0.5)

let test_victim_reset_contents () =
  let v = Victim.create ~main:main_cfg ~victim_entries:2 in
  ignore (Victim.access v 0);
  ignore (Victim.access v (2 * 64));
  Victim.reset v;
  let miss what addr =
    match Victim.access v addr with
    | `Miss -> ()
    | _ -> Alcotest.failf "%s survived the reset" what
  in
  miss "the main cache's block" (2 * 64);
  miss "the buffer's block" 0

(* The buffer keeps its entries in spill order instead of stamping them.
   The reference below is the stamped form, beside a lone main cache: per
   entry a block and its spill time; a spill takes the first free entry,
   else the oldest. *)
let stamped_victim ~main ~entries =
  let c = Cache.create main and bb = main.Cache.block_bytes in
  let blocks = Array.make entries (-1) and stamps = Array.make entries 0 in
  let clock = ref 0 in
  fun addr ->
    match Cache.access_evict c addr with
    | true, _ -> `Main_hit
    | false, evicted ->
      let b = addr / bb in
      let found = ref (-1) in
      Array.iteri (fun i x -> if x = b then found := i) blocks;
      if !found >= 0 then blocks.(!found) <- -1;
      Option.iter
        (fun a ->
          let slot =
            match Array.find_index (fun x -> x < 0) blocks with
            | Some i -> i
            | None ->
              let oldest = ref 0 in
              Array.iteri (fun i s -> if s < stamps.(!oldest) then oldest := i) stamps;
              !oldest
          in
          incr clock;
          blocks.(slot) <- a / bb;
          stamps.(slot) <- !clock)
        evicted;
      if !found >= 0 then `Victim_hit else `Miss

let test_victim_matches_stamps =
  QCheck.Test.make ~name:"victim buffer in spill order = per-entry stamps" ~count:200
    QCheck.(
      triple (int_range 1 4) (int_range 1 8) (list_of_size Gen.(1 -- 400) (int_range 0 40)))
    (fun (ways, entries, bs) ->
      let main = Cache.config ~sets:2 ~ways () in
      let v = Victim.create ~main ~victim_entries:entries in
      let model = stamped_victim ~main ~entries in
      List.for_all (fun b -> Victim.access v (b * 64) = model (b * 64)) bs)

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "extensions (trace io & victim cache)",
    [
      Alcotest.test_case "text comments/formats" `Quick test_text_tolerates_comments;
      Alcotest.test_case "text rejects garbage" `Quick test_text_rejects_garbage;
      Alcotest.test_case "binary rejects bad magic" `Quick test_binary_rejects_bad_magic;
      Alcotest.test_case "read_auto" `Quick test_read_auto;
      Alcotest.test_case "access_evict basics" `Quick test_access_evict_reports_victim;
      Alcotest.test_case "victim recovers conflicts" `Quick test_victim_recovers_conflict;
      Alcotest.test_case "victim improves ping-pong" `Quick test_victim_improves_hit_rate;
      Alcotest.test_case "victim stats partition" `Quick test_victim_stats_sum;
      Alcotest.test_case "victim reset" `Quick test_victim_reset;
      qc test_text_roundtrip;
      qc test_binary_roundtrip;
      Alcotest.test_case "binary address bound" `Quick test_binary_address_bound;
      qc test_access_evict_address_reconstruction;
      qc test_victim_never_hurts;
      Alcotest.test_case "victim reset empties both caches" `Quick test_victim_reset_contents;
      Alcotest.test_case "victim capacity is main plus buffer" `Quick
        test_victim_effective_capacity;
      Alcotest.test_case "victim hit swaps with the main cache" `Quick test_victim_swap;
      qc test_victim_main_is_plain;
      qc test_victim_matches_stamps;
    ] )

