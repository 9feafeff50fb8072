(* Shard router: consistent-hash ring properties (balance, minimal
   disruption, cross-process determinism), backend health tracking, the
   prediction memo, and a live router over real Unix sockets — failover
   with retries, ejection/readmission, and graceful degradation when every
   backend is gone. *)

let temp_dir () =
  let d = Filename.temp_file "cbox_router" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let str_field json k = Option.bind (Sjson.member k json) Sjson.to_str
let bool_field json k = Option.bind (Sjson.member k json) Sjson.to_bool
let num_field json k = Option.bind (Sjson.member k json) Sjson.to_float

let check_str json k expected =
  Alcotest.(check (option string)) k (Some expected) (str_field json k)

let check_bool json k expected =
  Alcotest.(check (option bool)) k (Some expected) (bool_field json k)

(* --- consistent-hash ring --- *)

let keys_of_seed seed n = List.init n (fun i -> Printf.sprintf "key-%d-%d" seed i)

let count_per_node ring keys =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun k ->
      let n = Hash_ring.lookup ring ~key:k in
      Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    keys;
  tbl

(* With 128 vnodes per node, 1k digests spread within a small factor of
   fair share: no node may starve below a fifth of its expectation. *)
let test_ring_balance =
  QCheck.Test.make ~name:"ring balance: 1k keys, every node gets a real share"
    ~count:20 QCheck.small_int (fun seed ->
      let nodes = [ "a"; "b"; "c"; "d" ] in
      let ring = Hash_ring.create ~vnodes:128 nodes in
      let counts = count_per_node ring (keys_of_seed seed 1000) in
      List.for_all
        (fun n ->
          Option.value ~default:0 (Hashtbl.find_opt counts n) >= 1000 / (5 * 4))
        nodes)

let test_ring_minimal_disruption_leave =
  QCheck.Test.make ~name:"ring: node leave moves only that node's keys" ~count:20
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, gone_i) ->
      let nodes = [ "n0"; "n1"; "n2"; "n3"; "n4" ] in
      let gone = List.nth nodes gone_i in
      let before = Hash_ring.create ~vnodes:64 nodes in
      let after =
        Hash_ring.create ~vnodes:64 (List.filter (( <> ) gone) nodes)
      in
      List.for_all
        (fun k ->
          let owner = Hash_ring.lookup before ~key:k in
          owner = gone || Hash_ring.lookup after ~key:k = owner)
        (keys_of_seed seed 300))

let test_ring_minimal_disruption_join =
  QCheck.Test.make ~name:"ring: node join only moves keys onto the joiner"
    ~count:20 QCheck.small_int (fun seed ->
      let before = Hash_ring.create ~vnodes:64 [ "n0"; "n1"; "n2" ] in
      let after = Hash_ring.create ~vnodes:64 [ "n0"; "n1"; "n2"; "n3" ] in
      List.for_all
        (fun k ->
          let now = Hash_ring.lookup after ~key:k in
          now = "n3" || Hash_ring.lookup before ~key:k = now)
        (keys_of_seed seed 300))

(* Placement must not depend on enumeration order (two router processes
   configured with the same backends in different order agree), and
   rebuilding the ring from scratch is deterministic. *)
let test_ring_permutation_invariant =
  QCheck.Test.make ~name:"ring: placement ignores node declaration order"
    ~count:20 QCheck.small_int (fun seed ->
      let a = Hash_ring.create [ "n0"; "n1"; "n2"; "n3" ] in
      let b = Hash_ring.create [ "n3"; "n1"; "n0"; "n2" ] in
      List.for_all
        (fun k -> Hash_ring.lookup a ~key:k = Hash_ring.lookup b ~key:k)
        (keys_of_seed seed 200))

let test_ring_successors () =
  let ring = Hash_ring.create [ "n0"; "n1"; "n2"; "n3" ] in
  List.iter
    (fun k ->
      let succ = Hash_ring.successors ring ~key:k 4 in
      Alcotest.(check int) "all nodes as replicas" 4 (List.length succ);
      Alcotest.(check int) "distinct" 4
        (List.length (List.sort_uniq String.compare succ));
      Alcotest.(check string) "first replica = primary owner"
        (Hash_ring.lookup ring ~key:k) (List.hd succ);
      Alcotest.(check int) "capped at node count" 4
        (List.length (Hash_ring.successors ring ~key:k 10)))
    (keys_of_seed 7 50)

let test_ring_rejects_bad_input () =
  let raises f = match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Hash_ring.create []);
  raises (fun () -> Hash_ring.create [ "a"; "a" ]);
  raises (fun () -> Hash_ring.create ~vnodes:0 [ "a" ])

(* --- backend health --- *)

let test_health_eject_readmit () =
  let h = Backend_health.create ~eject_after:3 () in
  Alcotest.(check bool) "fresh backend is up" true (Backend_health.up h);
  Alcotest.(check bool) "1st failure keeps it up" false (Backend_health.record_failure h);
  Alcotest.(check bool) "2nd failure keeps it up" false (Backend_health.record_failure h);
  Alcotest.(check bool) "up before threshold" true (Backend_health.up h);
  Alcotest.(check bool) "3rd failure ejects" true (Backend_health.record_failure h);
  Alcotest.(check bool) "down after threshold" false (Backend_health.up h);
  Alcotest.(check bool) "4th failure is not a second ejection" false
    (Backend_health.record_failure h);
  Alcotest.(check bool) "success re-admits" true
    (Backend_health.record_success h ~latency_s:0.010);
  Alcotest.(check bool) "up again" true (Backend_health.up h);
  Alcotest.(check int) "one ejection" 1 (Backend_health.ejections h);
  Alcotest.(check int) "one readmission" 1 (Backend_health.readmissions h);
  Alcotest.(check int) "streak reset" 0 (Backend_health.consecutive_failures h)

let test_health_ewma () =
  let h = Backend_health.create () in
  ignore (Backend_health.record_success h ~latency_s:0.100);
  Alcotest.(check (float 1e-9)) "first sample sets the EWMA" 100.0
    (Backend_health.ewma_ms h);
  ignore (Backend_health.record_success h ~latency_s:0.200);
  Alcotest.(check (float 1e-9)) "0.7 old / 0.3 new blend" 130.0
    (Backend_health.ewma_ms h);
  (* A success interleaved between failures keeps resetting the streak:
     intermittent flaps below the threshold never eject. *)
  for _ = 1 to 10 do
    ignore (Backend_health.record_failure h);
    ignore (Backend_health.record_failure h);
    ignore (Backend_health.record_success h ~latency_s:0.010)
  done;
  Alcotest.(check bool) "flapping below threshold stays up" true (Backend_health.up h);
  Alcotest.(check int) "no ejections" 0 (Backend_health.ejections h)

(* --- prediction memo --- *)

let memo_val i = Sjson.Obj [ ("v", Sjson.Num (float_of_int i)) ]

let test_memo_lru () =
  let m = Predmemo.create ~capacity:3 in
  Predmemo.add m "a" (memo_val 1);
  Predmemo.add m "b" (memo_val 2);
  Predmemo.add m "c" (memo_val 3);
  (* Touch "a" so "b" is the LRU victim when "d" arrives. *)
  Alcotest.(check bool) "hit a" true (Predmemo.find m "a" <> None);
  Predmemo.add m "d" (memo_val 4);
  Alcotest.(check bool) "b evicted" true (Predmemo.find m "b" = None);
  Alcotest.(check bool) "a survives (recently used)" true (Predmemo.find m "a" <> None);
  Alcotest.(check bool) "c survives" true (Predmemo.find m "c" <> None);
  Alcotest.(check bool) "d present" true (Predmemo.find m "d" <> None);
  Alcotest.(check int) "bounded" 3 (Predmemo.length m);
  Alcotest.(check int) "one eviction" 1 (Predmemo.evictions m);
  (* Refreshing an existing key must not evict anyone. *)
  Predmemo.add m "a" (memo_val 9);
  Alcotest.(check int) "refresh keeps size" 3 (Predmemo.length m);
  (match Predmemo.find m "a" with
  | Some (Sjson.Obj [ ("v", Sjson.Num v) ]) ->
    Alcotest.(check (float 1e-9)) "refresh updated the value" 9.0 v
  | _ -> Alcotest.fail "refreshed entry lost");
  Predmemo.clear m;
  Alcotest.(check int) "clear empties" 0 (Predmemo.length m);
  Alcotest.(check bool) "hit counters survive clear" true (Predmemo.hits m > 0)

let test_memo_disabled () =
  let m = Predmemo.create ~capacity:0 in
  Predmemo.add m "a" (memo_val 1);
  Alcotest.(check bool) "capacity 0 never stores" true (Predmemo.find m "a" = None);
  Alcotest.(check int) "empty" 0 (Predmemo.length m)

(* --- live router over real sockets --- *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_trace_len = 4 * Heatmap.accesses_per_image tiny_spec

let tiny_trace =
  lazy
    (let rng = Prng.create 31 in
     Array.init tiny_trace_len (fun i ->
         if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64))

let infer_line ~id ~sets ~ways () =
  let trace = Lazy.force tiny_trace in
  Sjson.to_string
    (Sjson.Obj
       [
         ("id", Sjson.Str id);
         ("op", Sjson.Str "infer");
         ("sets", Sjson.Num (float_of_int sets));
         ("ways", Sjson.Num (float_of_int ways));
         ( "trace",
           Sjson.Arr (Array.to_list (Array.map (fun a -> Sjson.Num (float_of_int a)) trace))
         );
       ])

let start_backend ?model sock = Daemons.start ?model (Daemons.config ~queue_depth:32 sock)

let router_config ~sock ~backends =
  {
    (Router.default_config ~listen:(Serve_daemon.Unix_socket sock) ~backends) with
    Router.workers = 2;
    max_attempts = 3;
    backoff_base_s = 0.005;
    backoff_max_s = 0.05;
    probe_interval_s = 0.15;
    probe_timeout_s = 0.25;
    eject_after = 2;
    breaker_threshold = 100;  (* keep the breaker out of the failover test *)
    memo_capacity = 32;
  }

let shut_down_backend sock thread =
  let r = Daemons.call sock {|{"op": "shutdown"}|} in
  check_bool r "ok" true;
  Thread.join thread

(* Poll the router's stats until [pred] holds (the prober needs a beat to
   observe a state change). *)
let wait_stats sock pred ~what =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let s = Daemons.call sock {|{"op": "stats"}|} in
    if pred s then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s; last stats: %s" what (Sjson.to_string s)
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let configs =
  [ (4, 2); (8, 2); (16, 2); (32, 2); (4, 4); (8, 4); (16, 4); (32, 4);
    (4, 1); (8, 1); (16, 1); (64, 2) ]

let infer_all rsock ~tag =
  List.iteri
    (fun i (sets, ways) ->
      let id = Printf.sprintf "%s-%d" tag i in
      let r = Daemons.call rsock (infer_line ~id ~sets ~ways ()) in
      check_bool r "ok" true;
      check_str r "id" id)
    configs

let test_router_failover_and_degradation () =
  let dir = temp_dir () in
  let b1 = Filename.concat dir "b1.sock"
  and b2 = Filename.concat dir "b2.sock"
  and rs = Filename.concat dir "r.sock" in
  let t1 = ref (start_backend b1) and t2 = ref (start_backend b2) in
  let rt =
    Daemons.start_router
      (router_config ~sock:rs
         ~backends:
           [ ("b1", Serve_daemon.Unix_socket b1); ("b2", Serve_daemon.Unix_socket b2) ])
  in
  (* Healthy cluster: every shard answers, ids echo in order. *)
  let h = Daemons.call rs {|{"op": "health"}|} in
  check_str h "status" "ok";
  check_str h "role" "router";
  infer_all rs ~tag:"warm";
  (* Kill one backend: requests keyed to it must fail over to the survivor
     (retries > 0 with 12 distinct configs), and the prober must eject it
     within its interval. *)
  shut_down_backend b1 !t1;
  infer_all rs ~tag:"failover";
  let s = wait_stats rs (fun s -> num_field s "backends_up" = Some 1.0) ~what:"ejection" in
  (match num_field s "retries" with
  | Some r -> Alcotest.(check bool) "failover retried at least once" true (r >= 1.0)
  | None -> Alcotest.fail "stats missing retries");
  (match (num_field s "served", num_field s "ok_count") with
  | Some n, Some ok ->
    (* 24 infers + health + the polls: everything answered, all ok — a
       request that failed over was still recorded exactly once. *)
    Alcotest.(check bool) "served >= 25" true (n >= 25.0);
    Alcotest.(check (float 1e-9)) "every answer ok despite the kill" n ok
  | _ -> Alcotest.fail "stats missing served/ok_count");
  (* Restart it on the same address: the next good probe re-admits. *)
  t1 := start_backend b1;
  let s = wait_stats rs (fun s -> num_field s "backends_up" = Some 2.0) ~what:"readmission" in
  (match Sjson.member "backends" s with
  | Some (Sjson.Arr bs) ->
    Alcotest.(check bool) "a readmission was counted" true
      (List.exists (fun b -> num_field b "readmissions" = Some 1.0) bs)
  | _ -> Alcotest.fail "stats missing backends");
  (* Kill everything: the router must still answer, degraded, from its own
     baseline — tagged so clients can tell. *)
  shut_down_backend b1 !t1;
  shut_down_backend b2 !t2;
  ignore (wait_stats rs (fun s -> num_field s "backends_up" = Some 0.0) ~what:"all down");
  let r = Daemons.call rs (infer_line ~id:"dark" ~sets:64 ~ways:8 ()) in
  check_bool r "ok" true;
  check_bool r "degraded" true;
  check_str r "source" "router-hrd";
  check_str r "id" "dark";
  let s = Daemons.call rs {|{"op": "stats"}|} in
  (match num_field s "degraded_router" with
  | Some n -> Alcotest.(check bool) "router degradation counted" true (n >= 1.0)
  | None -> Alcotest.fail "stats missing degraded_router");
  let sd = Daemons.call rs {|{"op": "shutdown"}|} in
  check_bool sd "ok" true;
  Thread.join rt;
  Alcotest.(check bool) "router socket removed" false (Sys.file_exists rs);
  rm_rf dir

let test_router_memo_live () =
  let dir = temp_dir () in
  let b1 = Filename.concat dir "b1.sock" and rs = Filename.concat dir "r.sock" in
  let model = Some (Cbgan.create ~seed:51 tiny_model_config) in
  let t1 = start_backend ~model b1 in
  let rt =
    Daemons.start_router
      (router_config ~sock:rs ~backends:[ ("b1", Serve_daemon.Unix_socket b1) ])
  in
  let line = infer_line ~id:"m0" ~sets:8 ~ways:2 () in
  let r1 = Daemons.call rs line in
  check_bool r1 "ok" true;
  check_str r1 "source" "model";
  Alcotest.(check bool) "first answer is not memoized" true
    (bool_field r1 "memo" = None);
  let r2 = Daemons.call rs (infer_line ~id:"m1" ~sets:8 ~ways:2 ()) in
  check_bool r2 "memo" true;
  check_str r2 "id" "m1";
  Alcotest.(check (option (float 1e-9))) "memo hit is bit-identical"
    (num_field r1 "hit_rate") (num_field r2 "hit_rate");
  let s = Daemons.call rs {|{"op": "stats"}|} in
  Alcotest.(check (option (float 1e-9))) "one memo hit" (Some 1.0)
    (num_field s "memo_hits");
  (* A reload broadcast invalidates the memo (new model, stale answers). *)
  let rl = Daemons.call rs {|{"op": "reload"}|} in
  check_bool rl "ok" false;  (* backend has no reload spec: rejected... *)
  let s = Daemons.call rs {|{"op": "stats"}|} in
  Alcotest.(check (option (float 1e-9))) "memo flushed by reload broadcast"
    (Some 0.0) (num_field s "memo_entries");
  shut_down_backend b1 t1;
  let sd = Daemons.call rs {|{"op": "shutdown"}|} in
  check_bool sd "ok" true;
  Thread.join rt;
  rm_rf dir

(* Every name a router's stats reply carries, with one error counted so an
   err_* field shows. Readers look fields up by name, so the order is free,
   but no counter may go missing or be renamed. *)
let test_router_stats_fields () =
  let dir = temp_dir () in
  let b1 = Filename.concat dir "b1.sock" and rs = Filename.concat dir "r.sock" in
  let t1 = start_backend b1 in
  let rt =
    Daemons.start_router
      (router_config ~sock:rs ~backends:[ ("b1", Serve_daemon.Unix_socket b1) ])
  in
  check_str (Daemons.call rs "{ not json") "error" "bad_request";
  (match Daemons.call rs {|{"op": "stats"}|} with
  | Sjson.Obj fields ->
    Alcotest.(check (list string)) "stats field names"
      [
        "backend_float32"; "backend_hrd"; "backend_int8"; "backend_stm"; "backend_student";
        "backend_student_int8"; "backends"; "backends_up"; "degraded_count";
        "degraded_router"; "err_bad_request"; "hedges"; "memo_entries"; "memo_hits"; "ok";
        "ok_count"; "op"; "p50_ms"; "p99_ms"; "retries"; "role"; "served"; "shed";
      ]
      (List.sort compare (List.map fst fields))
  | _ -> Alcotest.fail "stats reply is not an object");
  check_bool (Daemons.call rs {|{"op": "shutdown"}|}) "ok" true;
  Thread.join rt;
  shut_down_backend b1 t1;
  rm_rf dir

(* A number the ring, health records, breakers, memo or queue rejects is
   an invalid_config error raised before the socket is bound. *)
let test_router_rejects_bad_numbers () =
  let dir = temp_dir () in
  let rs = Filename.concat dir "r.sock" in
  let base =
    router_config ~sock:rs
      ~backends:[ ("b1", Serve_daemon.Unix_socket (Filename.concat dir "b1.sock")) ]
  in
  List.iter
    (fun (what, config) ->
      (match Router.run ~ready:(fun () -> Alcotest.failf "%s: router started" what) config with
      | () -> Alcotest.failf "%s: router ran" what
      | exception Serve_error.Error e ->
        Alcotest.(check string) (what ^ " is invalid_config") "invalid_config"
          (Serve_error.code_string e.Serve_error.code));
      Alcotest.(check bool) (what ^ ": no socket file") false (Sys.file_exists rs))
    [
      ("vnodes 0", { base with Router.vnodes = 0 });
      ("eject_after 0", { base with Router.eject_after = 0 });
      ("breaker_threshold 0", { base with Router.breaker_threshold = 0 });
      ("breaker_cooldown_s -1", { base with Router.breaker_cooldown_s = -1.0 });
      ("memo_capacity -1", { base with Router.memo_capacity = -1 });
      ("queue_depth 0", { base with Router.queue_depth = 0 });
      ("max_attempts 0", { base with Router.max_attempts = 0 });
      ("default_deadline_s 0", { base with Router.default_deadline_s = 0.0 });
      ("attempt_timeout_s 0", { base with Router.attempt_timeout_s = 0.0 });
      ("probe_interval_s 0", { base with Router.probe_interval_s = 0.0 });
    ];
  rm_rf dir

let suite =
  ( "router",
    [
      QCheck_alcotest.to_alcotest test_ring_balance;
      QCheck_alcotest.to_alcotest test_ring_minimal_disruption_leave;
      QCheck_alcotest.to_alcotest test_ring_minimal_disruption_join;
      QCheck_alcotest.to_alcotest test_ring_permutation_invariant;
      Alcotest.test_case "ring successors" `Quick test_ring_successors;
      Alcotest.test_case "ring input validation" `Quick test_ring_rejects_bad_input;
      Alcotest.test_case "health eject/readmit" `Quick test_health_eject_readmit;
      Alcotest.test_case "health EWMA + flapping" `Quick test_health_ewma;
      Alcotest.test_case "memo LRU" `Quick test_memo_lru;
      Alcotest.test_case "memo disabled at capacity 0" `Quick test_memo_disabled;
      Alcotest.test_case "live failover, ejection, readmission, degradation" `Quick
        test_router_failover_and_degradation;
      Alcotest.test_case "live memo + reload invalidation" `Quick test_router_memo_live;
      Alcotest.test_case "stats field names" `Quick test_router_stats_fields;
      Alcotest.test_case "bad numbers rejected before binding" `Quick
        test_router_rejects_bad_numbers;
    ] )
