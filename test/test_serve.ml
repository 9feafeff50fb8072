(* Hardened serving layer: JSON codec, validation gate, error taxonomy,
   circuit breaker, bounded queue, degradation ladder, fault-injected
   corruption properties, and a live daemon round-trip over a Unix socket. *)

let temp_dir () =
  let d = Filename.temp_file "cbox_serve" "" in
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

(* --- Sjson codec --- *)

let test_sjson_roundtrip () =
  let j =
    Sjson.Obj
      [
        ("s", Sjson.Str "a \"b\"\n\t\\");
        ("i", Sjson.Num 42.0);
        ("f", Sjson.Num 1.5);
        ("neg", Sjson.Num (-3.0));
        ("t", Sjson.Bool true);
        ("n", Sjson.Null);
        ("a", Sjson.Arr [ Sjson.Num 1.0; Sjson.Str "x"; Sjson.Bool false ]);
        ("o", Sjson.Obj [ ("k", Sjson.Num 7.0) ]);
      ]
  in
  (match Sjson.parse (Sjson.to_string j) with
  | Ok j' -> Alcotest.(check bool) "parse inverts to_string" true (j = j')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  (* Integral numbers must print without a decimal point (protocol ints). *)
  Alcotest.(check string) "integral rendering" "{\"i\": 42}"
    (Sjson.to_string (Sjson.Obj [ ("i", Sjson.Num 42.0) ]))

let test_sjson_rejects_garbage () =
  let nested k = String.make k '[' ^ String.make k ']' in
  let bad =
    [ ""; "{"; "[1,]"; "{\"a\": 1} junk"; "nul"; "\"unterminated"; "{1: 2}"; "+5"; nested 65 ]
  in
  List.iter
    (fun s ->
      match Sjson.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad;
  match Sjson.parse (nested 64) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected a 64-deep array: %s" e

let test_sjson_surrogates () =
  (match Sjson.parse {|"\ud83d\ude00"|} with
  | Ok (Sjson.Str s) ->
    Alcotest.(check string) "surrogate pair recombines to 4-byte UTF-8" "\xf0\x9f\x98\x80" s;
    Alcotest.(check string) "non-BMP text reprints as raw UTF-8" "\"\xf0\x9f\x98\x80\""
      (Sjson.to_string (Sjson.Str s))
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e);
  List.iter
    (fun s ->
      match Sjson.parse s with
      | Ok _ -> Alcotest.failf "accepted lone/mismatched surrogate %S" s
      | Error _ -> ())
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83dA"|}; {|"\ude00"|}; {|"\ud83d\ud83d"|} ]

let test_sjson_accessors () =
  match Sjson.parse {|{"i": 3, "f": 3.5, "s": "x", "u": "é"}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j ->
    Alcotest.(check (option int)) "to_int exact" (Some 3)
      (Option.bind (Sjson.member "i" j) Sjson.to_int);
    Alcotest.(check (option int)) "to_int rejects 3.5" None
      (Option.bind (Sjson.member "f" j) Sjson.to_int);
    Alcotest.(check (option string)) "unicode escape decodes to UTF-8"
      (Some "\xc3\xa9") (str_field j "u");
    Alcotest.(check (option string)) "absent member" None (str_field j "missing")

(* --- error taxonomy --- *)

let test_taxonomy_stable () =
  List.iter
    (fun code ->
      Alcotest.(check (option bool)) "code string roundtrips" (Some true)
        (Option.map (fun c -> c = code) (Serve_error.code_of_string (Serve_error.code_string code))))
    Serve_error.all_codes;
  let exits = List.map Serve_error.exit_code Serve_error.all_codes in
  Alcotest.(check (list int)) "exit codes are the documented table"
    [ 2; 2; 3; 4; 5; 6; 7; 8 ] exits;
  Alcotest.(check (option string)) "unknown code string" None
    (Option.map Serve_error.code_string (Serve_error.code_of_string "nope"))

let test_taxonomy_of_exn () =
  let code e = (Serve_error.of_exn e).Serve_error.code in
  Alcotest.(check bool) "Failure -> Corrupt_input" true
    (code (Failure "x") = Serve_error.Corrupt_input);
  Alcotest.(check bool) "Sys_error -> Corrupt_input" true
    (code (Sys_error "x") = Serve_error.Corrupt_input);
  Alcotest.(check bool) "Invalid_argument -> Bad_request" true
    (code (Invalid_argument "x") = Serve_error.Bad_request);
  Alcotest.(check bool) "unknown -> Internal" true (code Exit = Serve_error.Internal);
  Alcotest.(check bool) "Error passes through" true
    (code (Serve_error.Error (Serve_error.v Serve_error.Overloaded "q")) = Serve_error.Overloaded)

(* --- validation gate --- *)

let expect_code what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" what (Serve_error.code_string expected)
  | Error (e : Serve_error.t) ->
    Alcotest.(check string) what (Serve_error.code_string expected)
      (Serve_error.code_string e.Serve_error.code)

let test_validate_cache_config () =
  (match Validate.cache_config ~sets:64 ~ways:4 () with
  | Ok cfg ->
    Alcotest.(check int) "sets kept" 64 cfg.Cache.sets;
    Alcotest.(check int) "ways kept" 4 cfg.Cache.ways
  | Error e -> Alcotest.failf "valid config rejected: %s" e.Serve_error.message);
  expect_code "non-power-of-two sets" Serve_error.Invalid_config
    (Validate.cache_config ~sets:100 ~ways:4 ());
  expect_code "zero sets" Serve_error.Invalid_config (Validate.cache_config ~sets:0 ~ways:4 ());
  expect_code "oversized sets" Serve_error.Invalid_config
    (Validate.cache_config ~sets:(2 * Validate.max_sets) ~ways:4 ());
  expect_code "zero ways" Serve_error.Invalid_config (Validate.cache_config ~sets:64 ~ways:0 ());
  expect_code "oversized ways" Serve_error.Invalid_config
    (Validate.cache_config ~sets:64 ~ways:(Validate.max_ways + 1) ());
  expect_code "bad block size" Serve_error.Invalid_config
    (Validate.cache_config ~block_bytes:24 ~sets:64 ~ways:4 ())

let test_validate_hierarchy () =
  let l1 = Cache.config ~sets:64 ~ways:4 () in
  let l2 = Cache.config ~sets:256 ~ways:8 () in
  Alcotest.(check bool) "monotone hierarchy accepted" true
    (Validate.hierarchy_configs [ l1; l2 ] = Ok ());
  expect_code "shrinking hierarchy" Serve_error.Invalid_config
    (Validate.hierarchy_configs [ l2; l1 ])

let test_validate_trace () =
  Alcotest.(check bool) "good trace" true (Validate.trace [| 0; 64; 128 |] = Ok ());
  expect_code "empty trace" Serve_error.Bad_request (Validate.trace [||]);
  expect_code "negative address" Serve_error.Bad_request (Validate.trace [| 64; -1 |]);
  expect_code "address beyond 2^52" Serve_error.Bad_request
    (Validate.trace [| Trace_io.max_address + 1 |]);
  expect_code "over max_len" Serve_error.Bad_request
    (Validate.trace ~max_len:2 [| 0; 64; 128 |])

let test_validate_request () =
  (match Validate.request {|{"op": "infer", "id": "r", "sets": 8, "ways": 2, "trace": [0, 64, 128], "deadline_ms": 250}|} with
  | Ok (Validate.Infer { id; sets; ways; source; deadline_s; backend }) ->
    Alcotest.(check (option string)) "id" (Some "r") id;
    Alcotest.(check int) "sets" 8 sets;
    Alcotest.(check int) "ways" 2 ways;
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 0.25) deadline_s;
    Alcotest.(check bool) "no backend" true (backend = None);
    (match source with
    | Validate.Inline arr -> Alcotest.(check int) "trace len" 3 (Array.length arr)
    | _ -> Alcotest.fail "expected inline source")
  | Ok _ -> Alcotest.fail "wrong variant"
  | Error e -> Alcotest.failf "valid request rejected: %s" e.Serve_error.message);
  Alcotest.(check bool) "health" true (Validate.request {|{"op": "health"}|} = Ok Validate.Health);
  Alcotest.(check bool) "shutdown" true
    (Validate.request {|{"op": "shutdown"}|} = Ok Validate.Shutdown);
  expect_code "unknown op" Serve_error.Bad_request (Validate.request {|{"op": "frobnicate"}|});
  expect_code "non-object" Serve_error.Bad_request (Validate.request {|[1, 2]|});
  expect_code "missing sets" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "ways": 2, "trace": [0]}|});
  expect_code "no trace source" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "sets": 8, "ways": 2}|});
  expect_code "conflicting sources" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "benchmark": "x"}|});
  expect_code "float sets" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "sets": 8.5, "ways": 2, "trace": [0]}|});
  expect_code "zero deadline" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "deadline_ms": 0}|});
  expect_code "huge deadline" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "deadline_ms": 900000}|});
  (match
     Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "deadline_ms": 120000}|}
   with
  | Ok (Validate.Infer { deadline_s; _ }) ->
    Alcotest.(check (option (float 1e-9))) "a 120 s deadline is served with 60 s" (Some 60.0)
      deadline_s
  | _ -> Alcotest.fail "120 s deadline rejected");
  (match Validate.request "{ not json" with
  | Error { Serve_error.code = Serve_error.Bad_request; message } ->
    Alcotest.(check bool) "malformed line named" true
      (String.starts_with ~prefix:"malformed JSON: " message)
  | _ -> Alcotest.fail "malformed line not a bad_request");
  (match
     Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "backend": "int8"}|}
   with
  | Ok (Validate.Infer { backend; _ }) ->
    Alcotest.(check bool) "int8 backend" true (backend = Some Cbox_infer.Backend_int8)
  | _ -> Alcotest.fail "backend request rejected");
  expect_code "unknown backend" Serve_error.Invalid_config
    (Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "backend": "fp16"}|});
  expect_code "non-string backend" Serve_error.Bad_request
    (Validate.request {|{"op": "infer", "sets": 8, "ways": 2, "trace": [0], "backend": 8}|})

(* --- circuit breaker (fake clock) --- *)

let test_breaker_lifecycle () =
  let t = ref 100.0 in
  let b = Breaker.create ~threshold:3 ~cooldown:5.0 ~now:(fun () -> !t) () in
  Alcotest.(check string) "starts closed" "closed" (Breaker.state_name (Breaker.state b));
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "below threshold stays closed" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check int) "success resets the streak" 0 (Breaker.consecutive_failures b);
  Breaker.record_failure b;
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check string) "third consecutive failure opens" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "open blocks the model" false (Breaker.allow b);
  t := 104.9;
  Alcotest.(check bool) "still open before cooldown" false (Breaker.allow b);
  t := 105.0;
  Alcotest.(check string) "cooldown expiry surfaces as half-open" "half_open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "half-open allows the probe" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check string) "failed probe re-opens immediately" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check int) "two opens counted" 2 (Breaker.times_opened b);
  t := 111.0;
  Alcotest.(check bool) "second probe allowed" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check string) "successful probe closes" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "closed allows again" true (Breaker.allow b)

(* --- bounded queue --- *)

let test_squeue_sheds_when_full () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Squeue.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Squeue.try_push q 3);
  Alcotest.(check int) "length" 2 (Squeue.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Squeue.pop q);
  Alcotest.(check bool) "slot freed" true (Squeue.try_push q 4);
  Squeue.close q;
  Alcotest.(check bool) "closed rejects pushes" false (Squeue.try_push q 5);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Squeue.pop q);
  Alcotest.(check (option int)) "drains after close (2)" (Some 4) (Squeue.pop q);
  Alcotest.(check (option int)) "empty + closed ends" None (Squeue.pop q)

let test_squeue_close_wakes_popper () =
  let q : int Squeue.t = Squeue.create ~capacity:1 in
  let result = ref (Some 0) in
  let popper = Thread.create (fun () -> result := Squeue.pop q) () in
  Thread.delay 0.05;
  Squeue.close q;
  Thread.join popper;
  Alcotest.(check (option int)) "blocked pop returns None on close" None !result

(* --- serving engine --- *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_trace_len = 4 * Heatmap.accesses_per_image tiny_spec

let tiny_trace =
  lazy
    (let rng = Prng.create 31 in
     Array.init tiny_trace_len (fun i ->
         if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64))

let infer_line ?id ?deadline_ms () =
  let trace = Lazy.force tiny_trace in
  Sjson.to_string
    (Sjson.Obj
       ((match id with None -> [] | Some id -> [ ("id", Sjson.Str id) ])
       @ [
           ("op", Sjson.Str "infer");
           ("sets", Sjson.Num 4.0);
           ("ways", Sjson.Num 2.0);
           ( "trace",
             Sjson.Arr (Array.to_list (Array.map (fun a -> Sjson.Num (float_of_int a)) trace))
           );
         ]
       @
       match deadline_ms with
       | None -> []
       | Some ms -> [ ("deadline_ms", Sjson.Num (float_of_int ms)) ]))

let reply engine line =
  match Serve_engine.handle_line engine line with
  | Serve_engine.Reply j | Serve_engine.Shutdown_reply j -> j

(* Wide validity gate so an untrained generator's raw answer still counts
   as a model success; the NaN injected by [Nan_output] fails any gate. *)
let engine ?now ~model ?(fallback = Cbox_infer.Fallback_hrd) () =
  let cfg =
    {
      (Serve_engine.default_config ~fallback ()) with
      Serve_engine.grace_lo = -1e9;
      grace_hi = 1e9;
      breaker_cooldown_s = 5.0;
    }
  in
  Serve_engine.create ?now ~spec:tiny_spec ~model cfg

let test_engine_degrades_without_model () =
  let e = engine ~model:None () in
  let r = reply e (infer_line ~id:"d1" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" true;
  check_str r "source" "hrd";
  check_str r "reason" "model_unavailable";
  check_str r "id" "d1";
  (match num_field r "hit_rate" with
  | Some hr -> Alcotest.(check bool) "hit rate in [0,1]" true (hr >= 0.0 && hr <= 1.0)
  | None -> Alcotest.fail "no hit_rate in degraded reply");
  let h = reply e {|{"op": "health"}|} in
  check_str h "status" "degraded";
  check_bool h "model_loaded" false

let test_engine_no_model_no_fallback () =
  let e = engine ~model:None ~fallback:Cbox_infer.No_fallback () in
  let r = reply e (infer_line ()) in
  check_bool r "ok" false;
  check_str r "error" "model_unavailable"

let test_engine_typed_errors () =
  let e = engine ~model:None () in
  check_str (reply e "{ not json") "error" "bad_request";
  check_str (reply e {|{"op": "infer", "sets": 100, "ways": 4, "trace": [0, 64]}|}) "error"
    "invalid_config";
  check_str (reply e {|{"op": "infer", "sets": 4, "ways": 2, "benchmark": "no-such"}|}) "error"
    "bad_request";
  (* A valid trace that cannot fill one heatmap image is a typed error, not
     a crash inside the heatmap pipeline. *)
  check_str (reply e {|{"op": "infer", "sets": 4, "ways": 2, "trace": [0, 64, 128]}|}) "error"
    "bad_request";
  let s = reply e {|{"op": "stats"}|} in
  Alcotest.(check (option (float 1e-9))) "bad_request errors counted" (Some 3.0)
    (num_field s "err_bad_request")

(* Arrived 10 s ago with a 1 s budget: dead before the worker saw it. The
   timestamp the daemon stamps at enqueue, not the dequeue time, drives the
   deadline, so time spent queued is on the clock. *)
let test_engine_queue_wait_counts_against_deadline () =
  let t = ref 1000.0 in
  let e = engine ~now:(fun () -> !t) ~model:None () in
  (match Serve_engine.handle_line e ~arrival:(!t -. 10.0) (infer_line ~id:"q" ~deadline_ms:1000 ()) with
  | Serve_engine.Reply r ->
    check_bool r "ok" false;
    check_str r "error" "deadline_exceeded";
    check_str r "id" "q"
  | Serve_engine.Shutdown_reply _ -> Alcotest.fail "unexpected shutdown");
  (* A fresh arrival with the same budget goes through. *)
  match Serve_engine.handle_line e ~arrival:!t (infer_line ~id:"f" ~deadline_ms:1000 ()) with
  | Serve_engine.Reply r -> check_bool r "ok" true
  | Serve_engine.Shutdown_reply _ -> Alcotest.fail "unexpected shutdown"

let with_model f =
  let model = Cbgan.create ~seed:51 tiny_model_config in
  Fun.protect ~finally:Faultinject.disarm (fun () -> f model)

let test_engine_model_happy_path () =
  with_model (fun model ->
      let e = engine ~model:(Some model) () in
      let r = reply e (infer_line ~id:"m1" ()) in
      check_bool r "ok" true;
      check_bool r "degraded" false;
      check_str r "source" "model";
      Alcotest.(check (option string)) "no reason on clean answers" None (str_field r "reason");
      let h = reply e {|{"op": "health"}|} in
      check_str h "status" "ok")

let test_engine_nan_output_degrades () =
  with_model (fun model ->
      let e = engine ~model:(Some model) () in
      Faultinject.arm Faultinject.Nan_output ~at_batch:1;
      let r = reply e (infer_line ()) in
      check_bool r "ok" true;
      check_bool r "degraded" true;
      check_str r "source" "hrd";
      (match str_field r "reason" with
      | Some reason ->
        Alcotest.(check bool) "reason names the model fault" true
          (String.length reason >= 11 && String.sub reason 0 11 = "model_fault")
      | None -> Alcotest.fail "degraded reply must carry a reason");
      (* One fault is below the threshold: the model is trusted again. *)
      let r2 = reply e (infer_line ()) in
      check_bool r2 "degraded" false;
      check_str r2 "source" "model")

let test_engine_breaker_trips_and_recovers () =
  with_model (fun model ->
      let t = ref 500.0 in
      let e = engine ~now:(fun () -> !t) ~model:(Some model) () in
      (* Three consecutive NaN outputs: every answer stays a flagged
         baseline, and the third trips the breaker. *)
      Faultinject.arm ~count:3 Faultinject.Nan_output ~at_batch:1;
      for _ = 1 to 3 do
        let r = reply e (infer_line ()) in
        check_bool r "degraded" true
      done;
      Alcotest.(check string) "breaker open after threshold" "open"
        (Breaker.state_name (Serve_engine.breaker_state e));
      (* Open: the model is skipped entirely (the injected fault is spent,
         so a model attempt would succeed — the breaker must prevent it). *)
      let r = reply e (infer_line ()) in
      check_bool r "degraded" true;
      check_str r "reason" "breaker_open";
      (* Cooldown expires: half-open probe reaches the (healthy) model and
         closes the breaker. *)
      t := 506.0;
      let r = reply e (infer_line ()) in
      check_bool r "degraded" false;
      check_str r "source" "model";
      Alcotest.(check string) "probe success closes" "closed"
        (Breaker.state_name (Serve_engine.breaker_state e));
      let s = reply e {|{"op": "stats"}|} in
      Alcotest.(check (option (float 1e-9))) "opens counted" (Some 1.0) (num_field s "breaker_opens");
      Alcotest.(check (option (float 1e-9))) "degraded counted" (Some 4.0)
        (num_field s "degraded_count"))

let test_engine_slow_model_degrades_on_deadline () =
  with_model (fun model ->
      (* Real clock: the injected stall must actually consume the budget. *)
      let e = engine ~model:(Some model) () in
      Faultinject.arm (Faultinject.Slow 0.25) ~at_batch:1;
      let r = reply e (infer_line ~deadline_ms:50 ()) in
      check_bool r "ok" true;
      check_bool r "degraded" true;
      check_str r "reason" "deadline";
      (* The stall is spent; with headroom restored the model answers. *)
      let r2 = reply e (infer_line ~deadline_ms:5000 ()) in
      check_str r2 "source" "model")

let test_engine_overload_reply () =
  let e = engine ~model:None () in
  let r =
    Serve_engine.shed_reply e (Serve_error.v Serve_error.Overloaded "request queue full")
  in
  check_bool r "ok" false;
  check_str r "error" "overloaded";
  let s = reply e {|{"op": "stats"}|} in
  Alcotest.(check (option (float 1e-9))) "shed counted" (Some 1.0) (num_field s "shed")

(* --- corruption properties (fault drill) --- *)

let corrupt_codes result expected what =
  match result with
  | Ok _ -> Alcotest.failf "%s: corruption accepted" what
  | Error (e : Serve_error.t) -> e.Serve_error.code = expected

let test_corrupt_trace_property =
  (* Flipping any byte of a binary trace must surface as a typed
     [corrupt_input] — never a crash, never silently different addresses. *)
  QCheck.Test.make ~name:"corrupt trace byte -> typed corrupt_input" ~count:80
    QCheck.(int_range 0 4_000)
    (fun offset ->
      let dir = temp_dir () in
      let path = Filename.concat dir "t.bin" in
      Trace_io.write_binary path (Array.init 64 (fun i -> i * 64));
      Faultinject.corrupt_byte path ~offset;
      let ok = corrupt_codes (Validate.read_trace_file path) Serve_error.Corrupt_input "trace" in
      rm_rf dir;
      ok)

let test_truncated_trace_property =
  QCheck.Test.make ~name:"truncated trace -> typed corrupt_input" ~count:60
    QCheck.(int_range 0 4_000)
    (fun cut ->
      let dir = temp_dir () in
      let path = Filename.concat dir "t.bin" in
      Trace_io.write_binary path (Array.init 64 (fun i -> i * 64));
      let ic = open_in_bin path in
      let full = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let keep = cut mod String.length full in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 keep);
      close_out oc;
      let ok =
        corrupt_codes (Validate.read_trace_file path) Serve_error.Corrupt_input "truncation"
      in
      rm_rf dir;
      ok)

let test_corrupt_checkpoint_property =
  (* Serving must never load weights from a damaged checkpoint: any flipped
     byte is a typed [model_unavailable] at startup. *)
  let pristine =
    lazy
      (let dir = temp_dir () in
       let path = Filename.concat dir "m.ckpt" in
       Cbgan.save (Cbgan.create ~seed:52 tiny_model_config) path;
       let ic = open_in_bin path in
       let bytes = really_input_string ic (in_channel_length ic) in
       close_in ic;
       rm_rf dir;
       bytes)
  in
  QCheck.Test.make ~name:"corrupt checkpoint byte -> typed model_unavailable" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun offset ->
      let dir = temp_dir () in
      let path = Filename.concat dir "m.ckpt" in
      let oc = open_out_bin path in
      output_string oc (Lazy.force pristine);
      close_out oc;
      Faultinject.corrupt_byte path ~offset;
      let ok =
        corrupt_codes
          (Serve_engine.model_of_checkpoint ~seed:52 tiny_model_config ~path)
          Serve_error.Model_unavailable "checkpoint"
      in
      rm_rf dir;
      ok)

(* Checkpoints under a valid CRC whose one entry claims more data than the
   file holds: dims 2^30 x 2^30 x 4 (the product overflows) and
   2^30 x 2^30 followed by one float. The reader must bound the element
   count by the bytes left before it multiplies or allocates, so each is a
   typed [model_unavailable]. *)
let test_checkpoint_entry_past_end () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.ckpt" in
  List.iter
    (fun (name, dims, floats) ->
      (* No meta, one entry: its name, rank, dims and data. *)
      let b = Buffer.create 64 in
      List.iter (Buffer.add_int32_le b) [ 0l; 1l; 1l ];
      Buffer.add_string b "w";
      Buffer.add_int32_le b (Int32.of_int (List.length dims));
      List.iter (fun d -> Buffer.add_int32_le b (Int32.of_int d)) dims;
      List.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) floats;
      let payload = Buffer.contents b in
      let hdr = Bytes.create 12 in
      Bytes.set_int64_le hdr 0 (Int64.of_int (String.length payload));
      Bytes.set_int32_le hdr 8 (Int32.of_int (Crc32.digest payload));
      let oc = open_out_bin path in
      output_string oc "CBOXCKPT2";
      output_bytes oc hdr;
      output_string oc payload;
      close_out oc;
      Alcotest.(check bool) name true
        (corrupt_codes
           (Serve_engine.model_of_checkpoint ~seed:52 tiny_model_config ~path)
           Serve_error.Model_unavailable name))
    [
      ("dims 2^30 x 2^30 x 4", [ 1 lsl 30; 1 lsl 30; 4 ], []);
      ("dims 2^30 x 2^30, one float", [ 1 lsl 30; 1 lsl 30 ], [ 1.0 ]);
      ("rank 0, no float", [], []);
    ];
  rm_rf dir

(* A binary-trace header whose count wraps [8 * count] is corrupt input,
   not an internal error. *)
let test_trace_count_past_end () =
  let dir = temp_dir () in
  List.iter
    (fun path ->
      Alcotest.(check bool) path true
        (corrupt_codes (Validate.read_trace_file path) Serve_error.Corrupt_input path))
    (Test_resilience.huge_count_traces dir);
  rm_rf dir

let test_junk_request_property =
  (* The engine is total: any byte soup gets a reply, and error replies
     carry a known taxonomy code. *)
  let e = lazy (engine ~model:None ()) in
  QCheck.Test.make ~name:"arbitrary request line -> typed reply" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.printable)
    (fun line ->
      let r = reply (Lazy.force e) line in
      match bool_field r "ok" with
      | Some true -> true
      | Some false -> (
        match str_field r "error" with
        | Some code -> Serve_error.code_of_string code <> None
        | None -> false)
      | None -> false)

(* --- daemon over a real Unix socket --- *)

let test_daemon_roundtrip () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let server = Daemons.start (Daemons.config sock) in
  let c = Daemons.connect sock in
  let call line = Daemons.request c line in
  let h = call {|{"op": "health"}|} in
  check_bool h "ok" true;
  check_str h "status" "degraded";
  check_bool h "model_loaded" false;
  let r = call (infer_line ~id:"net1" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" true;
  check_str r "source" "hrd";
  check_str r "id" "net1";
  check_str (call "{ not json") "error" "bad_request";
  let s = call {|{"op": "stats"}|} in
  (match num_field s "served" with
  | Some n -> Alcotest.(check bool) "served >= 3" true (n >= 3.0)
  | None -> Alcotest.fail "stats missing served");
  let sd = call {|{"op": "shutdown"}|} in
  check_str sd "op" "shutdown";
  (* The connection is deliberately left open across the join: shutdown
     must wake the idle reader itself (EOF), not wait for the client. *)
  Thread.join server;
  (match Client.recv c with
  | Error Client.Eof -> ()
  | _ -> Alcotest.fail "client expected EOF after shutdown");
  Client.close c;
  Alcotest.(check bool) "socket file removed on shutdown" false (Sys.file_exists sock);
  rm_rf dir

(* Every name a daemon's stats reply carries, with one error counted so an
   err_* field shows. Readers look fields up by name, so the order is free,
   but no counter may go missing or be renamed. *)
let test_daemon_stats_fields () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let server = Daemons.start (Daemons.config sock) in
  let c = Daemons.connect sock in
  check_str (Daemons.request c "{ not json") "error" "bad_request";
  (match Daemons.request c {|{"op": "stats"}|} with
  | Sjson.Obj fields ->
    Alcotest.(check (list string)) "stats field names"
      [
        "backend_float32"; "backend_hrd"; "backend_int8"; "backend_stm"; "backend_student";
        "backend_student_int8"; "batches"; "breaker"; "breaker_opens"; "degraded_count";
        "degraded_router"; "err_bad_request"; "hedges"; "max_batch"; "ok"; "ok_count"; "op";
        "p50_ms"; "p99_ms"; "reload_failures"; "reloads"; "retries"; "served"; "shed";
        "stream"; "ws_allocs"; "ws_borrows";
      ]
      (List.sort compare (List.map fst fields))
  | _ -> Alcotest.fail "stats reply is not an object");
  ignore (Daemons.request c {|{"op": "shutdown"}|});
  Thread.join server;
  Client.close c;
  rm_rf dir

(* Shutdown under concurrency: while the worker is stalled inside a slow
   model inference, a shutdown and a trailing infer pile up in the queue.
   The daemon must answer the stalled request, the shutdown, and the
   orphaned request (as shed), wake the idle client with EOF, and join —
   the exact interleaving that used to deadlock [run]. *)
let test_daemon_shutdown_drains_and_wakes () =
  with_model (fun model ->
      let dir = temp_dir () in
      let sock = Filename.concat dir "s.sock" in
      let server = Daemons.start ~model:(Some model) (Daemons.config sock) in
      let idle = Daemons.connect sock in
      let slow = Daemons.connect sock in
      let ctl = Daemons.connect sock in
      let late = Daemons.connect sock in
      Faultinject.arm (Faultinject.Slow 0.5) ~at_batch:1;
      Daemons.send slow (infer_line ~id:"slow" ());
      Thread.delay 0.15;
      Daemons.send ctl {|{"op": "shutdown"}|};
      Thread.delay 0.1;
      Daemons.send late (infer_line ~id:"late" ());
      let slow_r = Daemons.recv slow in
      check_bool slow_r "ok" true;
      let ctl_r = Daemons.recv ctl in
      check_str ctl_r "op" "shutdown";
      let late_r = Daemons.recv late in
      check_bool late_r "ok" false;
      check_str late_r "error" "overloaded";
      (match Client.recv idle with
      | Error Client.Eof -> ()
      | _ -> Alcotest.fail "idle client expected EOF on shutdown");
      Thread.join server;
      List.iter Client.close [ idle; slow; ctl; late ];
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock);
      rm_rf dir)

(* A second daemon on a live socket must refuse (and leave the live daemon
   undisturbed); a stale socket file left by a crash is reclaimed. *)
let test_daemon_socket_in_use_and_stale () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let config = Daemons.config sock in
  let server = Daemons.start config in
  (match Serve_daemon.run ~spec:tiny_spec ~model:None config with
  | () -> Alcotest.fail "second daemon started over a live one"
  | exception Serve_error.Error e ->
    Alcotest.(check string) "live socket refused as invalid_config" "invalid_config"
      (Serve_error.code_string e.Serve_error.code));
  let c = Daemons.connect sock in
  check_bool (Daemons.request c {|{"op": "health"}|}) "ok" true;
  ignore (Daemons.request c {|{"op": "shutdown"}|});
  Thread.join server;
  Client.close c;
  (* Stale file: bound but nobody listening behind it (simulated crash). *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX sock);
  Unix.close stale;
  Alcotest.(check bool) "stale socket file left behind" true (Sys.file_exists sock);
  let server2 = Daemons.start config in
  let c2 = Daemons.connect sock in
  check_bool (Daemons.request c2 {|{"op": "health"}|}) "ok" true;
  ignore (Daemons.request c2 {|{"op": "shutdown"}|});
  Thread.join server2;
  Client.close c2;
  rm_rf dir

let test_daemon_unresolvable_host () =
  let config =
    Serve_daemon.default_config (Serve_daemon.Tcp ("no-such-host.invalid", 0))
  in
  match Serve_daemon.run ~spec:tiny_spec ~model:None config with
  | () -> Alcotest.fail "daemon started on an unresolvable host"
  | exception Serve_error.Error e ->
    Alcotest.(check string) "unresolvable host is invalid_config" "invalid_config"
      (Serve_error.code_string e.Serve_error.code)

(* A number the daemon, queue, engine or session manager rejects is an
   invalid_config error raised before the socket is bound. [ready] fails
   the test rather than waiting on [run], which never returns for a daemon
   whose batcher thread died at startup. *)
let test_daemon_rejects_bad_numbers () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let base = Daemons.config sock in
  let engine = base.Serve_daemon.engine
  and stream = base.Serve_daemon.stream in
  List.iter
    (fun (what, config) ->
      (match
         Serve_daemon.run
           ~ready:(fun () -> Alcotest.failf "%s: daemon started" what)
           ~spec:tiny_spec ~model:None config
       with
      | () -> Alcotest.failf "%s: daemon ran" what
      | exception Serve_error.Error e ->
        Alcotest.(check string) (what ^ " is invalid_config") "invalid_config"
          (Serve_error.code_string e.Serve_error.code));
      Alcotest.(check bool) (what ^ ": no socket file") false (Sys.file_exists sock))
    [
      ("queue_depth 0", { base with Serve_daemon.queue_depth = 0 });
      ("max_batch 0", { base with max_batch = 0 });
      ("max_bytes 0", { base with stream = { stream with Stream_session.max_bytes = 0 } });
      ( "breaker_threshold 0",
        { base with engine = { engine with Serve_engine.breaker_threshold = 0 } } );
      ( "breaker_cooldown_s -0.001",
        { base with engine = { engine with Serve_engine.breaker_cooldown_s = -0.001 } } );
      ( "max_sessions 0",
        { base with stream = { stream with Stream_session.max_sessions = 0 } } );
      ( "retain_windows 0",
        { base with stream = { stream with Stream_session.retain_windows = 0 } } );
      ( "max_pending_windows 0",
        { base with stream = { stream with Stream_session.max_pending_windows = 0 } } );
      ( "session_ttl_s 0",
        { base with stream = { stream with Stream_session.session_ttl_s = 0.0 } } );
      ( "default_deadline_s 0",
        { base with engine = { engine with Serve_engine.default_deadline_s = 0.0 } } );
      ( "max_trace_len below one image",
        {
          base with
          engine =
            {
              engine with
              Serve_engine.max_trace_len = Heatmap.accesses_per_image tiny_spec - 1;
            };
        } );
    ];
  rm_rf dir

let suite =
  ( "serve",
    [
      Alcotest.test_case "sjson roundtrip" `Quick test_sjson_roundtrip;
      Alcotest.test_case "sjson rejects garbage" `Quick test_sjson_rejects_garbage;
      Alcotest.test_case "sjson surrogate pairs" `Quick test_sjson_surrogates;
      Alcotest.test_case "sjson accessors" `Quick test_sjson_accessors;
      Alcotest.test_case "taxonomy codes stable" `Quick test_taxonomy_stable;
      Alcotest.test_case "taxonomy of_exn total" `Quick test_taxonomy_of_exn;
      Alcotest.test_case "validate cache config" `Quick test_validate_cache_config;
      Alcotest.test_case "validate hierarchy" `Quick test_validate_hierarchy;
      Alcotest.test_case "validate trace" `Quick test_validate_trace;
      Alcotest.test_case "validate wire requests" `Quick test_validate_request;
      Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
      Alcotest.test_case "squeue sheds when full" `Quick test_squeue_sheds_when_full;
      Alcotest.test_case "squeue close wakes popper" `Quick test_squeue_close_wakes_popper;
      Alcotest.test_case "engine degrades without model" `Quick test_engine_degrades_without_model;
      Alcotest.test_case "engine no model no fallback" `Quick test_engine_no_model_no_fallback;
      Alcotest.test_case "engine typed errors" `Quick test_engine_typed_errors;
      Alcotest.test_case "engine queue wait counts against deadline" `Quick
        test_engine_queue_wait_counts_against_deadline;
      Alcotest.test_case "engine model happy path" `Slow test_engine_model_happy_path;
      Alcotest.test_case "engine nan output degrades" `Slow test_engine_nan_output_degrades;
      Alcotest.test_case "engine breaker trips and recovers" `Slow test_engine_breaker_trips_and_recovers;
      Alcotest.test_case "engine slow model deadline" `Slow test_engine_slow_model_degrades_on_deadline;
      Alcotest.test_case "engine overload reply" `Quick test_engine_overload_reply;
      QCheck_alcotest.to_alcotest test_corrupt_trace_property;
      QCheck_alcotest.to_alcotest test_truncated_trace_property;
      QCheck_alcotest.to_alcotest test_corrupt_checkpoint_property;
      QCheck_alcotest.to_alcotest test_junk_request_property;
      Alcotest.test_case "daemon unix-socket roundtrip" `Quick test_daemon_roundtrip;
      Alcotest.test_case "daemon stats field names" `Quick test_daemon_stats_fields;
      Alcotest.test_case "daemon shutdown drains queue and wakes idle clients" `Slow
        test_daemon_shutdown_drains_and_wakes;
      Alcotest.test_case "daemon refuses live socket, reclaims stale" `Quick
        test_daemon_socket_in_use_and_stale;
      Alcotest.test_case "daemon rejects unresolvable host" `Quick
        test_daemon_unresolvable_host;
      Alcotest.test_case "daemon rejects bad numbers before binding" `Quick
        test_daemon_rejects_bad_numbers;
      Alcotest.test_case "checkpoint entry past the file end -> model_unavailable" `Quick
        test_checkpoint_entry_past_end;
      Alcotest.test_case "trace count past the file end -> corrupt_input" `Quick
        test_trace_count_past_end;
    ] )
