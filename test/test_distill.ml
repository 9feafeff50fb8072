(* Knowledge distillation and the student serving backend: the
   zero-temperature supervised-loss identity, cross-domain bit-identical
   distillation, student checkpoint integrity (corrupt-byte rejection with
   the teacher unaffected), the student degradation rung, per-backend
   counters for student/student-int8, and the no-backend-mixing guarantee
   of the batched path. *)

let str_field json k = Option.bind (Sjson.member k json) Sjson.to_str
let bool_field json k = Option.bind (Sjson.member k json) Sjson.to_bool
let num_field json k = Option.bind (Sjson.member k json) Sjson.to_float

let check_str json k expected =
  Alcotest.(check (option string)) k (Some expected) (str_field json k)

let check_bool json k expected =
  Alcotest.(check (option bool)) k (Some expected) (bool_field json k)

let temp_dir () =
  let d = Filename.temp_file "cbox_distill" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* --- fixtures (mirroring the quant/serve tiny setup) --- *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_student_config = Distill.student_config tiny_model_config
let tiny_teacher () = Cbgan.create ~seed:51 tiny_model_config
let tiny_student () = Student.create ~seed:7 tiny_student_config
let tiny_cache = Cache.config ~sets:64 ~ways:8 ()

let tiny_trace_len = 4 * Heatmap.accesses_per_image tiny_spec

let tiny_trace =
  lazy
    (let rng = Prng.create 31 in
     Array.init tiny_trace_len (fun i ->
         if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64))

let tiny_workload name seed =
  Workload.make ~name ~suite:Workload.Spec ~group:name (fun n ->
      let rng = Prng.create seed in
      Array.init n (fun i ->
          if Prng.float rng 1.0 < 0.7 then (i mod 32) * 8 else Prng.int rng 8192 * 64))

let tiny_samples () =
  Cbox_dataset.to_samples
    (Cbox_dataset.build_l1 tiny_spec ~configs:[ Cache.config ~sets:4 ~ways:2 () ]
       ~trace_len:600
       [ tiny_workload "d1" 5; tiny_workload "d2" 6 ])

(* --- temperature 0 reproduces the plain supervised loss bitwise --- *)

let test_tau0_supervised_identity =
  (* The student's own forward output is the [out] under the loss — the
     exact graph a real distillation step differentiates — and the teacher
     shares the student's architecture (it exists and its output tensor is
     supplied), yet at temperature 0 it must not perturb a single bit. *)
  QCheck.Test.make ~name:"distill step at temperature 0 == supervised loss, bitwise"
    ~count:20
    QCheck.(tup3 (int_range 0 1_000_000) (int_range 1 4) (tup2 (float_range 0.0 2.0) (float_range 0.0 2.0)))
    (fun (seed, n, (l1_weight, l2_weight)) ->
      let rng = Prng.create seed in
      let student = tiny_student () in
      let twin = Student.create ~seed:(seed + 1) tiny_student_config in
      let x = Tensor.randn rng [| n; 1; 16; 16 |] in
      let cp =
        Cbgan.cache_params_tensor (List.init n (fun _ -> tiny_cache))
      in
      let out = Student.forward student ~training:true ~cache_params:cp x in
      let truth = Tensor.randn rng [| n; 1; 16; 16 |] in
      (* A same-architecture "teacher" output that MUST be ignored. *)
      let teacher_out =
        Value.value (Student.forward twin ~training:false ~cache_params:cp x)
      in
      let blended =
        Distill.step_loss ~temperature:0.0 ~l1_weight ~l2_weight ~out ~truth
          ~teacher:(Some teacher_out)
      in
      let supervised = Distill.pixel_loss ~l1_weight ~l2_weight out truth in
      let bits v = Array.map Int64.bits_of_float (Tensor.to_array (Value.value v)) in
      bits blended = bits supervised)

(* --- distillation is bit-identical across domain counts --- *)

let distill_run ~domains ~temperature ~feat_weight =
  let teacher = tiny_teacher () in
  let student = tiny_student () in
  let options =
    {
      (Distill.default_options ~epochs:1 ~temperature ~feat_weight ~domains ()) with
      Distill.batch_size = 2;
    }
  in
  let stats = Distill.train ~teacher student tiny_spec options (tiny_samples ()) in
  let bits =
    List.map
      (fun (p : Param.t) -> Array.map Int64.bits_of_float (Tensor.to_array p.Param.value))
      (Student.params student)
  in
  (stats, bits)

let test_distill_domain_bit_identity () =
  List.iter
    (fun (temperature, feat_weight) ->
      let s1, b1 = distill_run ~domains:1 ~temperature ~feat_weight in
      let s4, b4 = distill_run ~domains:4 ~temperature ~feat_weight in
      let label =
        Printf.sprintf "tau %.1f feat %.1f: domains 1 vs 4" temperature feat_weight
      in
      Alcotest.(check bool) (label ^ " params bit-identical") true (b1 = b4);
      Alcotest.(check bool) (label ^ " stats bit-identical") true
        (List.for_all2
           (fun (a : Distill.epoch_stats) (b : Distill.epoch_stats) ->
             a.Distill.epoch = b.Distill.epoch
             && Int64.bits_of_float a.Distill.pixel = Int64.bits_of_float b.Distill.pixel
             && Int64.bits_of_float a.Distill.feat = Int64.bits_of_float b.Distill.feat
             && a.Distill.batches = b.Distill.batches)
           s1 s4))
    [ (1.0, 0.0); (0.5, 0.5) ]

(* --- student checkpoint: round-trip and corrupt-byte rejection --- *)

let test_student_checkpoint_roundtrip () =
  let s = tiny_student () in
  let dir = temp_dir () in
  let path = Filename.concat dir "student.ckpt" in
  Student.save s path;
  let s' = Student.load path in
  let rng = Prng.create 3 in
  let x = Tensor.randn rng [| 2; 1; 16; 16 |] in
  let cp = Cbgan.cache_params_tensor [ tiny_cache; tiny_cache ] in
  let fwd m = Tensor.to_array (Value.value (Student.forward m ~training:false ~cache_params:cp x)) in
  Alcotest.(check bool) "reloaded student forward is bit-identical" true
    (Array.map Int64.bits_of_float (fwd s) = Array.map Int64.bits_of_float (fwd s'));
  rm_rf dir

let test_student_checkpoint_corruption =
  QCheck.Test.make ~name:"corrupt any student checkpoint byte -> load fails with Failure"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun offset ->
      let dir = temp_dir () in
      let path = Filename.concat dir "student.ckpt" in
      Student.save (tiny_student ()) path;
      Faultinject.corrupt_byte path ~offset;
      let ok =
        match Student.load path with
        | _ -> false
        | exception Failure _ -> true
        | exception _ -> false
      in
      rm_rf dir;
      ok)

(* --- serving engine: the student rungs of the ladder --- *)

let engine ?(model = Some (tiny_teacher ())) ?student_path () =
  let cfg =
    {
      (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ()) with
      Serve_engine.grace_lo = -1e9;
      grace_hi = 1e9;
    }
  in
  Serve_engine.create ?student_path ~spec:tiny_spec ~model cfg

let infer_line ?backend ~id () =
  let trace = Lazy.force tiny_trace in
  Sjson.to_string
    (Sjson.Obj
       ([
          ("op", Sjson.Str "infer");
          ("id", Sjson.Str id);
          ("sets", Sjson.Num 4.0);
          ("ways", Sjson.Num 2.0);
          ( "trace",
            Sjson.Arr (Array.to_list (Array.map (fun a -> Sjson.Num (float_of_int a)) trace))
          );
        ]
       @ match backend with None -> [] | Some b -> [ ("backend", Sjson.Str b) ]))

let reply e line =
  match Serve_engine.handle_line e line with
  | Serve_engine.Reply j | Serve_engine.Shutdown_reply j -> j

let with_student_ckpt f =
  let dir = temp_dir () in
  let path = Filename.concat dir "student.ckpt" in
  Student.save (tiny_student ()) path;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f path)

let test_engine_student_missing_degrades () =
  (* No student checkpoint configured: a student request re-runs on
     float32, flagged, without ever touching the breaker — exactly the
     int8 missing-model rung. *)
  let e = engine () in
  let r = reply e (infer_line ~backend:"student" ~id:"s" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" true;
  check_str r "backend" "float32";
  check_str r "reason" "student_unavailable";
  let r = reply e (infer_line ~backend:"student-int8" ~id:"q" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" true;
  check_str r "backend" "float32";
  check_str r "reason" "student_int8_unavailable";
  Alcotest.(check string) "breaker untouched by derived-model misses" "closed"
    (Breaker.state_name (Serve_engine.breaker_state e));
  let s = reply e {|{"op": "stats"}|} in
  Alcotest.(check (option (float 1e-9))) "student counter untouched" (Some 0.0)
    (num_field s "backend_student");
  Alcotest.(check (option (float 1e-9))) "reruns counted as float32" (Some 2.0)
    (num_field s "backend_float32")

let test_engine_student_serves () =
  with_student_ckpt (fun path ->
      let e = engine ~student_path:path () in
      Alcotest.(check bool) "student loaded" true (Serve_engine.student_loaded e);
      let h = reply e {|{"op": "health"}|} in
      check_bool h "student_loaded" true;
      let r = reply e (infer_line ~backend:"student" ~id:"s" ()) in
      check_bool r "ok" true;
      check_bool r "degraded" false;
      check_str r "source" "model";
      check_str r "backend" "student";
      let r = reply e (infer_line ~backend:"student-int8" ~id:"q" ()) in
      check_bool r "ok" true;
      check_bool r "degraded" false;
      check_str r "backend" "student-int8";
      (* Every successful answer credits exactly one backend counter. *)
      let s = reply e {|{"op": "stats"}|} in
      List.iter
        (fun (field, expected) ->
          Alcotest.(check (option (float 1e-9))) field (Some expected)
            (num_field s field))
        [
          ("backend_student", 1.0);
          ("backend_student_int8", 1.0);
          ("backend_float32", 0.0);
        ])

let test_engine_corrupt_student_rejected () =
  (* A corrupt student checkpoint is dropped at create; float32 (and the
     whole teacher-side ladder) serves untouched. *)
  let dir = temp_dir () in
  let path = Filename.concat dir "student.ckpt" in
  Student.save (tiny_student ()) path;
  Faultinject.corrupt_byte path ~offset:40;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let e = engine ~student_path:path () in
      Alcotest.(check bool) "corrupt student not loaded" false
        (Serve_engine.student_loaded e);
      Alcotest.(check bool) "teacher unaffected" true (Serve_engine.model_loaded e);
      let r = reply e (infer_line ~backend:"float32" ~id:"f" ()) in
      check_bool r "ok" true;
      check_bool r "degraded" false;
      check_str r "backend" "float32";
      let r = reply e (infer_line ~backend:"student" ~id:"s" ()) in
      check_bool r "ok" true;
      check_bool r "degraded" true;
      check_str r "backend" "float32";
      check_str r "reason" "student_unavailable")

(* --- batched path: heterogeneous batches never mix backends --- *)

let hit_rate_bits reply =
  match num_field reply "hit_rate" with
  | Some hr -> Int64.bits_of_float hr
  | None -> Alcotest.failf "reply has no hit_rate: %s" (Sjson.to_string reply)

let test_mixed_batch_no_backend_mixing () =
  (* One coalesced batch carrying all four learned-variant backends: each
     reply must name its own backend and carry the hit rate the sequential
     single-backend path produces, bit for bit — possible only if the
     batcher partitioned the batch into per-backend forwards instead of
     mixing variants inside one wide-batch GEMM. Counters must reconcile
     per backend. *)
  with_student_ckpt (fun path ->
      let model = tiny_teacher () in
      let backends = [ "float32"; "int8"; "student"; "student-int8" ] in
      let lines =
        List.concat_map
          (fun b -> [ infer_line ~backend:b ~id:(b ^ "-0") (); infer_line ~backend:b ~id:(b ^ "-1") () ])
          backends
      in
      let sequential =
        let e = engine ~model:(Some model) ~student_path:path () in
        List.map (reply e) lines
      in
      let batched =
        let e = engine ~model:(Some model) ~student_path:path () in
        let items =
          List.map
            (fun line ->
              match Serve_engine.classify_line e line with
              | Serve_engine.Batchable item -> item
              | _ -> Alcotest.fail "expected a batchable infer request")
            lines
        in
        let rs = Serve_engine.infer_batch e items in
        let s = reply e {|{"op": "stats"}|} in
        List.iter
          (fun b ->
            let key = "backend_" ^ String.map (fun c -> if c = '-' then '_' else c) b in
            Alcotest.(check (option (float 1e-9))) (key ^ " reconciles") (Some 2.0)
              (num_field s key))
          backends;
        rs
      in
      List.iteri
        (fun i (seq, bat) ->
          Alcotest.(check (option string))
            (Printf.sprintf "id %d" i)
            (str_field seq "id") (str_field bat "id");
          Alcotest.(check (option string))
            (Printf.sprintf "backend %d" i)
            (str_field seq "backend") (str_field bat "backend");
          Alcotest.(check (option bool))
            (Printf.sprintf "degraded %d" i)
            (Some false) (bool_field bat "degraded");
          Alcotest.(check int64)
            (Printf.sprintf "hit_rate bits %d" i)
            (hit_rate_bits seq) (hit_rate_bits bat))
        (List.combine sequential batched))

let test_mixed_batch_ladder () =
  (* One batch carrying all six backends with no student checkpoint loaded
     and a NaN output armed on the int8 item: the student rungs fall to
     float32 as unavailable, the int8 rung faults and falls, all three
     refloat into the shared float32 group, and hrd/stm answer first-class
     inside the batch. Every reply must match the same line answered alone.
     The int8 line goes last: an armed fault fires at any index at or past
     its own, so no earlier batch mate can take the shot. *)
  let model = tiny_teacher () in
  let backends = [ "float32"; "student"; "student-int8"; "hrd"; "stm"; "int8" ] in
  let lines = List.map (fun b -> (b, infer_line ~backend:b ~id:b ())) backends in
  let arm_at at = Faultinject.arm Faultinject.Nan_output ~at_batch:at in
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      let alone =
        let e = engine ~model:(Some model) () in
        List.map
          (fun (b, line) ->
            if b = "int8" then arm_at (Serve_engine.requests_seen e + 1);
            reply e line)
          lines
      in
      let e = engine ~model:(Some model) () in
      let items =
        List.map
          (fun (_, line) ->
            match Serve_engine.classify_line e line with
            | Serve_engine.Batchable item -> item
            | _ -> Alcotest.fail "expected a batchable infer request")
          lines
      in
      arm_at (Serve_engine.requests_seen e);
      let batched = Serve_engine.infer_batch e items in
      List.iter2
        (fun (b, (one, bat)) expected ->
          List.iter
            (fun field ->
              Alcotest.(check (option string)) (b ^ " " ^ field) (str_field one field)
                (str_field bat field))
            [ "backend"; "reason" ];
          Alcotest.(check (option bool)) (b ^ " degraded") (bool_field one "degraded")
            (bool_field bat "degraded");
          Alcotest.(check int64) (b ^ " hit_rate bits") (hit_rate_bits one) (hit_rate_bits bat);
          Alcotest.(check (pair string (option string))) (b ^ " rung") expected
            (Option.get (str_field bat "backend"), str_field bat "reason"))
        (List.combine backends (List.combine alone batched))
        [
          ("float32", None);
          ("float32", Some "student_unavailable");
          ("float32", Some "student_int8_unavailable");
          ("hrd", None);
          ("stm", None);
          ("float32", Some "int8_fault");
        ];
      Alcotest.(check string) "breaker stays closed" "closed"
        (Breaker.state_name (Serve_engine.breaker_state e));
      let s = reply e {|{"op": "stats"}|} in
      List.iter
        (fun (key, n) ->
          Alcotest.(check (option (float 1e-9))) (key ^ " reconciles") (Some n)
            (num_field s key))
        [
          ("backend_float32", 4.0);
          ("backend_int8", 0.0);
          ("backend_student", 0.0);
          ("backend_student_int8", 0.0);
          ("backend_hrd", 1.0);
          ("backend_stm", 1.0);
          ("degraded_count", 3.0);
        ])

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "distill",
    [
      qc test_tau0_supervised_identity;
      Alcotest.test_case "distillation bit-identical across domain counts" `Slow
        test_distill_domain_bit_identity;
      Alcotest.test_case "student checkpoint round-trip" `Quick
        test_student_checkpoint_roundtrip;
      qc test_student_checkpoint_corruption;
      Alcotest.test_case "missing student degrades to flagged float32" `Quick
        test_engine_student_missing_degrades;
      Alcotest.test_case "student + student-int8 serve with counters" `Quick
        test_engine_student_serves;
      Alcotest.test_case "corrupt student rejected, teacher unaffected" `Quick
        test_engine_corrupt_student_rejected;
      Alcotest.test_case "mixed batch never mixes backends" `Quick
        test_mixed_batch_no_backend_mixing;
      Alcotest.test_case "mixed batch runs the ladder like single lines" `Quick
        test_mixed_batch_ladder;
    ] )
