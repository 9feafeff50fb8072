(* Int8 quantized inference: the GEMM micro-path against its analytic error
   bound, quantized-checkpoint round-trips, float32-vs-int8 agreement on
   the full heatmap pipeline (single- and multi-domain), and the serving
   engine's backend registry (reply fields, per-backend counters, the
   int8 -> float32 degradation rung). *)

let str_field json k = Option.bind (Sjson.member k json) Sjson.to_str
let bool_field json k = Option.bind (Sjson.member k json) Sjson.to_bool
let num_field json k = Option.bind (Sjson.member k json) Sjson.to_float

let check_str json k expected =
  Alcotest.(check (option string)) k (Some expected) (str_field json k)

let check_bool json k expected =
  Alcotest.(check (option bool)) k (Some expected) (bool_field json k)

(* --- int8 GEMM vs float32 within the calibrated bound ---

   Per element, with per-row weight scales s_w[i] and the per-tensor
   activation scale s_a, symmetric rounding gives
     |C_float - C_int8| <= k * s_w[i] * s_a * 128
   (127 from the two cross terms, +1/4 from the product of the two
   rounding errors, rounded up). The property drives ragged shapes, both
   operand transposes and both scale modes through the packed kernel. *)

let naive_gemm ~wtrans ~btrans w b ~m ~k ~n =
  let out = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        let wv = if wtrans then Tensor.get2 w p i else Tensor.get2 w i p in
        let bv = if btrans then Tensor.get2 b j p else Tensor.get2 b p j in
        acc := !acc +. (wv *. bv)
      done;
      out.((i * n) + j) <- !acc
    done
  done;
  out

let check_int8_case ~m ~k ~n ~wtrans ~btrans ~pow2 seed =
  let rng = Prng.create seed in
  let w = Tensor.randn rng (if wtrans then [| k; m |] else [| m; k |]) in
  let b = Tensor.randn rng (if btrans then [| n; k |] else [| k; n |]) in
  let qw = Blas.Int8.quantize ~trans:wtrans ~pow2 w in
  let maxabs =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 (Tensor.to_array b)
  in
  let act_scale =
    let s = if maxabs > 0.0 then maxabs /. 127.0 else 1e-9 in
    if pow2 then Blas.Int8.pow2_up s else s
  in
  let c = Tensor.zeros [| m; n |] in
  Blas.Int8.gemm ~trans_b:btrans ~a:qw ~act_scale ~b c;
  let expected = naive_gemm ~wtrans ~btrans w b ~m ~k ~n in
  let scales = Blas.Int8.scales qw in
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let bound = 128.0 *. float_of_int k *. scales.(i) *. act_scale in
      if Float.abs (Tensor.get2 c i j -. expected.((i * n) + j)) > bound then ok := false
    done
  done;
  !ok

let test_int8_gemm_bound =
  QCheck.Test.make ~name:"int8 gemm within analytic bound (ragged, trans, pow2)"
    ~count:60
    QCheck.(
      make
        Gen.(
          tup4
            (tup3 (int_range 1 40) (int_range 1 40) (int_range 1 40))
            (tup2 bool bool) bool (int_range 0 1_000_000)))
    (fun ((m, k, n), (wtrans, btrans), pow2, seed) ->
      check_int8_case ~m ~k ~n ~wtrans ~btrans ~pow2 seed)

(* --- fixture shared with the pipeline + engine tests --- *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_trace_len = 4 * Heatmap.accesses_per_image tiny_spec

let tiny_trace =
  lazy
    (let rng = Prng.create 31 in
     Array.init tiny_trace_len (fun i ->
         if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64))

let tiny_model () = Cbgan.create ~seed:51 tiny_model_config
let tiny_cache = Cache.config ~sets:64 ~ways:8 ()

(* --- quantized checkpoint round-trip --- *)

let test_qgen_checkpoint_roundtrip () =
  let q = Qgen.of_model ~spec:tiny_spec (tiny_model ()) in
  let path = Filename.temp_file "cbox_qgen" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Qgen.save q path;
      let q' = Qgen.load path in
      Alcotest.(check int) "image size survives" (Qgen.image_size q) (Qgen.image_size q');
      Alcotest.(check bool) "conditioning flag survives" (Qgen.uses_cache_params q)
        (Qgen.uses_cache_params q');
      (* Scales and weights round-trip exactly, so the forward pass of the
         reloaded model is bit-identical, not just close. *)
      let rng = Prng.create 7 in
      let x = Tensor.randn rng [| 2; 1; 16; 16 |] in
      let cp =
        if Qgen.uses_cache_params q then
          Some (Cbgan.cache_params_tensor [ tiny_cache; tiny_cache ])
        else None
      in
      let y = Qgen.forward q ?cache_params:cp x in
      let y' = Qgen.forward q' ?cache_params:cp x in
      Alcotest.(check bool) "reloaded forward is bit-identical" true
        (Tensor.to_array y = Tensor.to_array y'))

(* --- float32 vs int8 and student on the heatmap pipeline, single- and
   multi-domain --- *)

(* Hit-rate bounds against the float32 model: 0.02 for int8, 0.05 for the
   seeded student. Both models are untrained, and on this fixture every
   backend predicts a hit rate of 1.0, so the check is weak; accuracy gates
   on trained models (ROADMAP item 4) are the real fix. *)
let test_int8_pipeline_delta () =
  let model = tiny_model () in
  let q = Qgen.of_model ~spec:tiny_spec model in
  let student = Student.create ~seed:7 (Distill.student_config tiny_model_config) in
  let access = Heatmap.of_trace tiny_spec (Lazy.force tiny_trace) in
  let miss_f =
    Cbox_infer.synthesize model tiny_spec ~domains:1 ~cache:tiny_cache access
  in
  let hr_f = Heatmap.hit_rate tiny_spec ~access ~miss:miss_f in
  let check_domains name synth bound d =
    let miss = synth d in
    let hr = Heatmap.hit_rate tiny_spec ~access ~miss in
    Alcotest.(check bool)
      (Printf.sprintf "domains %d: |%s - float32| hit-rate delta <= %g" d name bound)
      true
      (Float.abs (hr -. hr_f) <= bound);
    miss
  in
  List.iter
    (fun (name, synth, bound) ->
      let m1 = check_domains name synth bound 1 in
      let m4 = check_domains name synth bound 4 in
      Alcotest.(check bool)
        (name ^ " synthesis bit-identical across domain counts")
        true
        (List.for_all2 (fun a b -> Tensor.to_array a = Tensor.to_array b) m1 m4))
    [
      ( "int8",
        (fun d -> Cbox_infer.qsynthesize q tiny_spec ~domains:d ~cache:tiny_cache access),
        0.02 );
      ( "student",
        (fun d -> Cbox_infer.ssynthesize student tiny_spec ~domains:d ~cache:tiny_cache access),
        0.05 );
    ]

(* --- serving engine: backend registry --- *)

let engine ?(model = Some (tiny_model ())) () =
  let cfg =
    {
      (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ()) with
      Serve_engine.grace_lo = -1e9;
      grace_hi = 1e9;
    }
  in
  Serve_engine.create ~spec:tiny_spec ~model cfg

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

let test_engine_backend_registry () =
  let e = engine () in
  (* Default backend: the float32 model. *)
  let r = reply e (infer_line ~id:"f" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" false;
  check_str r "source" "model";
  check_str r "backend" "float32";
  (* int8: the eagerly quantized model serves, flagged as its own backend. *)
  let r = reply e (infer_line ~backend:"int8" ~id:"q" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" false;
  check_str r "source" "model";
  check_str r "backend" "int8";
  (* Explicit analytical backends are first-class, not degradations. *)
  let r = reply e (infer_line ~backend:"hrd" ~id:"h" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" false;
  check_str r "source" "hrd";
  check_str r "backend" "hrd";
  (* Unknown backend is a typed config error. *)
  check_str (reply e (infer_line ~backend:"fp16" ~id:"x" ())) "error" "invalid_config";
  (* Per-backend counters reconcile with the replies above. *)
  let s = reply e {|{"op": "stats"}|} in
  List.iter
    (fun (field, expected) ->
      Alcotest.(check (option (float 1e-9))) field (Some expected) (num_field s field))
    [
      ("backend_float32", 1.0); ("backend_int8", 1.0); ("backend_hrd", 1.0);
      ("backend_stm", 0.0);
    ]

let test_engine_int8_degrades_without_model () =
  (* No model at all: an int8 request still answers, via the fallback
     ladder, flagged degraded with the fallback as the serving backend. *)
  let e = engine ~model:None () in
  let r = reply e (infer_line ~backend:"int8" ~id:"d" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" true;
  check_str r "source" "hrd";
  check_str r "backend" "hrd";
  (* An explicitly analytical request needs no model and is not degraded. *)
  let r = reply e (infer_line ~backend:"stm" ~id:"s" ()) in
  check_bool r "ok" true;
  check_bool r "degraded" false;
  check_str r "backend" "stm"

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "quant",
    [
      qc test_int8_gemm_bound;
      Alcotest.test_case "quantized checkpoint round-trip" `Quick
        test_qgen_checkpoint_roundtrip;
      Alcotest.test_case "int8 pipeline delta + domain bit-identity" `Quick
        test_int8_pipeline_delta;
      Alcotest.test_case "engine backend registry + counters" `Quick
        test_engine_backend_registry;
      Alcotest.test_case "int8 degrades through the ladder without a model" `Quick
        test_engine_int8_degrades_without_model;
    ] )
