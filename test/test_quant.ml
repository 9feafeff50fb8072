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

(* --- int8 gemm against its definition, bit for bit ---

   q = act(op(B)) * (1 / s_a), rounded half away from zero and clamped to
   +-127. Each 256-deep block of the depth gives an exact integer dot
   product, and per block, in depth order,
     c <- f32((c + (s_w[i] * s_a) * dot) + bias[i])
   with the bias on the first block only (0.0 when absent or later). *)

let f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let ref_act act v =
  match act with
  | Blas.No_act -> v
  | Blas.Relu -> if v > 0.0 then v else 0.0
  | Blas.Leaky s -> if v > 0.0 then v else s *. v

let ref_quant act ~inv v =
  int_of_float (Float.max (-127.0) (Float.min 127.0 (Float.round (ref_act act v *. inv))))

let ref_int8_gemm ~qa ~scales ~bias ~act ~act_scale ~bq ~m ~k ~n =
  let inv = 1.0 /. act_scale in
  let qb = Array.init (k * n) (fun idx -> ref_quant act ~inv (bq (idx / n) (idx mod n))) in
  Array.init (m * n) (fun idx ->
      let i = idx / n and j = idx mod n in
      let c = ref 0.0 and p0 = ref 0 in
      while !p0 < k do
        let p1 = min k (!p0 + 256) in
        let dot = ref 0 in
        for p = !p0 to p1 - 1 do
          dot := !dot + (qa i p * qb.((p * n) + j))
        done;
        let b = if !p0 = 0 then match bias with Some b -> b.(i) | None -> 0.0 else 0.0 in
        c := f32 ((!c +. (scales.(i) *. act_scale *. float_of_int !dot)) +. b);
        p0 := p1
      done;
      !c)

(* m not a multiple of 4, k across one, two and three 256-deep blocks, n
   across a second 256-wide column block. *)
let int8_shapes =
  [ (1, 1, 1); (5, 3, 7); (7, 255, 257); (13, 256, 300); (6, 257, 261); (3, 513, 260);
    (9, 600, 517) ]

(* Weight values: a seeded mix with runs of +-127, so some dots reach the
   largest magnitude a block allows. *)
let weight_q ~seed i p =
  let h = ((((i * 7919) + (p * 104729) + seed) * 2654435761) lsr 7) land 0xFFFF in
  if h land 7 = 0 then if h land 8 = 0 then 127 else -127 else (h mod 255) - 127

(* Activations at s_a = 1/8: every fourth value an exact .5 tie, some past
   the clamp, the rest Gaussian. *)
let int8_case_b rng ~trans_b ~k ~n =
  let b = Tensor.randn rng (if trans_b then [| n; k |] else [| k; n |]) in
  for idx = 0 to Tensor.numel b - 1 do
    let r = Prng.int rng 300 - 150 in
    if idx land 3 = 0 then Tensor.set b idx ((float_of_int r +. 0.5) /. 8.0)
    else if idx land 3 = 1 then Tensor.set b idx (float_of_int r /. 8.0)
    else Tensor.set b idx (Tensor.get b idx *. 6.0)
  done;
  b

let test_int8_gemm_bitwise () =
  List.iteri
    (fun si (m, k, n) ->
      let rng = Prng.create (100 + si) in
      let scales = Array.init m (fun i -> 0.001 *. float_of_int (i + 1) *. (1.0 +. Prng.float rng 1.0)) in
      let bias =
        if si land 1 = 0 then Some (Array.init m (fun _ -> Prng.float rng 2.0 -. 1.0)) else None
      in
      let qw = Blas.Int8.pack ~m ~k ~scales ?bias ~get:(weight_q ~seed:si) () in
      List.iter
        (fun trans_b ->
          let b = int8_case_b rng ~trans_b ~k ~n in
          let bq p j = if trans_b then Tensor.get2 b j p else Tensor.get2 b p j in
          List.iter
            (fun act ->
              let act_scale = 0.125 in
              let want =
                Array.map Int32.bits_of_float
                  (ref_int8_gemm ~qa:(weight_q ~seed:si) ~scales ~bias ~act ~act_scale ~bq ~m ~k
                     ~n)
              in
              List.iter
                (fun d ->
                  let c = Tensor.create [| m; n |] in
                  Tensor.fill c Float.nan;
                  Dpool.with_domains d (fun () ->
                      Blas.Int8.gemm ~trans_b ~act ~a:qw ~act_scale ~b c);
                  let got = Array.map Int32.bits_of_float (Tensor.to_array c) in
                  Alcotest.(check bool)
                    (Printf.sprintf "m=%d k=%d n=%d trans_b=%b act=%s bias=%b, %d domains" m k n
                       trans_b
                       (match act with
                       | Blas.No_act -> "none"
                       | Blas.Relu -> "relu"
                       | Blas.Leaky _ -> "leaky")
                       (bias <> None) d)
                    true (got = want))
                [ 1; 4 ])
            [ Blas.No_act; Blas.Relu; Blas.Leaky 0.2 ])
        [ false; true ])
    int8_shapes

(* [pack ~get] then [get_q] gives back every value, clamped to +-127. *)
let test_int8_pack_roundtrip () =
  List.iteri
    (fun si (m, k, _) ->
      let get i p = if (i + p) mod 97 = 0 then 128 else if (i + p) mod 89 = 0 then -128 else weight_q ~seed:si i p in
      let qw = Blas.Int8.pack ~m ~k ~scales:(Array.make m 1.0) ~get () in
      let ok = ref true in
      for i = 0 to m - 1 do
        for p = 0 to k - 1 do
          let want = max (-127) (min 127 (get i p)) in
          if Blas.Int8.get_q qw ~i ~p <> want then ok := false
        done
      done;
      Alcotest.(check bool) (Printf.sprintf "m=%d k=%d: get_q = get" m k) true !ok)
    int8_shapes

(* A non-finite weight has no int8 value: quantizing it must fail, not
   quietly become q = 0 (a NaN would otherwise escape the row's max). *)
let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_int8_rejects_non_finite () =
  List.iter
    (fun (name, v) ->
      let w = Tensor.of_array [| 2; 4 |] [| 1.0; v; 0.5; -0.25; 0.1; 0.2; 0.3; 0.4 |] in
      Alcotest.(check bool) (name ^ " weight: quantize raises") true
        (raises_invalid (fun () -> Blas.Int8.quantize w));
      Alcotest.(check bool) (name ^ " weight: quantize ~trans raises") true
        (raises_invalid (fun () -> Blas.Int8.quantize ~trans:true w)))
    [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity) ];
  let cfg = Distill.student_config (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) in
  let student = Student.create ~seed:7 cfg in
  let w = (fst (Unet.downs student).(1)).Layers.weight.Param.value in
  Tensor.set w 3 Float.nan;
  let spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 () in
  Alcotest.(check bool) "student with a NaN weight: of_student raises" true
    (raises_invalid (fun () -> Qgen.of_student ~spec student))

(* --- the int8 convolution: quantize once, unfold from the planes ---

   [Conv.Int8] quantizes each sample's activated input once and packs B
   straight from the quantized planes. It must equal, bit for bit, the
   int8 GEMM over the float column matrix im2col builds with the
   activation applied, including where rounding the activation to float32
   decides a quantized value. Shapes: ragged channel counts, odd spatial sizes,
   kernels 3 and 4, strides 1 and 2, pads 0 and 1, and one depth past a
   256-deep block. *)
(* Negative float32 inputs whose LeakyReLU (0.2 x, in double) quantizes
   differently once rounded to float32: a column matrix stores it rounded,
   so the quantize-once path must round it too. Found by scanning float32
   neighbours of each rounding tie. With a power-of-two scale the ties are
   float32 values and no input is sensitive, so the test's scale is not
   one. *)
let rounding_sensitive ~act_scale =
  let inv = 1.0 /. act_scale in
  let q v = Float.round (v *. inv) in
  List.filter_map
    (fun t ->
      let x0 = f32 (-.(float_of_int t +. 0.5) /. inv /. 0.2) in
      List.find_opt
        (fun x -> q (0.2 *. x) <> q (f32 (0.2 *. x)))
        (List.init 64 (fun d ->
             Int32.float_of_bits (Int32.add (Int32.bits_of_float x0) (Int32.of_int (d - 32))))))
    (List.init 60 Fun.id)

let test_int8_conv_quantize_once () =
  let act_scale = 0.0637 in
  let sensitive = Array.of_list (rounding_sensitive ~act_scale) in
  Alcotest.(check bool) "found rounding-sensitive inputs" true (Array.length sensitive > 10);
  List.iteri
    (fun ci (ic, oc, h, w, kernel, stride, pad) ->
      let rng = Prng.create (300 + ci) in
      let k = ic * kernel * kernel in
      let bias = Array.init oc (fun _ -> Prng.float rng 2.0 -. 1.0) in
      let qw =
        Blas.Int8.quantize ~bias (Tensor.randn rng [| oc; k |])
      in
      let oh = Conv.out_size ~size:h ~kernel ~stride ~pad in
      let ow = Conv.out_size ~size:w ~kernel ~stride ~pad in
      List.iter
        (fun n ->
          let x = Tensor.randn rng [| n; ic; h; w |] in
          for idx = 0 to Tensor.numel x - 1 do
            if idx mod 3 = 0 then
              Tensor.set x idx ((float_of_int (Prng.int rng 80 - 40) +. 0.5) *. act_scale)
            else if idx mod 3 = 1 then
              Tensor.set x idx sensitive.(Prng.int rng (Array.length sensitive))
          done;
          List.iter
            (fun act ->
              let want =
                Array.concat
                  (List.init n (fun ni ->
                       let cols = Tensor.zeros [| k; oh * ow |] in
                       Conv.im2col_into ~act x ~n:ni ~kernel ~stride ~pad cols;
                       let c = Tensor.create [| oc; oh * ow |] in
                       Blas.Int8.gemm ~a:qw ~act_scale ~b:cols c;
                       Array.map Int32.bits_of_float (Tensor.to_array c)))
              in
              List.iter
                (fun d ->
                  let y =
                    Dpool.with_domains d (fun () ->
                        Conv.conv2d_with ~product:(Conv.Int8 (qw, act_scale)) ~act ~x ~oc ~kernel
                          ~stride ~pad ())
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "ic=%d oc=%d %dx%d k=%d s=%d p=%d batch %d %s, %d domains" ic
                       oc h w kernel stride pad n
                       (if act = Blas.No_act then "no act" else "leaky")
                       d)
                    true
                    (Array.map Int32.bits_of_float (Tensor.to_array y) = want))
                [ 1; 4 ])
            [ Blas.No_act; Blas.Leaky 0.2 ])
        [ 1; 3 ])
    [
      (3, 5, 9, 7, 3, 1, 1);
      (5, 7, 11, 9, 4, 2, 1);
      (3, 6, 7, 7, 4, 2, 0);
      (1, 3, 13, 13, 3, 2, 0);
      (17, 5, 9, 9, 4, 1, 0);
    ]

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
      Alcotest.test_case "int8 gemm = its definition, bitwise" `Quick test_int8_gemm_bitwise;
      Alcotest.test_case "int8 pack ~get -> get_q round trip" `Quick test_int8_pack_roundtrip;
      Alcotest.test_case "int8 rejects non-finite weights" `Quick test_int8_rejects_non_finite;
      Alcotest.test_case "int8 conv quantizes once = im2col + int8 gemm, bitwise" `Quick
        test_int8_conv_quantize_once;
    ] )
