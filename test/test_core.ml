(* The CacheBox core: dataset construction, CB-GAN shapes and persistence,
   and a minimal end-to-end train/infer loop. Kept at a tiny scale so the
   suite stays fast. *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()
let tiny_cache = Cache.config ~sets:4 ~ways:2 ()

let tiny_workload name seed =
  Workload.make ~name ~suite:Workload.Spec ~group:name (fun n ->
      let rng = Prng.create seed in
      Array.init n (fun i ->
          if Prng.float rng 1.0 < 0.7 then (i mod 32) * 8 else Prng.int rng 8192 * 64))

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

(* --- dataset --- *)

let test_normalize_roundtrip =
  QCheck.Test.make ~name:"denormalize . normalize = id on counts" ~count:50
    QCheck.(int_range 0 8)
    (fun count ->
      let img = Tensor.full [| 16; 16 |] (float_of_int count) in
      let back = Cbox_dataset.denormalize tiny_spec (Cbox_dataset.normalize tiny_spec img) in
      Float.abs (Tensor.get back 0 -. float_of_int count) < 1e-3)

let test_normalize_bounds () =
  let img = Tensor.of_array [| 1; 2 |] [| 0.0; 8.0 |] in
  let n = Cbox_dataset.normalize tiny_spec img in
  Alcotest.(check (float 1e-5)) "zero -> -1" (-1.0) (Tensor.get n 0);
  Alcotest.(check (float 1e-4)) "window -> 1" 1.0 (Tensor.get n 1)

let test_batch_images_shape () =
  let imgs = List.init 3 (fun _ -> Tensor.zeros [| 16; 16 |]) in
  let b = Cbox_dataset.batch_images tiny_spec imgs in
  Alcotest.(check (array int)) "nchw" [| 3; 1; 16; 16 |] (Tensor.shape b)

let test_build_l1 () =
  let data =
    Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:600
      [ tiny_workload "w1" 1; tiny_workload "w2" 2 ]
  in
  Alcotest.(check int) "one entry per workload x config" 2 (List.length data);
  List.iter
    (fun (d : Cbox_dataset.benchmark_data) ->
      Alcotest.(check bool) "has pairs" true (List.length d.pairs >= 1);
      Alcotest.(check bool) "hit rate in range" true
        (d.true_hit_rate >= 0.0 && d.true_hit_rate <= 1.0);
      List.iter
        (fun (access, miss) ->
          Alcotest.(check bool) "miss mass <= access mass" true
            (Tensor.sum miss <= Tensor.sum access +. 1e-3))
        d.pairs)
    data

let test_build_l1_truth_matches_cache () =
  (* The de-overlapped heatmap hit rate must equal a direct simulation over
     the covered prefix of the trace. *)
  let w = tiny_workload "w3" 3 in
  let data = Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:600 [ w ] in
  match data with
  | [ d ] ->
    let covered =
      Heatmap.accesses_per_image tiny_spec
      + ((List.length d.pairs - 1) * Heatmap.step_accesses tiny_spec)
    in
    let trace = w.Workload.generate 600 in
    let cache = Cache.create tiny_cache in
    let hits = ref 0 in
    for i = 0 to covered - 1 do
      if Cache.access cache trace.(i) then incr hits
    done;
    Alcotest.(check (float 1e-6)) "truth matches direct simulation"
      (float_of_int !hits /. float_of_int covered)
      d.true_hit_rate
  | _ -> Alcotest.fail "expected one entry"

let test_build_hierarchy_exclusion () =
  (* With a tiny trace, deeper levels see too few accesses and are dropped. *)
  let data =
    Cbox_dataset.build_hierarchy tiny_spec ~l1:tiny_cache
      ~l2:(Cache.config ~sets:8 ~ways:4 ())
      ~l3:(Cache.config ~sets:16 ~ways:4 ())
      ~trace_len:600
      [ tiny_workload "w4" 4 ]
  in
  Alcotest.(check bool) "L1 present" true
    (List.exists (fun (d : Cbox_dataset.benchmark_data) -> d.level = Hierarchy.L1) data);
  List.iter
    (fun (d : Cbox_dataset.benchmark_data) ->
      let min_len = Heatmap.accesses_per_image tiny_spec in
      ignore min_len;
      Alcotest.(check bool) "only levels with enough data" true (List.length d.pairs >= 1))
    data

let test_build_prefetch () =
  let data =
    Cbox_dataset.build_prefetch tiny_spec ~config:tiny_cache ~kind:Prefetch.Next_line
      ~trace_len:600 [ tiny_workload "w5" 5 ]
  in
  match data with
  | [ d ] ->
    List.iter
      (fun (access, pf) ->
        Alcotest.(check bool) "prefetch mass <= access mass" true
          (Tensor.sum pf <= Tensor.sum access +. 1e-3))
      d.pairs
  | _ -> Alcotest.fail "expected one entry"

let test_to_samples_and_shuffle () =
  let data = Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:600 [ tiny_workload "w6" 6 ] in
  let samples = Cbox_dataset.to_samples data in
  Alcotest.(check int) "one sample per pair"
    (List.fold_left (fun acc (d : Cbox_dataset.benchmark_data) -> acc + List.length d.pairs) 0 data)
    (List.length samples);
  let shuffled = Cbox_dataset.shuffle (Prng.create 1) samples in
  Alcotest.(check int) "shuffle preserves count" (List.length samples) (List.length shuffled)

(* --- CB-GAN --- *)

let test_generator_shapes () =
  let model = Cbgan.create ~seed:1 tiny_model_config in
  let rng = Prng.create 2 in
  let x = Tensor.randn rng [| 2; 1; 16; 16 |] in
  let cp = Cbgan.cache_params_tensor [ tiny_cache; tiny_cache ] in
  let y = Cbgan.generator_forward model ~rng ~training:false ~cache_params:cp x in
  Alcotest.(check (array int)) "output shape" [| 2; 1; 16; 16 |] (Tensor.shape (Value.value y));
  let vals = Tensor.to_array (Value.value y) in
  Alcotest.(check bool) "tanh range" true (Array.for_all (fun v -> v >= -1.0 && v <= 1.0) vals)

let test_discriminator_shapes () =
  let model = Cbgan.create ~seed:1 tiny_model_config in
  let rng = Prng.create 2 in
  let x = Tensor.randn rng [| 2; 1; 16; 16 |] in
  let y = Value.const (Tensor.randn rng [| 2; 1; 16; 16 |]) in
  let d = Cbgan.discriminator_forward model ~training:false ~access:x ~miss:y in
  let shape = Tensor.shape (Value.value d) in
  Alcotest.(check int) "batch preserved" 2 shape.(0);
  Alcotest.(check int) "single logit channel" 1 shape.(1);
  Alcotest.(check bool) "patch map is spatial" true (shape.(2) > 1 && shape.(3) > 1)

let test_cache_params_required () =
  let model = Cbgan.create ~seed:1 tiny_model_config in
  let rng = Prng.create 2 in
  let x = Tensor.randn rng [| 1; 1; 16; 16 |] in
  Alcotest.check_raises "params required"
    (Invalid_argument "Cbgan.generator_forward: cache parameters required") (fun () ->
      ignore (Cbgan.generator_forward model ~rng ~training:false x))

let test_no_params_model () =
  let cfg = { tiny_model_config with Cbgan.use_cache_params = false } in
  let model = Cbgan.create ~seed:1 cfg in
  let rng = Prng.create 2 in
  let x = Tensor.randn rng [| 1; 1; 16; 16 |] in
  let y = Cbgan.generator_forward model ~rng ~training:false x in
  Alcotest.(check (array int)) "works without params" [| 1; 1; 16; 16 |]
    (Tensor.shape (Value.value y))

let test_normalize_cache_params () =
  let s, w = Cbgan.normalize_cache_params (Cache.config ~sets:64 ~ways:12 ()) in
  Alcotest.(check (float 1e-6)) "log sets scale" 0.5 s;
  Alcotest.(check (float 1e-6)) "ways scale" 0.75 w

let test_save_load_roundtrip () =
  let model = Cbgan.create ~seed:1 tiny_model_config in
  let rng = Prng.create 2 in
  let x = Tensor.randn rng [| 1; 1; 16; 16 |] in
  let cp = Cbgan.cache_params_tensor [ tiny_cache ] in
  let before = Tensor.to_array (Value.value (Cbgan.generator_forward model ~rng ~training:false ~cache_params:cp x)) in
  let path = Filename.temp_file "cbgan" ".ckpt" in
  Cbgan.save model path;
  let fresh = Cbgan.create ~seed:99 tiny_model_config in
  Cbgan.load fresh path;
  Sys.remove path;
  let after = Tensor.to_array (Value.value (Cbgan.generator_forward fresh ~rng ~training:false ~cache_params:cp x)) in
  Alcotest.(check (array (float 1e-5))) "identical outputs after reload" before after

let test_parameter_count_positive () =
  let model = Cbgan.create ~seed:1 tiny_model_config in
  Alcotest.(check bool) "has parameters" true (Cbgan.parameter_count model > 1000)

(* --- train / infer --- *)

let test_training_reduces_l1 () =
  let data = Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:2000
      [ tiny_workload "t1" 11; tiny_workload "t2" 12 ]
  in
  let model = Cbgan.create ~seed:3 tiny_model_config in
  let options = { (Cbox_train.default_options ~epochs:6 ~batch_size:4 ()) with Cbox_train.lr = 1e-3 } in
  let history = Cbox_train.train model tiny_spec options (Cbox_dataset.to_samples data) in
  Alcotest.(check int) "one entry per epoch" 6 (List.length history);
  let first = List.hd history and last = List.nth history 5 in
  Alcotest.(check bool) "L1 decreased" true (last.Cbox_train.g_l1 < first.Cbox_train.g_l1)

let test_inference_predictions () =
  let data = Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:1200 [ tiny_workload "t3" 13 ] in
  let model = Cbgan.create ~seed:3 tiny_model_config in
  let preds = Cbox_infer.predict_all (Cbox_infer.of_cbgan model) tiny_spec data in
  List.iter
    (fun (p : Cbox_infer.prediction) ->
      Alcotest.(check bool) "prediction in [0,1]" true
        (p.predicted_hit_rate >= 0.0 && p.predicted_hit_rate <= 1.0);
      List.iter
        (fun img ->
          Alcotest.(check bool) "synthetic counts non-negative and integral" true
            (Array.for_all (fun v -> v >= 0.0 && Float.is_integer v) (Tensor.to_array img)))
        p.synthetic)
    preds

let test_synthesize_batch_invariance () =
  (* Different batch sizes must produce identical predictions image-by-image
     up to batch-norm batch statistics; with a single image per batch vs all
     at once the outputs stay close. *)
  let data = Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:1200 [ tiny_workload "t4" 14 ] in
  let model = Cbgan.create ~seed:3 tiny_model_config in
  match data with
  | [ d ] ->
    let access = List.map fst d.pairs in
    let s1 = Cbox_infer.synthesize model tiny_spec ~batch_size:1 ~cache:tiny_cache access in
    let s4 = Cbox_infer.synthesize model tiny_spec ~batch_size:4 ~cache:tiny_cache access in
    Alcotest.(check int) "same count" (List.length s1) (List.length s4)
  | _ -> Alcotest.fail "expected one entry"

let qc = QCheck_alcotest.to_alcotest

(* The generator's parameter layout: the name, shape and value sum of every
   parameter of a tiny seeded teacher (generator, then discriminator) and of
   its student, in checkpoint order, and every state name. A checkpoint
   written earlier loads only while names, order and shapes stay put, and a
   seeded one is reproduced only while the random draw order does. Sums
   compare with a relative tolerance of 1e-9, so the test does not depend
   on libm's last bit. *)
let teacher_layout =
  [
    ("gen.down0.weight", [| 4; 1; 4; 4 |], -0.17589798721019179);
    ("gen.down0.bias", [| 4 |], 0.0);
    ("gen.down1.weight", [| 8; 4; 4; 4 |], 0.69920859792910051);
    ("gen.down1.bias", [| 8 |], 0.0);
    ("gen.down1.bn.gamma", [| 8 |], 7.9656836986541748);
    ("gen.down1.bn.beta", [| 8 |], 0.0);
    ("gen.down2.weight", [| 16; 8; 4; 4 |], -0.27212845540634589);
    ("gen.down2.bias", [| 16 |], 0.0);
    ("gen.down2.bn.gamma", [| 16 |], 16.105063676834106);
    ("gen.down2.bn.beta", [| 16 |], 0.0);
    ("gen.down3.weight", [| 32; 16; 4; 4 |], 0.046883046519042182);
    ("gen.down3.bias", [| 32 |], 0.0);
    ("gen.up0.weight", [| 40; 16; 4; 4 |], 0.23140517893511969);
    ("gen.up0.bias", [| 16 |], 0.0);
    ("gen.up0.bn.gamma", [| 16 |], 16.014885365962982);
    ("gen.up0.bn.beta", [| 16 |], 0.0);
    ("gen.up1.weight", [| 32; 8; 4; 4 |], 1.531499759241342);
    ("gen.up1.bias", [| 8 |], 0.0);
    ("gen.up1.bn.gamma", [| 8 |], 8.0884368419647217);
    ("gen.up1.bn.beta", [| 8 |], 0.0);
    ("gen.up2.weight", [| 16; 4; 4; 4 |], -0.19223226633802426);
    ("gen.up2.bias", [| 4 |], 0.0);
    ("gen.up2.bn.gamma", [| 4 |], 3.9749335646629333);
    ("gen.up2.bn.beta", [| 4 |], 0.0);
    ("gen.up3.weight", [| 8; 1; 4; 4 |], -0.019923926418414339);
    ("gen.up3.bias", [| 1 |], -1.5);
    ("gen.cond0.weight", [| 32; 2 |], -15.896842760965228);
    ("gen.cond0.bias", [| 32 |], 0.0);
    ("gen.cond1.weight", [| 32; 32 |], 11.601620849163737);
    ("gen.cond1.bias", [| 32 |], 0.0);
    ("gen.cond2.weight", [| 8; 32 |], -3.3773192191329144);
    ("gen.cond2.bias", [| 8 |], 0.0);
    ("disc.conv0.weight", [| 4; 2; 4; 4 |], -0.033709502189594787);
    ("disc.conv0.bias", [| 4 |], 0.0);
    ("disc.conv1.weight", [| 8; 4; 4; 4 |], -0.60028474358841777);
    ("disc.conv1.bias", [| 8 |], 0.0);
    ("disc.conv1.bn.gamma", [| 8 |], 8.0079813599586487);
    ("disc.conv1.bn.beta", [| 8 |], 0.0);
    ("disc.head.weight", [| 1; 8; 4; 4 |], 0.23965712295967023);
    ("disc.head.bias", [| 1 |], 0.0);
  ]

let student_layout =
  [
    ("student.down0.weight", [| 2; 1; 4; 4 |], 0.11761110115185147);
    ("student.down0.bias", [| 2 |], 0.0);
    ("student.down1.weight", [| 4; 2; 4; 4 |], -0.019805847658062703);
    ("student.down1.bias", [| 4 |], 0.0);
    ("student.up0.weight", [| 8; 2; 4; 4 |], -0.53066261446929275);
    ("student.up0.bias", [| 2 |], 0.0);
    ("student.up0.bn.gamma", [| 2 |], 2.0766332149505615);
    ("student.up0.bn.beta", [| 2 |], 0.0);
    ("student.up1.weight", [| 4; 1; 4; 4 |], 0.031484609935432673);
    ("student.up1.bias", [| 1 |], -1.5);
    ("student.cond0.weight", [| 16; 2 |], -4.4836251018568873);
    ("student.cond0.bias", [| 16 |], 0.0);
    ("student.cond1.weight", [| 16; 16 |], 2.6893404536676826);
    ("student.cond1.bias", [| 16 |], 0.0);
    ("student.cond2.weight", [| 4; 16 |], -1.513859363476513);
    ("student.cond2.bias", [| 4 |], 0.0);
  ]

let teacher_state_names =
  [
    "gen.down1.bn.gamma.running_mean";
    "gen.down1.bn.gamma.running_var";
    "gen.down2.bn.gamma.running_mean";
    "gen.down2.bn.gamma.running_var";
    "gen.up0.bn.gamma.running_mean";
    "gen.up0.bn.gamma.running_var";
    "gen.up1.bn.gamma.running_mean";
    "gen.up1.bn.gamma.running_var";
    "gen.up2.bn.gamma.running_mean";
    "gen.up2.bn.gamma.running_var";
    "disc.conv1.bn.gamma.running_mean";
    "disc.conv1.bn.gamma.running_var";
  ]

let student_state_names =
  [
    "student.up0.bn.gamma.running_mean";
    "student.up0.bn.gamma.running_var";
  ]

let check_layout what want (params : Param.t list) =
  Alcotest.(check (list string))
    (what ^ " parameter names")
    (List.map (fun (name, _, _) -> name) want)
    (List.map (fun (p : Param.t) -> p.Param.name) params);
  List.iter2
    (fun (name, shape, sum) (p : Param.t) ->
      Alcotest.(check (array int)) (name ^ " shape") shape (Tensor.shape p.Param.value);
      let got = Array.fold_left ( +. ) 0.0 (Tensor.to_array p.Param.value) in
      Alcotest.(check bool)
        (Printf.sprintf "%s sum %.17g, want %.17g" name got sum)
        true
        (Float.abs (got -. sum) <= 1e-9 *. Float.abs sum))
    want params

let test_parameter_layout () =
  let cfg = Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 () in
  let teacher = Cbgan.create ~seed:11 cfg in
  let student = Student.create ~seed:12 (Distill.student_config cfg) in
  check_layout "teacher" teacher_layout
    (Cbgan.generator_params teacher @ Cbgan.discriminator_params teacher);
  check_layout "student" student_layout (Unet.params student);
  Alcotest.(check (list string)) "teacher state names" teacher_state_names
    (List.map fst (Cbgan.state teacher));
  Alcotest.(check (list string)) "student state names" student_state_names
    (List.map fst (Unet.state student))

(* --- training numerics, pinned across commits ---

   MD5s of the trained fixture's weights: every parameter's float32 bits
   and every batch-norm statistic's float64 bits, in parameter order, with
   their names. A change to the tape, the kernels, Adam or the training
   loop that moves one bit of a trained checkpoint changes them. The
   values were taken before the tape's elementwise loops, Adam and the
   convolutions' weight packing were rewritten, and must not move. *)
let weights_digest params state =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (p : Param.t) ->
      Buffer.add_string buf p.Param.name;
      for i = 0 to Tensor.numel p.Param.value - 1 do
        Buffer.add_int32_le buf (Int32.bits_of_float (Tensor.get p.Param.value i))
      done)
    params;
  List.iter
    (fun (name, a) ->
      Buffer.add_string buf name;
      Array.iter (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v)) a)
    state;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_trained_weights_pinned () =
  List.iter
    (fun d ->
      let teacher, student = Dpool.with_domains d Trained_fixture.train in
      Alcotest.(check string)
        (Printf.sprintf "teacher weights at %d domains" d)
        "f6c638ed4d88a27e63c46c13faf67670"
        (weights_digest
           (Cbgan.generator_params teacher @ Cbgan.discriminator_params teacher)
           (Cbgan.state teacher));
      Alcotest.(check string)
        (Printf.sprintf "student weights at %d domains" d)
        "cf780120b5a3329b731728d61c7623e5"
        (weights_digest (Unet.params student) (Unet.state student)))
    [ 1; 4 ]

let suite =
  ( "cachebox core",
    [
      Alcotest.test_case "normalize bounds" `Quick test_normalize_bounds;
      Alcotest.test_case "batch shape" `Quick test_batch_images_shape;
      Alcotest.test_case "build_l1" `Quick test_build_l1;
      Alcotest.test_case "ground truth matches simulator" `Quick test_build_l1_truth_matches_cache;
      Alcotest.test_case "hierarchy exclusion" `Quick test_build_hierarchy_exclusion;
      Alcotest.test_case "prefetch pairs" `Quick test_build_prefetch;
      Alcotest.test_case "to_samples/shuffle" `Quick test_to_samples_and_shuffle;
      Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
      Alcotest.test_case "discriminator shapes" `Quick test_discriminator_shapes;
      Alcotest.test_case "cache params required" `Quick test_cache_params_required;
      Alcotest.test_case "model without params" `Quick test_no_params_model;
      Alcotest.test_case "param normalisation" `Quick test_normalize_cache_params;
      Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
      Alcotest.test_case "parameter count" `Quick test_parameter_count_positive;
      Alcotest.test_case "training reduces L1" `Slow test_training_reduces_l1;
      Alcotest.test_case "inference predictions" `Quick test_inference_predictions;
      Alcotest.test_case "batch-size invariance" `Quick test_synthesize_batch_invariance;
      qc test_normalize_roundtrip;
      Alcotest.test_case "generator parameter layout" `Quick test_parameter_layout;
      Alcotest.test_case "trained fixture weights pinned" `Slow test_trained_weights_pinned;
    ] )
