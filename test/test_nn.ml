(* Layers, optimizers and checkpointing. *)

let feq tol = Alcotest.(check (float tol))

let test_adam_rosenbrockish () =
  (* Adam on a 2-parameter quadratic with very different curvatures; Adam's
     per-parameter scaling should still converge quickly. *)
  let p = Param.create "xy" (Tensor.of_array [| 2 |] [| 5.0; -5.0 |]) in
  let target = Tensor.of_array [| 2 |] [| 1.0; 2.0 |] in
  let opt = Optimizer.adam ~lr:0.1 [ p ] in
  for _ = 1 to 500 do
    Optimizer.zero_grad opt;
    let diff = Value.sub (Value.of_param p) (Value.const target) in
    let scaled = Value.mul diff (Value.const (Tensor.of_array [| 2 |] [| 10.0; 0.1 |])) in
    Value.backward (Value.sum_all (Value.mul scaled scaled));
    Optimizer.step opt
  done;
  feq 0.1 "fast axis" 1.0 (Tensor.get p.Param.value 0);
  feq 0.1 "slow axis" 2.0 (Tensor.get p.Param.value 1)

let test_adam_quadratic () =
  (* Minimise (x - 3)^2 by Adam. *)
  let p = Param.create "x" (Tensor.of_array [| 1 |] [| 0.0 |]) in
  let opt = Optimizer.adam ~lr:0.1 [ p ] in
  for _ = 1 to 300 do
    Optimizer.zero_grad opt;
    let loss = Value.mse_loss (Value.of_param p) (Tensor.of_array [| 1 |] [| 3.0 |]) in
    Value.backward loss;
    Optimizer.step opt
  done;
  feq 1e-2 "converged" 3.0 (Tensor.get p.Param.value 0)

let test_adam_first_step () =
  (* After one step the bias-corrected moments are g and g^2, so every
     weight with a gradient moves by lr against its sign, whatever the
     gradient's size; a zero gradient leaves its weight where it is. *)
  let p = Param.create "w" (Tensor.zeros [| 4 |]) in
  let grads = [| 250.0; -0.5; 1e-3; 0.0 |] in
  Array.iteri (fun i g -> Tensor.set p.Param.grad i g) grads;
  let opt = Optimizer.adam ~lr:0.01 [ p ] in
  Optimizer.step opt;
  Alcotest.(check (array (float 1e-6)))
    "moved by lr" [| -0.01; 0.01; -0.01; 0.0 |] (Tensor.to_array p.Param.value)

let test_grad_norm () =
  let a = Param.create "a" (Tensor.zeros [| 4 |]) in
  let b = Param.create "b" (Tensor.zeros [| 2 |]) in
  Tensor.fill a.Param.grad 10.0;
  Tensor.set b.Param.grad 0 3.0;
  Tensor.set b.Param.grad 1 (-4.0);
  let opt = Optimizer.adam ~lr:1.0 [ a; b ] in
  feq 1e-4 "L2 norm over every parameter" (sqrt 425.0) (Optimizer.grad_norm opt)

(* Resumable training checkpoints store these names; renaming one would
   make every saved run fail to resume. *)
let test_adam_state_keys () =
  let a = Param.create "a" (Tensor.zeros [| 3 |]) in
  let b = Param.create "b" (Tensor.zeros [| 2 |]) in
  let opt = Optimizer.adam ~lr:0.1 [ a; b ] in
  Alcotest.(check (list string))
    "state keys" [ "lr"; "step"; "m.a"; "m.b"; "v.a"; "v.b" ]
    (List.map fst (Optimizer.state opt))

let test_zero_grad () =
  let p = Param.create "z" (Tensor.zeros [| 2 |]) in
  Tensor.fill p.Param.grad 5.0;
  let opt = Optimizer.adam ~lr:0.1 [ p ] in
  Optimizer.zero_grad opt;
  feq 1e-9 "grads cleared" 0.0 (Optimizer.grad_norm opt)

let test_param_group_unique () =
  let a = Param.create "same" (Tensor.zeros [| 1 |]) in
  let b = Param.create "same" (Tensor.zeros [| 1 |]) in
  Alcotest.check_raises "duplicate names rejected"
    (Invalid_argument "Param.group: duplicate parameter name same") (fun () ->
      ignore (Param.group [ [ a ]; [ b ] ]))

let test_layers_shapes () =
  let rng = Prng.create 1 in
  let conv =
    Layers.conv2d rng ~name:"c" ~in_channels:3 ~out_channels:5 ~kernel:4 ~stride:2
      ~pad:1 ~bias:true
  in
  let x = Value.const (Tensor.zeros [| 2; 3; 8; 8 |]) in
  let y = Layers.apply_conv2d conv x in
  Alcotest.(check (array int)) "conv shape" [| 2; 5; 4; 4 |] (Tensor.shape (Value.value y));
  let tconv =
    Layers.conv_transpose2d rng ~name:"t" ~in_channels:5 ~out_channels:3 ~kernel:4
      ~stride:2 ~pad:1 ~bias:true
  in
  let z = Layers.apply_conv_transpose2d tconv y in
  Alcotest.(check (array int)) "tconv shape" [| 2; 3; 8; 8 |] (Tensor.shape (Value.value z));
  Alcotest.(check int) "conv params" 2 (List.length (Layers.conv2d_params conv));
  let lin = Layers.linear rng ~name:"l" ~in_dim:4 ~out_dim:3 ~bias:false in
  let out = Layers.apply_linear lin (Value.const (Tensor.zeros [| 2; 4 |])) in
  Alcotest.(check (array int)) "linear shape" [| 2; 3 |] (Tensor.shape (Value.value out))

let test_batch_norm_layer_state () =
  let rng = Prng.create 2 in
  let bn = Layers.batch_norm rng ~name:"bn" ~channels:3 in
  Alcotest.(check int) "two state arrays" 2 (List.length (Layers.batch_norm_state bn));
  let x = Value.const (Tensor.randn rng [| 4; 3; 2; 2 |]) in
  ignore (Layers.apply_batch_norm bn ~training:true x);
  Alcotest.(check bool) "running stats moved" true
    (Array.exists (fun v -> v <> 0.0) bn.Layers.running_mean)

let test_checkpoint_roundtrip () =
  let dir = Filename.temp_file "cbox" "" in
  Sys.remove dir;
  let path = dir ^ ".ckpt" in
  let rng = Prng.create 3 in
  let p1 = Param.create "layer.weight" (Tensor.randn rng [| 3; 4 |]) in
  let p2 = Param.create "layer.bias" (Tensor.randn rng [| 3 |]) in
  let state = [ ("layer.running", [| 1.5; -2.5 |]) ] in
  Checkpoint.save path ~params:[ p1; p2 ] ~state;
  let q1 = Param.create "layer.weight" (Tensor.zeros [| 3; 4 |]) in
  let q2 = Param.create "layer.bias" (Tensor.zeros [| 3 |]) in
  let st = [| 0.0; 0.0 |] in
  Checkpoint.load path ~params:[ q1; q2 ] ~state:[ ("layer.running", st) ];
  Alcotest.(check (array (float 1e-6))) "weights restored"
    (Tensor.to_array p1.Param.value) (Tensor.to_array q1.Param.value);
  Alcotest.(check (array (float 1e-6))) "bias restored"
    (Tensor.to_array p2.Param.value) (Tensor.to_array q2.Param.value);
  Alcotest.(check (array (float 1e-6))) "state restored" [| 1.5; -2.5 |] st;
  let entries = Checkpoint.entries path in
  Alcotest.(check int) "entry count" 3 (List.length entries);
  Sys.remove path

let test_checkpoint_missing_entry () =
  let path = Filename.temp_file "cbox" ".ckpt" in
  Checkpoint.save path ~params:[] ~state:[];
  let p = Param.create "absent" (Tensor.zeros [| 1 |]) in
  (try
     Checkpoint.load path ~params:[ p ] ~state:[];
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  Sys.remove path

let test_checkpoint_shape_mismatch () =
  let path = Filename.temp_file "cbox" ".ckpt" in
  let p = Param.create "w" (Tensor.zeros [| 2; 2 |]) in
  Checkpoint.save path ~params:[ p ] ~state:[];
  let q = Param.create "w" (Tensor.zeros [| 4 |]) in
  (try
     Checkpoint.load path ~params:[ q ] ~state:[];
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  Sys.remove path

let suite =
  ( "nn (layers/optim/checkpoint)",
    [
      Alcotest.test_case "adam quadratic" `Quick test_adam_quadratic;
      Alcotest.test_case "adam first step moves by lr" `Quick test_adam_first_step;
      Alcotest.test_case "adam anisotropic" `Quick test_adam_rosenbrockish;
      Alcotest.test_case "grad norm" `Quick test_grad_norm;
      Alcotest.test_case "zero grad" `Quick test_zero_grad;
      Alcotest.test_case "param group uniqueness" `Quick test_param_group_unique;
      Alcotest.test_case "layer shapes" `Quick test_layers_shapes;
      Alcotest.test_case "batch norm layer state" `Quick test_batch_norm_layer_state;
      Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint missing entry" `Quick test_checkpoint_missing_entry;
      Alcotest.test_case "checkpoint shape mismatch" `Quick test_checkpoint_shape_mismatch;
      Alcotest.test_case "adam state keys" `Quick test_adam_state_keys;
    ] )
