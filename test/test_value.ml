(* Autodiff engine: per-op gradients (exact or adjoint-identity based),
   gradient accumulation across re-used nodes, and loss semantics. *)

let feq tol = Alcotest.(check (float tol))

let grad_of v = Tensor.to_array (Value.grad v)

let test_add_grad () =
  let a = Value.leaf (Tensor.of_array [| 2 |] [| 1.; 2. |]) in
  let b = Value.leaf (Tensor.of_array [| 2 |] [| 3.; 4. |]) in
  let s = Value.sum_all (Value.add a b) in
  Value.backward s;
  Alcotest.(check (array (float 1e-6))) "da" [| 1.; 1. |] (grad_of a);
  Alcotest.(check (array (float 1e-6))) "db" [| 1.; 1. |] (grad_of b)

let test_sub_grad () =
  let a = Value.leaf (Tensor.of_array [| 2 |] [| 1.; 2. |]) in
  let b = Value.leaf (Tensor.of_array [| 2 |] [| 3.; 4. |]) in
  Value.backward (Value.sum_all (Value.sub a b));
  Alcotest.(check (array (float 1e-6))) "db = -1" [| -1.; -1. |] (grad_of b)

let test_mul_grad () =
  let a = Value.leaf (Tensor.of_array [| 2 |] [| 2.; 3. |]) in
  let b = Value.leaf (Tensor.of_array [| 2 |] [| 5.; 7. |]) in
  Value.backward (Value.sum_all (Value.mul a b));
  Alcotest.(check (array (float 1e-6))) "da = b" [| 5.; 7. |] (grad_of a);
  Alcotest.(check (array (float 1e-6))) "db = a" [| 2.; 3. |] (grad_of b)

let test_scale_neg () =
  let a = Value.leaf (Tensor.of_array [| 2 |] [| 1.; -1. |]) in
  Value.backward (Value.sum_all (Value.neg (Value.scale a 3.0)));
  Alcotest.(check (array (float 1e-6))) "chain" [| -3.; -3. |] (grad_of a)

let test_reuse_accumulates () =
  (* y = a + a: gradient must be 2. *)
  let a = Value.leaf (Tensor.of_array [| 1 |] [| 5.0 |]) in
  Value.backward (Value.sum_all (Value.add a a));
  feq 1e-6 "d(a+a)/da = 2" 2.0 (Tensor.get (Value.grad a) 0)

let test_param_accumulation () =
  (* Two separate graphs over the same parameter accumulate into p.grad. *)
  let p = Param.create "p" (Tensor.of_array [| 1 |] [| 2.0 |]) in
  Value.backward (Value.sum_all (Value.of_param p));
  Value.backward (Value.sum_all (Value.scale (Value.of_param p) 3.0));
  feq 1e-6 "sum over graphs" 4.0 (Tensor.get p.Param.grad 0);
  Param.zero_grad p;
  feq 1e-6 "zeroed" 0.0 (Tensor.get p.Param.grad 0)

let test_activations () =
  let x = Tensor.of_array [| 4 |] [| -2.0; -0.5; 0.5; 2.0 |] in
  let a = Value.leaf x in
  Value.backward (Value.sum_all (Value.relu a));
  Alcotest.(check (array (float 1e-6))) "relu grad" [| 0.; 0.; 1.; 1. |] (grad_of a);
  let b = Value.leaf x in
  Value.backward (Value.sum_all (Value.leaky_relu 0.2 b));
  Alcotest.(check (array (float 1e-5))) "leaky grad" [| 0.2; 0.2; 1.; 1. |] (grad_of b);
  let c = Value.leaf (Tensor.of_array [| 1 |] [| 0.3 |]) in
  Value.backward (Value.sum_all (Value.tanh_ c));
  let th = Float.tanh 0.3 in
  feq 1e-4 "tanh grad" (1.0 -. (th *. th)) (Tensor.get (Value.grad c) 0)

let test_dropout_eval_identity () =
  let rng = Prng.create 1 in
  let x = Tensor.of_array [| 4 |] [| 1.; 2.; 3.; 4. |] in
  let out = Value.dropout rng ~rate:0.5 ~training:false (Value.leaf x) in
  Alcotest.(check (array (float 1e-6))) "identity at eval" (Tensor.to_array x)
    (Tensor.to_array (Value.value out))

let test_dropout_training_scaling () =
  let rng = Prng.create 2 in
  let n = 10_000 in
  let x = Tensor.ones [| n |] in
  let out = Value.value (Value.dropout rng ~rate:0.3 ~training:true (Value.leaf x)) in
  (* Survivors are scaled by 1/(1-rate); the mean stays ~1. *)
  let mean = Tensor.mean out in
  Alcotest.(check bool) "mean preserved" true (Float.abs (mean -. 1.0) < 0.05);
  let is_valid v = v = 0.0 || Float.abs (v -. (1.0 /. 0.7)) < 1e-4 in
  Alcotest.(check bool) "values are 0 or 1/(1-p)" true
    (Array.for_all is_valid (Tensor.to_array out))

let test_reshape_grad () =
  let a = Value.leaf (Tensor.of_array [| 4 |] [| 1.; 2.; 3.; 4. |]) in
  let r = Value.reshape a [| 2; 2 |] in
  Value.backward (Value.sum_all r);
  Alcotest.(check (array int)) "grad shape follows leaf" [| 4 |]
    (Tensor.shape (Value.grad a))

let test_concat_grad () =
  let a = Value.leaf (Tensor.ones [| 1; 1; 2; 2 |]) in
  let b = Value.leaf (Tensor.ones [| 1; 2; 2; 2 |]) in
  let j = Value.concat_channels a b in
  Value.backward (Value.sum_all (Value.scale j 2.0));
  Alcotest.(check (array (float 1e-6))) "da" [| 2.; 2.; 2.; 2. |] (grad_of a);
  Alcotest.(check int) "db size" 8 (Tensor.numel (Value.grad b))

let test_linear_grad () =
  (* y = x W^T + b with known values. *)
  let x = Value.leaf (Tensor.of_array [| 1; 2 |] [| 1.; 2. |]) in
  let w = Value.leaf (Tensor.of_array [| 2; 2 |] [| 1.; 0.; 0.; 1. |]) in
  let b = Value.leaf (Tensor.of_array [| 2 |] [| 0.5; -0.5 |]) in
  let y = Value.linear ~weight:w ~bias:(Some b) x in
  Alcotest.(check (array (float 1e-5))) "forward" [| 1.5; 1.5 |]
    (Tensor.to_array (Value.value y));
  Value.backward (Value.sum_all y);
  Alcotest.(check (array (float 1e-5))) "dx = col sums of W" [| 1.; 1. |] (grad_of x);
  Alcotest.(check (array (float 1e-5))) "dW = outer(g, x)" [| 1.; 2.; 1.; 2. |] (grad_of w);
  Alcotest.(check (array (float 1e-5))) "db" [| 1.; 1. |] (grad_of b)

let test_batch_norm_forward () =
  (* With gamma=1, beta=0 a training-mode BN output has zero mean and unit
     variance per channel. *)
  let rng = Prng.create 3 in
  let x = Value.leaf (Tensor.randn rng [| 4; 2; 3; 3 |]) in
  let gamma = Value.leaf (Tensor.ones [| 2 |]) in
  let beta = Value.leaf (Tensor.zeros [| 2 |]) in
  let rm = Array.make 2 0.0 and rv = Array.make 2 1.0 in
  let y =
    Value.batch_norm ~gamma ~beta ~running_mean:rm ~running_var:rv ~momentum:0.5
      ~eps:1e-5 ~training:true x
  in
  let means, vars = Tensor.channel_mean_var (Value.value y) in
  Array.iter (fun m -> Alcotest.(check bool) "mean 0" true (Float.abs m < 1e-3)) means;
  Array.iter (fun v -> Alcotest.(check bool) "var 1" true (Float.abs (v -. 1.0) < 1e-2)) vars;
  Alcotest.(check bool) "running mean updated" true (rm.(0) <> 0.0 || rm.(1) <> 0.0)

let test_batch_norm_grad_fd () =
  let rng = Prng.create 7 in
  let xt = Tensor.randn rng [| 2; 2; 3; 3 |] in
  let rm = Array.make 2 0.0 and rv = Array.make 2 1.0 in
  let target = Tensor.randn rng [| 2; 2; 3; 3 |] in
  let f () =
    let x = Value.leaf xt in
    let gamma = Value.leaf (Tensor.ones [| 2 |]) in
    let beta = Value.leaf (Tensor.zeros [| 2 |]) in
    let y =
      Value.batch_norm ~gamma ~beta ~running_mean:rm ~running_var:rv ~momentum:0.0
        ~eps:1e-5 ~training:true x
    in
    (Value.mse_loss y target, x)
  in
  let loss, x = f () in
  Value.backward loss;
  let l0 = Tensor.get (Value.value loss) 0 in
  let eps = 1e-2 in
  for i = 0 to 5 do
    let orig = Tensor.get xt i in
    Tensor.set xt i (orig +. eps);
    let l1, _ = f () in
    Tensor.set xt i orig;
    let fd = (Tensor.get (Value.value l1) 0 -. l0) /. eps in
    let an = Tensor.get (Value.grad x) i in
    Alcotest.(check bool) "bn dx matches fd" true (Float.abs (fd -. an) < 0.05 *. (1.0 +. Float.abs fd))
  done

let test_losses_values () =
  let a = Value.leaf (Tensor.of_array [| 2 |] [| 1.0; 3.0 |]) in
  let t = Tensor.of_array [| 2 |] [| 0.0; 1.0 |] in
  feq 1e-5 "l1" 1.5 (Tensor.get (Value.value (Value.l1_loss a t)) 0);
  feq 1e-5 "mse" 2.5 (Tensor.get (Value.value (Value.mse_loss a t)) 0);
  let logits = Value.leaf (Tensor.of_array [| 1 |] [| 0.0 |]) in
  feq 1e-4 "bce at logit 0" (log 2.0)
    (Tensor.get (Value.value (Value.bce_with_logits logits (Tensor.of_array [| 1 |] [| 1.0 |]))) 0)

let test_bce_grad () =
  let logits = Value.leaf (Tensor.of_array [| 1 |] [| 0.7 |]) in
  let t = Tensor.of_array [| 1 |] [| 1.0 |] in
  Value.backward (Value.bce_with_logits logits t);
  let s = 1.0 /. (1.0 +. exp (-0.7)) in
  feq 1e-4 "d bce = sigmoid - t" (s -. 1.0) (Tensor.get (Value.grad logits) 0)

let test_mean_all_grad () =
  let a = Value.leaf (Tensor.of_array [| 4 |] [| 1.; 2.; 3.; 4. |]) in
  Value.backward (Value.mean_all a);
  Alcotest.(check (array (float 1e-6))) "1/n" [| 0.25; 0.25; 0.25; 0.25 |] (grad_of a)

let test_const_has_no_grad () =
  let c = Value.const (Tensor.ones [| 2 |]) in
  let l = Value.leaf (Tensor.ones [| 2 |]) in
  Value.backward (Value.sum_all (Value.mul c l));
  Alcotest.(check (array (float 1e-6))) "leaf got grad" [| 1.; 1. |] (grad_of l)

let suite =
  ( "value (autodiff)",
    [
      Alcotest.test_case "add grad" `Quick test_add_grad;
      Alcotest.test_case "sub grad" `Quick test_sub_grad;
      Alcotest.test_case "mul grad" `Quick test_mul_grad;
      Alcotest.test_case "scale/neg chain" `Quick test_scale_neg;
      Alcotest.test_case "node reuse accumulates" `Quick test_reuse_accumulates;
      Alcotest.test_case "param accumulation across graphs" `Quick test_param_accumulation;
      Alcotest.test_case "activations" `Quick test_activations;
      Alcotest.test_case "dropout eval identity" `Quick test_dropout_eval_identity;
      Alcotest.test_case "dropout training scaling" `Quick test_dropout_training_scaling;
      Alcotest.test_case "reshape grad" `Quick test_reshape_grad;
      Alcotest.test_case "concat grad" `Quick test_concat_grad;
      Alcotest.test_case "linear grad" `Quick test_linear_grad;
      Alcotest.test_case "batch norm forward" `Quick test_batch_norm_forward;
      Alcotest.test_case "batch norm dx (finite diff)" `Quick test_batch_norm_grad_fd;
      Alcotest.test_case "loss values" `Quick test_losses_values;
      Alcotest.test_case "bce grad" `Quick test_bce_grad;
      Alcotest.test_case "mean_all grad" `Quick test_mean_all_grad;
      Alcotest.test_case "const has no grad" `Quick test_const_has_no_grad;
    ] )
