(* Convolution kernels: naive references, adjoint identities, and shape
   arithmetic. The adjoint identities <Ax, g> = <x, A^T g> are exact up to
   float32 rounding and pin down the backward passes completely. *)

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Tensor.numel a - 1 do
    acc := !acc +. (Tensor.get a i *. Tensor.get b i)
  done;
  !acc

let rel_close x y = Float.abs (x -. y) <= 1e-3 *. (1.0 +. Float.max (Float.abs x) (Float.abs y))

let naive_conv2d ~x ~weight ~stride ~pad =
  let n = Tensor.dim x 0 and ic = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let oc = Tensor.dim weight 0 and kernel = Tensor.dim weight 2 in
  let oh = Conv.out_size ~size:h ~kernel ~stride ~pad in
  let ow = Conv.out_size ~size:w ~kernel ~stride ~pad in
  let y = Tensor.zeros [| n; oc; oh; ow |] in
  for ni = 0 to n - 1 do
    for oci = 0 to oc - 1 do
      for ohi = 0 to oh - 1 do
        for owi = 0 to ow - 1 do
          let acc = ref 0.0 in
          for ici = 0 to ic - 1 do
            for kh = 0 to kernel - 1 do
              for kw = 0 to kernel - 1 do
                let ih = (ohi * stride) - pad + kh and iw = (owi * stride) - pad + kw in
                if ih >= 0 && ih < h && iw >= 0 && iw < w then
                  acc :=
                    !acc
                    +. (Tensor.get4 x ni ici ih iw *. Tensor.get4 weight oci ici kh kw)
              done
            done
          done;
          Tensor.set4 y ni oci ohi owi !acc
        done
      done
    done
  done;
  y

let test_conv_matches_naive =
  QCheck.Test.make ~name:"conv2d = naive" ~count:60
    QCheck.(
      quad (int_range 1 2) (int_range 1 3) (int_range 3 8)
        (pair (int_range 1 2) small_int))
    (fun (n, ic, hw, (stride, seed)) ->
      let rng = Prng.create seed in
      let kernel = 3 and pad = 1 in
      let x = Tensor.randn rng [| n; ic; hw; hw |] in
      let w = Tensor.randn rng [| 2; ic; kernel; kernel |] in
      let fast = Conv.conv2d ~x ~weight:w ~bias:None ~stride ~pad in
      let slow = naive_conv2d ~x ~weight:w ~stride ~pad in
      let fa = Tensor.to_array fast and sa = Tensor.to_array slow in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-3) fa sa)

let test_conv_bias () =
  let x = Tensor.ones [| 1; 1; 4; 4 |] in
  let w = Tensor.zeros [| 2; 1; 3; 3 |] in
  let bias = Tensor.of_array [| 2 |] [| 1.5; -2.0 |] in
  let y = Conv.conv2d ~x ~weight:w ~bias:(Some bias) ~stride:1 ~pad:1 in
  Alcotest.(check (float 1e-5)) "bias ch0" 1.5 (Tensor.get4 y 0 0 2 2);
  Alcotest.(check (float 1e-5)) "bias ch1" (-2.0) (Tensor.get4 y 0 1 0 0)

let test_out_sizes () =
  Alcotest.(check int) "conv 64->32" 32 (Conv.out_size ~size:64 ~kernel:4 ~stride:2 ~pad:1);
  Alcotest.(check int) "tconv 32->64" 64 (Conv.tconv_out_size ~size:32 ~kernel:4 ~stride:2 ~pad:1);
  Alcotest.(check int) "tconv 1->2" 2 (Conv.tconv_out_size ~size:1 ~kernel:4 ~stride:2 ~pad:1);
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Conv.out_size: non-positive output size") (fun () ->
      ignore (Conv.out_size ~size:1 ~kernel:4 ~stride:2 ~pad:0))

let test_tconv_inverts_conv_shape =
  QCheck.Test.make ~name:"tconv size inverts conv size" ~count:100
    QCheck.(int_range 4 128)
    (fun size ->
      let down = Conv.out_size ~size ~kernel:4 ~stride:2 ~pad:1 in
      Conv.tconv_out_size ~size:down ~kernel:4 ~stride:2 ~pad:1 = (size / 2) * 2)

let test_conv_adjoint =
  QCheck.Test.make ~name:"conv2d backward is the adjoint" ~count:40
    QCheck.(pair small_int (int_range 1 2))
    (fun (seed, stride) ->
      let rng = Prng.create seed in
      let x = Tensor.randn rng [| 2; 2; 6; 6 |] in
      let w = Tensor.randn rng [| 3; 2; 3; 3 |] in
      let ax = Conv.conv2d ~x ~weight:w ~bias:None ~stride ~pad:1 in
      let g = Tensor.randn rng (Tensor.shape ax) in
      let gw = Tensor.zeros (Tensor.shape w) in
      let atg = Tensor.zeros (Tensor.shape x) in
      Conv.conv2d_backward_into ~x ~weight:w ~gout:g ~stride ~pad:1 ~grad_weight:gw
        ~grad_bias:None ~gx:atg;
      rel_close (dot ax g) (dot x atg))

let test_tconv_adjoint =
  QCheck.Test.make ~name:"conv_transpose2d backward is the adjoint" ~count:40
    QCheck.(pair small_int (int_range 1 2))
    (fun (seed, stride) ->
      let rng = Prng.create (seed + 77) in
      let x = Tensor.randn rng [| 2; 3; 5; 5 |] in
      let w = Tensor.randn rng [| 3; 2; 4; 4 |] in
      let ax = Conv.conv_transpose2d ~x ~weight:w ~bias:None ~stride ~pad:1 in
      let g = Tensor.randn rng (Tensor.shape ax) in
      let gw = Tensor.zeros (Tensor.shape w) in
      let atg = Tensor.zeros (Tensor.shape x) in
      Conv.conv_transpose2d_backward_into ~x ~weight:w ~gout:g ~stride ~pad:1
        ~grad_weight:gw ~grad_bias:None ~gx:atg;
      rel_close (dot ax g) (dot x atg))

let test_weight_gradient_fd () =
  (* dphi/dW for phi(W) = <conv(x; W), g> equals the accumulated grad. *)
  let rng = Prng.create 4 in
  let x = Tensor.randn rng [| 1; 2; 5; 5 |] in
  let w = Tensor.randn rng [| 2; 2; 3; 3 |] in
  let stride = 2 and pad = 1 in
  let g = Tensor.randn rng (Tensor.shape (Conv.conv2d ~x ~weight:w ~bias:None ~stride ~pad)) in
  let gw = Tensor.zeros (Tensor.shape w) in
  Conv.conv2d_backward_into ~x ~weight:w ~gout:g ~stride ~pad ~grad_weight:gw ~grad_bias:None
    ~gx:(Tensor.zeros (Tensor.shape x));
  let phi () = dot (Conv.conv2d ~x ~weight:w ~bias:None ~stride ~pad) g in
  let p0 = phi () in
  let eps = 1e-3 in
  for i = 0 to 10 do
    let orig = Tensor.get w i in
    Tensor.set w i (orig +. eps);
    let fd = (phi () -. p0) /. eps in
    Tensor.set w i orig;
    Alcotest.(check bool) "fd matches" true (Float.abs (fd -. Tensor.get gw i) < 0.05 *. (1.0 +. Float.abs fd))
  done

let test_bias_gradient () =
  let x = Tensor.ones [| 2; 1; 4; 4 |] in
  let w = Tensor.zeros [| 1; 1; 3; 3 |] in
  let y = Conv.conv2d ~x ~weight:w ~bias:None ~stride:1 ~pad:1 in
  let gout = Tensor.ones (Tensor.shape y) in
  let gw = Tensor.zeros (Tensor.shape w) in
  let gb = Tensor.zeros [| 1 |] in
  Conv.conv2d_backward_into ~x ~weight:w ~gout ~stride:1 ~pad:1 ~grad_weight:gw
    ~grad_bias:(Some gb) ~gx:(Tensor.zeros (Tensor.shape x));
  (* 2 samples x 16 output pixels *)
  Alcotest.(check (float 1e-4)) "bias grad sums gout" 32.0 (Tensor.get gb 0)

let test_im2col_col2im_adjoint =
  QCheck.Test.make ~name:"col2im is the adjoint of im2col" ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let x = Tensor.randn rng [| 1; 2; 6; 6 |] in
      let o = Conv.out_size ~size:6 ~kernel:3 ~stride:2 ~pad:1 in
      let cols = Tensor.zeros [| 2 * 3 * 3; o * o |] in
      Conv.im2col_into x ~n:0 ~kernel:3 ~stride:2 ~pad:1 cols;
      let g = Tensor.randn rng (Tensor.shape cols) in
      let back = Tensor.zeros (Tensor.shape x) in
      Conv.col2im g ~dst:back ~n:0 ~channels:2 ~height:6 ~width:6 ~kernel:3 ~stride:2 ~pad:1;
      rel_close (dot cols g) (dot x back))

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "conv",
    [
      Alcotest.test_case "bias broadcast" `Quick test_conv_bias;
      Alcotest.test_case "output sizes" `Quick test_out_sizes;
      Alcotest.test_case "weight gradient (finite diff)" `Quick test_weight_gradient_fd;
      Alcotest.test_case "bias gradient" `Quick test_bias_gradient;
      qc test_conv_matches_naive;
      qc test_tconv_inverts_conv_shape;
      qc test_conv_adjoint;
      qc test_tconv_adjoint;
      qc test_im2col_col2im_adjoint;
    ] )
