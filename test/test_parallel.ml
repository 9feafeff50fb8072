(* Serial/parallel bit-identity: for every tested domain count the parallel
   kernels must produce *exactly* the floats the serial path produces
   (Float.equal per element, no tolerance). This is the determinism contract
   of the Dpool backend: deterministic contiguous slice ownership, one writer
   per output element, serial accumulation order preserved. *)

let domain_counts = [ 1; 2; 3; 8 ]

let gen_domains = QCheck.Gen.oneofl domain_counts

(* Exact comparison; Float.equal also distinguishes nan correctly. *)
let exact a b =
  Tensor.numel a = Tensor.numel b
  && Array.for_all2 Float.equal (Tensor.to_array a) (Tensor.to_array b)

let qc = QCheck_alcotest.to_alcotest

(* --- gemm --- *)

(* Shapes up to 48 cross the gemm parallel threshold (16384 multiply-adds)
   in a good fraction of cases, so both the serial fallback and the
   row-pair-sliced parallel path are exercised. *)
let gemm_case =
  QCheck.make
    ~print:(fun (m, k, n, ta, tb, alpha, beta, d, seed) ->
      Printf.sprintf "m=%d k=%d n=%d ta=%b tb=%b alpha=%g beta=%g domains=%d seed=%d" m k n ta
        tb alpha beta d seed)
    QCheck.Gen.(
      let* m = int_range 1 48 in
      let* k = int_range 1 48 in
      let* n = int_range 1 48 in
      let* ta = bool in
      let* tb = bool in
      let* alpha = oneofl [ 1.0; -0.5; 2.25; 0.0 ] in
      let* beta = oneofl [ 0.0; 1.0; -1.5; 0.5 ] in
      let* d = gen_domains in
      let+ seed = int_range 0 10_000 in
      (m, k, n, ta, tb, alpha, beta, d, seed))

let test_gemm_bit_identical =
  QCheck.Test.make ~name:"gemm parallel = serial (bit-identical)" ~count:120 gemm_case
    (fun (m, k, n, ta, tb, alpha, beta, d, seed) ->
      let rng = Prng.create seed in
      let a = Tensor.randn rng (if ta then [| k; m |] else [| m; k |]) in
      let b = Tensor.randn rng (if tb then [| n; k |] else [| k; n |]) in
      let c0 = Tensor.randn rng [| m; n |] in
      let run_with domains =
        let c = Tensor.copy c0 in
        Dpool.with_domains domains (fun () ->
            Blas.gemm ~trans_a:ta ~trans_b:tb ~alpha ~a ~b ~beta c);
        c
      in
      exact (run_with 1) (run_with d))

(* Matrix-vector shapes (n = 1) up to 220 x 220: a single output column,
   split across domains by rows once m * k crosses the parallel threshold. *)
let test_gemm_matrix_vector_bit_identical =
  QCheck.Test.make ~name:"gemm matrix-vector parallel = serial (bit-identical)" ~count:100
    QCheck.(
      triple
        (pair (int_range 1 220) (int_range 1 220))
        (pair bool (int_range 0 10_000))
        (oneofl domain_counts))
    (fun ((m, k), (ta, seed), d) ->
      let rng = Prng.create seed in
      let a = Tensor.randn rng (if ta then [| k; m |] else [| m; k |]) in
      let x = Tensor.randn rng [| k; 1 |] in
      let run_with domains =
        let y = Tensor.zeros [| m; 1 |] in
        Dpool.with_domains domains (fun () ->
            Blas.gemm ~trans_a:ta ~alpha:1.0 ~a ~b:x ~beta:0.0 y);
        y
      in
      exact (run_with 1) (run_with d))

(* --- conv --- *)

let conv_case =
  QCheck.make
    ~print:(fun (n, ic, oc, hw, stride, d, seed) ->
      Printf.sprintf "n=%d ic=%d oc=%d hw=%d stride=%d domains=%d seed=%d" n ic oc hw stride d
        seed)
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* ic = int_range 1 3 in
      let* oc = int_range 1 4 in
      let* hw = int_range 4 14 in
      let* stride = int_range 1 2 in
      let* d = gen_domains in
      let+ seed = int_range 0 10_000 in
      (n, ic, oc, hw, stride, d, seed))

let test_conv2d_bit_identical =
  QCheck.Test.make ~name:"conv2d parallel = serial (bit-identical)" ~count:80 conv_case
    (fun (n, ic, oc, hw, stride, d, seed) ->
      let rng = Prng.create seed in
      let x = Tensor.randn rng [| n; ic; hw; hw |] in
      let w = Tensor.randn rng [| oc; ic; 3; 3 |] in
      let bias = Tensor.randn rng [| oc |] in
      let run_with domains =
        Dpool.with_domains domains (fun () ->
            Conv.conv2d ~x ~weight:w ~bias:(Some bias) ~stride ~pad:1)
      in
      exact (run_with 1) (run_with d))

let test_conv_transpose2d_bit_identical =
  QCheck.Test.make ~name:"conv_transpose2d parallel = serial (bit-identical)" ~count:60
    conv_case (fun (n, ic, oc, hw, stride, d, seed) ->
      let rng = Prng.create (seed + 31) in
      let x = Tensor.randn rng [| n; ic; hw; hw |] in
      let w = Tensor.randn rng [| ic; oc; 4; 4 |] in
      let run_with domains =
        Dpool.with_domains domains (fun () ->
            Conv.conv_transpose2d ~x ~weight:w ~bias:None ~stride ~pad:1)
      in
      exact (run_with 1) (run_with d))

let test_conv2d_backward_bit_identical =
  QCheck.Test.make ~name:"conv2d backward parallel = serial (bit-identical)" ~count:40
    conv_case (fun (n, ic, oc, hw, stride, d, seed) ->
      let rng = Prng.create (seed + 97) in
      let x = Tensor.randn rng [| n; ic; hw; hw |] in
      let w = Tensor.randn rng [| oc; ic; 3; 3 |] in
      let y = Conv.conv2d ~x ~weight:w ~bias:None ~stride ~pad:1 in
      let gout = Tensor.randn rng (Tensor.shape y) in
      let run_with domains =
        Dpool.with_domains domains (fun () ->
            let gw = Tensor.zeros (Tensor.shape w) in
            let gb = Tensor.zeros [| oc |] in
            let gx = Tensor.zeros (Tensor.shape x) in
            Conv.conv2d_backward_into ~x ~weight:w ~gout ~stride ~pad:1 ~grad_weight:gw
              ~grad_bias:(Some gb) ~gx;
            (gx, gw, gb))
      in
      let gx1, gw1, gb1 = run_with 1 in
      let gxd, gwd, gbd = run_with d in
      exact gx1 gxd && exact gw1 gwd && exact gb1 gbd)

(* --- elementwise / reductions --- *)

(* Sizes straddle the 65536-element threshold so both paths run. The sum
   kernel's fixed chunk grid makes even the reduction independent of the
   domain count. *)
let elementwise_case =
  QCheck.make
    ~print:(fun (n, d, seed) -> Printf.sprintf "n=%d domains=%d seed=%d" n d seed)
    QCheck.Gen.(
      let* n = oneofl [ 17; 4_096; 65_535; 65_536; 70_001; 150_000 ] in
      let* d = gen_domains in
      let+ seed = int_range 0 10_000 in
      (n, d, seed))

let test_elementwise_bit_identical =
  QCheck.Test.make ~name:"tensor elementwise parallel = serial (bit-identical)" ~count:24
    elementwise_case (fun (n, d, seed) ->
      let rng = Prng.create seed in
      let a0 = Tensor.randn rng [| n |] and b = Tensor.randn rng [| n |] in
      let run_with domains =
        Dpool.with_domains domains (fun () ->
            let a = Tensor.copy a0 in
            Tensor.add_ a b;
            Tensor.mul_ a b;
            Tensor.scale_ a 1.125;
            Tensor.axpy ~alpha:(-0.75) ~x:b ~y:a;
            let m = Tensor.map (fun v -> Float.abs v +. 1.0) a in
            let s = Tensor.sum m in
            (a, m, s))
      in
      let a1, m1, s1 = run_with 1 in
      let ad, md, sd = run_with d in
      exact a1 ad && exact m1 md && Float.equal s1 sd)

let test_map_array_bit_identical =
  QCheck.Test.make ~name:"parallel_map_array = Array.map at every domain count" ~count:50
    QCheck.(pair (int_range 0 300) (oneofl domain_counts))
    (fun (n, d) ->
      let a = Array.init n (fun i -> float_of_int i *. 0.37) in
      let f x = (x *. 3.0) -. 1.0 in
      Dpool.parallel_map_array ~domains:d f a = Array.map f a)

let suite =
  ( "parallel-bit-identity",
    [
      qc test_gemm_bit_identical;
      qc test_gemm_matrix_vector_bit_identical;
      qc test_conv2d_bit_identical;
      qc test_conv_transpose2d_bit_identical;
      qc test_conv2d_backward_bit_identical;
      qc test_elementwise_bit_identical;
      qc test_map_array_bit_identical;
    ] )
