(* GEMM against naive references, over randomized shapes. *)

let naive_matmul a b =
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 and n = Tensor.dim b 1 in
  let c = Tensor.zeros [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get2 a i p *. Tensor.get2 b p j)
      done;
      Tensor.set2 c i j !acc
    done
  done;
  c

let close a b =
  let aa = Tensor.to_array a and bb = Tensor.to_array b in
  Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-3 *. (1.0 +. Float.abs y)) aa bb

let test_matmul_matches_naive =
  QCheck.Test.make ~name:"matmul = naive" ~count:100
    QCheck.(quad (int_range 1 9) (int_range 1 9) (int_range 1 9) small_int)
    (fun (m, k, n, seed) ->
      let rng = Prng.create seed in
      let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| k; n |] in
      let c = Tensor.zeros [| m; n |] in
      Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c;
      close c (naive_matmul a b))

let test_gemm_transposes =
  QCheck.Test.make ~name:"gemm with transposes = naive" ~count:100
    QCheck.(quad (int_range 1 8) (int_range 1 8) (int_range 1 8) small_int)
    (fun (m, k, n, seed) ->
      let rng = Prng.create (seed + 1) in
      let a_t = Tensor.randn rng [| k; m |] in
      let b_t = Tensor.randn rng [| n; k |] in
      let c = Tensor.zeros [| m; n |] in
      Blas.gemm ~trans_a:true ~trans_b:true ~alpha:1.0 ~a:a_t ~b:b_t ~beta:0.0 c;
      close c (naive_matmul (Blas.transpose a_t) (Blas.transpose b_t)))

let test_gemm_alpha_beta () =
  let a = Tensor.of_array [| 2; 2 |] [| 1.; 0.; 0.; 1. |] in
  let b = Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let c = Tensor.of_array [| 2; 2 |] [| 10.; 10.; 10.; 10. |] in
  Blas.gemm ~alpha:2.0 ~a ~b ~beta:0.5 c;
  Alcotest.(check (array (float 1e-4))) "alpha*A*B + beta*C"
    [| 7.; 9.; 11.; 13. |] (Tensor.to_array c)

let test_gemm_accumulates () =
  let a = Tensor.of_array [| 1; 1 |] [| 2.0 |] in
  let b = Tensor.of_array [| 1; 1 |] [| 3.0 |] in
  let c = Tensor.of_array [| 1; 1 |] [| 1.0 |] in
  Blas.gemm ~alpha:1.0 ~a ~b ~beta:1.0 c;
  Alcotest.(check (float 1e-5)) "beta=1 accumulates" 7.0 (Tensor.get c 0)

let test_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:100
    QCheck.(triple (int_range 1 10) (int_range 1 10) small_int)
    (fun (m, n, seed) ->
      let t = Tensor.randn (Prng.create seed) [| m; n |] in
      Tensor.to_array (Blas.transpose (Blas.transpose t)) = Tensor.to_array t)

let test_gemm_matrix_vector () =
  (* A column vector is an n = 1 operand, stored as [k; 1] or, transposed,
     as a [1; k] row. *)
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let x = [| 1.; 0.; -1. |] in
  let y = Tensor.zeros [| 2; 1 |] in
  Blas.gemm ~alpha:1.0 ~a ~b:(Tensor.of_array [| 3; 1 |] x) ~beta:0.0 y;
  Alcotest.(check (array (float 1e-5))) "column" [| -2.; -2. |] (Tensor.to_array y);
  let y = Tensor.zeros [| 2; 1 |] in
  Blas.gemm ~trans_b:true ~alpha:1.0 ~a ~b:(Tensor.of_array [| 1; 3 |] x) ~beta:0.0 y;
  Alcotest.(check (array (float 1e-5))) "transposed row" [| -2.; -2. |] (Tensor.to_array y)

let test_dim_mismatch () =
  let a = Tensor.zeros [| 2; 3 |] and b = Tensor.zeros [| 2; 3 |] in
  let c = Tensor.zeros [| 2; 3 |] in
  Alcotest.check_raises "inner mismatch" (Invalid_argument "Blas.gemm: inner dimension mismatch")
    (fun () -> Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c)

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "blas",
    [
      Alcotest.test_case "alpha/beta semantics" `Quick test_gemm_alpha_beta;
      Alcotest.test_case "beta accumulation" `Quick test_gemm_accumulates;
      Alcotest.test_case "matrix-vector (n = 1)" `Quick test_gemm_matrix_vector;
      Alcotest.test_case "dim mismatch" `Quick test_dim_mismatch;
      qc test_matmul_matches_naive;
      qc test_gemm_transposes;
      qc test_transpose_involution;
    ] )
