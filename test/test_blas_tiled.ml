(* The tiled/packed GEMM against the naive reference: randomized shapes,
   every transpose combination, alpha/beta corner values, and bit-identity
   across domain counts.

   Shapes are deliberately ragged (primes, 1-wide edges) and the small-GEMM
   cutoff is forced to 0 so every case exercises the packed panels and the
   partial-tile mask paths of the microkernel, not the serial fallback. *)

let with_forced_tiled f =
  let k0 = Blas.kernel () in
  Blas.set_kernel Blas.Tiled;
  Blas.set_small_cutoff 0;
  Fun.protect
    ~finally:(fun () ->
      Blas.set_small_cutoff 16_384;
      Blas.set_kernel k0)
    f

(* op(A)*op(B) with plain loops, never touching Blas. *)
let naive_gemm ~trans_a ~trans_b ~alpha a b ~beta c0 ~m ~k ~n =
  let out = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        let av = if trans_a then Tensor.get2 a p i else Tensor.get2 a i p in
        let bv = if trans_b then Tensor.get2 b j p else Tensor.get2 b p j in
        acc := !acc +. (av *. bv)
      done;
      out.((i * n) + j) <- (alpha *. !acc) +. (beta *. c0.((i * n) + j))
    done
  done;
  out

let close ~tol a b =
  Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol *. (1.0 +. Float.abs y)) a b

(* One random gemm case, with the tiled path forced. *)
let check_case ~m ~k ~n ~trans_a ~trans_b ~alpha ~beta seed =
  let rng = Prng.create seed in
  let a = Tensor.randn rng (if trans_a then [| k; m |] else [| m; k |]) in
  let b = Tensor.randn rng (if trans_b then [| n; k |] else [| k; n |]) in
  let c = Tensor.randn rng [| m; n |] in
  let c0 = Tensor.to_array c in
  let expected = naive_gemm ~trans_a ~trans_b ~alpha a b ~beta c0 ~m ~k ~n in
  with_forced_tiled (fun () -> Blas.gemm ~trans_a ~trans_b ~alpha ~a ~b ~beta c);
  close ~tol:1e-4 (Tensor.to_array c) expected

let alpha_beta_gen =
  (* The corner values the autodiff layer actually uses, plus a negative. *)
  QCheck.Gen.oneofl [ (1.0, 0.0); (1.0, 1.0); (0.0, 1.0); (0.7, 0.5); (-1.5, 1.0); (2.0, -0.5) ]

let case_gen =
  QCheck.Gen.(
    tup4
      (tup3 (int_range 1 40) (int_range 1 40) (int_range 1 40))
      (tup2 bool bool) alpha_beta_gen (int_range 0 1_000_000))

let test_tiled_matches_naive =
  QCheck.Test.make ~name:"tiled gemm = naive (ragged shapes, all trans/alpha/beta)"
    ~count:200
    (QCheck.make case_gen ~print:(fun ((m, k, n), (ta, tb), (al, be), seed) ->
         Printf.sprintf "m=%d k=%d n=%d ta=%b tb=%b alpha=%g beta=%g seed=%d" m k n
           ta tb al be seed))
    (fun ((m, k, n), (trans_a, trans_b), (alpha, beta), seed) ->
      check_case ~m ~k ~n ~trans_a ~trans_b ~alpha ~beta seed)

(* Edge shapes that stress every partial-tile combination: exact multiples
   of MR/NR (4), one-off remainders, single rows/columns, k straddling the
   KC block boundary (256). *)
let test_edge_shapes () =
  List.iter
    (fun (m, k, n) ->
      List.iter
        (fun (trans_a, trans_b) ->
          Alcotest.(check bool)
            (Printf.sprintf "m=%d k=%d n=%d ta=%b tb=%b" m k n trans_a trans_b)
            true
            (check_case ~m ~k ~n ~trans_a ~trans_b ~alpha:1.0 ~beta:0.0
               (m + (13 * k) + (101 * n))))
        [ (false, false); (true, false); (false, true); (true, true) ])
    [
      (1, 1, 1);
      (4, 4, 4);
      (5, 7, 9);
      (8, 256, 8);
      (3, 257, 5);
      (65, 3, 2);
      (1, 300, 1);
      (16, 512, 12);
    ]

let test_alpha_zero_short_circuit () =
  (* alpha=0 must scale C by beta without reading A/B products. *)
  let c = Tensor.of_array [| 2; 2 |] [| 1.0; 2.0; 3.0; 4.0 |] in
  let a = Tensor.of_array [| 2; 2 |] [| nan; nan; nan; nan |] in
  with_forced_tiled (fun () -> Blas.gemm ~alpha:0.0 ~a ~b:a ~beta:0.5 c);
  Alcotest.(check (array (float 1e-6)))
    "beta scaling only" [| 0.5; 1.0; 1.5; 2.0 |] (Tensor.to_array c)

(* The determinism contract: outputs are bit-identical for every lane
   count, including counts that do not divide the panel grid. *)
let test_bit_identity_across_domains () =
  let rng = Prng.create 77 in
  let m = 37 and k = 300 and n = 29 in
  let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| k; n |] in
  let at d =
    Dpool.with_domains d (fun () ->
        with_forced_tiled (fun () ->
            let c = Tensor.zeros [| m; n |] in
            Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c;
            Tensor.to_array c))
  in
  let base = at 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d bit-identical to serial" d)
        true
        (Array.for_all2 Float.equal base (at d)))
    [ 2; 3; 8 ]

let test_bit_identity_transposed () =
  let rng = Prng.create 78 in
  let m = 24 and k = 129 and n = 31 in
  let a_t = Tensor.randn rng [| k; m |] and b_t = Tensor.randn rng [| n; k |] in
  let at d =
    Dpool.with_domains d (fun () ->
        with_forced_tiled (fun () ->
            let c = Tensor.zeros [| m; n |] in
            Blas.gemm ~trans_a:true ~trans_b:true ~alpha:(-1.5) ~a:a_t ~b:b_t
              ~beta:0.0 c;
            Tensor.to_array c))
  in
  let base = at 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d (transposed) bit-identical" d)
        true
        (Array.for_all2 Float.equal base (at d)))
    [ 2; 3; 8 ]

(* The two kernels must agree to float tolerance (they sum in different
   orders, so bit-identity between them is not expected or required). *)
let test_reference_vs_tiled () =
  let rng = Prng.create 79 in
  let m = 33 and k = 200 and n = 17 in
  let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| k; n |] in
  let under kernel =
    let k0 = Blas.kernel () in
    Blas.set_kernel kernel;
    Fun.protect
      ~finally:(fun () -> Blas.set_kernel k0)
      (fun () ->
        let c = Tensor.zeros [| m; n |] in
        Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c;
        Tensor.to_array c)
  in
  Alcotest.(check bool)
    "reference and tiled agree" true
    (close ~tol:1e-4 (under Blas.Reference) (under Blas.Tiled))

(* --- prepacked weights --- *)

(* Blas.Packed against Blas.gemm ~alpha:1 ~beta:0 with the activation
   applied to B first, exactly as the tape materialises it: bitwise, on
   both sides of the small-product cutoff, at 1 and 4 domains. B carries
   signed zeros and A a zero row pair, to reach the leaky activation's
   zero-sign difference and the row kernel's zero skip. *)
let packed_matches_gemm ~m ~k ~n ~trans ~act seed =
  let rng = Prng.create seed in
  let w = Tensor.randn rng (if trans then [| k; m |] else [| m; k |]) in
  if m >= 2 then
    for p = 0 to k - 1 do
      for i = 0 to 1 do
        Tensor.set w (if trans then (p * m) + i else (i * k) + p) 0.0
      done
    done;
  let b = Tensor.randn rng [| k; n |] in
  for j = 0 to Tensor.numel b - 1 do
    if j mod 7 = 0 then Tensor.set b j (-0.0) else if j mod 11 = 0 then Tensor.set b j 0.0
  done;
  let tape_act =
    match act with
    | Blas.No_act -> Tensor.copy b
    | Blas.Relu -> Tensor.map (fun x -> Float.max 0.0 x) b
    | Blas.Leaky s -> Tensor.map (fun x -> if x > 0.0 then x else s *. x) b
  in
  let want = Tensor.create [| m; n |] in
  Blas.gemm ~trans_a:trans ~alpha:1.0 ~a:w ~b:tape_act ~beta:0.0 want;
  let p = Blas.Packed.pack ~trans w in
  List.for_all
    (fun d ->
      let got = Tensor.randn rng [| m; n |] in
      Dpool.with_domains d (fun () -> Blas.Packed.gemm ~act ~a:p ~b got);
      Array.map Int32.bits_of_float (Tensor.to_array got)
      = Array.map Int32.bits_of_float (Tensor.to_array want))
    [ 1; 4 ]

let acts = [ Blas.No_act; Blas.Relu; Blas.Leaky 0.2 ]

let test_packed_ragged_shapes () =
  List.iter
    (fun (m, k, n) ->
      List.iter
        (fun trans ->
          List.iteri
            (fun ai act ->
              Alcotest.(check bool)
                (Printf.sprintf "%dx%d by %dx%d, trans %b, act %d (%s path)" m k k n trans ai
                   (if Blas.is_small ~m ~k ~n then "small" else "packed"))
                true
                (packed_matches_gemm ~m ~k ~n ~trans ~act (m + k + n)))
            acts)
        [ false; true ])
    [
      (* under the small-product cutoff, one of them deeper than a KC block *)
      (3, 7, 5);
      (6, 300, 2);
      (* m not a multiple of 4, k > 256, n > 256, and 1-wide edges *)
      (33, 300, 17);
      (130, 20, 300);
      (5, 600, 257);
      (129, 513, 1);
      (2048, 160, 1);
      (16, 32, 1024);
    ]

let test_packed_random =
  QCheck.Test.make ~name:"packed gemm = gemm bitwise (random shapes, trans, act)" ~count:40
    QCheck.(
      make
        Gen.(
          tup4
            (tup3 (int_range 1 70) (int_range 1 300) (int_range 1 70))
            bool (oneofl acts) (int_range 0 1_000_000)))
    (fun ((m, k, n), trans, act, seed) -> packed_matches_gemm ~m ~k ~n ~trans ~act seed)

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "blas-tiled",
    [
      qc test_tiled_matches_naive;
      Alcotest.test_case "edge shapes x all transposes" `Quick test_edge_shapes;
      Alcotest.test_case "alpha=0 short circuit" `Quick test_alpha_zero_short_circuit;
      Alcotest.test_case "bit identity across domains" `Quick
        test_bit_identity_across_domains;
      Alcotest.test_case "bit identity (transposed, negative alpha)" `Quick
        test_bit_identity_transposed;
      Alcotest.test_case "reference vs tiled tolerance" `Quick test_reference_vs_tiled;
      Alcotest.test_case "packed gemm = gemm bitwise (ragged shapes)" `Quick
        test_packed_ragged_shapes;
      qc test_packed_random;
    ] )
