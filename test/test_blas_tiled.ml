(* The tiled/packed GEMM against the naive reference: randomized shapes,
   every transpose combination, alpha/beta corner values, and bit-identity
   across domain counts.

   Shapes are deliberately ragged (primes, 1-wide edges) and the small-GEMM
   cutoff is forced to 0 so every case exercises the packed panels and the
   partial tiles of the register kernels, not the serial fallback. *)

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
   both sides of the small-product cutoff, at 1 and 4 domains, with the
   panels in storage of their own ([pack]) and in a workspace borrow
   ([with_packed], as the tape's convolutions pack). B carries signed zeros
   and A a zero row pair, to reach the leaky activation's zero-sign
   difference and the row kernel's zero skip. *)
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
  let with_own f = f (Blas.Packed.pack ~trans w) in
  List.for_all
    (fun packing ->
      List.for_all
        (fun d ->
          let got = Tensor.randn rng [| m; n |] in
          Dpool.with_domains d (fun () ->
              packing (fun p -> Blas.Packed.gemm ~act ~a:p ~b got));
          Array.map Int32.bits_of_float (Tensor.to_array got)
          = Array.map Int32.bits_of_float (Tensor.to_array want))
        [ 1; 4 ])
    [ with_own; Blas.Packed.with_packed ~trans w ]

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

(* --- the kernel's arithmetic, bit for bit ---

   A scalar oracle of the tiled kernel's exact arithmetic. C is first set
   from beta: 0 when beta = 0, otherwise f32(beta c) unless beta = 1 (and
   alpha = 0 stops there). Then, for each 256-deep block, a double
   accumulator starts at +0.0 and adds f32(alpha op(A)[i,p]) * op(B)[p,j]
   in p order, and C[i,j] <- f32(C[i,j] + acc). The product of two float32
   values is exact in a double, so what the oracle pins is the order of
   the additions and where each block lands. *)

let f32 x = Int32.float_of_bits (Int32.bits_of_float x)
let bits t = Array.map Int32.bits_of_float (Tensor.to_array t)

(* [a] is op(A) (m x k) and [b] op(B) (k x n), row-major. *)
let oracle ~alpha a b ~beta c0 ~m ~k ~n =
  let c =
    Array.map (fun v -> if beta = 0.0 then 0.0 else if beta = 1.0 then v else f32 (beta *. v)) c0
  in
  if alpha <> 0.0 then
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let p0 = ref 0 in
        while !p0 < k do
          let acc = ref 0.0 in
          for p = !p0 to min k (!p0 + 256) - 1 do
            acc := !acc +. (f32 (alpha *. a.((i * k) + p)) *. b.((p * n) + j))
          done;
          c.((i * n) + j) <- f32 (c.((i * n) + j) +. !acc);
          p0 := !p0 + 256
        done
      done
    done;
  Array.map Int32.bits_of_float c

(* Random op(A) and op(B) with cancelling spikes. At about one depth in
   eight, depths p and p + 1 share a B row scaled by 2^40 and carry an A
   column and its negation, so their two products cancel exactly, but
   only after the running sum has been rounded at the spike's magnitude.
   A kernel that adds the two products together before adding them to
   the running sum keeps bits that the oracle's sum loses, and the
   difference survives the float32 rounding; on plain random operands
   the rounding hides it. The two B rows stay equal under any
   activation. *)
let spiked rng ~m ~k ~n =
  let a = Tensor.to_array (Tensor.randn rng [| m; k |]) in
  let b = Tensor.to_array (Tensor.randn rng [| k; n |]) in
  let p = ref 0 in
  while !p + 1 < k do
    if Prng.int rng 8 = 0 then begin
      for j = 0 to n - 1 do
        let v = Float.ldexp b.((!p * n) + j) 40 in
        b.((!p * n) + j) <- v;
        b.(((!p + 1) * n) + j) <- v
      done;
      for i = 0 to m - 1 do
        a.((i * k) + !p + 1) <- -.a.((i * k) + !p)
      done;
      p := !p + 2
    end
    else incr p
  done;
  (a, b)

(* A row-major [rows x cols] matrix as a tensor, stored transposed when
   [trans]. *)
let stored ~trans x ~rows ~cols =
  if trans then
    Tensor.of_array [| cols; rows |]
      (Array.init (rows * cols) (fun q -> x.(((q mod rows) * cols) + (q / rows))))
  else Tensor.of_array [| rows; cols |] x

let gemm_is_oracle ~m ~k ~n ~trans_a ~trans_b ~alpha ~beta seed =
  let rng = Prng.create seed in
  let a, b = spiked rng ~m ~k ~n in
  let c0 = Tensor.randn rng [| m; n |] in
  let want = oracle ~alpha a b ~beta (Tensor.to_array c0) ~m ~k ~n in
  let a = stored ~trans:trans_a a ~rows:m ~cols:k and b = stored ~trans:trans_b b ~rows:k ~cols:n in
  List.for_all
    (fun d ->
      let c = Tensor.copy c0 in
      Dpool.with_domains d (fun () ->
          with_forced_tiled (fun () -> Blas.gemm ~trans_a ~trans_b ~alpha ~a ~b ~beta c));
      bits c = want)
    [ 1; 4 ]

(* [Packed.gemm ~act] is the oracle at alpha = 1, beta = 0 on f32(act(B)),
   with the activations as the tape defines them. *)
let packed_is_oracle ~m ~k ~n ~trans ~act seed =
  let rng = Prng.create seed in
  let w, b = spiked rng ~m ~k ~n in
  let ab =
    match act with
    | Blas.No_act -> b
    | Blas.Relu -> Array.map (fun x -> Float.max 0.0 x) b
    | Blas.Leaky s -> Array.map (fun x -> f32 (if x > 0.0 then x else s *. x)) b
  in
  let want = oracle ~alpha:1.0 w ab ~beta:0.0 (Array.make (m * n) 0.0) ~m ~k ~n in
  let p = Blas.Packed.pack ~trans (stored ~trans w ~rows:m ~cols:k) in
  let b = Tensor.of_array [| k; n |] b in
  List.for_all
    (fun d ->
      let c = Tensor.randn rng [| m; n |] in
      Dpool.with_domains d (fun () ->
          with_forced_tiled (fun () -> Blas.Packed.gemm ~act ~a:p ~b c));
      bits c = want)
    [ 1; 4 ]

let alpha_betas = [| (1.0, 0.0); (1.0, 1.0); (0.0, 1.0); (0.7, 0.5); (-1.5, 1.0); (2.0, -0.5) |]

(* Every n that picks a different set of tiles for the last panel (a 4x1,
   a 4x2, a 4x2 and a 4x1, two 4x2s, a full panel then a 4x1, and a lone
   column in a second NC block), m off the 4-row panels and past one
   64-row MC block, k odd and on both sides of each block boundary. *)
let edge_shapes =
  let ms = [| 1; 2; 3; 5; 6; 7; 13; 67 |] in
  List.concat_map
    (fun n ->
      List.map (fun k -> (n, k)) [ 1; 2; 3; 255; 256; 257; 511; 512; 513 ])
    [ 1; 2; 3; 4; 5; 257 ]
  |> List.mapi (fun i (n, k) -> (i, (ms.(i mod Array.length ms), k, n)))

let test_gemm_oracle_edges () =
  List.iter
    (fun (i, (m, k, n)) ->
      let trans_a = i land 1 = 1 and trans_b = i land 2 = 2 in
      let alpha, beta = alpha_betas.(i mod Array.length alpha_betas) in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d k=%d n=%d ta=%b tb=%b alpha=%g beta=%g" m k n trans_a trans_b alpha
           beta)
        true
        (gemm_is_oracle ~m ~k ~n ~trans_a ~trans_b ~alpha ~beta (m + (13 * k) + (101 * n))))
    edge_shapes

let test_packed_oracle_edges () =
  List.iter
    (fun (i, (m, k, n)) ->
      let trans = i land 1 = 1 and act = List.nth acts (i mod 3) in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d k=%d n=%d trans=%b act %d" m k n trans (i mod 3))
        true
        (packed_is_oracle ~m ~k ~n ~trans ~act (m + (7 * k) + (31 * n))))
    edge_shapes

let oracle_shape_gen = QCheck.Gen.(tup3 (int_range 1 37) (int_range 1 600) (int_range 1 37))

let test_gemm_oracle_random =
  QCheck.Test.make ~name:"tiled gemm = scalar oracle bitwise (random shapes, 1 and 4 domains)"
    ~count:100
    (QCheck.make
       QCheck.Gen.(tup4 oracle_shape_gen (tup2 bool bool) alpha_beta_gen (int_range 0 1_000_000))
       ~print:(fun ((m, k, n), (ta, tb), (al, be), seed) ->
         Printf.sprintf "m=%d k=%d n=%d ta=%b tb=%b alpha=%g beta=%g seed=%d" m k n ta tb al be
           seed))
    (fun ((m, k, n), (trans_a, trans_b), (alpha, beta), seed) ->
      gemm_is_oracle ~m ~k ~n ~trans_a ~trans_b ~alpha ~beta seed)

let test_packed_oracle_random =
  QCheck.Test.make ~name:"packed gemm = scalar oracle bitwise (random shapes, trans, act)"
    ~count:40
    QCheck.(make Gen.(tup4 oracle_shape_gen bool (oneofl acts) (int_range 0 1_000_000)))
    (fun ((m, k, n), trans, act, seed) -> packed_is_oracle ~m ~k ~n ~trans ~act seed)

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
      qc test_gemm_oracle_random;
      Alcotest.test_case "tiled gemm = scalar oracle bitwise (edge shapes)" `Quick
        test_gemm_oracle_edges;
      qc test_packed_oracle_random;
      Alcotest.test_case "packed gemm = scalar oracle bitwise (edge shapes)" `Quick
        test_packed_oracle_edges;
    ] )
