(* Tensor storage and elementwise/reduction/structure operations. *)

let feq = Alcotest.(check (float 1e-4))

let test_create_shape () =
  let t = Tensor.zeros [| 2; 3; 4 |] in
  Alcotest.(check int) "numel" 24 (Tensor.numel t);
  Alcotest.(check (array int)) "shape" [| 2; 3; 4 |] (Tensor.shape t);
  Alcotest.(check int) "dim" 3 (Tensor.dim t 1);
  Alcotest.check_raises "bad dims" (Invalid_argument "Tensor.create: dims must be positive")
    (fun () -> ignore (Tensor.create [| 2; 0 |]))

let test_of_array_roundtrip () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let t = Tensor.of_array [| 2; 3 |] a in
  Alcotest.(check (array (float 1e-6))) "roundtrip" a (Tensor.to_array t);
  feq "get2" 6.0 (Tensor.get2 t 1 2)

let test_view_shares () =
  let t = Tensor.zeros [| 4 |] in
  let v = Tensor.view t [| 2; 2 |] in
  Tensor.set2 v 1 1 9.0;
  feq "aliasing" 9.0 (Tensor.get t 3);
  Alcotest.check_raises "bad view" (Invalid_argument "Tensor.view: element count mismatch")
    (fun () -> ignore (Tensor.view t [| 3 |]))

let test_sub_view () =
  let t = Tensor.of_array [| 6 |] [| 0.; 1.; 2.; 3.; 4.; 5. |] in
  let v = Tensor.sub_view t ~off:2 ~shape:[| 2; 2 |] in
  feq "subview read" 3.0 (Tensor.get2 v 0 1);
  Tensor.set2 v 1 0 42.0;
  feq "subview write-through" 42.0 (Tensor.get t 4)

let test_get4 () =
  let t = Tensor.of_array [| 1; 2; 2; 2 |] [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |] in
  feq "nchw indexing" 5.0 (Tensor.get4 t 0 1 0 1);
  Tensor.set4 t 0 1 1 0 (-1.0);
  feq "set4" (-1.0) (Tensor.get t 6)

let test_elementwise () =
  let a = Tensor.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let b = Tensor.of_array [| 3 |] [| 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-6))) "add" [| 5.; 7.; 9. |] (Tensor.to_array (Tensor.add a b));
  Alcotest.(check (array (float 1e-6))) "sub" [| -3.; -3.; -3. |] (Tensor.to_array (Tensor.sub a b));
  Alcotest.(check (array (float 1e-6))) "mul" [| 4.; 10.; 18. |] (Tensor.to_array (Tensor.mul a b));
  Alcotest.(check (array (float 1e-5))) "div" [| 0.25; 0.4; 0.5 |] (Tensor.to_array (Tensor.div a b));
  Alcotest.(check (array (float 1e-6))) "scale" [| 2.; 4.; 6. |] (Tensor.to_array (Tensor.scale a 2.0));
  Alcotest.(check (array (float 1e-6))) "neg" [| -1.; -2.; -3. |] (Tensor.to_array (Tensor.neg a))

let test_inplace () =
  let a = Tensor.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let b = Tensor.of_array [| 3 |] [| 1.; 1.; 1. |] in
  Tensor.add_ a b;
  Alcotest.(check (array (float 1e-6))) "add_" [| 2.; 3.; 4. |] (Tensor.to_array a);
  Tensor.axpy ~alpha:2.0 ~x:b ~y:a;
  Alcotest.(check (array (float 1e-6))) "axpy" [| 4.; 5.; 6. |] (Tensor.to_array a);
  Tensor.clip_ a ~lo:4.5 ~hi:5.5;
  Alcotest.(check (array (float 1e-6))) "clip_" [| 4.5; 5.; 5.5 |] (Tensor.to_array a);
  Tensor.scale_ a 2.0;
  feq "scale_" 9.0 (Tensor.get a 0)

let test_size_mismatch () =
  let a = Tensor.zeros [| 3 |] and b = Tensor.zeros [| 4 |] in
  Alcotest.check_raises "add mismatch" (Invalid_argument "Tensor.add: size mismatch")
    (fun () -> ignore (Tensor.add a b))

let test_reductions () =
  let t = Tensor.of_array [| 4 |] [| 1.; -2.; 3.; 0.5 |] in
  feq "sum" 2.5 (Tensor.sum t);
  feq "mean" 0.625 (Tensor.mean t);
  feq "max" 3.0 (Tensor.max_value t);
  feq "min" (-2.0) (Tensor.min_value t)

let test_channel_mean_var () =
  (* Naive reference over a random NCHW tensor. *)
  let rng = Prng.create 11 in
  let t = Tensor.randn rng [| 2; 3; 4; 5 |] in
  let means, vars = Tensor.channel_mean_var t in
  for c = 0 to 2 do
    let acc = ref 0.0 and acc2 = ref 0.0 and count = ref 0 in
    for n = 0 to 1 do
      for h = 0 to 3 do
        for w = 0 to 4 do
          let v = Tensor.get4 t n c h w in
          acc := !acc +. v;
          acc2 := !acc2 +. (v *. v);
          incr count
        done
      done
    done;
    let m = !acc /. float_of_int !count in
    let var = (!acc2 /. float_of_int !count) -. (m *. m) in
    Alcotest.(check (float 1e-3)) "mean" m means.(c);
    Alcotest.(check (float 1e-3)) "var" var vars.(c)
  done

let test_concat_split_roundtrip =
  QCheck.Test.make ~name:"concat/split roundtrip" ~count:100
    QCheck.(quad (int_range 1 3) (int_range 1 4) (int_range 1 4) (int_range 1 5))
    (fun (n, ca, cb, h) ->
      let rng = Prng.create (n + (ca * 10) + (cb * 100) + (h * 1000)) in
      let a = Tensor.randn rng [| n; ca; h; h |] in
      let b = Tensor.randn rng [| n; cb; h; h |] in
      let joined = Tensor.concat_channels a b in
      let a', b' = Tensor.split_channels joined ca in
      Tensor.to_array a = Tensor.to_array a' && Tensor.to_array b = Tensor.to_array b')

let test_slice_stack () =
  let rng = Prng.create 13 in
  let a = Tensor.randn rng [| 2; 3 |] in
  let b = Tensor.randn rng [| 1; 3 |] in
  let s = Tensor.stack_batch [ a; b ] in
  Alcotest.(check (array int)) "stacked shape" [| 3; 3 |] (Tensor.shape s);
  let back = Tensor.slice_batch s 0 2 in
  Alcotest.(check (array (float 1e-6))) "slice back" (Tensor.to_array a) (Tensor.to_array back);
  let last = Tensor.slice_batch s 2 1 in
  Alcotest.(check (array (float 1e-6))) "slice last" (Tensor.to_array b) (Tensor.to_array last)

let test_map_fold () =
  let t = Tensor.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let sq = Tensor.map (fun v -> v *. v) t in
  Alcotest.(check (array (float 1e-6))) "map" [| 1.; 4.; 9. |] (Tensor.to_array sq);
  feq "fold" 6.0 (Tensor.fold ( +. ) 0.0 t);
  let m2 = Tensor.map2 (fun a b -> a +. (2.0 *. b)) t sq in
  Alcotest.(check (array (float 1e-6))) "map2" [| 3.; 10.; 21. |] (Tensor.to_array m2)

let test_randn_deterministic () =
  let a = Tensor.randn (Prng.create 5) [| 10 |] in
  let b = Tensor.randn (Prng.create 5) [| 10 |] in
  Alcotest.(check (array (float 0.0))) "same seed same tensor" (Tensor.to_array a) (Tensor.to_array b)

let test_dpool_matches_serial =
  QCheck.Test.make ~name:"parallel_map_array = Array.map" ~count:30
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(0 -- 50) int))
    (fun (domains, xs) ->
      let a = Array.of_list xs in
      Dpool.parallel_map_array ~domains (fun x -> (x * 7) + 1) a
      = Array.map (fun x -> (x * 7) + 1) a)

let test_dpool_recommended () =
  Alcotest.(check bool) "at least one domain" true (Dpool.recommended () >= 1)

(* CRC-32/IEEE check values: checkpoints, binary traces, the router's ring
   points and stream tokens all carry this checksum. *)
let test_crc32_check_values () =
  List.iter
    (fun (text, crc) -> Alcotest.(check int) (Printf.sprintf "%S" text) crc (Crc32.digest text))
    [
      ("", 0);
      ("a", 0xE8B7BE43);
      ("abc", 0x352441C2);
      ("123456789", 0xCBF43926);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
    ]

let test_crc32_single_bit_flip =
  QCheck.Test.make ~name:"Crc32 detects every single-bit flip" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 64)) small_nat)
    (fun (s, k) ->
      let bit = k mod (8 * String.length s) in
      let b = Bytes.of_string s in
      Bytes.set b (bit / 8) (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
      Crc32.digest (Bytes.to_string b) <> Crc32.digest s)

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "tensor",
    [
      Alcotest.test_case "create/shape" `Quick test_create_shape;
      Alcotest.test_case "of_array roundtrip" `Quick test_of_array_roundtrip;
      Alcotest.test_case "view shares storage" `Quick test_view_shares;
      Alcotest.test_case "sub_view" `Quick test_sub_view;
      Alcotest.test_case "nchw get4/set4" `Quick test_get4;
      Alcotest.test_case "elementwise" `Quick test_elementwise;
      Alcotest.test_case "in-place ops" `Quick test_inplace;
      Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
      Alcotest.test_case "reductions" `Quick test_reductions;
      Alcotest.test_case "channel_mean_var vs naive" `Quick test_channel_mean_var;
      Alcotest.test_case "slice/stack batch" `Quick test_slice_stack;
      Alcotest.test_case "map/fold/map2" `Quick test_map_fold;
      Alcotest.test_case "randn determinism" `Quick test_randn_deterministic;
      Alcotest.test_case "dpool recommended" `Quick test_dpool_recommended;
      Alcotest.test_case "crc32 check values" `Quick test_crc32_check_values;
      qc test_concat_split_roundtrip;
      qc test_dpool_matches_serial;
      qc test_crc32_single_bit_flip;
    ] )
