type prediction = {
  benchmark : string;
  cache : Cache.config;
  level : Hierarchy.level;
  true_hit_rate : float;
  predicted_hit_rate : float;
  synthetic : Tensor.t list;
}

type generator = {
  forward : ?cache_params:Tensor.t -> Tensor.t -> Tensor.t;
  image_size : int;
  uses_cache_params : bool;
}

(* Every learned backend runs a compiled program through the one
   interpreter: the float models compile to float32 programs (bit-identical
   to their eval-mode tape forwards), the int8 backends are int8 programs. *)
let of_qgen q =
  {
    forward = (fun ?cache_params x -> Qgen.forward q ?cache_params x);
    image_size = Qgen.image_size q;
    uses_cache_params = Qgen.uses_cache_params q;
  }

let of_cbgan model = of_qgen (Qgen.float_of_model model)
let of_student s = of_qgen (Qgen.float_of_student s)

let rec chunks n = function
  | [] -> []
  | xs -> List.filteri (fun i _ -> i < n) xs :: chunks n (List.filteri (fun i _ -> i >= n) xs)

(* Flatten every request's windows into one (cache, image) stream; the
   conditioning tensor carries one row per sample, so windows of requests
   with different cache geometries share a forward pass. Every program is
   per-sample independent (running-stats batch norm, one GEMM per sample),
   so the results are bit-identical to scoring each request alone, at any
   batch size and on any number of domains. *)
let run g spec ?(batch_size = 8) ?domains items =
  if batch_size <= 0 then invalid_arg "Cbox_infer.run: batch_size must be positive";
  let h = g.image_size in
  let run_batch batch =
    let x = Cbox_dataset.batch_images spec (List.map snd batch) in
    let cache_params =
      if g.uses_cache_params then Some (Cbgan.cache_params_tensor (List.map fst batch))
      else None
    in
    let out = g.forward ?cache_params x in
    List.mapi
      (fun i _ ->
        Cbox_dataset.denormalize spec (Tensor.view (Tensor.slice_batch out i 1) [| h; h |]))
      batch
  in
  let flat =
    List.concat_map (fun (cache, imgs) -> List.map (fun img -> (cache, img)) imgs) items
  in
  let outputs =
    Dpool.parallel_map_array ?domains run_batch (Array.of_list (chunks batch_size flat))
    |> Array.to_list |> List.concat
  in
  (* Unflatten back to one synthetic list per request, preserving order. *)
  let rec split outs = function
    | [] -> []
    | (_, imgs) :: rest ->
      let k = List.length imgs in
      List.filteri (fun i _ -> i < k) outs :: split (List.filteri (fun i _ -> i >= k) outs) rest
  in
  split outputs items

let run_one g spec ?batch_size ?domains ~cache access_heatmaps =
  List.hd (run g spec ?batch_size ?domains [ (cache, access_heatmaps) ])

let synthesize model = run_one (of_cbgan model)
let qsynthesize q = run_one (of_qgen q)
let ssynthesize s = run_one (of_student s)

let validate_hit_rate ?(lo = -0.25) ?(hi = 1.25) raw =
  if Float.is_nan raw then Error "hit rate is NaN"
  else if raw = Float.infinity || raw = Float.neg_infinity then
    Error "hit rate is infinite"
  else if raw < lo || raw > hi then
    Error (Printf.sprintf "hit rate %g outside plausible range [%g, %g]" raw lo hi)
  else Ok (Float.max 0.0 (Float.min 1.0 raw))

type backend =
  | Backend_float32
  | Backend_int8
  | Backend_student
  | Backend_student_int8
  | Backend_hrd
  | Backend_stm

let backend_name = function
  | Backend_float32 -> "float32"
  | Backend_int8 -> "int8"
  | Backend_student -> "student"
  | Backend_student_int8 -> "student-int8"
  | Backend_hrd -> "hrd"
  | Backend_stm -> "stm"

let backends =
  [ Backend_float32; Backend_int8; Backend_student; Backend_student_int8; Backend_hrd;
    Backend_stm ]

let backend_of_string s = List.find_opt (fun b -> backend_name b = s) backends

type fallback = No_fallback | Fallback_hrd | Fallback_stm

let fallback_name = function
  | No_fallback -> "none"
  | Fallback_hrd -> "hrd"
  | Fallback_stm -> "stm"

let fallback_of_string = function
  | "none" -> Some No_fallback
  | "hrd" -> Some Fallback_hrd
  | "stm" -> Some Fallback_stm
  | _ -> None

let baseline_hit_rate fallback cache trace =
  match fallback with
  | No_fallback -> None
  | Fallback_hrd -> Some (Hrd.predict_l1 cache trace)
  | Fallback_stm -> Some (Stm.predict cache trace)

let predict g spec ?batch_size (data : Cbox_dataset.benchmark_data) =
  let access = List.map fst data.pairs in
  let synthetic = run_one g spec ?batch_size ~cache:data.cache access in
  let predicted = Heatmap.hit_rate spec ~access ~miss:synthetic in
  {
    benchmark = data.workload.Workload.name;
    cache = data.cache;
    level = data.level;
    true_hit_rate = data.true_hit_rate;
    predicted_hit_rate = Float.max 0.0 (Float.min 1.0 predicted);
    synthetic;
  }

let predict_all g spec ?batch_size data = List.map (predict g spec ?batch_size) data

let abs_pct_diff p =
  Metrics.abs_pct_diff ~truth:p.true_hit_rate ~predicted:p.predicted_hit_rate
