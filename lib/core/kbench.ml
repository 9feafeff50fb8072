(* Kernel benchmark suite: old (reference) vs new (tiled+workspace) dense
   path, timed on the same machine in the same process.

   The reference configuration is the pre-tiling production setup — the
   two-row-blocked GEMM with the workspace arena disabled (fresh scratch
   allocations everywhere) — kept runtime-selectable in Blas/Workspace
   exactly so this comparison stays honest: both sides run the same repo,
   same compiler flags, same process.

   Results are recorded as speedups (ref_s / tiled_s), which is what CI
   compares against the committed BENCH_KERNELS.json baseline: absolute
   times shift with the host, relative speedups of the same two code paths
   on the same host are stable. *)

type result = {
  name : string;
  domains : int;
  ref_s : float;
  tiled_s : float;
  speedup : float;
  max_rel_err : float option;
      (* max_i |ref_i - tiled_i| / max(1, max_i |ref_i|); None when the
         benchmark has no directly comparable output (training steps). *)
}

let time ~reps f =
  (* Best-of-N: on a shared machine the minimum is the least-noisy
     estimate of the true cost. *)
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Run [f] under an explicit kernel/workspace configuration, restoring the
   ambient configuration afterwards even on exceptions. *)
let with_mode kernel ws f =
  let k0 = Blas.kernel () and w0 = Workspace.enabled () in
  Blas.set_kernel kernel;
  Workspace.set_enabled ws;
  Fun.protect
    ~finally:(fun () ->
      Blas.set_kernel k0;
      Workspace.set_enabled w0)
    f

let rel_err ~ref_out ~tiled_out =
  let a = Tensor.to_array ref_out and b = Tensor.to_array tiled_out in
  let scale = ref 1.0 in
  Array.iter (fun v -> if Float.abs v > !scale then scale := Float.abs v) a;
  let worst = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = Float.abs (v -. b.(i)) /. !scale in
      if d > !worst then worst := d)
    a;
  !worst

(* One old-vs-new measurement. [f] must return a freshly computed output
   tensor (or [None]); it runs once for warmup, then [reps] timed times,
   under each mode, inside a [domains]-lane pool. *)
let compare_modes ~name ~domains ~reps f =
  Dpool.with_domains domains (fun () ->
      let run mode ws =
        with_mode mode ws (fun () ->
            let out = ref None in
            let thunk () = out := f () in
            thunk ();
            (* warmup: pool spin-up, arena population *)
            let t = time ~reps thunk in
            (t, !out))
      in
      let ref_s, ref_out = run Blas.Reference false in
      let tiled_s, tiled_out = run Blas.Tiled true in
      let max_rel_err =
        match (ref_out, tiled_out) with
        | Some a, Some b -> Some (rel_err ~ref_out:a ~tiled_out:b)
        | _ -> None
      in
      { name; domains; ref_s; tiled_s; speedup = ref_s /. Float.max 1e-9 tiled_s;
        max_rel_err })

(* --- benchmark definitions --- *)

let gemm_bench ~name ~m ~k ~n ~domains ~reps =
  let rng = Prng.create 42 in
  let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| k; n |] in
  let c = Tensor.zeros [| m; n |] in
  compare_modes ~name ~domains ~reps (fun () ->
      Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c;
      Some (Tensor.copy c))

let conv_fwd_bench ~fast ~domains ~reps =
  let batch = 4 and ic = (if fast then 8 else 16) and oc = if fast then 16 else 32 in
  let size = if fast then 16 else 32 in
  let rng = Prng.create 43 in
  let x = Tensor.randn rng [| batch; ic; size; size |] in
  let weight = Tensor.randn rng [| oc; ic; 4; 4 |] in
  let bias = Some (Tensor.randn rng [| oc |]) in
  compare_modes
    ~name:(Printf.sprintf "conv_fwd_b%d_%dc%d_%d" batch ic oc size)
    ~domains ~reps
    (fun () -> Some (Conv.conv2d ~x ~weight ~bias ~stride:2 ~pad:1))

let conv_bwd_bench ~fast ~domains ~reps =
  let batch = 4 and ic = (if fast then 8 else 16) and oc = if fast then 16 else 32 in
  let size = if fast then 16 else 32 in
  let rng = Prng.create 44 in
  let x = Tensor.randn rng [| batch; ic; size; size |] in
  let weight = Tensor.randn rng [| oc; ic; 4; 4 |] in
  let osz = Conv.out_size ~size ~kernel:4 ~stride:2 ~pad:1 in
  let gout = Tensor.randn rng [| batch; oc; osz; osz |] in
  compare_modes
    ~name:(Printf.sprintf "conv_bwd_b%d_%dc%d_%d" batch ic oc size)
    ~domains ~reps
    (fun () ->
      let gw = Tensor.zeros [| oc; ic; 4; 4 |] in
      let gx =
        Conv.conv2d_backward ~x ~weight ~gout ~stride:2 ~pad:1 ~grad_weight:gw
          ~grad_bias:None
      in
      Some gx)

let train_step_bench ~fast ~domains =
  let spec = (Experiments.default_scale ()).Experiments.spec in
  let ws =
    List.filteri (fun i _ -> i < 1) (Suite.split (Suite.all ())).Suite.train
  in
  let data =
    Cbox_dataset.build_l1 spec ~configs:[ Experiments.l1_64s12w ]
      ~trace_len:(if fast then 4000 else 8000)
      ws
  in
  let samples = Cbox_dataset.to_samples data in
  compare_modes
    ~name:"cbgan_train_step"
    ~domains ~reps:1
    (fun () ->
      (* A fresh model per run so both modes train from the same state;
         epoch results depend only on the seed, so the measured work is
         identical apart from the kernel/workspace configuration. *)
      let model = Cbgan.create ~seed:7 (Cbgan.default_config ~ngf:8 ~ndf:8 ()) in
      let options =
        { (Cbox_train.default_options ~epochs:1 ~batch_size:4 ()) with
          Cbox_train.domains = Some domains;
        }
      in
      ignore (Cbox_train.train model spec options samples);
      None)

(* --- int8 quantized-path benchmarks ---

   Unlike compare_modes (old float path vs new float path), these compare
   the BEST float configuration (tiled kernel + workspace arena) against the
   int8 quantized path, so the reported speedup is the marginal win of
   quantization over the production float32 setup — never against a
   strawman. [ref_s] holds the float32 tiled time, [tiled_s] the int8 time,
   and [max_rel_err] the float-vs-int8 output divergence. *)
let compare_int8 ~name ~domains ~reps ~fref ~fq =
  Dpool.with_domains domains (fun () ->
      with_mode Blas.Tiled true (fun () ->
          let run f =
            let out = ref None in
            let thunk () = out := f () in
            thunk ();
            let t = time ~reps thunk in
            (t, !out)
          in
          let ref_s, ref_out = run fref in
          let q_s, q_out = run fq in
          let max_rel_err =
            match (ref_out, q_out) with
            | Some a, Some b -> Some (rel_err ~ref_out:a ~tiled_out:b)
            | _ -> None
          in
          { name; domains; ref_s; tiled_s = q_s; speedup = ref_s /. Float.max 1e-9 q_s;
            max_rel_err }))

let int8_gemm_bench ~name ~m ~k ~n ~domains ~reps =
  let rng = Prng.create 45 in
  let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| k; n |] in
  let c = Tensor.zeros [| m; n |] in
  let qa = Blas.Int8.quantize a in
  let act = Quant.scale_of_amax (Quant.amax b) in
  compare_int8 ~name ~domains ~reps
    ~fref:(fun () ->
      Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c;
      Some (Tensor.copy c))
    ~fq:(fun () ->
      Blas.Int8.gemm ~a:qa ~act_scale:act ~b c;
      Some (Tensor.copy c))

let int8_conv_bench ~fast ~domains ~reps =
  let batch = 4 and ic = (if fast then 8 else 16) and oc = if fast then 16 else 32 in
  let size = if fast then 16 else 32 in
  let rng = Prng.create 46 in
  let x = Tensor.randn rng [| batch; ic; size; size |] in
  let weight = Tensor.randn rng [| oc; ic; 4; 4 |] in
  let bias_arr = Array.init oc (fun _ -> Prng.uniform rng ~lo:(-0.5) ~hi:0.5) in
  let bias = Tensor.create [| oc |] in
  Array.iteri (Tensor.set bias) bias_arr;
  let qw = Blas.Int8.quantize ~bias:bias_arr (Tensor.view weight [| oc; ic * 4 * 4 |]) in
  let act = Quant.scale_of_amax (Quant.amax x) in
  compare_int8
    ~name:(Printf.sprintf "int8_conv_fwd_b%d_%dc%d_%d" batch ic oc size)
    ~domains ~reps
    ~fref:(fun () -> Some (Conv.conv2d ~x ~weight ~bias:(Some bias) ~stride:2 ~pad:1))
    ~fq:(fun () -> Some (Conv.conv2d_q ~x ~weight:qw ~act_scale:act ~kernel:4 ~stride:2 ~pad:1))

let with_wide f =
  let w0 = Conv.wide_batch () in
  Conv.set_wide_batch true;
  Fun.protect ~finally:(fun () -> Conv.set_wide_batch w0) f

(* --- derived-generator benchmarks ---

   Whole-generator forwards at serving shape. The reference side is the
   float32 CB-GAN teacher in its best configuration (tiled kernels,
   workspace arena, wide-batch conv), the measured side a generator derived
   from it: the int8 compile, the half-depth/half-width distilled student,
   or the student's int8 compile (the two wins compose multiplicatively in
   one row). These rows bundle the kernel wins with what derived serving
   actually ships — no autodiff tape, batch norms folded away — and are the
   ones CI's absolute [--require] gates hold. *)
type parts = {
  spec : Heatmap.spec;
  imgs : Tensor.t list;
  x : Tensor.t;
  cp : Tensor.t;
  teacher : Cbox_infer.generator;
  derived : Cbox_infer.generator;
}

let unet_parts ~fast derive =
  let spec = Heatmap.spec () in
  let cfg = Cbgan.default_config ~ngf:(if fast then 8 else 16) () in
  let teacher = Cbgan.create ~seed:9 cfg in
  let imgs = List.filteri (fun i _ -> i < 8) (Qgen.default_calib spec) in
  let caches = Array.of_list Qgen.default_calib_caches in
  let cp =
    Cbgan.cache_params_tensor
      (List.mapi (fun i _ -> caches.(i mod Array.length caches)) imgs)
  in
  {
    spec;
    imgs;
    x = Cbox_dataset.batch_images spec imgs;
    cp;
    teacher = Cbox_infer.of_cbgan teacher;
    derived = derive spec cfg teacher;
  }

let int8 spec _ teacher = Cbox_infer.of_qgen (Qgen.of_model ~spec teacher)
let seeded_student cfg = Student.create ~seed:7 (Distill.student_config cfg)
let student _ cfg _ = Cbox_infer.of_student (seeded_student cfg)
let student_int8 spec cfg _ = Cbox_infer.of_qgen (Qgen.of_student ~spec (seeded_student cfg))

let unet_bench ~name ~fast ~domains ~reps derive =
  let p = unet_parts ~fast derive in
  with_wide (fun () ->
      compare_int8 ~name ~domains ~reps
        ~fref:(fun () -> Some (p.teacher.forward ~cache_params:p.cp p.x))
        ~fq:(fun () -> Some (p.derived.forward ~cache_params:p.cp p.x)))

(* Fig-14 accuracy row: the same forward pair scored as hit rates, with
   [max_rel_err] carrying the absolute teacher-vs-derived hit-rate delta.
   CI holds it under a committed bound so an accuracy regression fails the
   same gate as a performance one. *)
let fig14_delta ~name ~fast ~domains derive =
  let p = unet_parts ~fast derive in
  let scored (g : Cbox_infer.generator) =
    let t0 = Unix.gettimeofday () in
    let y = g.forward ~cache_params:p.cp p.x in
    let dt = Unix.gettimeofday () -. t0 in
    let h = g.image_size in
    let miss =
      List.mapi
        (fun i _ ->
          Cbox_dataset.denormalize p.spec (Tensor.view (Tensor.slice_batch y i 1) [| h; h |]))
        p.imgs
    in
    (dt, Heatmap.hit_rate p.spec ~access:p.imgs ~miss)
  in
  with_wide (fun () ->
      Dpool.with_domains domains (fun () ->
          with_mode Blas.Tiled true (fun () ->
              let tf, hr_f = scored p.teacher in
              let td, hr_d = scored p.derived in
              {
                name;
                domains;
                ref_s = tf;
                tiled_s = td;
                speedup = tf /. Float.max 1e-9 td;
                max_rel_err = Some (Float.abs (hr_f -. hr_d));
              })))

let run ?(fast = Sys.getenv_opt "CACHEBOX_FAST" <> None) ?(log = fun _ -> ()) () =
  let reps = if fast then 2 else 3 in
  let dim = if fast then 96 else 256 in
  (* U-Net-shaped GEMMs: [oc x ic*k*k] times [ic*k*k x oh*ow] as lowered by
     im2col at the generator's first/middle levels, plus a square workload. *)
  let benches =
    [
      ( "gemm_unet_down",
        fun () ->
          gemm_bench ~name:"gemm_unet_down"
            ~m:(if fast then 16 else 64)
            ~k:(if fast then 128 else 1024)
            ~n:(if fast then 256 else 1024)
            ~domains:1 ~reps );
      ( "gemm_unet_mid",
        fun () ->
          gemm_bench ~name:"gemm_unet_mid"
            ~m:(if fast then 32 else 128)
            ~k:(if fast then 256 else 2048)
            ~n:(if fast then 64 else 256)
            ~domains:1 ~reps );
    ]
    @ List.map
        (fun d ->
          ( Printf.sprintf "gemm_square_%d at %d domains" dim d,
            fun () ->
              gemm_bench
                ~name:(Printf.sprintf "gemm_square_%d" dim)
                ~m:dim ~k:dim ~n:dim ~domains:d ~reps ))
        [ 1; 2; 4 ]
    @ [
        ("conv_fwd d1", fun () -> conv_fwd_bench ~fast ~domains:1 ~reps);
        ("conv_fwd d4", fun () -> conv_fwd_bench ~fast ~domains:4 ~reps);
        ("conv_bwd d1", fun () -> conv_bwd_bench ~fast ~domains:1 ~reps);
      ]
    @ List.map
        (fun d ->
          ( Printf.sprintf "cbgan_train_step at %d domains" d,
            fun () -> train_step_bench ~fast ~domains:d ))
        [ 1; 2; 4 ]
    @ [
        ( "int8_gemm_unet_down",
          fun () ->
            int8_gemm_bench ~name:"int8_gemm_unet_down"
              ~m:(if fast then 16 else 64)
              ~k:(if fast then 128 else 1024)
              ~n:(if fast then 256 else 1024)
              ~domains:1 ~reps );
        ("int8_conv_fwd d1", fun () -> int8_conv_bench ~fast ~domains:1 ~reps);
        ("int8_unet_fwd d1", fun () -> unet_bench ~name:"int8_unet_fwd" ~fast ~domains:1 ~reps int8);
        ("int8_unet_fwd d4", fun () -> unet_bench ~name:"int8_unet_fwd" ~fast ~domains:4 ~reps int8);
        ("int8_fig14_delta", fun () -> fig14_delta ~name:"int8_fig14_delta" ~fast ~domains:1 int8);
        ( "student_unet_fwd d1",
          fun () -> unet_bench ~name:"student_unet_fwd" ~fast ~domains:1 ~reps student );
        ( "student_unet_fwd d4",
          fun () -> unet_bench ~name:"student_unet_fwd" ~fast ~domains:4 ~reps student );
        ( "student_int8_fwd d1",
          fun () -> unet_bench ~name:"student_int8_fwd" ~fast ~domains:1 ~reps student_int8 );
        ( "student_fig14_delta",
          fun () -> fig14_delta ~name:"student_fig14_delta" ~fast ~domains:1 student );
      ]
  in
  List.map
    (fun (name, f) ->
      log name;
      f ())
    benches

(* --- machine-readable output ---

   Written by hand so lib/core needs no JSON dependency; the parser lives
   behind [cachebox bench] (bin/), which links the serve library's Sjson. *)

let json_of_result r =
  let err =
    match r.max_rel_err with
    | Some e -> Printf.sprintf ", \"max_rel_err\": %.9g" e
    | None -> ""
  in
  Printf.sprintf
    "    {\"name\": %S, \"domains\": %d, \"ref_s\": %.6f, \"tiled_s\": %.6f, \
     \"speedup\": %.4f%s}"
    r.name r.domains r.ref_s r.tiled_s r.speedup err

(* Provenance for a committed baseline: which commit produced it and how
   parallel the host was. Informational only — the baseline reader keys on
   "results" and ignores the rest — but it turns "why did this baseline
   move?" from archaeology into a diff. *)
let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> None
  | ic -> (
    let line = try Some (input_line ic) with End_of_file | Sys_error _ -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None
    | exception _ -> None)

let meta_json () =
  Printf.sprintf "  \"meta\": {\"git\": %s, \"host_cores\": %d},\n"
    (match git_describe () with Some g -> Printf.sprintf "%S" g | None -> "null")
    (Domain.recommended_domain_count ())

let to_json results =
  Printf.sprintf "{\n  \"version\": 1,\n%s  \"results\": [\n%s\n  ]\n}\n" (meta_json ())
    (String.concat ",\n" (List.map json_of_result results))

let write_json ~path results =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json results))

let pp_table fmt results =
  Format.fprintf fmt "  %-24s %7s %10s %10s %8s %12s@." "benchmark" "domains"
    "ref (s)" "tiled (s)" "speedup" "max rel err";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-24s %7d %10.4f %10.4f %7.2fx %12s@." r.name
        r.domains r.ref_s r.tiled_s r.speedup
        (match r.max_rel_err with
        | Some e -> Printf.sprintf "%.2e" e
        | None -> "-"))
    results
