(* The traced run's per-layer sweep: each layer timed from outside through
   its public functions, on the traces of the workload being run. Forward
   cost does not depend on the input, so the forward rows agree across
   workloads; the cachesim, heatmap and baseline rows follow each
   workload's traces. FLOP counts come from the GEMM shapes. *)

open Bench_common

let spec = Bench_inputs.spec
let l1 = Experiments.l1_64s12w

(* Median of at least [min_reps] calls, and of as many as fit in [budget]
   seconds — short calls are repeated enough to steady them — scaled to
   the host's undisturbed speed like the end-to-end timings. *)
let probe ?(min_reps = 3) ?(budget = 0.2) f =
  let before = reference_time () in
  let t_end = now () +. budget in
  let rec go acc k =
    let (), dt = time f in
    let acc = dt :: acc in
    if k + 1 >= min_reps && now () >= t_end then Bstats.median acc else go acc (k + 1)
  in
  let t = go [] 0 in
  t *. scale ~before ~after:(reference_time ())

(* Enough of the inputs for steady timings without dominating the run. *)
let take_accesses limit inputs =
  let rec go acc n = function
    | [] -> List.rev acc
    | tr :: rest -> if n >= limit then List.rev acc else go (tr :: acc) (n + Array.length tr) rest
  in
  go [] 0 (Array.to_list inputs)

let total l = float_of_int (List.fold_left (fun n tr -> n + Array.length tr) 0 l)

let cachesim traces =
  let h = Bench_offline.hierarchy () in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun tr ->
      List.iter
        (fun (k, v) -> Hashtbl.replace counts k (v + Option.value (Hashtbl.find_opt counts k) ~default:0))
        (Bench_offline.level_counts (Bench_offline.simulate h tr)))
    traces;
  let n = total traces in
  let hier =
    probe (fun () ->
        List.iter
          (fun tr ->
            Hierarchy.reset h;
            Hierarchy.run h tr)
          traces)
  in
  let l1_time =
    probe (fun () ->
        List.iter
          (fun tr ->
            let c = Cache.create l1 in
            Array.iter (fun a -> ignore (Cache.access c a)) tr)
          traces)
  in
  [
    metric "cachesim.hierarchy_ns_per_access" "ns" (1e9 *. hier /. n);
    metric "cachesim.l1_ns_per_access" "ns" (1e9 *. l1_time /. n);
  ]
  @ List.map
      (fun (k, _) ->
        metric ("cachesim." ^ k) "count"
          (float_of_int (Option.value (Hashtbl.find_opt counts k) ~default:0)))
      Bench_offline.golden_counts

let heatmaps traces =
  let usable = List.filter (fun tr -> Array.length tr >= Heatmap.accesses_per_image spec) traces in
  let of_trace = probe (fun () -> List.iter (fun tr -> ignore (Heatmap.of_trace spec tr)) usable) in
  let imgs = List.concat_map (Heatmap.of_trace spec) usable in
  let hr = probe (fun () -> ignore (Heatmap.hit_rate spec ~access:imgs ~miss:imgs)) in
  ( [
      metric "heatmap.of_trace_ns_per_access" "ns" (1e9 *. of_trace /. total usable);
      metric "heatmap.hit_rate_us_per_image" "us" (1e6 *. hr /. float_of_int (List.length imgs));
    ],
    imgs )

let backends () =
  let teacher = Bench_offline.load_teacher () and student = Bench_offline.load_student () in
  [
    ("cbgan", Bench_offline.Float32 teacher);
    ("qgen", Bench_offline.Int8 (Qgen.of_model ~spec teacher));
    ("student", Bench_offline.Student student);
    ("qgen_student", Bench_offline.Student_int8 (Qgen.of_student ~spec student));
  ]

(* Direct forwards at batch 1 and 8, and the Cbox_infer plumbing around
   them: the batch-8 pipeline minus the batch-8 forward, per image, timed
   in alternating pairs so drift on a shared host cancels. *)
let forwards imgs8 =
  let x n = Cbox_dataset.batch_images spec (List.filteri (fun i _ -> i < n) imgs8) in
  let cp n = Cbgan.cache_params_tensor (List.init n (fun _ -> l1)) in
  let x1 = x 1 and x8 = x 8 and cp1 = cp 1 and cp8 = cp 8 in
  List.concat_map
    (fun (layer, m) ->
      Bench_offline.check_golden_forward m;
      let b1 = probe (fun () -> ignore (Bench_offline.forward m ~cache_params:cp1 x1)) in
      let before = reference_time () in
      let t_end = now () +. 0.3 in
      let rec pairs acc =
        let (), fwd = time (fun () -> ignore (Bench_offline.forward m ~cache_params:cp8 x8)) in
        let (), pipe =
          time (fun () -> ignore (Bench_offline.synthesize m ~batch_size:8 ~cache:l1 imgs8))
        in
        let acc = (fwd, pipe -. fwd) :: acc in
        if List.length acc >= 2 && now () >= t_end then acc else pairs acc
      in
      let raw = pairs [] in
      let s = scale ~before ~after:(reference_time ()) in
      let ps = List.map (fun (f, d) -> (f *. s, d *. s)) raw in
      let backend = String.map (fun c -> if c = '-' then '_' else c) (Bench_offline.learned_name m) in
      [
        metric (layer ^ ".fwd_ms_per_image.b1") "ms" (1000.0 *. b1);
        metric (layer ^ ".fwd_ms_per_image.b8") "ms" (1000.0 *. Bstats.median (List.map fst ps) /. 8.0);
        metric ("cbox_infer." ^ backend ^ ".plumbing_ms_per_image") "ms"
          (1000.0 *. Bstats.median (List.map snd ps) /. 8.0);
      ])
    (backends ())

(* GEMMs at the generator's shapes for a batch of 8 under the wide-batch
   lowering: the first encoder conv ([16 x 16] weights against 8 x 32 x 32
   columns), a middle one (level 3: [128 x 1024] against 8 x 4 x 4), and
   the first conv's weight gradient (transposed operand). *)
let gemms () =
  let rng = Prng.create 45 in
  let gflops ~m ~k ~n f = 2.0 *. float_of_int (m * k * n) /. probe f /. 1e9 in
  let float_gemm ~m ~k ~n =
    let a = Tensor.randn rng [| m; k |] and b = Tensor.randn rng [| k; n |] in
    let c = Tensor.zeros [| m; n |] in
    gflops ~m ~k ~n (fun () -> Blas.gemm ~alpha:1.0 ~a ~b ~beta:0.0 c)
  in
  let down0 = float_gemm ~m:16 ~k:16 ~n:8192 in
  let mid = float_gemm ~m:128 ~k:1024 ~n:128 in
  let int8_down0 =
    let a = Tensor.randn rng [| 16; 16 |] and b = Tensor.randn rng [| 16; 8192 |] in
    let c = Tensor.zeros [| 16; 8192 |] in
    let qa = Blas.Int8.quantize a and act_scale = Quant.scale_of_amax (Quant.amax b) in
    gflops ~m:16 ~k:16 ~n:8192 (fun () -> Blas.Int8.gemm ~a:qa ~act_scale ~b c)
  in
  let wgrad =
    let dy = Tensor.randn rng [| 16; 8192 |] and cols = Tensor.randn rng [| 16; 8192 |] in
    let dw = Tensor.zeros [| 16; 16 |] in
    gflops ~m:16 ~k:8192 ~n:16 (fun () ->
        Blas.gemm ~trans_b:true ~alpha:1.0 ~a:dy ~b:cols ~beta:0.0 dw)
  in
  [
    metric "blas.gemm_gflops.unet_down0" "GFLOP/s" down0;
    metric "blas.gemm_gflops.unet_mid" "GFLOP/s" mid;
    metric "blas.int8_gemm_gops.unet_down0" "GOP/s" int8_down0;
    metric "blas.gemm_gflops.wgrad_unet_down0" "GFLOP/s" wgrad;
  ]

let baselines traces =
  let small = take_accesses 100_000 (Array.of_list traces) in
  let n = total small in
  let hrd = probe (fun () -> List.iter (fun tr -> ignore (Hrd.predict_l1 l1 tr)) small) in
  let stm = probe ~min_reps:1 (fun () -> List.iter (fun tr -> ignore (Stm.predict l1 tr)) small) in
  [
    metric "hrd.ns_per_access" "ns" (1e9 *. hrd /. n);
    metric "stm.ns_per_access" "ns" (1e9 *. stm /. n);
  ]

(* Request lines as the serve workloads send them, cut from these traces:
   the mix's backends, one heatmap's worth of accesses each. *)
let request_lines traces =
  let len = Bench_inputs.request_len in
  let mix =
    Array.of_list
      (List.concat_map (fun (b, w) -> List.init w (fun _ -> b)) Bench_inputs.backend_mix)
  in
  List.filter (fun tr -> Array.length tr >= len) traces
  |> List.filteri (fun i _ -> i < 16)
  |> List.mapi (fun i tr ->
         let sets, ways = Bench_inputs.geometries.(i mod Array.length Bench_inputs.geometries) in
         Bench_inputs.request_line
           {
             Bench_inputs.index = i;
             sets;
             ways;
             backend = mix.(i mod Array.length mix);
             trace = Array.sub tr 0 len;
             origin = i;
           })

let serving lines =
  let bytes = float_of_int (List.fold_left (fun n l -> n + String.length l) 0 lines) in
  let parse = probe (fun () -> List.iter (fun l -> ignore (Sjson.parse l)) lines) in
  let engine =
    Serve_engine.create ~spec ~model:(Some (Bench_offline.load_teacher ()))
      ~student_path:(Lazy.force Bench_offline.student_ckpt)
      (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ())
  in
  let items lines =
    List.filter_map
      (fun l ->
        match Serve_engine.classify_line engine l with
        | Serve_engine.Batchable it -> Some it
        | _ -> None)
      lines
  in
  let classify = probe (fun () -> ignore (items lines)) in
  let per_request b =
    let group = List.filteri (fun i _ -> i < b) lines in
    probe ~min_reps:2 (fun () -> ignore (Serve_engine.infer_batch engine (items group)))
    /. float_of_int (List.length group)
  in
  [
    metric "sjson.parse_us_per_kb" "us" (1e6 *. parse /. (bytes /. 1024.0));
    metric "serve_engine.classify_us" "us" (1e6 *. classify /. float_of_int (List.length lines));
  ]
  @ List.map
      (fun b ->
        metric (Printf.sprintf "serve_engine.infer_batch_ms_per_req.b%d" b) "ms"
          (1000.0 *. per_request b))
      [ 1; 2; 4; 8 ]

(* Lookups are sub-microsecond: each timed call makes [rounds] passes so
   the clock's resolution does not show in the result. *)
let routing () =
  let rounds = 1000 in
  let ring = Hash_ring.create [ "a"; "b" ] in
  let keys =
    Array.map
      (fun (sets, ways) -> Printf.sprintf "cachebox-shard/1|%ds%dw64b-lru" sets ways)
      Bench_inputs.geometries
  in
  let lookup =
    probe (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun key -> ignore (Hash_ring.lookup ring ~key)) keys
        done)
  in
  let memo = Predmemo.create ~capacity:256 in
  let mkeys = Array.init 256 (fun i -> Printf.sprintf "cachebox-predmemo/1|k%d" i) in
  Array.iter (fun k -> Predmemo.add memo k (Sjson.Obj [ ("hit_rate", Sjson.Num 1.0) ])) mkeys;
  let find =
    probe (fun () ->
        for _ = 1 to rounds / 32 do
          Array.iter (fun k -> ignore (Predmemo.find memo k)) mkeys
        done)
  in
  [
    metric "hash_ring.lookup_us" "us" (1e6 *. lookup /. float_of_int (rounds * Array.length keys));
    metric "predmemo.find_us" "us"
      (1e6 *. find /. float_of_int (rounds / 32 * Array.length mkeys));
  ]

(* The dataset builder over two of these traces, then — timed once each,
   they take seconds — one training step and its generator and
   discriminator halves (forward + backward, per sample). *)
let training traces =
  Simcache.set_dir None;
  let two = List.filteri (fun i _ -> i < 2) traces in
  let len =
    List.fold_left (fun m tr -> min m (Array.length tr)) Bench_inputs.train_trace_len two
  in
  let ws =
    List.mapi
      (fun i tr ->
        Workload.make ~name:(Printf.sprintf "input-%d" i) ~suite:Workload.Spec ~group:"input"
          (fun n -> Array.sub tr 0 n))
      two
  in
  let data = ref [] in
  let build =
    probe ~min_reps:1 (fun () -> data := Cbox_dataset.build_l1 spec ~configs:[ l1 ] ~trace_len:len ws)
  in
  let samples = Array.of_list (Cbox_dataset.to_samples !data) in
  let batch =
    List.init Bench_train.batch_size (fun i -> samples.(i mod Array.length samples))
  in
  let model = Cbgan.create ~seed:42 (Cbgan.default_config ()) in
  let options = Cbox_train.default_options ~epochs:1 ~batch_size:Bench_train.batch_size () in
  let once f = probe ~min_reps:1 ~budget:0.0 f in
  let step = once (fun () -> ignore (Cbox_train.train model spec options batch)) in
  let stack f = Cbox_dataset.batch_images spec (List.map f batch) in
  let access = stack (fun (s : Cbox_dataset.sample) -> s.access) in
  let target = stack (fun (s : Cbox_dataset.sample) -> s.target) in
  let cp =
    Cbgan.cache_params_tensor (List.map (fun (s : Cbox_dataset.sample) -> s.cache) batch)
  in
  let zero () =
    List.iter Param.zero_grad (Cbgan.generator_params model @ Cbgan.discriminator_params model)
  in
  let gen =
    once (fun () ->
        zero ();
        let fake =
          Cbgan.generator_forward model ~rng:(Prng.create 0) ~training:true ~cache_params:cp access
        in
        Value.backward (Value.l1_loss fake target))
  in
  let disc =
    once (fun () ->
        zero ();
        let d = Cbgan.discriminator_forward model ~training:true ~access ~miss:(Value.const target) in
        Value.backward (Value.bce_with_logits d (Tensor.ones (Tensor.shape (Value.value d)))))
  in
  let per_sample t = 1000.0 *. t /. float_of_int Bench_train.batch_size in
  [
    metric "cbox_dataset.build_l1_ns_per_access" "ns"
      (1e9 *. build /. float_of_int (List.length two * len));
    metric "cbox_train.step_ms" "ms" (1000.0 *. step);
    metric "cbgan.gen_fwd_bwd_ms_per_sample" "ms" (per_sample gen);
    metric "cbgan.disc_fwd_bwd_ms_per_sample" "ms" (per_sample disc);
  ]

(* [wide] is the conv lowering the workload's own path uses: the daemon
   turns the wide-batch lowering on, offline inference and training leave
   it off. Creating a Serve_engine turns it on, so it is set again after. *)
let sweep ~wide ~inputs =
  Conv.set_wide_batch wide;
  let traces = take_accesses 600_000 inputs in
  let sim = cachesim traces in
  let hm, imgs = heatmaps traces in
  let imgs8 = List.init 8 (fun i -> List.nth imgs (i mod List.length imgs)) in
  let fwd = forwards imgs8 in
  let blas = gemms () in
  let base = baselines traces in
  let serve = serving (request_lines traces) in
  Conv.set_wide_batch wide;
  sim @ hm @ fwd @ blas @ base @ serve @ routing () @ training traces
