type sample = {
  benchmark : string;
  cache : Cache.config;
  level : Hierarchy.level;
  access : Tensor.t;
  target : Tensor.t;
}

type benchmark_data = {
  workload : Workload.t;
  cache : Cache.config;
  level : Hierarchy.level;
  pairs : (Tensor.t * Tensor.t) list;
  true_hit_rate : float;
}

(* Pixel counts are mapped log-scale into [-1, 1]: count 0 sits at -1 and a
   single access already lands at ~-0.65, so the generator's tanh does not
   have to saturate to render empty background. Denormalisation inverts the
   log map and rounds, since true heatmap pixels are integral counts — this
   keeps the hit-rate sums (paper §4.4) from being polluted by a slightly
   non-zero background level. *)
let normalize (spec : Heatmap.spec) img =
  let scale = log (1.0 +. float_of_int spec.window) in
  let r = Tensor.create (Tensor.shape img) in
  let src = img.Tensor.data and dst = r.Tensor.data in
  (* A loop over the buffers, not [Tensor.map]: a closure per pixel would
     box every float of every training batch. *)
  Tensor.pfor (Tensor.numel img) (fun lo hi ->
      for i = lo to hi do
        let v = Bigarray.Array1.unsafe_get src i in
        Bigarray.Array1.unsafe_set dst i
          (Float.max (-1.0) (Float.min 1.0 ((2.0 *. log (1.0 +. v) /. scale) -. 1.0)))
      done);
  r

let denormalize (spec : Heatmap.spec) img =
  let scale = log (1.0 +. float_of_int spec.window) in
  Tensor.map
    (fun v -> Float.max 0.0 (Float.round (exp ((v +. 1.0) /. 2.0 *. scale) -. 1.0)))
    img

let batch_images spec imgs =
  match imgs with
  | [] -> invalid_arg "Cbox_dataset.batch_images: empty batch"
  | first :: _ ->
    let h = Tensor.dim first 0 and w = Tensor.dim first 1 in
    let normalized =
      List.map (fun img -> Tensor.view (normalize spec img) [| 1; 1; h; w |]) imgs
    in
    Tensor.stack_batch normalized

let hit_flags_for_config cfg trace =
  let cache = Cache.create cfg in
  Array.map (fun addr -> Cache.access cache addr) trace

let data_for ~workload ~cache ~level spec ~addresses ~hits =
  let pairs = Heatmap.pair_of_trace spec ~addresses ~hits in
  let access = List.map fst pairs and miss = List.map snd pairs in
  {
    workload;
    cache;
    level;
    pairs;
    true_hit_rate = Heatmap.hit_rate spec ~access ~miss;
  }

(* --- recorded-path reference builders ---

   These are the original (pre-streaming) implementations, kept verbatim:
   record every per-level trace, decode it, then cut heatmaps out of the
   arrays. They are the bit-identity oracle for the streaming builders below
   (property and golden tests compare against them). Always serial. *)

let build_l1_reference spec ~configs ~trace_len workloads =
  List.concat_map
    (fun w ->
      let trace = w.Workload.generate trace_len in
      List.map
        (fun cfg ->
          let hits = hit_flags_for_config cfg trace in
          data_for ~workload:w ~cache:cfg ~level:Hierarchy.L1 spec ~addresses:trace
            ~hits)
        configs)
    workloads

let build_hierarchy_reference spec ~l1 ~l2 ~l3 ~trace_len workloads =
  let config_of_level = function
    | Hierarchy.L1 -> l1
    | Hierarchy.L2 -> l2
    | Hierarchy.L3 -> l3
  in
  List.concat_map
    (fun w ->
      let trace = w.Workload.generate trace_len in
      let h = Hierarchy.create ~l2 ~l3 ~l1 () in
      Hierarchy.run h trace;
      Hierarchy.level_traces h
      |> List.filter_map (fun (lt : Hierarchy.level_trace) ->
             if Array.length lt.addresses < Heatmap.accesses_per_image spec then None
             else
               Some
                 (data_for ~workload:w ~cache:(config_of_level lt.level)
                    ~level:lt.level spec ~addresses:lt.addresses ~hits:lt.hits)))
    workloads

let build_prefetch_reference spec ~config ~kind ~trace_len workloads =
  List.map
    (fun w ->
      let trace = w.Workload.generate trace_len in
      let cache = Cache.create config in
      let pf = Prefetch.create kind in
      let n = Array.length trace in
      (* Align prefetches with the demand access that triggered them: one
         slot per access, holding the first prefetched address (next-line
         issues at most one). *)
      let pf_addr = Array.make n 0 in
      let pf_keep = Array.make n false in
      let hits = Array.make n false in
      for i = 0 to n - 1 do
        let proposals =
          Prefetch.on_access pf ~addr:trace.(i) ~block_bytes:config.Cache.block_bytes
        in
        hits.(i) <- Cache.access cache trace.(i);
        match proposals with
        | [] -> ()
        | addr :: _ ->
          pf_addr.(i) <- addr;
          pf_keep.(i) <- true;
          List.iter (Cache.insert cache) proposals
      done;
      let access = Heatmap.of_trace spec trace in
      let prefetch = Heatmap.of_trace_filtered spec ~addresses:pf_addr ~keep:pf_keep in
      let miss = Heatmap.of_trace_filtered spec ~addresses:trace
          ~keep:(Array.map not hits)
      in
      {
        workload = w;
        cache = config;
        level = Hierarchy.L1;
        pairs = List.combine access prefetch;
        true_hit_rate = Heatmap.hit_rate spec ~access ~miss;
      })
    workloads

(* --- streaming builders ---

   The production path folds every access straight into [Heatmap.Accum]
   columns as the simulator produces it: no per-level address/flag arrays,
   no decode, no second pass over the trace. Plane 0 counts every access,
   plane 1 the misses, so [deoverlapped_mass] yields the exact hit-rate
   numerator/denominator that [Heatmap.hit_rate] computes from pixels.
   Workloads fan out across the Dpool ([CACHEBOX_DOMAINS]); each lane's
   simulation is self-seeded by the workload name and results are
   concatenated in roster order, so output is bit-identical to a serial
   run at any domain count. *)

let accum_hit_rate (a : Heatmap.Accum.t) =
  let total = Heatmap.Accum.deoverlapped_mass a ~plane:0 in
  let missed = Heatmap.Accum.deoverlapped_mass a ~plane:1 in
  if total <= 0.0 then 0.0 else 1.0 -. (missed /. total)

let level_data ~workload ~cache ~level (a : Heatmap.Accum.t) =
  let access = Heatmap.Accum.images a ~plane:0 in
  let miss = Heatmap.Accum.images a ~plane:1 in
  {
    workload;
    cache;
    level;
    pairs = List.combine access miss;
    true_hit_rate = accum_hit_rate a;
  }

let parallel_build per_workload workloads =
  Dpool.parallel_map_array per_workload (Array.of_list workloads)
  |> Array.to_list |> List.concat

let build_l1 spec ~configs ~trace_len workloads =
  parallel_build
    (fun (w : Workload.t) ->
      let trace = w.Workload.generate trace_len in
      let n = Array.length trace in
      List.map
        (fun cfg ->
          let cache = Cache.create cfg in
          let acc = Heatmap.Accum.create ~planes:2 spec in
          for i = 0 to n - 1 do
            let addr = Array.unsafe_get trace i in
            let hit = Cache.access cache addr in
            Heatmap.Accum.add acc ~addr ~mask:(if hit then 1 else 3)
          done;
          level_data ~workload:w ~cache:cfg ~level:Hierarchy.L1 acc)
        configs)
    workloads

let build_hierarchy spec ~l1 ~l2 ~l3 ~trace_len workloads =
  let config_of_level = function
    | Hierarchy.L1 -> l1
    | Hierarchy.L2 -> l2
    | Hierarchy.L3 -> l3
  in
  parallel_build
    (fun (w : Workload.t) ->
      let trace = w.Workload.generate trace_len in
      let h = Hierarchy.create ~l2 ~l3 ~l1 () in
      let lvls = Hierarchy.levels h in
      let accs = Array.map (fun _ -> Heatmap.Accum.create ~planes:2 spec) lvls in
      Hierarchy.run_observed h
        ~f:(fun i addr hit ->
          Heatmap.Accum.add (Array.unsafe_get accs i) ~addr ~mask:(if hit then 1 else 3))
        trace;
      (* A deeper level whose stream never fills one image is excluded — the
         recorded path's [< accesses_per_image] filter, expressed as "zero
         completed images". *)
      List.combine (Array.to_list lvls) (Array.to_list accs)
      |> List.filter_map (fun (level, a) ->
             if Heatmap.Accum.completed a = 0 then None
             else Some (level_data ~workload:w ~cache:(config_of_level level) ~level a)))
    workloads

let build_prefetch spec ~config ~kind ~trace_len workloads =
  parallel_build
    (fun (w : Workload.t) ->
      let trace = w.Workload.generate trace_len in
      let cache = Cache.create config in
      let pf = Prefetch.create kind in
      let buf = Array.make (max 1 (Prefetch.max_degree pf)) 0 in
      let block_bytes = config.Cache.block_bytes in
      (* Demand stream: plane 0 = accesses, plane 1 = misses. Prefetch stream:
         its own accumulator, because its addresses differ per slot (first
         proposal of the triggering access; mask 0 when none). *)
      let acc = Heatmap.Accum.create ~planes:2 spec in
      let pacc = Heatmap.Accum.create ~planes:1 spec in
      let n = Array.length trace in
      for i = 0 to n - 1 do
        let addr = Array.unsafe_get trace i in
        let npf = Prefetch.on_access_into pf ~addr ~block_bytes ~buf in
        let hit = Cache.access cache addr in
        Heatmap.Accum.add acc ~addr ~mask:(if hit then 1 else 3);
        if npf = 0 then Heatmap.Accum.add pacc ~addr:0 ~mask:0
        else begin
          Heatmap.Accum.add pacc ~addr:(Array.unsafe_get buf 0) ~mask:1;
          for k = 0 to npf - 1 do
            Cache.insert cache (Array.unsafe_get buf k)
          done
        end
      done;
      let access = Heatmap.Accum.images acc ~plane:0 in
      let prefetch = Heatmap.Accum.images pacc ~plane:0 in
      [
        {
          workload = w;
          cache = config;
          level = Hierarchy.L1;
          pairs = List.combine access prefetch;
          true_hit_rate = accum_hit_rate acc;
        };
      ])
    workloads

let to_samples data =
  List.concat_map
    (fun d ->
      List.map
        (fun (access, target) ->
          {
            benchmark = d.workload.Workload.name;
            cache = d.cache;
            level = d.level;
            access;
            target;
          })
        d.pairs)
    data

let shuffle rng samples =
  let a = Array.of_list samples in
  Prng.shuffle rng a;
  Array.to_list a
