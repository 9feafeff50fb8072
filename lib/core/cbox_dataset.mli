(** Dataset construction: from workloads to paired, normalised heatmaps.

    This is the OCaml equivalent of the paper's HeatmapDataGenerator: run
    each benchmark's trace through the ground-truth simulator, convert the
    per-level access/miss streams into aligned heatmap pairs, and normalise
    pixel counts into the [-1, 1] range the tanh generator works in. *)

type sample = {
  benchmark : string;
  cache : Cache.config;  (** config whose filter behaviour the pair shows *)
  level : Hierarchy.level;
  access : Tensor.t;  (** [\[h; w\]] raw access counts *)
  target : Tensor.t;  (** [\[h; w\]] raw miss (or prefetch) counts *)
}

type benchmark_data = {
  workload : Workload.t;
  cache : Cache.config;
  level : Hierarchy.level;
  pairs : (Tensor.t * Tensor.t) list;  (** aligned raw (access, target) *)
  true_hit_rate : float;  (** de-overlapped ground truth *)
}

(** {1 Normalisation} *)

val normalize : Heatmap.spec -> Tensor.t -> Tensor.t
(** Counts [\[0, window\]] to [\[-1, 1\]] (clamped). *)

val denormalize : Heatmap.spec -> Tensor.t -> Tensor.t
(** Inverse of {!normalize}, clamped to non-negative counts. *)

val batch_images : Heatmap.spec -> Tensor.t list -> Tensor.t
(** Normalises and stacks [k] heatmaps into an [\[k; 1; h; w\]] tensor. *)

(** {1 Construction}

    The builders stream every simulated access straight into
    {!Heatmap.Accum} columns (constant memory per level — no recorded
    trace arrays, no decode, no second pass) and fan workloads across the
    {!Dpool} domain pool ([CACHEBOX_DOMAINS]). Every call simulates;
    nothing is stored between calls. Workload traces are self-seeded by
    name, each lane simulates a disjoint roster slice, and results are
    concatenated in roster order — output is bit-identical to a serial run
    at every domain count, and to the array-path [_reference] builders
    below. *)

val build_l1 :
  Heatmap.spec ->
  configs:Cache.config list ->
  trace_len:int ->
  Workload.t list ->
  benchmark_data list
(** One entry per (workload, config): simulate the L1 filter and pair up
    heatmaps. Workload traces are generated once and shared across
    configs. *)

val build_hierarchy :
  Heatmap.spec ->
  l1:Cache.config ->
  l2:Cache.config ->
  l3:Cache.config ->
  trace_len:int ->
  Workload.t list ->
  benchmark_data list
(** Entries for all three levels. A level's access stream is the miss
    stream of the previous level; benchmarks whose deeper streams are
    shorter than one heatmap are omitted at those levels (the paper's
    "low data regime" exclusion shows up naturally here). *)

val build_prefetch :
  Heatmap.spec ->
  config:Cache.config ->
  kind:Prefetch.kind ->
  trace_len:int ->
  Workload.t list ->
  benchmark_data list
(** Pairs of (demand access heatmap, prefetched-address heatmap) for RQ7.
    [true_hit_rate] holds the cache's demand hit rate for reference. *)

(** {1 Array-path references}

    Simulate into whole per-level address and hit-flag arrays, then cut
    the heatmaps out of them; always serial. They are the bit-identity
    oracle the test suite compares the streaming builders against.
    {!build_hierarchy_reference} runs a chain of lone caches, each fed the
    misses of the level above, not {!Hierarchy}, so it checks the
    hierarchy's miss walk as well. *)

val build_l1_reference :
  Heatmap.spec ->
  configs:Cache.config list ->
  trace_len:int ->
  Workload.t list ->
  benchmark_data list

val build_hierarchy_reference :
  Heatmap.spec ->
  l1:Cache.config ->
  l2:Cache.config ->
  l3:Cache.config ->
  trace_len:int ->
  Workload.t list ->
  benchmark_data list

val build_prefetch_reference :
  Heatmap.spec ->
  config:Cache.config ->
  kind:Prefetch.kind ->
  trace_len:int ->
  Workload.t list ->
  benchmark_data list

val to_samples : benchmark_data list -> sample list
val shuffle : Prng.t -> sample list -> sample list
