(** CB-GAN inference: synthetic miss heatmaps and predicted hit rates
    (paper §3.2.4, §4.4).

    Every learned backend — the float32 CB-GAN, its int8 compile, the
    distilled student and the student's int8 compile — is one
    {!generator}: a compiled {!Qgen} program run by the one interpreter,
    from normalised access heatmaps to synthetic miss heatmaps. {!run}
    batches any generator the same way: a request's access heatmaps are
    grouped into batches of a configurable size and pushed through the
    forward in eval mode (no dropout; batch norm uses its running
    statistics). Larger batches amortise per-call overheads — the
    mechanism behind RQ5.

    A generator snapshots the weights when it is compiled: {!of_cbgan}
    and {!of_student} pack every weight and copy every batch-norm
    statistic, so training the model further does not change a generator
    built before. Build one per model version, outside any loop that
    reuses it; {!synthesize} and {!ssynthesize} compile on every call. *)

type prediction = {
  benchmark : string;
  cache : Cache.config;
  level : Hierarchy.level;
  true_hit_rate : float;
  predicted_hit_rate : float;
  synthetic : Tensor.t list;  (** denormalised synthetic miss heatmaps *)
}

type generator = {
  forward : ?cache_params:Tensor.t -> Tensor.t -> Tensor.t;
      (** [\[n; 1; s; s\]] normalised access heatmaps in, synthetic miss
          heatmaps in [\[-1, 1\]] out; [cache_params] is the [\[n; 2\]]
          conditioning tensor, passed iff [uses_cache_params]. Per-sample
          independent and safe to call from several domains at once. *)
  image_size : int;
  uses_cache_params : bool;
}

val of_cbgan : Cbgan.t -> generator
(** Compiles the CB-GAN generator to its float32 program
    ({!Qgen.float_of_model}): bit-identical to
    [Cbgan.generator_forward ~training:false]. *)

val of_qgen : Qgen.t -> generator
(** A compiled program: an int8 compile of the teacher or of a student, or
    a float32 program. *)

val of_student : Student.t -> generator
(** Compiles a distilled student to its float32 program
    ({!Qgen.float_of_student}): bit-identical to
    [Student.forward ~training:false]. *)

val run :
  generator ->
  Heatmap.spec ->
  ?batch_size:int ->
  ?domains:int ->
  (Cache.config * Tensor.t list) list ->
  Tensor.t list list
(** The one batching function. Each item is one request's (cache geometry,
    access heatmaps); all windows of all items are flattened into shared
    forward passes of [batch_size] (default 8) — the conditioning tensor
    carries one row per sample, so requests with different geometries batch
    together. Returns one list of denormalised synthetic miss heatmaps per
    item, order preserved. When [domains] (default {!Dpool.domains}: the
    [--domains] flag, else [CACHEBOX_DOMAINS], else {!Dpool.recommended})
    exceeds 1, batches run on separate domains. Because every generator is
    per-sample independent at inference, the result is bit-identical to
    running each item alone, at any batch size or domain count (the
    serve-batch suite asserts this); only the speed differs. *)

val synthesize :
  Cbgan.t ->
  Heatmap.spec ->
  ?batch_size:int ->
  ?domains:int ->
  cache:Cache.config ->
  Tensor.t list ->
  Tensor.t list
(** {!run} on [of_cbgan model] for a single request: compiles, then runs. *)

val qsynthesize :
  Qgen.t ->
  Heatmap.spec ->
  ?batch_size:int ->
  ?domains:int ->
  cache:Cache.config ->
  Tensor.t list ->
  Tensor.t list
(** {!run} on [of_qgen q] for a single request. *)

val ssynthesize :
  Student.t ->
  Heatmap.spec ->
  ?batch_size:int ->
  ?domains:int ->
  cache:Cache.config ->
  Tensor.t list ->
  Tensor.t list
(** {!run} on [of_student s] for a single request: compiles, then runs. *)

val validate_hit_rate : ?lo:float -> ?hi:float -> float -> (float, string) result
(** Validity gate for a raw model prediction: NaN, infinities and values
    outside the grace range [\[lo, hi\]] (default [\[-0.25, 1.25\]] — mild
    overshoot is normal for a regression-through-GAN, gross excursions mean
    the model can't be trusted) are rejected with a reason; accepted values
    are clamped to [\[0, 1\]]. *)

(** {1 Backend registry}

    Serving can answer one request on any of six interchangeable backends:
    the float32 learned model (reference), its int8 quantization (fast,
    bounded error), the distilled student (smaller U-Net, faster still),
    the student's int8 quantization (the two wins compose), or the two
    analytical baselines. Requests select one via the wire-level ["backend"]
    field; the server falls from each learned variant back to float32 when
    the underlying model is unavailable or faults. *)

type backend =
  | Backend_float32
  | Backend_int8
  | Backend_student
  | Backend_student_int8
  | Backend_hrd
  | Backend_stm

val backend_name : backend -> string
val backend_of_string : string -> backend option
(** ["float32" | "int8" | "student" | "student-int8" | "hrd" | "stm"]. *)

val backends : backend list
(** All six, in the order above, which is a stats reply's order too. *)

(** {1 Analytical fallbacks}

    When the learned model is unavailable or untrusted, serving degrades to
    the analytical baselines (TAO-style hybrid design): same request, same
    answer shape, no learned component. *)

type fallback = No_fallback | Fallback_hrd | Fallback_stm

val fallback_name : fallback -> string
val fallback_of_string : string -> fallback option
(** ["none" | "hrd" | "stm"]. *)

val baseline_hit_rate : fallback -> Cache.config -> int array -> float option
(** Deterministic analytical prediction for the trace under the config
    ([None] for {!No_fallback}). HRD profiles reuse distances; STM clones
    and re-simulates. Both are bounded to [\[0, 1\]] by construction. *)

val predict :
  generator -> Heatmap.spec -> ?batch_size:int -> Cbox_dataset.benchmark_data -> prediction
(** Full per-benchmark prediction, including the de-overlapped hit-rate
    computation against the real access heatmaps. *)

val predict_all :
  generator ->
  Heatmap.spec ->
  ?batch_size:int ->
  Cbox_dataset.benchmark_data list ->
  prediction list

val abs_pct_diff : prediction -> float
(** |true - predicted| hit rate, in percentage points. *)
