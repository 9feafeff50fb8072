(** Int8 quantized generator for inference.

    Compiles a trained {!Cbgan} generator into a direct tensor program:
    batch norms are folded into their convolutions (exact at inference),
    the folded weights are quantized symmetrically with per-output-channel
    scales, and per-tensor activation scales are calibrated by running the
    folded float network over a calibration batch. The resulting model runs
    through the {!Blas.Int8} GEMM kernel with no Value-graph overhead and
    serializes to a dtype-tagged v3 checkpoint, so quantized artifacts load
    without the float originals.

    [forward] is deterministic and bit-identical at any domain count: the
    integer GEMMs accumulate exactly and the dequantization epilogue runs in
    a fixed per-element order (see {!Blas.Int8}). *)

type t

val of_model :
  ?pow2:bool ->
  spec:Heatmap.spec ->
  ?calib:Tensor.t list ->
  ?calib_caches:Cache.config list ->
  Cbgan.t ->
  t
(** [of_model ~spec model] folds, calibrates and quantizes the generator.
    [calib] (access heatmaps, as produced by {!Heatmap.of_trace}) defaults
    to a deterministic mix of strided and pseudo-random traces;
    [calib_caches] (cycled across the batch for the conditioning MLP)
    defaults to a spread of cache geometries. [pow2] rounds every scale up
    to a power of two. *)

val of_student :
  ?pow2:bool ->
  spec:Heatmap.spec ->
  ?calib:Tensor.t list ->
  ?calib_caches:Cache.config list ->
  Student.t ->
  t
(** As {!of_model}, for a distilled {!Student} generator: the same fold /
    calibrate / quantize pipeline over the student's structure views. A
    half-depth student's bottleneck is wider than 1x1, so the quantized
    conditioning vector is broadcast over it exactly as in the float
    forward — the composed "student-int8" backend. *)

val forward : t -> ?cache_params:Tensor.t -> Tensor.t -> Tensor.t
(** [forward t ?cache_params x] maps normalised access heatmaps
    [x : \[n; 1; s; s\]] to synthetic miss heatmaps in [\[-1, 1\]] — the
    quantized counterpart of [Cbgan.generator_forward ~training:false].
    [cache_params] (shape [\[n; 2\]]) is required iff the source model used
    cache-parameter conditioning. *)

val image_size : t -> int
val uses_cache_params : t -> bool

val save : t -> string -> unit
(** Writes the quantized model as a v3 checkpoint (int8 weight bytes plus
    exact float64 scales and biases; atomic, checksummed). *)

val load : string -> t
(** Rebuilds a quantized model from {!save} output without the float
    originals; scales round-trip bit-identically. Raises [Failure] on
    malformed input. *)

val default_calib : Heatmap.spec -> Tensor.t list
(** The deterministic default calibration heatmaps. *)
