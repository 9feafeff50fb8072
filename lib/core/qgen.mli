(** Compiled generators: the one inference compiler and interpreter for
    every learned backend.

    A compile reads one {!Unet} (a {!Cbgan}'s generator, or a {!Student})
    through its read-only layer views and turns it into a flat program of
    convolution, transposed-convolution and conditioning-MLP ops, each
    float32 or int8, and {!forward} is the one interpreter that runs any
    such program. Training keeps the Value tape; inference never builds a
    node.

    - {!float_of_model} / {!float_of_student} pack each weight once into
      GEMM panels ({!Blas.Packed}) and apply bias and batch norm (from its
      running statistics, not folded) in the tape's own order of float32
      operations. The program is bit-identical to
      [Cbgan.generator_forward ~training:false] / [Student.forward
      ~training:false] on any model.
    - {!of_model} / {!of_student} fold every batch norm into its
      convolution (exact at inference), calibrate one per-tensor
      activation scale per GEMM by running the folded float program over a
      calibration batch, and quantize the folded weights symmetrically with
      per-output-channel scales for {!Blas.Int8}. The int8 program
      serializes to a dtype-tagged v3 checkpoint, so quantized artifacts
      load without the float originals.

    Activations are applied where the next op loads its operand (LeakyReLU
    in im2col, or as an int8 convolution quantizes its input; ReLU while a
    GEMM packs B; tanh in the last op's epilogue), so no op copies a whole
    activation tensor.

    A program is a snapshot: compiling copies every weight and statistic,
    and later changes to the model do not reach it. It holds no mutable
    state, and {!forward} is deterministic and bit-identical at any domain
    count and any batch composition. *)

type t

val of_model :
  ?pow2:bool ->
  spec:Heatmap.spec ->
  ?calib:Tensor.t list ->
  ?calib_caches:Cache.config list ->
  Cbgan.t ->
  t
(** [of_model ~spec model] folds, calibrates and quantizes the generator
    to int8. [calib] (access heatmaps, as produced by {!Heatmap.of_trace})
    defaults to a deterministic mix of strided and pseudo-random traces;
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
(** As {!of_model}, for a distilled {!Student}: the same fold / calibrate /
    quantize pipeline over the same {!Unet} layer views. A half-depth
    student's bottleneck is wider than 1x1, so the quantized conditioning
    vector is tiled over it exactly as in the float forward — the composed
    "student-int8" backend. *)

val float_of_model : Cbgan.t -> t
(** The float32 program of the generator: one pass over the weights to
    pack them, plus copies of biases and batch-norm statistics. *)

val float_of_student : Student.t -> t
(** As {!float_of_model}, for a distilled {!Student}. *)

val forward : t -> ?cache_params:Tensor.t -> Tensor.t -> Tensor.t
(** [forward t ?cache_params x] maps normalised access heatmaps
    [x : \[n; 1; s; s\]] to synthetic miss heatmaps in [\[-1, 1\]].
    [cache_params] (shape [\[n; 2\]]) is required iff the source model used
    cache-parameter conditioning. *)

val image_size : t -> int
val uses_cache_params : t -> bool

val save : t -> string -> unit
(** Writes an int8 program as a v3 checkpoint (int8 weight bytes plus
    exact float64 scales and biases; atomic, checksummed). Raises
    [Invalid_argument] on a float32 program, whose artifact is the model's
    own checkpoint. *)

val load : string -> t
(** Rebuilds an int8 program from {!save} output without the float
    originals; scales round-trip bit-identically. Raises [Failure] on
    malformed input. *)

val default_calib : Heatmap.spec -> Tensor.t list
(** The deterministic default calibration heatmaps. *)
