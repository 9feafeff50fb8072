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
      activation scale per GEMM by running the folded float program over
      {!default_calib}, and quantize the folded weights symmetrically with
      per-output-channel scales for {!Blas.Int8}. No program is stored:
      the float checkpoint is the only model artifact, and the compile is
      deterministic, so an int8 program compiled after a save/load round
      trip of the model runs bit-identically to one compiled before it.

    Activations are applied where the next op loads its operand (LeakyReLU
    in im2col, or as an int8 convolution quantizes its input; ReLU while a
    GEMM packs B; tanh in the last op's epilogue), so no op copies a whole
    activation tensor.

    A program is a snapshot: compiling copies every weight and statistic,
    and later changes to the model do not reach it. It holds no mutable
    state, and {!forward} is deterministic and bit-identical at any domain
    count and any batch composition. *)

type t

val of_model : spec:Heatmap.spec -> Cbgan.t -> t
(** [of_model ~spec model] folds, calibrates and quantizes the generator
    to int8. The calibration batch is {!default_calib}, with the
    conditioning MLP's inputs cycled over a fixed spread of cache
    geometries. *)

val of_student : spec:Heatmap.spec -> Student.t -> t
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

val default_calib : Heatmap.spec -> Tensor.t list
(** The deterministic default calibration heatmaps. *)
