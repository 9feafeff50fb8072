(** The generator network: a U-Net encoder-decoder over access heatmaps
    with the cache parameters injected at its bottleneck (§3.2, Fig 5a).

    The (sets, ways) pair passes through three fully-connected layers whose
    output is concatenated to the bottleneck before the first up-sampling
    block. With fewer levels than [log2 image_size] the bottleneck keeps a
    spatial extent above 1x1 and the conditioning vector is tiled over it.
    The CB-GAN teacher ({!Cbgan}) is this network at full depth, with
    decoder dropout; the distilled {!Student} is it at half depth and half
    width, without. *)

type config = {
  image_size : int;  (** input/output heatmap side, a power of two *)
  levels : int;
      (** encoder/decoder depth; [2^levels <= image_size], and equality gives
          a 1x1 bottleneck *)
  ngf : int;  (** filters in the outermost block (paper: 128) *)
  use_cond : bool;  (** concatenate the cache-parameter conditioning vector *)
  cond_hidden : int;  (** width of the conditioning MLP's hidden layers *)
  cond_dim : int;  (** channels appended to the bottleneck *)
}

type t

val create : Prng.t -> prefix:string -> config -> t
(** [create rng ~prefix cfg] draws the weights from [rng] in this order: the
    encoder blocks, the conditioning MLP's layers 2, 1 and 0, then the
    decoder blocks. Every seeded checkpoint depends on that order. The
    output layer's bias starts at -1.5, so the tanh output starts near an
    empty heatmap. Parameter names start with [prefix] (["gen.down0.weight"],
    ["student.cond2.bias"], ...). Raises [Invalid_argument] on an
    inconsistent config. *)

val config : t -> config

val forward :
  t ->
  ?who:string ->
  ?dropout:Prng.t * float ->
  training:bool ->
  ?cache_params:Tensor.t ->
  Tensor.t ->
  Value.t * Value.t
(** [forward t ~training ?cache_params x] maps [x : \[n; 1; s; s\]] to
    [(out, bottleneck)]: the tanh heatmap [\[n; 1; s; s\]] and the encoder's
    bottleneck activations before conditioning. [cache_params] is the
    [\[n; 2\]] normalised geometry tensor, required iff the network has
    conditioning. [dropout = (rng, rate)] applies dropout to the outputs of
    the first [min 3 (levels - 2)] decoder blocks, as pix2pix does; without
    it there is none. [who] names the caller in [Invalid_argument]
    messages. *)

val bottleneck : t -> Tensor.t -> Tensor.t
(** The eval-mode encoder alone: the bottleneck activations before
    conditioning, for feature-matching distillation. Running-stats batch
    norm makes each sample's features independent of its batch mates. *)

val bottleneck_channels : t -> int

val params : t -> Param.t list
(** Encoder, decoder, then conditioning-MLP parameters. *)

val state : t -> (string * float array) list
(** The batch-norm running statistics, encoder then decoder, as the {e live}
    named arrays. *)

val parameter_count : t -> int

(** {1 Read-only layer views}

    For the inference compiler ({!Qgen}), which packs each block's weight
    and snapshots its batch norm, or folds the batch norm in and quantizes
    the result. *)

val downs : t -> (Layers.conv2d * Layers.batch_norm option) array
val ups : t -> (Layers.conv_transpose2d * Layers.batch_norm option) array
val cond : t -> (Layers.linear * Layers.linear * Layers.linear) option
