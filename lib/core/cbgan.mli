(** CB-GAN: the paper's conditional image-to-image GAN (§3.2).

    The generator is the {!Unet} (Fig 5a): an encoder-decoder over access
    heatmaps whose bottleneck is concatenated with the (sets, ways) pair
    passed through three fully-connected layers. The discriminator is a
    PatchGAN that classifies patches of the (input, output) channel
    concatenation as real or synthetic (Fig 5b).

    Image tensors are NCHW with one channel; pixel values are normalised to
    [-1, 1] (see {!Cbox_dataset}), matching the generator's tanh output. *)

type config = {
  image_size : int;  (** heatmap height = width; must be a power of two *)
  levels : int;
      (** U-Net depth; [2^levels = image_size] gives a 1x1 bottleneck, and a
          shallower net tiles the conditioning vector over a wider one *)
  ngf : int;  (** generator filters in the outermost block (paper: 128) *)
  ndf : int;  (** discriminator filters (paper: 64) *)
  disc_layers : int;
      (** stride-2 discriminator conv layers: 2 gives the paper's small
          (receptive field ~22) PatchGAN, 3 the large one used for RQ4 *)
  use_cache_params : bool;  (** enable the bottleneck conditioning MLP *)
  cond_hidden : int;  (** width of the conditioning MLP's hidden layers *)
  cond_dim : int;  (** channels appended to the bottleneck *)
  dropout_rate : float;  (** decoder dropout (pix2pix noise source) *)
}

val default_config : ?image_size:int -> ?ngf:int -> ?ndf:int -> unit -> config
(** Repro-scale defaults: 64x64 images, 6 levels, ngf = ndf = 16, cache
    parameters enabled. *)

type t

val create : seed:int -> config -> t
(** Draws the discriminator's weights, then the generator's, from one
    random stream seeded with [seed]. Raises [Invalid_argument] on an
    inconsistent config. *)

val model_config : t -> config

val generator : t -> Unet.t
(** The generator network itself: the inference compiler ({!Qgen}) reads its
    layers and distillation ({!Distill}) its bottleneck. *)

val normalize_cache_params : Cache.config -> float * float
(** Maps (sets, ways) to the unit-scale pair fed to the conditioning MLP
    ([log2 sets / 12], [ways / 16]). *)

val cache_params_tensor : Cache.config list -> Tensor.t
(** Stacks normalised parameters into an [\[n; 2\]] tensor. *)

val generator_forward :
  t ->
  rng:Prng.t ->
  training:bool ->
  ?cache_params:Tensor.t ->
  Tensor.t ->
  Value.t
(** [generator_forward t ~rng ~training ?cache_params x] maps a batch
    [x : \[n; 1; s; s\]] of normalised access heatmaps to synthetic miss
    heatmaps in [\[-1, 1\]]. [cache_params] (shape [\[n; 2\]]) is required
    iff the model was built with [use_cache_params]. [rng] drives decoder
    dropout. *)

val discriminator_forward :
  t -> training:bool -> access:Tensor.t -> miss:Value.t -> Value.t
(** Patch logits for the (access, miss) pair; [miss] may be a constant (real
    sample) or a live generator output (fake sample, letting gradients flow
    back into the generator). *)

val generator_params : t -> Param.t list
val discriminator_params : t -> Param.t list

val parameter_count : t -> int

val state : t -> (string * float array) list
(** The model's non-parameter state (batch-norm running statistics) as the
    {e live} named arrays: mutating them mutates the model. Used by
    checkpointing and by the training loop's snapshot/rollback machinery. *)

val save : t -> string -> unit
val load : t -> string -> unit
(** Loads weights into an existing model of identical configuration. *)
