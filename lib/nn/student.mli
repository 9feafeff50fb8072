(** Distilled student generator: a channel-scaled (half-width), optionally
    truncated (half-depth) U-Net with the teacher's conditioning-vector
    plumbing. With fewer levels than [log2 image_size] the bottleneck keeps
    a spatial extent above 1x1 and the conditioning vector is broadcast
    over it. The student has no discriminator and no dropout: its forward
    pass is deterministic, so distillation, serving and int8 compilation
    are bit-reproducible. *)

type config = {
  st_image_size : int;  (** input/output heatmap side, a power of two *)
  st_levels : int;  (** encoder/decoder depth; [2^levels <= image_size] *)
  st_ngf : int;  (** base channel width (teacher default is 16) *)
  st_use_cond : bool;  (** concatenate cache-geometry conditioning *)
  st_cond_hidden : int;
  st_cond_dim : int;
}

val default_config : ?image_size:int -> ?levels:int -> ?ngf:int -> unit -> config
(** Half-depth (3 of the teacher's 6 levels) and half-width (ngf 8 vs 16)
    at the paper's 64x64 heatmaps. *)

type t

val create : seed:int -> config -> t
(** Fresh student with pix2pix N(0, 0.02) initialisation and the same
    "empty heatmap" output-bias prior as the teacher. Raises
    [Invalid_argument] on an inconsistent config. *)

val model_config : t -> config

val bottleneck_size : config -> int
(** Spatial side of the bottleneck, [image_size / 2^levels] (1 for a
    full-depth net). *)

val forward : t -> training:bool -> ?cache_params:Tensor.t -> Tensor.t -> Value.t
(** [n; 1; s; s] in, [n; 1; s; s] tanh heatmap out. [cache_params] is the
    [n; 2] normalised geometry tensor (required iff the student was built
    with conditioning). *)

val forward_with_bottleneck :
  t -> training:bool -> ?cache_params:Tensor.t -> Tensor.t -> Value.t * Value.t
(** As {!forward}, also returning the encoder bottleneck activations
    (pre-conditioning) for feature-matching distillation. *)

val params : t -> Param.t list
val state : t -> (string * float array) list
val parameter_count : t -> int

val student_downs : t -> (Layers.conv2d * Layers.batch_norm option) array
val student_ups : t -> (Layers.conv_transpose2d * Layers.batch_norm option * bool) array
val student_cond : t -> (Layers.linear * Layers.linear * Layers.linear) option
(** Read-only structure views for the inference compiler ({!Qgen}), shaped
    like their [Cbgan.generator_*] counterparts (the up-block dropout flag
    is always [false]). *)

val save : t -> string -> unit
(** Atomic, CRC-checksummed checkpoint (schema [cachebox-student/1]); the
    architecture travels in the metadata, so {!load} needs no config. The
    float64 payload makes the round-trip bit-identical. *)

val load : string -> t
(** Raises [Failure] on a missing, corrupt, truncated or non-student file. *)
