(** Distilled student generator: the teacher's {!Unet} at half depth and
    half width. At half depth the bottleneck keeps a spatial extent above
    1x1 and the conditioning vector is tiled over it. The student has no
    discriminator and no dropout: its forward pass is deterministic, so
    distillation, serving and int8 compilation are bit-reproducible. *)

type config = Unet.config
type t = Unet.t

val create : seed:int -> config -> t
(** Fresh student with parameters named [student.*]. Raises
    [Invalid_argument] on an inconsistent config. *)

val forward : t -> training:bool -> ?cache_params:Tensor.t -> Tensor.t -> Value.t
(** [n; 1; s; s] in, [n; 1; s; s] tanh heatmap out. [cache_params] is the
    [n; 2] normalised geometry tensor (required iff the student was built
    with conditioning). *)

val save : t -> string -> unit
(** Atomic, CRC-checksummed checkpoint (schema [cachebox-student/1]); the
    architecture travels in the metadata, so {!load} needs no config. The
    float64 payload makes the round-trip bit-identical. *)

val load : string -> t
(** Raises [Failure] on a missing, corrupt, truncated or non-student file. *)
