(** The Adam optimizer over {!Param.t} lists. *)

type t

val adam :
  lr:float -> ?beta1:float -> ?beta2:float -> ?eps:float -> Param.t list -> t
(** Adam (Kingma & Ba). Defaults match pix2pix: beta1 is usually set to 0.5
    by callers training GANs; the default here is the standard 0.9. *)

val zero_grad : t -> unit
val step : t -> unit
(** Applies one update using the gradients currently accumulated in the
    parameters. The update is one loop per parameter over the raw float32
    buffers, each weight's formula evaluated in double precision as
    written (moments stored as float32, the bias-corrected step computed
    from the unrounded moments); it allocates nothing per weight. *)

val set_lr : t -> float -> unit
val lr : t -> float

val state : t -> (string * float array) list
(** Serializable optimizer state as named float arrays (fresh copies):
    ["lr"], ["step"], and per-parameter moment vectors ["m.<name>"] and
    ["v.<name>"]. Feed these (with a distinguishing prefix) into
    {!Checkpoint.save} so moments survive a restart instead of silently
    resetting to zero. *)

val set_state : t -> (string * float array) list -> unit
(** Exact inverse of {!state} for an optimizer built over the same parameter
    list. Raises [Failure] on a missing entry or length mismatch. *)

val grad_norm : t -> float
(** L2 norm of the concatenated gradients (diagnostic): each parameter's
    squares summed in order, then the parameters' sums in order. *)

(** {1 Rollback points} *)

type snapshot
(** The learning rate, the step count and float32 copies of both moments. *)

val snapshot : t -> snapshot
(** A copy of the optimizer's state, for an in-memory rollback point. The
    on-disk form stays {!state}, whose format does not change. *)

val restore : t -> snapshot -> unit
(** Puts a {!snapshot} back, blitting the moments into the live tensors.
    The optimizer must be the one the snapshot was taken from. *)
