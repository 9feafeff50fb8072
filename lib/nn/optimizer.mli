(** The Adam optimizer over {!Param.t} lists. *)

type t

val adam :
  lr:float -> ?beta1:float -> ?beta2:float -> ?eps:float -> Param.t list -> t
(** Adam (Kingma & Ba). Defaults match pix2pix: beta1 is usually set to 0.5
    by callers training GANs; the default here is the standard 0.9. *)

val zero_grad : t -> unit
val step : t -> unit
(** Applies one update using the gradients currently accumulated in the
    parameters. *)

val set_lr : t -> float -> unit
val lr : t -> float
val params : t -> Param.t list

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
(** L2 norm of the concatenated gradients (diagnostic). *)
