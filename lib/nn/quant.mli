(** Post-training int8 quantization: the calibration observer.

    Symmetric scheme throughout — per-output-row (per-channel) weight
    scales, one per-tensor activation scale observed on a calibration
    batch. The scale rule, packing and the integer kernel live in
    {!Blas.Int8}; the compile that applies them lives in {!Qgen}. *)

val amax : Tensor.t -> float
(** Largest absolute element (0 for all-zero tensors). *)

val scale_of_amax : float -> float
(** {!Blas.Int8.scale_of_amax}: [amax/127], defaulting to 1.0 for
    degenerate ranges. *)

type observer

val observer : unit -> observer
val observe : observer -> Tensor.t -> unit

val observed_scale : observer -> float
(** Activation scale from everything observed so far. *)
