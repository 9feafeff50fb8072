(** Dense float32 tensors backed by [Bigarray].

    Layout is row-major ("C order"); 4-D tensors use the NCHW convention
    (batch, channels, height, width) throughout the repository. All indices
    are 0-based. Operations raise [Invalid_argument] on shape mismatch. *)

type buffer =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  data : buffer;  (** flat storage, length [numel t] *)
  shape : int array;  (** dimensions, outermost first *)
}

(** {1 Construction} *)

val create : int array -> t
(** Uninitialised contents. *)

val zeros : int array -> t
val ones : int array -> t
val full : int array -> float -> t

val scalar : float -> t
(** A 1-element tensor of shape [\[|1|\]]. *)

val of_array : int array -> float array -> t
(** [of_array shape a] copies [a] (row-major). Length must equal the shape's
    element count. *)

val randn : Prng.t -> int array -> t
(** I.i.d. standard normal entries. *)

val copy : t -> t

val of_buffer : buffer -> int array -> t
(** [of_buffer buf shape] wraps an existing storage buffer (no copy); the
    buffer's length must equal the shape's element count. Used by
    {!Workspace} to hand out views of pooled scratch storage. *)

val view : t -> int array -> t
(** [view t shape] shares storage with [t] under a new shape of equal element
    count. *)

val sub_view : t -> off:int -> shape:int array -> t
(** [sub_view t ~off ~shape] is a view sharing [t]'s storage starting at flat
    offset [off] and covering the element count of [shape]. Writes through the
    view mutate [t]. *)

(** {1 Access} *)

val numel : t -> int
val shape : t -> int array
val dim : t -> int -> int

val get : t -> int -> float
(** Flat (row-major) read. *)

val set : t -> int -> float -> unit
(** Flat (row-major) write. *)

val get2 : t -> int -> int -> float
(** [get2 t i j] for a 2-D tensor. *)

val set2 : t -> int -> int -> float -> unit

val get4 : t -> int -> int -> int -> int -> float
(** [get4 t n c h w] for a 4-D NCHW tensor. *)

val set4 : t -> int -> int -> int -> int -> float -> unit
val to_array : t -> float array

(** {1 In-place mutation} *)

val fill : t -> float -> unit
val blit : src:t -> dst:t -> unit

val add_ : t -> t -> unit
(** [add_ dst x] is [dst <- dst + x] elementwise. *)

val mul_ : t -> t -> unit
val scale_ : t -> float -> unit

val axpy : alpha:float -> x:t -> y:t -> unit
(** [y <- alpha * x + y]. *)

val clip_ : t -> lo:float -> hi:float -> unit

val pfor : int -> (int -> int -> unit) -> unit
(** [pfor n body] runs [body lo hi] over slices of [0 .. n-1]: as one slice
    below 65,536 elements, otherwise one contiguous slice per {!Dpool}
    lane. Every elementwise loop here fans out this way, and so do the
    autodiff tape's, which read and write [data] directly. [body] must
    write only its own slice. *)

(** {1 Allocating elementwise operations} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val scale : t -> float -> t
val neg : t -> t
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

(** {1 Reductions and statistics} *)

val sum : t -> float
val mean : t -> float
val max_value : t -> float
val min_value : t -> float

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val channel_mean_var : t -> (float array * float array)
(** For a 4-D NCHW tensor: per-channel mean and (biased) variance over the
    N, H, W axes — the statistics batch normalisation needs. *)

(** {1 Structure} *)

val concat_channels : t -> t -> t
(** Concatenate two NCHW tensors along the channel axis; N, H, W must
    agree. *)

val split_channels : t -> int -> t * t
(** [split_channels t c] undoes [concat_channels]: first [c] channels and
    the rest, as fresh tensors. *)

val broadcast_spatial : t -> h:int -> w:int -> t
(** Tile an [n; c; 1; 1] tensor to [n; c; h; w] — how a per-sample
    conditioning vector is spread over a bottleneck whose spatial extent is
    larger than 1x1 (the half-depth student generator). *)

val spatial_sum : t -> t
(** Sum an NCHW tensor over its H and W axes, to [n; c; 1; 1] — the adjoint
    of {!broadcast_spatial}. *)

val spatial_mean : t -> t
(** Mean of an NCHW tensor over its H and W axes, to [n; c] — global average
    pooling, used to compare bottleneck activations across architectures. *)

val slice_batch : t -> int -> int -> t
(** [slice_batch t off len] copies rows [off..off+len-1] of the leading
    (batch) axis. *)

val stack_batch : t list -> t
(** Concatenate along a new/existing leading axis: inputs must share trailing
    dimensions; each input's leading dim contributes. *)
