(** 2-D convolution kernels (NCHW), lowered to GEMM through im2col one
    sample at a time: every forward and backward runs one product per
    sample, and the tape and the compiled inference programs share that
    lowering (see {!conv2d_with}).

    Weight layouts follow the PyTorch convention:
    - convolution: [\[out_channels; in_channels; kh; kw\]]
    - transposed convolution: [\[in_channels; out_channels; kh; kw\]]

    These functions are pure computation: gradients are composed into the
    autodiff tape by the [nn] library. *)

val set_wide_batch : bool -> unit
(** Does nothing. There is no wide-batch lowering: every convolution runs
    one product per sample. This stub is kept only so that
    [benchmark/bench_layers.ml], which calls it twice, still builds; the
    next change to [benchmark/] deletes it with its two calls (ROADMAP
    item 5). *)

val out_size : size:int -> kernel:int -> stride:int -> pad:int -> int
(** Spatial output size of a convolution. *)

val tconv_out_size : size:int -> kernel:int -> stride:int -> pad:int -> int
(** Spatial output size of a transposed convolution. *)

val im2col_into :
  ?act:Blas.act -> Tensor.t -> n:int -> kernel:int -> stride:int -> pad:int -> Tensor.t -> unit
(** [im2col_into x ~n ~kernel ~stride ~pad cols] unfolds sample [n] of the
    NCHW tensor [x] into the caller-owned [\[c*kernel*kernel; oh*ow\]]
    column matrix [cols] (typically a {!Workspace} borrow), applying [act]
    (default none) to each value as it is loaded. Only in-bounds positions
    are written and that set depends on the geometry alone, so a buffer
    zeroed once holds the zero padding and may be reused across samples of
    the same shape without re-zeroing. *)

val col2im :
  Tensor.t ->
  dst:Tensor.t ->
  n:int ->
  channels:int ->
  height:int ->
  width:int ->
  kernel:int ->
  stride:int ->
  pad:int ->
  unit
(** [col2im cols ~dst ~n ...] scatters-and-accumulates the column matrix back
    into sample [n] of [dst] (shape [\[_; channels; height; width\]]) —
    the adjoint of {!im2col_into}. [dst] is accumulated into, not cleared. *)

val conv2d :
  x:Tensor.t ->
  weight:Tensor.t ->
  bias:Tensor.t option ->
  stride:int ->
  pad:int ->
  Tensor.t
(** Forward convolution. *)

val conv2d_backward_into :
  x:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  stride:int ->
  pad:int ->
  grad_weight:Tensor.t ->
  grad_bias:Tensor.t option ->
  gx:Tensor.t ->
  unit
(** Accumulates weight/bias gradients (into [grad_weight]/[grad_bias]) and
    the gradient with respect to [x] into caller-owned [gx] (which the
    caller must zero first when a plain gradient rather than an
    accumulation is wanted). The data-gradient products share one packing
    of W^T; the weight gradient adds one product per sample, in sample
    order. *)

val conv_transpose2d :
  x:Tensor.t ->
  weight:Tensor.t ->
  bias:Tensor.t option ->
  stride:int ->
  pad:int ->
  Tensor.t
(** Forward transposed (fractionally-strided) convolution. *)

val conv_transpose2d_backward_into :
  x:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  stride:int ->
  pad:int ->
  grad_weight:Tensor.t ->
  grad_bias:Tensor.t option ->
  gx:Tensor.t ->
  unit
(** Adjoint of {!conv_transpose2d}: accumulates weight/bias gradients as
    {!conv2d_backward_into} does, and its data-gradient products share one
    packing of W. [gx] is fully overwritten (unlike
    {!conv2d_backward_into} it does not accumulate), so pre-zeroing is
    permitted but not required. *)

(** {1 Per-sample lowerings}

    One product per sample, with the product passed in. {!conv2d} and
    {!conv_transpose2d} pack their weight once per call
    ({!Blas.Packed.with_packed}) and pass a {!Blas.Packed} product over it,
    bit-identical to {!Blas.gemm} at alpha 1 and beta 0; the compiled
    inference programs pass a {!Blas.Packed} product packed at compile time
    or a {!Blas.Int8} one. Samples run on separate domains; results do not
    depend on the domain count. *)

(** The product a convolution lowers onto. *)
type product =
  | Gemm of (Tensor.t -> Tensor.t -> unit)
      (** [gemm cols c] must overwrite [c] with the layer's weight matrix
          times the column matrix [cols]. *)
  | Int8 of Blas.Int8.qweight * float
      (** An int8 weight and its activation scale. Each sample's activated
          input is quantized once ({!Blas.Int8.quantize_into}) and B is
          packed straight from the quantized planes, with no column
          matrix. The result is bit-identical to {!Blas.Int8.gemm} over
          the columns of {!im2col_into} [~act]. *)

val conv2d_with :
  product:product ->
  ?act:Blas.act ->
  x:Tensor.t ->
  oc:int ->
  kernel:int ->
  stride:int ->
  pad:int ->
  unit ->
  Tensor.t
(** [\[n; oc; oh; ow\]] with sample [i] the product over
    [cols_i = im2col (act x_i)] ([\[ic*k*k; oh*ow\]]). No bias. *)

val conv_transpose2d_with :
  gemm:(Tensor.t -> Tensor.t -> unit) ->
  x:Tensor.t ->
  oc:int ->
  kernel:int ->
  stride:int ->
  pad:int ->
  Tensor.t
(** [\[n; oc; oh; ow\]] with sample [i] = [col2im (gemm x_i)], where
    [x_i] is sample [i]'s [\[ic; h*w\]] plane read in place (an
    activation of [x] is the GEMM's to apply) and [gemm] writes the
    [\[oc*k*k; h*w\]] column matrix. No bias. *)
