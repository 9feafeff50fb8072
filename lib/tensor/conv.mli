(** 2-D convolution kernels (NCHW), lowered to GEMM through im2col.

    Weight layouts follow the PyTorch convention:
    - convolution: [\[out_channels; in_channels; kh; kw\]]
    - transposed convolution: [\[in_channels; out_channels; kh; kw\]]

    These functions are pure computation: gradients are composed into the
    autodiff tape by the [nn] library. *)

val set_wide_batch : bool -> unit
(** Enable/disable the wide-batch forward lowering: with the flag on (and a
    batch of more than one sample), {!conv2d} and {!conv_transpose2d} unfold
    the whole batch into one wide column matrix and run a single GEMM instead
    of one small GEMM per sample. Values are bit-identical to the per-sample
    path (per-element accumulation order is unchanged); only the speed
    differs — the wide path amortises per-GEMM overhead and is what makes
    batched serving beat batch-1. Off by default; the serving engine turns
    it on. Backward passes always use the per-sample path. *)

val wide_batch : unit -> bool
(** Current wide-batch mode. *)

val out_size : size:int -> kernel:int -> stride:int -> pad:int -> int
(** Spatial output size of a convolution. *)

val tconv_out_size : size:int -> kernel:int -> stride:int -> pad:int -> int
(** Spatial output size of a transposed convolution. *)

val im2col :
  Tensor.t -> n:int -> kernel:int -> stride:int -> pad:int -> Tensor.t
(** [im2col x ~n ~kernel ~stride ~pad] unfolds sample [n] of the NCHW tensor
    [x] into a [\[c*kernel*kernel; oh*ow\]] matrix (zero padding). *)

val im2col_into :
  Tensor.t -> n:int -> kernel:int -> stride:int -> pad:int -> Tensor.t -> unit
(** Like {!im2col} but writes into a caller-owned column matrix (typically a
    {!Workspace} borrow). Only in-bounds positions are written and that set
    depends on the geometry alone, so a buffer zeroed once may be reused
    across samples of the same shape without re-zeroing. *)

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
    the adjoint of {!im2col}. [dst] is accumulated into, not cleared. *)

val conv2d :
  x:Tensor.t ->
  weight:Tensor.t ->
  bias:Tensor.t option ->
  stride:int ->
  pad:int ->
  Tensor.t
(** Forward convolution. *)

val conv2d_backward :
  x:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  stride:int ->
  pad:int ->
  grad_weight:Tensor.t ->
  grad_bias:Tensor.t option ->
  Tensor.t
(** Accumulates weight/bias gradients (into [grad_weight]/[grad_bias]) and
    returns the gradient with respect to [x]. *)

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
(** Allocation-free variant of {!conv2d_backward}: accumulates the input
    gradient into caller-owned [gx] (which the caller must zero first when a
    plain gradient rather than an accumulation is wanted). *)

val conv_transpose2d :
  x:Tensor.t ->
  weight:Tensor.t ->
  bias:Tensor.t option ->
  stride:int ->
  pad:int ->
  Tensor.t
(** Forward transposed (fractionally-strided) convolution. *)

val conv_transpose2d_backward :
  x:Tensor.t ->
  weight:Tensor.t ->
  gout:Tensor.t ->
  stride:int ->
  pad:int ->
  grad_weight:Tensor.t ->
  grad_bias:Tensor.t option ->
  Tensor.t
(** Adjoint of {!conv_transpose2d}; same contract as {!conv2d_backward}. *)

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
(** Allocation-free variant of {!conv_transpose2d_backward}. [gx] is fully
    overwritten (unlike {!conv2d_backward_into} it does not accumulate), so
    pre-zeroing is permitted but not required. *)

(** {1 Int8 quantized forwards}

    Same lowering (im2col/col2im, wide-batch split, blocking) as the float
    forwards with the GEMM swapped for {!Blas.Int8.gemm}; activations are
    quantized on the fly at [act_scale]. Results are bit-identical across
    the wide/per-sample paths and any domain count. *)

val conv2d_q :
  x:Tensor.t ->
  weight:Blas.Int8.qweight ->
  act_scale:float ->
  kernel:int ->
  stride:int ->
  pad:int ->
  Tensor.t
(** Quantized forward convolution. [weight] is the quantized
    [\[oc; ic*kernel*kernel\]] im2col weight matrix with per-output-channel
    scales; its fused bias (if any) rides in the GEMM epilogue. *)

val conv_transpose2d_q :
  x:Tensor.t ->
  weight:Blas.Int8.qweight ->
  act_scale:float ->
  bias:Tensor.t option ->
  kernel:int ->
  stride:int ->
  pad:int ->
  Tensor.t
(** Quantized forward transposed convolution. [weight] is the quantized
    [\[oc*kernel*kernel; ic\]] matrix (the float path's [W^T] view, i.e.
    [quantize ~trans:true] of [\[ic; oc*k*k\]]); col2im accumulates many
    GEMM outputs per pixel, so [bias] is applied after the scatter rather
    than fused. *)
