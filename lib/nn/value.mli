(** Tape-based reverse-mode automatic differentiation over {!Tensor.t}.

    Every operation records its parents and a backward closure; {!backward}
    runs the closures in reverse topological order. Gradients of
    {!of_param} leaves accumulate into the parameter's persistent gradient
    tensor, so a parameter used several times in one graph (or across the
    generator/discriminator losses of a GAN step) sums its contributions. *)

type t

val value : t -> Tensor.t
(** Forward result held by the node. *)

val grad : t -> Tensor.t
(** Gradient after {!backward}; raises [Invalid_argument] if none was
    propagated to this node. *)

(** {1 Leaves} *)

val const : Tensor.t -> t
(** Input data: no gradient is retained. *)

val leaf : Tensor.t -> t
(** A differentiable leaf that retains its gradient (used in tests and for
    gradient checks). *)

val of_param : Param.t -> t
(** Leaf whose gradient accumulates into [p.grad]. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : t -> float -> t
val neg : t -> t

(** {1 Activations}

    Each forward and backward is one loop over the raw float32 buffers,
    split over the {!Dpool} lanes for large tensors ({!Tensor.pfor}), with
    no closure or boxed float per element. The formulas are the reference
    definitions: [Float.max 0.0 x], [if x > 0 then x else slope * x] and
    [Float.tanh x]; a backward multiplies the incoming gradient by the
    derivative. *)

val relu : t -> t
val leaky_relu : float -> t -> t
val tanh_ : t -> t

val dropout : Prng.t -> rate:float -> training:bool -> t -> t
(** Inverted dropout: at training time each element is zeroed with
    probability [rate] and survivors are scaled by [1/(1-rate)]; at
    inference it is the identity. *)

(** {1 Shape} *)

val reshape : t -> int array -> t
val concat_channels : t -> t -> t

val broadcast_spatial : t -> h:int -> w:int -> t
(** Tile an [n; c; 1; 1] node to [n; c; h; w]; the backward pass sums the
    incoming gradient over the spatial axes. Lets a conditioning vector join
    a bottleneck whose spatial extent exceeds 1x1 (the half-depth student). *)

val spatial_mean : t -> t
(** Global average pooling: [n; c; h; w] -> [n; c]; the backward pass
    spreads the gradient uniformly over H and W. Used for feature matching
    between bottlenecks of different spatial sizes. *)

(** {1 Layers} *)

val conv2d : weight:t -> bias:t option -> stride:int -> pad:int -> t -> t
(** NCHW convolution; weight [\[oc; ic; k; k\]]. *)

val conv_transpose2d : weight:t -> bias:t option -> stride:int -> pad:int -> t -> t
(** NCHW transposed convolution; weight [\[ic; oc; k; k\]]. *)

val linear : weight:t -> bias:t option -> t -> t
(** [linear ~weight ~bias x] is [x * weight^T + bias] for [x : \[n; in\]],
    [weight : \[out; in\]]. *)

val batch_norm :
  gamma:t ->
  beta:t ->
  running_mean:float array ->
  running_var:float array ->
  momentum:float ->
  eps:float ->
  training:bool ->
  t ->
  t
(** Batch normalisation over the N/H/W axes of an NCHW tensor. In training
    mode batch statistics are used and the running statistics are updated in
    place; in inference mode the running statistics are used. Forward and
    backward read and write the raw buffers, one channel plane at a time. *)

(** {1 Losses (scalar-valued nodes of shape [|1|])}

    Each loss sums its elements in order in a float accumulator, and its
    backward writes the per-element gradient straight into the operand's
    gradient (the first to reach it) or a workspace borrow. *)

val mean_all : t -> t
val sum_all : t -> t

val l1_loss : t -> Tensor.t -> t
(** Mean absolute error against a constant target. *)

val mse_loss : t -> Tensor.t -> t

val bce_with_logits : t -> Tensor.t -> t
(** Numerically-stable binary cross entropy on logits, averaged over all
    elements; target entries must lie in [\[0, 1\]]. *)

(** {1 Engine} *)

val backward : t -> unit
(** Seeds the node's gradient with ones and back-propagates. The node is
    normally a scalar loss. *)
