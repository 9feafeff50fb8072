(** Dense linear algebra kernels over 2-D {!Tensor.t} values.

    These are the hot loops of the neural-network stack: everything
    convolutional is lowered through im2col onto {!gemm} or {!Packed.gemm}
    (see {!Conv}).

    The production GEMM is cache-blocked and panel-packed: A and B are
    copied into contiguous MR-tall / NR-wide k-major micro-panels one
    MC x KC / KC x NC block at a time (packing buffers come from the
    {!Workspace} arena, so steady state allocates nothing). Register tiles
    cover each 4 x 4 tile of C: a 4x2 tile on each full column pair and a
    4x1 tile on a lone last column. A tile accumulates each KC block in
    registers, one product at a time in depth order, and adds it to C
    once; a tile that overhangs the last row adds only its real rows.
    Transposes are absorbed by the packing — [trans_a]/[trans_b] never
    materialise a transposed copy on this path.

    Determinism contract: results are bit-identical for every domain count.
    The pool partitions rows of C in MR-aligned panels and every element's
    accumulation order depends only on the KC block grid, never on lane
    boundaries. *)

type kernel_impl =
  | Reference  (** previous two-row-blocked kernel, the tests' oracle *)
  | Tiled  (** cache-blocked, packed production kernel (default) *)

val set_kernel : kernel_impl -> unit
val kernel : unit -> kernel_impl
(** Kernel selection; defaults to [Tiled]. Both implementations satisfy the
    full {!gemm} contract. *)

val set_small_cutoff : int -> unit
(** Multiply-add count below which {!gemm} uses the serial row kernel
    instead of packing panels (default 16384). Exposed so tests can force
    tiny shapes through the tiled path. *)

val is_small : m:int -> k:int -> n:int -> bool
(** Whether an [m x k] by [k x n] product runs the row kernel. That kernel
    rounds its running sum to float32 at every step, the tiled one once
    per 256-deep block, so the same element computed once each way can
    differ in the last bit. *)

(** An activation applied to the B operand as a kernel loads it, so no
    activated copy of B is ever materialised. [Relu] is [Float.max 0.0]
    and [Leaky s] is [if v > 0 then v else s * v], as the autodiff tape
    computes them, except that a leaky -0.0 comes out +0.0: a difference no
    product can observe, since every accumulator starts at +0.0. *)
type act = No_act | Relu | Leaky of float

val activate_ : act -> Tensor.t -> unit
(** Applies the activation to every element, in place. *)

val gemm :
  ?trans_a:bool ->
  ?trans_b:bool ->
  alpha:float ->
  a:Tensor.t ->
  b:Tensor.t ->
  beta:float ->
  Tensor.t ->
  unit
(** [gemm ~alpha ~a ~b ~beta c] computes [c <- alpha * op(a) * op(b) + beta * c]
    where [op] optionally transposes. All of [a], [b], [c] are 2-D; inner
    dimensions must agree. *)

val transpose : Tensor.t -> Tensor.t
(** Fresh transposed copy of a 2-D tensor. *)

val transpose_into : src:Tensor.t -> dst:Tensor.t -> unit
(** Writes [src]'s transpose into caller-owned [dst] (no allocation); [dst]
    must have the transposed element count. *)

(** Prepacked float weights.

    [pack] copies op(W) once into MR-tall k-major panels grouped in
    KC-major blocks, the layout {!Int8.qweight} uses. A {!Packed.gemm}
    call then packs only its B operand and runs the same register tiles
    over the stored panels, so
    [Packed.gemm ~a:(Packed.pack ~trans w) ~b c] is bit-identical to
    [gemm ~trans_a:trans ~alpha:1.0 ~a:w ~b ~beta:0.0 c] under the [Tiled]
    kernel, at every domain count and on every shape, including those
    below the small-GEMM cutoff.

    Two owners use it. A compiled inference program packs each weight once
    at compile time ({!pack}). A convolution on the autodiff tape packs its
    weight once per call and reuses the panels for every sample
    ({!with_packed}), where {!gemm} would pack W again for each one. *)
module Packed : sig
  type t

  val pack : ?trans:bool -> ?row_scale:float array -> Tensor.t -> t
  (** [pack w] packs op(w) (2-D; [trans] selects the transpose) in one
      pass, into storage of its own, with disjoint panel ranges packed on
      the domain pool's lanes. [row_scale] (length = rows of op(w))
      multiplies each row as it is packed, rounding to float32 as a scaled
      copy of [w] would. *)

  val with_packed : ?trans:bool -> Tensor.t -> (t -> 'a) -> 'a
  (** [with_packed ~trans w f] is [f (pack ~trans w)] with the panels in a
      {!Workspace} borrow, so a warm caller allocates nothing. The packed
      weight is valid only inside [f] and must not escape it. *)

  val gemm : ?act:act -> a:t -> b:Tensor.t -> Tensor.t -> unit
  (** [gemm ~act ~a ~b c] overwrites [c] with [a * act(b)]; [c] must be
      [rows a] x [cols b]. *)

  val rows : t -> int
end

(** Int8 quantized GEMM micro-path.

    Same KC grid and MR=NR=4 panel discipline as the float32 kernel, but
    the weight operand is quantized symmetrically (per-output-row scales,
    q in [-127, 127]) and prepacked ONCE, while the activation operand is
    quantized per call with a single per-tensor scale as it is packed.

    The integers travel in doubles: a packed weight holds two rows in one
    double, [q_r + q_(r+1) * 2^24], and a packed B panel holds each
    column's q as a float32, so one multiply-add advances two rows' dot
    products. Over a 256-deep block each dot product stays below 2^22 in
    magnitude, so both lanes and every partial sum are exact. Per block
    the epilogue stores [c <- f32((c + (s_w * s_a) * dot) + bias)], with
    the bias on the first block only; the first block writes [c] without
    reading it.

    Determinism contract: identical to the float kernel — bit-identical
    results at every domain count. *)
module Int8 : sig
  type qweight
  (** A quantized, prepacked weight matrix (plus its scales and an
      optional fused bias). Four bytes per weight. *)

  val scale_of_amax : float -> float
  (** The symmetric scale of a range whose largest magnitude is [a]:
      [a/127], or 1.0 when [a] is 0 or not finite. *)

  val quantize : ?trans:bool -> ?bias:float array -> Tensor.t -> qweight
  (** [quantize w] quantizes op(w) (2-D; [trans] selects the transpose)
      with symmetric per-output-row scales [scale_of_amax maxabs] and packs
      it.
      [bias] (length = output rows) is fused into the {!gemm} epilogue.
      Raises [Invalid_argument] on a NaN or infinite weight, which has no
      int8 value. *)

  val quantize_packed : ?bias:float array -> Packed.t -> qweight
  (** As {!quantize}, reading the weight from its packed float form. *)

  val pack :
    m:int ->
    k:int ->
    scales:float array ->
    ?bias:float array ->
    get:(int -> int -> int) ->
    unit ->
    qweight
  (** A [qweight] from already-quantized values: [get i p] is the int8
      value of row [i], depth [p]. Raises [Invalid_argument] if it is
      outside [-127, 127]. Tests build exact weights with it. *)

  val gemm :
    ?trans_b:bool -> ?act:act -> a:qweight -> act_scale:float -> b:Tensor.t -> Tensor.t -> unit
  (** [gemm ~a ~act_scale ~b c] overwrites [c] with
      [dequant(a * quant(act(op(b)))) + bias]: op(b) is activated and
      quantized on the fly at the symmetric per-tensor scale [act_scale]
      while packing. [c] must be [rows a] x [cols op(b)]. *)

  (** {2 A B operand quantized by the caller}

      A convolution quantizes each sample's input once and packs B
      straight from the quantized planes ({!Conv.conv2d_with}). The packed
      B of a [k x n] operand is NR-wide ([NR = 4]) k-major panels over the
      whole depth: element [(p, j)] sits at [(j / 4) * 4 * k + 4 * p +
      j mod 4], and the columns that pad the last panel hold 0. *)

  val panels_size : k:int -> n:int -> int
  (** Floats in the packed B of a [k x n] operand. *)

  val quantize_into : ?act:act -> act_scale:float -> src:Tensor.t -> Tensor.t -> unit
  (** [quantize_into ~act ~act_scale ~src dst] writes the q of every
      element of [act(src)], as floats, into the first [numel src]
      elements of [dst]. Each activated value is rounded to float32 before
      it is quantized, as a float column matrix would store it. *)

  val gemm_panels : a:qweight -> act_scale:float -> b:Tensor.t -> Tensor.t -> unit
  (** [gemm_panels ~a ~act_scale ~b c] is {!gemm} over a B already packed
      (the first [panels_size ~k:(cols a) ~n:(cols c)] elements of [b]):
      [c <- dequant(a * B) + bias]. *)

  val rows : qweight -> int
  val scales : qweight -> float array
end
