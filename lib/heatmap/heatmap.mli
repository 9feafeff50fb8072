(** Memory-trace heatmaps (paper §3.1).

    A trace is rendered as an H x W image: the y-axis is the block address
    modulo [height], the x-axis is time binned into windows of [window]
    consecutive accesses, and each pixel counts the accesses to that
    modulo-address in that window. A long trace is cut into multiple
    heatmaps with a fractional column overlap (the paper found 30% best)
    that serves as warm-up context for the model.

    Heatmaps are stored as 2-D tensors of shape [\[height; width\]]. *)

type spec = {
  height : int;  (** modulo of the address mapping (paper: 512) *)
  width : int;  (** windows (columns) per heatmap (paper: 512) *)
  window : int;  (** accesses per column (paper: 100) *)
  overlap : float;  (** fraction of columns shared with the previous image *)
  granularity : int;
      (** bytes per address unit before the modulo; 64 folds addresses to
          cache blocks *)
}

val spec :
  ?height:int ->
  ?width:int ->
  ?window:int ->
  ?overlap:float ->
  ?granularity:int ->
  unit ->
  spec
(** Defaults are the repro-scale settings (64 x 64, window 50, 30% overlap,
    block granularity); pass explicit values for other scales. *)

val accesses_per_image : spec -> int
val step_accesses : spec -> int
(** Accesses by which consecutive heatmap origins advance (i.e. image size
    minus overlap). *)

val overlap_columns : spec -> int

val image_count : spec -> int -> int
(** Number of heatmaps generated from a trace of the given length (at least
    one full image is required; raises [Invalid_argument] on shorter
    traces). *)

val of_trace : spec -> int array -> Tensor.t list
(** Access heatmaps of a full trace. *)

val of_trace_filtered : spec -> addresses:int array -> keep:bool array -> Tensor.t list
(** Heatmaps counting only the accesses with [keep.(i) = true] — with
    [keep = misses] this builds the paper's miss heatmaps aligned
    column-for-column with {!of_trace}'s access heatmaps. *)

val pair_of_trace :
  spec -> addresses:int array -> hits:bool array -> (Tensor.t * Tensor.t) list
(** Aligned (access, miss) heatmap pairs. *)

(** Streaming heatmap construction: feed one access at a time and collect
    completed images — no trace arrays, constant memory in the trace
    length. An accumulator carries [planes] aligned pixel planes (e.g.
    plane 0 = accesses, plane 1 = misses); each {!Accum.add} structurally
    advances every plane and increments the pixel in the planes whose bit
    is set in [mask]. Completed images are bit-identical to
    {!of_trace}/{!of_trace_filtered}/{!pair_of_trace} over the same
    stream; a trace shorter than one image simply completes zero images
    (no exception, unlike {!image_count}). Feeding cannot be undone: a
    caller that may reject part of its input (a streaming session's
    range check) checks all of it before feeding any. *)
module Accum : sig
  type t

  val create : ?planes:int -> spec -> t
  (** [planes] defaults to 1; at most 30. *)

  val add : t -> addr:int -> mask:int -> unit
  (** Feed the next access of the stream. Bit [p] of [mask] selects whether
      plane [p] counts this access; the stream position advances for every
      plane regardless (so planes stay column-aligned). *)

  val completed : t -> int
  (** Images fully accumulated so far (equals {!image_count} once the
      stream ends, or 0 for short streams). *)

  val fed : t -> int
  (** Accesses fed so far ({!add} calls), counting masked-out ones — the
      stream position, from which window/image boundaries are derivable. *)

  val images : t -> plane:int -> Tensor.t list
  (** Completed [\[height; width\]] images of one plane, oldest first. *)

  val take_completed : t -> Tensor.t array list
  (** Drain the held completed images (oldest first, one per-plane array
      each) and forget them, so an unbounded stream runs in constant
      memory; {!completed} keeps counting. *)

  val deoverlapped_mass : t -> plane:int -> float
  (** Exactly [deoverlapped_sum spec (images t ~plane)], tracked as integer
      counters during accumulation — the streaming route to {!hit_rate}
      without a pixel pass. *)
end

val deoverlapped_sum : spec -> Tensor.t list -> float
(** Total pixel mass counting each access window exactly once: for every
    image after the first, the overlapped leading columns are skipped
    (paper §4.4). *)

val hit_rate : spec -> access:Tensor.t list -> miss:Tensor.t list -> float
(** [1 - misses/accesses] over de-overlapped totals. *)

val render_ascii : ?max_rows:int -> ?max_cols:int -> Tensor.t -> string
(** Downsampled ASCII rendition (for terminal inspection). *)

val write_pgm : string -> Tensor.t -> unit
(** Write as a binary PGM image, normalised to the 0-255 range. *)
