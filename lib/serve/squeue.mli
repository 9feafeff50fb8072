(** Bounded thread-safe FIFO with explicit shedding.

    The daemon's admission queue: connection readers push, the single
    worker pops. A full queue never blocks or buffers the producer — the
    push fails immediately and the caller answers
    {!Serve_error.Overloaded}, which is the backpressure contract (no
    unbounded buffering anywhere in the serving path). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity >= 1]. *)

val try_push : 'a t -> 'a -> bool
(** False when the queue is full or closed — the item was shed. Never
    blocks. *)

val pop : 'a t -> 'a option
(** Blocks until an item arrives; [None] once the queue is closed {e and}
    drained. *)

val try_pop : 'a t -> 'a option
(** [None] when the queue is currently empty (closed or not). Never blocks —
    the batcher uses it to drain whatever is ready without waiting. *)

val close : 'a t -> unit
(** Rejects future pushes and wakes blocked poppers (idempotent). *)

val length : 'a t -> int
