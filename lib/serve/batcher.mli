(** Dynamic micro-batching policy for the serving path.

    Pure coalescing state machine: admitted infer requests accumulate here
    until the batch is worth flushing, which happens when either
    - the queue reaches [max_batch] (a full batch), or
    - any queued request reaches its flush obligation — its enqueue time
      plus [max_linger_s], tightened to its deadline minus
      {!deadline_margin_s} for a request whose own deadline is near
      (deadline-aware flushing).

    The module only decides {e when} and {e what} to flush; the daemon's
    batcher thread owns the clock-driven loop and hands flushed batches to
    {!Serve_engine.infer_batch}. Time is injected at construction so the
    serve-batch suite replays exact coalescing schedules with a virtual
    clock. Thread-safe (one internal mutex). *)

type config = {
  max_batch : int;  (** flush as soon as this many requests are queued *)
  max_linger_s : float;  (** longest any request may wait for batch mates *)
}

val default_config : config
(** max_batch 32, linger 5 ms. *)

val deadline_margin_s : float
(** 50 ms: a request this close to its deadline flushes even if the batch
    is small, leaving headroom for the forward pass itself. *)

type 'a t

val create : ?now:(unit -> float) -> config -> 'a t
(** [now] defaults to [Unix.gettimeofday]; tests inject a virtual clock. *)

val push : 'a t -> ?deadline:float -> 'a -> unit
(** Enqueue one request; [deadline] is the request's absolute deadline on
    the batcher's clock (its flush obligation is clamped to now when the
    deadline is already within the margin). *)

val length : 'a t -> int

val due : 'a t -> bool
(** Must a batch be flushed right now? True on a full batch or any queued
    request at/past its flush obligation. *)

val next_flush : 'a t -> float option
(** Earliest flush obligation among queued requests ([None] when empty) —
    the batcher thread sleeps until this instant at the latest. *)

val take : 'a t -> 'a list
(** The batch to run now, FIFO order, at most [max_batch] items: everything
    queued when {!due}, [[]] otherwise. *)

val drain : 'a t -> 'a list
(** Everything queued, regardless of obligations (shutdown path). *)

val flushes : 'a t -> int * int
(** (full-batch flushes, linger/deadline-forced flushes) so far. *)
