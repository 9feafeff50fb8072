(** Non-blocking serving event loop: one [Unix.select] reactor owns accept,
    read and write for every client connection, replacing the old
    thread-per-connection blocking readers.

    Each connection carries an incremental {!Linebuf} (bytes may arrive in
    any framing: byte-by-byte, whole lines, coalesced multi-line chunks — the
    assembled lines are identical), plus a FIFO of reply {e tickets}. Every
    admitted line gets a ticket; whoever processes the request calls
    {!resolve} from any thread (a self-pipe wakes the loop), and the loop
    writes replies out strictly in per-connection request order — the
    resolved {e prefix} of the FIFO flushes, an early answer to a later
    request waits for its predecessors.

    Rejection paths: a line longer than [max_line] cannot be re-framed, so
    the connection is answered with [overflow_reply] (after any earlier
    queued replies) and closed; a disconnect mid-line discards the partial
    request (nobody is left to answer) while still flushing replies already
    owed. *)

module Linebuf : sig
  type t

  val create : max_line:int -> t

  val feed : t -> string -> string list * bool
  (** [feed t chunk] appends bytes and returns [(lines, overflowed)]: the
      complete lines the chunk closed, in order, and whether an oversized
      line was detected (sticky; later feeds return no lines). Lines
      completed before the overflow are still delivered. *)

  val pending : t -> int
  (** Bytes of the current partial line. *)

  val overflowed : t -> bool
end

type t
type ticket

val create :
  ?max_conns:int ->
  ?max_line:int ->
  ?overflow_reply:string ->
  ?idle_timeout_s:float ->
  listener:Unix.file_descr ->
  unit ->
  t
(** The listener must already be bound and listening. [max_conns] (default
    512, kept below the [select] FD_SETSIZE cap) pauses accepting when
    reached — further clients queue in the kernel backlog. [max_line]
    defaults to 1 MiB. [idle_timeout_s] (default: no reaping) arms the idle
    reaper: a connection with no unanswered tickets and a flushed output
    buffer that has neither read nor written a byte for that long is
    closed, so slow-loris connections cannot pin [max_conns] slots forever.
    Connections marked with {!exempt_idle} are never reaped. *)

val set_on_line : t -> (ticket -> string -> unit) -> unit
(** The per-line callback, invoked on the reactor thread with the line's
    ticket already enqueued in connection order. It must eventually cause
    {!resolve} on the ticket (immediately for sheds, or after batch
    execution) — an unresolved ticket holds its connection open. *)

val resolve : ticket -> string -> unit
(** Fill a ticket with its reply line (no trailing newline) and wake the
    loop. Thread-safe; each ticket resolves once. *)

val run : t -> unit
(** Drive the loop until {!stop}: blocks the calling thread. *)

val stop : t -> unit
(** Thread-safe: stop accepting, flush every resolved reply, close all
    connections, and make {!run} return. Callers must resolve all
    outstanding tickets first (the daemon's shutdown drain does). *)

val ticket_conn_id : ticket -> int
(** Stable id of the connection that carried this ticket's request, unique
    for the reactor's lifetime — streaming sessions bind to it so feeds
    from a different connection can be rejected. *)

val exempt_idle : ticket -> unit
(** Mark the ticket's connection exempt from the idle reaper (streaming
    sessions stay open between chunks while holding credit). Lasts until
    the connection closes. Callable from any thread. *)
