(** Live trace streaming sessions behind the daemon.

    A client opens a session ([stream_open]: cache geometry → token +
    window geometry + initial credit), pours its address trace in
    line-delimited [stream_feed] chunks, and receives a prediction for each
    heatmap window the chunk closed — blitted out of a per-session
    {!Heatmap.Accum} and batched through the engine like any other infer,
    so streamed answers are bit-identical to offline
    [of_trace]-then-infer over the same trace.

    Robustness invariants this module owns:

    - {b Bounded buffering / backpressure.} Every reply carries a [credit]
      grant (in accesses): the most the client may send before windows
      would outrun the per-session retention ring of [retain_windows]
      un-acknowledged results. An over-credit chunk is rejected atomically
      with a typed [overloaded] reply — nothing buffers beyond the fixed
      per-session footprint, ever. Clients free credit by acknowledging
      windows ([ack] in feeds, [last_window] in resumes).
    - {b Global quotas.} [max_sessions] and [max_bytes] cap admission at
      open ([overloaded], counted as a shed); [max_pending_windows] caps
      windows in flight across all sessions — over-quota windows degrade
      immediately to the analytical baseline (the engine's existing ladder
      rung) instead of deepening the backlog.
    - {b Resume.} A session lives in the daemon, not on the connection. A
      client that lost its connection re-attaches with [stream_resume]:
      the session re-binds to the new connection, un-acked window results
      are replayed, and [consumed] names the exact stream position to
      continue from. Results of windows still in the batcher land in the
      retention ring as they finish — poll resume until [pending] is 0.
    - {b Fault containment.} A chunk is checked before it is applied: an
      unparseable payload, or an out-of-range address anywhere in the
      chunk, applies nothing and poisons {e only} that session with a
      sticky, typed [corrupt_input], leaving [consumed] at the chunk
      boundary; resuming clears the poison. Injected model faults degrade
      only the window they hit (the engine's per-item gate) —
      neighbouring sessions' windows are never lost or reordered.

    Thread-safety: one internal lock; {!handle} and the completion
    callbacks run on the daemon's batcher thread. *)

type config = {
  max_sessions : int;  (** live sessions admitted *)
  retain_windows : int;
      (** per-session un-acked window results kept for replay; also the
          credit horizon *)
  max_pending_windows : int;  (** windows in the batcher, across sessions *)
  max_bytes : int;  (** summed per-session buffer footprints *)
  session_ttl_s : float;  (** idle sessions older than this are evicted *)
}

val default_config : config
(** 64 sessions, 8 retained windows, 256 pending windows, 64 MiB,
    300 s TTL. *)

type t

val create : ?config:config -> Serve_engine.t -> t
(** Sessions window their input with the engine's heatmap spec; replies,
    sheds and degradations are recorded through the engine's stats and
    journal. Raises [Invalid_argument] on non-positive config fields, and
    on a [max_bytes] below one session's footprint (a daemon that could
    never open a stream). *)

val handle :
  t ->
  conn:int ->
  arrival:float ->
  submit:(Serve_engine.infer_item -> (Sjson.t -> unit) -> unit) ->
  resolve:(Sjson.t -> unit) ->
  exempt:(unit -> unit) ->
  Validate.request ->
  unit
(** Process one validated [stream_*] request. Total: every path eventually
    calls [resolve] exactly once (immediately, or — for a feed that closed
    windows — once the last window's result lands). [conn] is the
    reactor's connection id: sessions bind to it at open, feeds from a
    different connection are rejected until a resume re-binds. [submit]
    hands a window to the batcher with its completion callback; the
    callback may fire on any thread. [exempt] is invoked on successful
    open/resume so the carrying connection escapes the idle reaper. *)

val sweep : t -> unit
(** Evict sessions idle past the TTL (with no windows in flight) — call
    periodically from the daemon's batcher thread so abandoned sessions
    release their quota without waiting for the next open. *)

val stats_fields : t -> unit -> (string * Sjson.t) list
(** Gauges/counters for the [stats] reply (register with
    {!Serve_engine.set_extra_stats}): one ["stream"] object with
    [sessions], [opened], [resumed], [closed], [windows], [pending],
    [bytes], [degraded_quota], [shed_credit], [shed_quota], [poisoned],
    [evicted]. *)

val live_sessions : t -> int
val pending_windows : t -> int

val buffered_bytes : t -> int
(** Current summed session footprints charged against [max_bytes]. *)
