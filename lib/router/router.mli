(** Fault-tolerant shard router: one front process consistent-hashing wire
    requests across N backend serve daemons.

    Placement is keyed by the canonical cache-config descriptor
    ([Cache.config_tag], CRC-32'd), so requests for one geometry always hit
    the same shard. Failures are absorbed end to end: health-checked
    backends with consecutive-failure ejection, bounded retries with
    jittered exponential backoff onto successor replicas, per-backend
    circuit breakers, per-attempt (hedge) timeouts under the request
    deadline, and — when no replica is usable — graceful degradation to
    the in-process analytical baseline, tagged in the reply. A [reload]
    wire verb rolls a zero-downtime model hot-swap across every backend.

    Speaks exactly the serve daemon's line-delimited JSON protocol, so
    [cachebox call] and [cachebox loadgen] work unchanged against it. *)

type config = {
  listen : Serve_daemon.listen;  (** where the router accepts clients *)
  backends : (string * Serve_daemon.listen) list;
      (** distinct name → backend address; names seed ring placement, so
          keep them stable across restarts *)
  queue_depth : int;  (** admission queue bound; overflow is shed *)
  workers : int;  (** concurrent forwarder threads *)
  vnodes : int;  (** ring virtual nodes per backend *)
  max_attempts : int;  (** total upstream attempts per request (at least 1) *)
  backoff_base_s : float;  (** retry backoff: min(max, base*2^k)*U(.5,1) *)
  backoff_max_s : float;
  attempt_timeout_s : float;
      (** per-attempt (hedge) timeout, clamped to the request deadline;
          positive *)
  reload_timeout_s : float;  (** reloads load and compile a model: generous *)
  probe_interval_s : float;  (** health-probe cadence per backend; positive *)
  probe_timeout_s : float;
  eject_after : int;  (** consecutive failures before ejection *)
  breaker_threshold : int;
  breaker_cooldown_s : float;
  fallback : Cbox_infer.fallback;
      (** router-level degradation baseline; [No_fallback] turns
          exhaustion into [upstream_unavailable] errors *)
  memo_capacity : int;  (** prediction memo entries; 0 disables *)
  default_deadline_s : float;
      (** for requests without [deadline_ms]; positive. A requested
          deadline is capped at 60 s by {!Validate.request}, as in the
          daemons behind the router. *)
  max_trace_len : int;
}

val default_config :
  listen:Serve_daemon.listen ->
  backends:(string * Serve_daemon.listen) list ->
  config
(** 4 workers, 128 vnodes, 3 attempts, 25 ms–0.5 s backoff, 2 s attempt
    timeout, 1 s probes (0.5 s timeout), eject after 3, breaker 3/5 s,
    HRD fallback, 256-entry memo, 5 s default deadline. *)

val run : ?journal:Runlog.t -> ?ready:(unit -> unit) -> config -> unit
(** Serve until a [shutdown] request: bind the listener, start the reactor,
    forwarder pool and prober, call [ready] once accepting. Installs a
    SIGPIPE-ignore handler (upstream sockets die mid-write by design).
    Raises {!Serve_error.Error} ([Invalid_config]) on an empty or
    duplicate-named backend list, a configured number out of range
    (checked before binding, so no socket file is left), or an
    unbindable/unresolvable address. *)
