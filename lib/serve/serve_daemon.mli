(** The [cachebox serve] daemon: line-delimited JSON over a Unix-domain or
    TCP socket, in front of {!Serve_engine}.

    Threading model: one non-blocking {!Reactor} event loop owns accept,
    read and write for every connection (no per-connection threads); each
    admitted line is pushed as a job into a bounded {!Squeue}. A single
    batcher thread drains it: health/stats/validation-error requests are
    answered immediately. It blocks until one line is admitted, takes every
    other line already queued, and runs the infer requests and stream
    windows they carry through one shared model forward
    ({!Serve_engine.infer_batch}) inline, at most [max_batch] per forward.
    Requests that queue behind a running forward share the next batch; no
    request waits for batch mates.

    A full queue sheds the request immediately with an [overloaded] reply —
    admission control, not buffering. Jobs are stamped with their admission
    time, so time spent queued counts against the request's deadline. A
    [{"op": "shutdown"}] request answers, then stops the daemon cleanly:
    requests taken from the queue before the shutdown line get real
    (batched) answers, requests still in the admission queue are answered
    with an [overloaded] "server shutting down" error, idle connections are
    woken with EOF, and the Unix socket file is removed.

    Zero-downtime reload (when [run] is given a reload spec): a
    [{"op": "reload"}] request — or SIGHUP for the default checkpoint —
    loads and compiles the new model on a dedicated thread, then atomically
    swaps the engine's backend table; in-flight batches drain on the old
    model, and a corrupt checkpoint is rejected while the old model keeps
    serving. Clients see at most elevated latency, never an error. *)

type listen = Unix_socket of string | Tcp of string * int

type config = {
  listen : listen;
  queue_depth : int;  (** bounded admission queue capacity *)
  max_batch : int;  (** most infer items one forward runs (at least 1) *)
  engine : Serve_engine.config;
  stream : Stream_session.config;  (** streaming-session quotas *)
  idle_timeout_s : float option;
      (** arm the reactor's idle-connection reaper (streaming connections
          are exempt while their session is live); [None] = no reaping *)
}

val default_config : listen -> config
(** Queue depth 64, max_batch 32, over {!Serve_engine.default_config};
    {!Stream_session.default_config} quotas, no idle reaping. *)

val sockaddr : listen -> Unix.sockaddr
(** The socket address of [listen], resolving a TCP host. Raises
    {!Serve_error.Error} [invalid_config] when the host does not resolve. *)

val bind_listener : listen -> Unix.file_descr
(** Bind (but not listen on) a server socket for [listen], with the stale
    unix-socket reclaim / live-socket refusal policy described above.
    Shared with the router front-end. Raises {!Serve_error.Error}. *)

val run :
  ?journal:Runlog.t ->
  ?reload:Serve_engine.reload_spec ->
  ?student_path:string ->
  ?ready:(unit -> unit) ->
  spec:Heatmap.spec ->
  model:Cbgan.t option ->
  config ->
  unit
(** Binds, listens and serves until a shutdown request; [ready] fires once
    the socket is accepting (tests use it to avoid races). [reload] enables
    the hot-swap path (wire verb + SIGHUP; the SIGHUP handler is installed
    for the duration of [run] and restored on exit). [student_path] loads a
    distilled student checkpoint for the [student]/[student-int8] backends
    (see {!Serve_engine.create}). Raises
    {!Serve_error.Error}: [invalid_config] when a configured number is out
    of range (checked before binding, so no socket file is left), when the
    Unix socket path is already served by a live daemon (a stale socket
    file left by a crash is reclaimed) or a TCP host does not resolve,
    [internal] when the socket cannot be bound. *)
