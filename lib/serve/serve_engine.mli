(** The hardened inference engine behind [cachebox serve].

    One engine holds a {e generation} — the table of learned backends — the
    circuit breaker guarding it, the serving counters and the degradation
    policy. Every protocol line takes one path: {!classify_line} parses and
    validates it ({!Validate.request}) and either answers it or hands back
    the work, and the daemon runs that work; {!handle_line} is the same
    dispatch run in place. Every reply is a taxonomy error, a
    [degraded:true] baseline answer or a served answer, never an escaped
    exception.

    Every infer request runs through {!infer_batch}; {!handle_line} answers
    it as a batch of one. The degradation ladder (TAO-style hybrid) is one
    fold down the backend table:
    + a derived model — the int8 quantization, the distilled student, or
      the student's int8 quantization — when the request selects the
      [int8] / [student] / [student-int8] backend; a derived rung that is
      not loaded, or whose forward raises or answers invalidly, hands the
      request to the rung below it (float32), tagged [degraded:true] with
      reason [<rung>_unavailable] / [<rung>_fault] ([int8_*],
      [student_*], [student_int8_*]), without touching the breaker;
    + the float32 learned model, if loaded, the breaker allows it and the
      deadline has headroom for it; its faults count against the breaker;
    + the analytical baseline (HRD or STM per {!config.fallback}), tagged
      [degraded:true] with a reason, when the model is missing, the breaker
      is open, the model's answer fails its validity gate (NaN/out-of-range
      hit rate), or the model finished past the deadline;
    + a typed error ([model_unavailable] / [deadline_exceeded]) when
      fallback is off.

    A request that explicitly selects the [hrd] or [stm] backend is served
    by that predictor as a first-class, non-degraded answer (it needs no
    model and ignores the breaker). Every successful infer reply carries a
    ["backend"] field naming the backend that produced it, and the stats
    reply counts answers per backend.

    Concurrency: each backend is one compiled, stateless {!Qgen} program.
    The daemon runs every batch on its one batcher thread, but the engine
    is multi-entrant: a reload compiles beside it on another thread, and
    concurrent {!infer_batch} calls may run forwards of one program at
    once (their scratch comes from {!Workspace}, whose slot claim is
    atomic). The breaker, stats, journal, request counter and latency EWMA
    are shared and internally synchronised. *)

type config = {
  fallback : Cbox_infer.fallback;
  default_backend : Cbox_infer.backend;
      (** backend for requests that name none ([float32] unless overridden
          at daemon start) *)
  default_deadline_s : float;
      (** when the request names none (must be positive); a requested
          deadline is capped at 60 s by {!Validate.request} *)
  max_trace_len : int;  (** at least one heatmap image's accesses *)
  breaker_threshold : int;  (** consecutive model faults before opening *)
  breaker_cooldown_s : float;
  grace_lo : float;  (** validity gate, passed to Cbox_infer.validate_hit_rate *)
  grace_hi : float;
}

val default_config :
  ?fallback:Cbox_infer.fallback -> ?default_backend:Cbox_infer.backend -> unit -> config
(** HRD fallback, float32 default backend, 5 s default deadline, 2M-access
    trace cap, breaker 3 faults / 5 s cooldown, grace
    [\[-0.25, 1.25\]]. *)

type t

type reload_spec = {
  reload_seed : int;  (** seed for the fresh model skeleton *)
  reload_model_cfg : Cbgan.config;  (** architecture the checkpoint must fit *)
  reload_default_path : string option;
      (** used when the reload request names no checkpoint (typically the
          daemon's startup checkpoint path, re-read on SIGHUP) *)
  reload_student_path : string option;
      (** student checkpoint re-read on every reload, so SIGHUP hot-swaps
          the distilled backend along with the teacher; a checkpoint that
          fails to load keeps the previous student serving *)
}

val create :
  ?now:(unit -> float) ->
  ?journal:Runlog.t ->
  ?reload:reload_spec ->
  ?student_path:string ->
  spec:Heatmap.spec ->
  model:Cbgan.t option ->
  config ->
  t
(** [now] defaults to [Unix.gettimeofday] (inject a fake clock in tests).
    [model = None] starts in degraded mode (every inference falls back).
    [reload] enables the hot-swap path ({!reload}, the [reload] wire verb
    and SIGHUP in the daemon); without it reloads are rejected as
    [invalid_config]. Raises [Invalid_argument] on settings under which no
    infer could be answered: a [default_deadline_s] that is not positive,
    or a [max_trace_len] below {!Heatmap.accesses_per_image} [spec] (and on
    a breaker setting {!Breaker.create} rejects). [student_path] loads a distilled student checkpoint
    (and eagerly builds its int8 quantization) for the [student] and
    [student-int8] backends; a checkpoint that fails to load — missing,
    corrupt, wrong schema — is journalled ([student_reject]) and dropped,
    with float32 serving untouched. *)

(** {2 The backend table} *)

type generation
(** One immutable generation of the learned backends ([float32], [int8],
    [student], [student-int8]): each one's compiled program (absent when
    not loaded) and the backend it falls back to. An engine reads its
    generation once per batch and a reload replaces it with one write. *)

val generation :
  ?prev:generation ->
  ?only:Cbox_infer.backend ->
  ?on_reject:(string -> string -> unit) ->
  spec:Heatmap.spec ->
  model:Cbgan.t option ->
  ?student_path:string ->
  unit ->
  generation
(** Build a generation: compile [model] to its float32 program and its int8
    quantization, and likewise load and compile the student at
    [student_path]. A compile that fails leaves its backend
    unloaded. A student checkpoint that fails to load is reported to
    [on_reject path why] and, like an absent [student_path], keeps [prev]'s
    student backends (none without [prev]). With [only] (a caller that
    serves one backend), only that backend's int8 compile is built. *)

val resolve :
  generation ->
  Cbox_infer.backend ->
  (Cbox_infer.generator * Cbox_infer.backend * string option) option
(** Walk the ladder from a learned backend to the first loaded rung:
    its program, the backend it serves as, and the
    [<rung>_unavailable] reason when that is not the requested backend.
    [None] when no rung down the ladder is loaded. *)

val model_of_checkpoint :
  seed:int -> Cbgan.config -> path:string -> (Cbgan.t, Serve_error.t) result
(** Builds a model and loads the checkpoint, mapping a missing file to
    [Model_unavailable] and loader failures (corrupt/truncated/mismatched)
    to [Model_unavailable] with the cause. *)

type outcome = Reply of Sjson.t | Shutdown_reply of Sjson.t

val handle_line : ?arrival:float -> t -> string -> outcome
(** {!classify_line}, then the daemon's dispatch run in place: a
    [Batchable] item is an {!infer_batch} of one, a [Deferred] thunk runs
    inline, and a stream op is answered [bad_request] (it needs the
    daemon's connections). Total; replies equal the daemon's but for
    [latency_ms]. A [Shutdown_reply] asks the caller to send the reply and
    stop serving. [arrival] is when the request entered the system
    (defaults to "now"); deadlines count from it, so queue wait is on the
    clock. *)

val now : t -> float
(** The engine's clock — use it to stamp request arrival at admission so
    deadlines include queue wait. *)

val spec : t -> Heatmap.spec
(** The heatmap geometry this engine serves (streaming sessions window
    their input with it). *)

val stats : t -> Serve_stats.summary
val breaker_state : t -> Breaker.state
val model_loaded : t -> bool

val student_loaded : t -> bool
(** Whether a distilled student is currently serving (also reported as
    [student_loaded] in the health reply). *)

val requests_seen : t -> int
(** Count of [infer] requests admitted so far (the fault-injection index). *)

(** {2 Zero-downtime reload} *)

val reload : t -> ?path:string -> unit -> (unit, Serve_error.t) result
(** Load the checkpoint at [path] (default: the reload spec's default
    path) on the calling thread, build a new {!generation} from it (and the
    re-read student checkpoint), then swap it in with one write; in-flight
    batches drain on the old generation, the next batch uses the new one.
    The serving path is never blocked. Failure modes leave the old
    generation serving: no reload spec ([Invalid_config]), no path
    ([Bad_request]), unreadable/corrupt checkpoint ([Model_unavailable]),
    or a reload already in progress ([Overloaded]). Call from a dedicated
    thread — loading and compiling take seconds. *)

val reloads : t -> int
(** Completed hot swaps (the model generation; 0 = startup model). *)

(** {2 Batched execution}

    The one line path: {!classify_line} splits a protocol line into either
    an immediate outcome (health/stats/shutdown, validation errors —
    answered without queueing for the model) or the work it asks for: a
    batchable infer item, a deferred reload or a stream op.
    {!infer_batch} then executes a coalesced batch of items through one
    shared forward pass per backend. Replies are bit-identical whatever the
    batch (inference batch-norm uses running statistics, and every sample
    runs its own GEMMs), except for the [latency_ms] field. *)

type infer_item

type classified =
  | Immediate of outcome
  | Batchable of infer_item
  | Deferred of (unit -> outcome)
      (** slow control-plane work (reload): run the (total) thunk off the
          batcher thread so model loading never stalls serving *)
  | Stream of Validate.request
      (** a [stream_*] op — the daemon routes it to {!Stream_session} with
          the request's connection identity and completion callbacks;
          {!handle_line} answers it [bad_request] *)

val classify_line : ?arrival:float -> t -> string -> classified
(** Parse + validate one protocol line ({!Validate.request}, which also
    caps a requested deadline at 60 s). Validation errors and non-infer ops
    are [Immediate] (already recorded in stats); a valid infer request
    becomes a [Batchable] item stamped with its admission index and absolute
    deadline; a reload is [Deferred]; stream ops are [Stream]. Total, like
    {!handle_line}. *)

val stream_item :
  t ->
  arrival:float ->
  cache:Cache.config ->
  trace:int array ->
  access:Tensor.t ->
  infer_item
(** One streamed window as a batchable item: [access] is the window's
    heatmap already blitted out of the session's {!Heatmap.Accum}
    (bit-identical to [of_trace] over [trace], the window's own accesses,
    which rides along for the HRD/STM degradation path). The item gets the
    next admission index — armed faults hit streamed windows exactly like
    offline requests — and the engine's default deadline from [arrival]
    (the moment the window closed). *)

val infer_batch : t -> infer_item list -> Sjson.t list
(** Execute a batch: one reply per item, in order. Expired, breaker-blocked
    and no-headroom items degrade per the ladder without touching the model;
    the rest run down the backend table in one fold, each backend's group
    as one forward of its program. Faults
    injected per admission index fire for their item only — except [Slow],
    which stalls the whole batch by the summed delay. The breaker/headroom
    admission decision is made once at batch start. *)

(** {2 Reply shapes, which the router shares} *)

val base_fields : string option -> (string * Sjson.t) list
(** The echoed ["id"], when the request had one. *)

val error_reply : ?id:string -> Serve_error.t -> Sjson.t

val hit_rate_reply :
  ?id:string ->
  degraded:bool ->
  source:string ->
  backend:string ->
  reason:string option ->
  latency_ms:float ->
  float ->
  Sjson.t

val backend_counter : Cbox_infer.backend -> string
(** A stats reply's count of one backend's answers: ["backend_student_int8"]. *)

val stats_fields :
  Serve_stats.summary -> (string * Sjson.t) list -> (string * Sjson.t) list
(** The fields of a stats reply, daemon's and router's alike: [ok], [op],
    the counters every server reports ([served], [ok_count],
    [degraded_count], [shed], [p50_ms], [p99_ms], [retries], [hedges],
    [degraded_router]), then [extra] (the server's own fields), then every
    {!backend_counter}, zeros included, and an [err_<code>] count per
    error code seen. *)

(** {2 Stream-session hooks}

    {!Stream_session} answers many requests on its own (quota sheds,
    poisoned sessions, protocol misuse, per-window degradation) but must
    keep the engine's counters and journal truthful; its replies route
    through these. *)

val shed_reply : ?id:string -> ?why:string -> t -> Serve_error.t -> Sjson.t
(** Typed error reply counted as a shed and journalled as a ["shed"]
    event, with a ["why"] field when [why] is given. The daemon answers a
    full queue with it too, and a line that arrives while it drains. *)

val error_reply_counted :
  ?id:string -> t -> arrival:float -> Serve_error.t -> Sjson.t
(** Typed error reply recorded in stats (served, error code, latency). *)

val ok_counted : t -> arrival:float -> Sjson.t -> Sjson.t
(** Record a successful non-degraded answer (latency from [arrival]) and
    pass the reply through. *)

val degraded_reply :
  ?id:string ->
  t ->
  arrival:float ->
  reason:string ->
  Cache.config ->
  int array ->
  Sjson.t
(** Analytical-baseline answer for one trace (a quota-degraded streamed
    window), tagged [degraded:true] with [reason] and recorded in stats —
    the same ladder rung {!infer_batch} uses, callable directly. *)

val journal : t -> string -> (string * Runlog.value) list -> unit
(** Append an event to the engine's journal (thread-safe; no-op without a
    journal). *)

val set_extra_stats : t -> (unit -> (string * Sjson.t) list) -> unit
(** Register extra top-level fields for the [stats] reply (the session
    manager's gauges/counters). Called on every stats request; must be
    thread-safe and fast. *)
