(** The single strict gate every external input passes through.

    Cache configurations, traces, heatmaps, files and wire requests are all
    validated here before any downstream code sees them; every rejection is
    a typed {!Serve_error.t}, so callers (the daemon, the CLI) map failures
    to stable wire/exit codes without ad-hoc exception handling. *)

val max_sets : int
val max_ways : int
val default_max_trace_len : int

val cache_config :
  ?block_bytes:int ->
  ?policy:Cache.policy ->
  sets:int ->
  ways:int ->
  unit ->
  (Cache.config, Serve_error.t) result
(** Power-of-two sets in [\[1, 2^22\]], ways in [\[1, 1024\]], power-of-two
    block size in [\[8, 65536\]]. Errors carry {!Serve_error.Invalid_config}
    and name the offending value. *)

val hierarchy_configs : Cache.config list -> (unit, Serve_error.t) result
(** Inner-to-outer level list (L1 first): each level's capacity must be at
    least its predecessor's (level monotonicity). *)

val trace :
  ?max_len:int -> ?what:string -> int array -> (unit, Serve_error.t) result
(** Non-empty, at most [max_len] (default {!default_max_trace_len})
    accesses, every address in [\[0, Trace_io.max_address\]]. *)

val trace_for_spec :
  Heatmap.spec -> ?max_len:int -> int array -> (unit, Serve_error.t) result
(** {!trace} plus the heatmap pipeline's own floor: the trace must fill at
    least one full heatmap image under [spec]. *)

val read_trace_file :
  ?max_len:int -> string -> (int array, Serve_error.t) result
(** {!Trace_io.read_auto} with every failure mode mapped into the taxonomy
    (missing file / bad magic / checksum mismatch / truncation →
    {!Serve_error.Corrupt_input}) and the result gated through {!trace}. *)

val load_checkpoint : (unit -> 'a) -> ('a, Serve_error.t) result
(** Runs a checkpoint-loading thunk, mapping [Failure]/[Sys_error] (the
    loader's documented failure modes) to {!Serve_error.Model_unavailable}
    with the cause preserved. *)

(** {1 Wire requests} *)

type trace_source =
  | Inline of int array  (** addresses carried in the request *)
  | Benchmark of { name : string; length : int }  (** generate on the server *)
  | File of string  (** read a trace file server-side *)

val resolve_trace : max_len:int -> trace_source -> (int array, Serve_error.t) result
(** The source's addresses: carried inline, generated from the named
    benchmark ({!Serve_error.Bad_request} when unknown), or read by
    {!read_trace_file} under [max_len]. *)

type feed_payload =
  | Addrs of int array
  | Corrupt of string
      (** the chunk parsed as a request but its address payload is broken
          (missing, not an array, non-integer element). Deliberately NOT a
          validation error: the session layer must see the fault so it can
          poison that one session with a typed [corrupt_input] instead of
          the line bouncing as a sessionless [bad_request]. Address range
          checks are likewise left to the session. *)

type request =
  | Infer of {
      id : string option;
      sets : int;
      ways : int;
      source : trace_source;
      deadline_s : float option;  (** requested budget, seconds, at most 60 *)
      backend : Cbox_infer.backend option;
          (** requested scoring backend; [None] means the daemon default *)
    }
  | Health
  | Stats_request
  | Shutdown
  | Reload of { id : string option; checkpoint : string option }
      (** hot-swap the model; [checkpoint] overrides the daemon's default
          reload path *)
  | Stream_open of { id : string option; sets : int; ways : int }
      (** open a streaming session for this cache geometry; the reply
          carries the session token, the window geometry and the initial
          credit *)
  | Stream_feed of {
      id : string option;
      session : string;
      seq : int option;  (** client-side chunk ordinal, echoed back *)
      ack : int option;  (** windows up to this index may be pruned *)
      payload : feed_payload;
    }
  | Stream_resume of { id : string option; session : string; last_window : int option }
      (** re-attach to a session from a new connection; retained window
          results past [last_window] are replayed in the reply *)
  | Stream_close of { id : string option; session : string }

val request : ?max_trace_len:int -> string -> (request, Serve_error.t) result
(** Parse and schema-check one protocol line: a line that is not JSON is
    [bad_request] ("malformed JSON: ..."). [op] selects the variant;
    [infer] requires integer [sets]/[ways] and exactly one of [trace]
    (array of addresses), [benchmark] (+ optional [trace_len]) or
    [trace_file]; optional [id] (string), [deadline_ms] (a number in
    (0, 600000], served with a budget capped at 60 s: [deadline_s] is at
    most 60) and [backend] (a {!Cbox_infer.backend_name} — an unknown
    value is a typed {!Serve_error.Invalid_config});
    [reload] takes optional [id] and [checkpoint] (string path);
    the [stream_*] ops require a non-empty [session] (except [stream_open],
    which requires [sets]/[ways]). Unknown [op]s, wrong types, over-limit
    traces and out-of-range deadlines are {!Serve_error.Bad_request}. *)
