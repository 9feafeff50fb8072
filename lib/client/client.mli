(** The one client of the serving wire protocol (one JSON request per line,
    one reply line per request, in order), which the daemon, the shard
    router and live streams speak. The [call], [stream] and [loadgen]
    commands, the router's upstream hop and the socket tests use it.

    Timeouts are the caller's: [call] waits as long as a reply takes (a
    router's reload broadcast can take minutes), [stream] and [loadgen]
    give each exchange 60 s, the router one per attempt, probe or reload. *)

(** {1 Connections} *)

type t
(** One connection with a buffered line reader; one caller at a time. *)

type error =
  | Eof  (** the peer hung up, or sent a line over the 1 MiB frame cap *)
  | Timeout
  | Io of string

val error_message : error -> string

val connect : ?timeout:float -> Serve_daemon.listen -> (t, string) result
(** [timeout] is the send and receive timeout (default none). A failed
    connect closes its socket. Ignores SIGPIPE for the process, so writing
    to a peer that hung up fails instead of killing it. *)

val set_timeout : t -> float -> unit
(** Send and receive timeout from now on, at least 10 ms. *)

val send : t -> string -> (unit, error) result
(** Write one line; the newline is appended. *)

val recv : t -> (string, error) result
(** The next line. After an error, close the connection: a late reply may
    still arrive on it. *)

val request : t -> string -> (string, error) result
val close : t -> unit

val call : ?timeout:float -> Serve_daemon.listen -> string -> (string, string) result
(** Connect, send one line, return its reply line verbatim, close. *)

(** {1 Replies} *)

val is_ok : Sjson.t -> bool
val error_code : Sjson.t -> Serve_error.code option

val exit_code : Sjson.t -> int
(** 0 for an [ok] reply (degraded included), else its {!error_code}'s, or
    [internal]'s. *)

(** {1 Stream sessions} *)

module Stream : sig
  type failure =
    | Broken of error  (** the connection failed *)
    | Rejected of Sjson.t  (** the server's error reply *)
    | Protocol of string  (** not JSON, no session token, a window out of order *)

  val failure_message : failure -> string

  type session
  (** Each window in a reply goes to the session's [on_window] once, in
      index order: a replay is skipped, a gap after the first window is a
      {!Protocol} failure. Every request acks the windows delivered so
      far. *)

  val token : session -> string

  val consumed : session -> int
  (** Addresses the server has applied. *)

  val delivered : session -> int
  (** Windows passed to [on_window]. *)

  val open_ :
    t ->
    sets:int ->
    ways:int ->
    on_window:(int -> Sjson.t -> unit) ->
    (session * Sjson.t, failure) result
  (** Also returns the open reply. *)

  val resume :
    t ->
    token:string ->
    last_window:int ->
    on_window:(int -> Sjson.t -> unit) ->
    (session, failure) result
  (** Attach to a live session, acking windows up to [last_window], and
      poll until no window is pending. *)

  val pour :
    ?kill_after:int ->
    ?corrupt_at:int ->
    session ->
    int array ->
    chunk:int ->
    (Sjson.t option, failure) result
  (** Feed the trace from [consumed] in chunks clipped to [chunk] and the
      credit, then close the session (not the connection) and return the
      close reply. With no credit, wait 20 ms and send an empty feed for a
      fresh grant. Feed number [corrupt_at] sends a non-integer element.
      Once [kill_after] windows are in, die mid-stream instead: send one
      more chunk, close the connection unread and return [None]; the
      session lives on for {!resume}. Raises [Invalid_argument] when
      [chunk < 1], before sending anything. *)
end

(** {1 Load generation}

    The checkers report problems; a run with none passes. *)

type report = {
  answered : int;
  ok : int;  (** degraded included *)
  degraded : int;
  bad_request : int;
  shed : int;
  late : int;  (** [deadline_exceeded] *)
  per_backend : (Cbox_infer.backend * int) list;  (** ok replies naming each *)
  problems : string list;
}

val loadgen :
  Serve_daemon.listen ->
  clients:int ->
  requests:int ->
  invalid_every:int ->
  benchmark:string ->
  trace_len:int ->
  backends:Cbox_infer.backend list ->
  shutdown_after:bool ->
  report
(** Each client pipelines [requests] infer requests down one connection (a
    third a line at a time), every [invalid_every]th malformed (0: none),
    request [j] of client [k] naming the [(k + j) mod length]th of
    [backends], if any. Then it reads: reply [j] must answer request [j],
    a missing one is a drop. The target's [shed], [served] and per-backend
    counters must move as the replies say. *)

type stream_report = {
  windows : int;  (** delivered in order, over all sessions *)
  resumes : int;
  credit_sheds : int;
  stream_problems : string list;
}

val loadgen_stream :
  Serve_daemon.listen -> clients:int -> windows:int -> shutdown_after:bool -> stream_report
(** Each session pours a deterministic trace closing [windows] windows;
    client [k] dies halfway and resumes when [k mod 3 = 1], and sends a
    chunk past its credit, which must be shed, when [k mod 3 = 2]. The
    target's stream counters must match. *)
