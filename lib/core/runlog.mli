(** Append-only JSONL run journal.

    One JSON object per line, flushed per event: [{"ts": <unix seconds>,
    "event": "<kind>", ...fields}]. The training loop journals snapshots,
    divergence trips, rollbacks and resumes; experiment drivers journal
    [driver_start]/[driver_end] pairs so an interrupted RQ sweep can skip
    already-completed drivers on the next run. *)

type value = S of string | I of int | F of float | B of bool

type t

val create : string -> t
(** Opens (appending, creating if absent) a journal at the given path. *)

val path : t -> string

val event : t -> string -> (string * value) list -> unit
(** Appends one event line and flushes. A timestamp and the event kind are
    added automatically. Safe to call from several threads and domains at
    once: each event is written whole, under the journal's own lock. *)

val close : t -> unit

val with_journal : string -> (t -> 'a) -> 'a
(** [create]/[close] bracket. *)

(** {1 Read-back} *)

val events : ?kind:string -> string -> string list
(** Raw journal lines, optionally filtered to one event kind; a line that
    does not parse as JSON (cut short by a crash mid-write) is of no kind.
    An absent file reads as empty. *)

val field : string -> string -> string option
(** [field line key] is the string value of ["key"] in a journal line, read
    with {!Sjson}; [None] when the line does not parse or has no such string
    field. *)

val completed_drivers : string -> string list
(** Driver names with a [driver_end] event in the journal, in order. *)
