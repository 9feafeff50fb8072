(** Circuit breaker over the learned-model inference path.

    Closed (normal) → [threshold] consecutive failures → Open (model
    skipped, requests degrade straight to the analytical baseline) →
    [cooldown] seconds later → Half-open (exactly one probe request may try
    the model) → success closes, failure re-opens.

    Time is injected at construction so tests drive transitions with a fake
    clock. Thread-safe: every observation and transition runs under an
    internal mutex, because concurrent {!Serve_engine.infer_batch} calls
    each record per-request outcomes (the serve-batch suite
    hammers this from parallel threads and checks the open count). *)

type state = Closed | Open | Half_open

type t

val create : ?threshold:int -> ?cooldown:float -> now:(unit -> float) -> unit -> t
(** Defaults: threshold 3 consecutive failures, cooldown 5 seconds. *)

val state : t -> state
(** Current state; an expired cooldown is observed as [Half_open]. *)

val state_name : state -> string
(** ["closed" | "open" | "half_open"]. *)

val allow : t -> bool
(** May the next request try the model? [Closed] and [Half_open] (the
    probe): yes; [Open] with an unexpired cooldown: no. *)

val record_success : t -> unit
(** Model produced a valid answer: reset the failure streak, close. *)

val record_failure : t -> unit
(** Model faulted (exception, NaN, out-of-range): extend the streak; trips
    to [Open] at [threshold], and a [Half_open] probe failure re-opens
    immediately. *)

val consecutive_failures : t -> int
val times_opened : t -> int
(** Total Closed/Half-open → Open transitions (for the stats endpoint). *)
