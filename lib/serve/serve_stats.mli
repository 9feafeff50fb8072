(** Serving counters and latency percentiles: what a stats reply reports.

    Thread-safe: every mutation and the snapshot run under one internal
    mutex, so counters stay consistent across the daemon's threads (the
    reactor records sheds, the batcher thread records batch completions,
    a reload thread records its reply). Latencies are kept in a ring of the
    1024 most recent samples; p50/p99 are computed over it on demand. *)

type t

type summary = {
  served : int;  (** requests answered (ok or error), excluding shed *)
  ok : int;  (** answered successfully, including degraded *)
  degraded : int;  (** answered by an analytical fallback *)
  shed : int;  (** rejected at admission ([Overloaded]) *)
  errors : (string * int) list;  (** taxonomy code → count, code order *)
  p50_ms : float;  (** 0 when no samples *)
  p99_ms : float;
  batches : int;  (** batched forward passes executed *)
  max_batch : int;  (** the most infer items one forward carried *)
  retries : int;
      (** extra upstream attempts after a failed one (router only; a
          request shed on one backend and served by another counts once in
          [served]/[ok] and once here) *)
  hedges : int;  (** attempts abandoned on a per-attempt timeout *)
  degraded_router : int;
      (** requests the router answered from its in-process baseline because
          every live replica for the key was unusable *)
  backends : (string * int) list;
      (** successful answers per serving backend (["float32" | "int8" |
          "student" | "student-int8" | "hrd" | "stm"]), sorted by name; a
          backend absent from the list has served nothing *)
}

val create : unit -> t

val record :
  ?backend:string ->
  t ->
  ok:bool ->
  degraded:bool ->
  code:Serve_error.code option ->
  latency_s:float ->
  unit
(** One answered request. [code] is set for error answers; [backend] names
    the backend that produced a successful answer. *)

val record_batch : t -> size:int -> unit
(** One batched forward pass carrying [size] requests. *)

val shed : t -> unit
(** One request rejected at admission. *)

val record_retry : t -> unit
(** One extra upstream attempt made after a failed one (the eventual answer
    is still recorded exactly once via {!record}). *)

val record_hedge : t -> unit
(** One upstream attempt abandoned because its per-attempt timeout fired
    while the request deadline still had headroom. *)

val record_degraded_router : t -> unit
(** One request answered by the router's own in-process baseline because no
    upstream replica was usable. *)

val snapshot : t -> summary
