(** Bounded LRU memo of model predictions, keyed by content-addressed
    descriptor strings ([Cache.config_tag] plus a trace-source digest).
    Thread-safe. Capacity 0 disables the memo ({!find} always misses,
    {!add} is a no-op). *)

type t

val create : capacity:int -> t
val find : t -> string -> Sjson.t option  (** hit promotes to MRU *)

val add : t -> string -> Sjson.t -> unit
(** Insert or refresh; evicts from the LRU end past capacity. *)

val clear : t -> unit
(** Drop every entry (after a cluster-wide reload the old model's
    predictions are stale). The hit and eviction counters survive. *)

val length : t -> int
val hits : t -> int
val evictions : t -> int
