(** Trace-driven set-associative cache model (the ChampSim-equivalent
    ground-truth engine of this reproduction).

    Addresses are non-negative byte addresses; the cache operates on
    aligned blocks of [block_bytes]. The set count must be a power of two
    (as in ChampSim); associativity is arbitrary.

    LRU and FIFO keep each set in order, most recently used (LRU) or
    filled (FIFO) block first and invalid ways last, so a lookup stops at
    the block or at the first invalid way and the victim is always the
    last way; no per-way replacement state is kept. PLRU, SRRIP and Random
    keep blocks where they were filled, because their replacement bits and
    random draws are tied to way positions. *)

type policy =
  | Lru  (** least-recently-used (ChampSim default, used by the paper) *)
  | Fifo
  | Plru  (** bit-PLRU (MRU-bit approximation, any associativity) *)
  | Srrip  (** 2-bit static RRIP *)
  | Random_policy of int  (** uniformly random victim, seeded *)

type config = {
  sets : int;
  ways : int;
  block_bytes : int;
  policy : policy;
}

val config :
  ?block_bytes:int -> ?policy:policy -> sets:int -> ways:int -> unit -> config
(** Defaults: 64-byte blocks, LRU — the paper's fixed setting. *)

val size_bytes : config -> int
(** Total capacity in bytes. *)

val config_name : config -> string
(** e.g. ["64set-12way"], the paper's naming. *)

val config_tag : config -> string
(** The canonical descriptor of a config, e.g. ["64s12w64b-lru"] or
    ["64s12w64b-rnd7"]: every field, policy seed included. The shard
    router's placement and prediction-memo keys are built from it, so a
    change to this string reshards every router and empties its memo. *)

type stats = { accesses : int; hits : int; misses : int }

val hit_rate : stats -> float
(** Hits over accesses; 0 when empty. *)

type t

val create : config -> t

val access : t -> int -> bool
(** Demand access by byte address: returns [true] on hit, updates
    replacement state and statistics, and allocates the block on miss. *)

val access_evict : t -> int -> bool * int option
(** Like {!access}, additionally reporting the byte address of the block
    evicted to make room (None on hit or when an invalid way was filled) —
    the hook victim caches need. Under LRU and FIFO that is the block in
    the set's last way. *)

val probe : t -> int -> bool
(** Presence check with no side effects. *)

val insert : t -> int -> unit
(** Fill a block without touching demand statistics (prefetch fill). No-op
    if already present. *)

val stats : t -> stats
val reset : t -> unit
(** Empties the cache and clears statistics. *)
