(** Content-addressed cache of ground-truth simulation results.

    Simulating a (workload, cache/hierarchy configuration, heatmap spec)
    tuple is pure and deterministic, and experiment sweeps repeat the same
    tuples many times. This module caches each simulation's heatmap pairs
    and true hit rate on disk, keyed by the CRC-32 digest of a canonical
    descriptor string that covers everything the result depends on
    (including a format version).

    Entries are checksummed binary containers written atomically (temp file
    + rename). A corrupt, truncated, stale-format or colliding entry is
    indistinguishable from a miss: it is ignored and regenerated. Enable
    with [CACHEBOX_SIMCACHE=<dir>] or the [--simcache] CLI flag
    ({!set_dir}). *)

type section = {
  tag : string;  (** which sub-result, e.g. a hierarchy level name *)
  pairs : (Tensor.t * Tensor.t) list;  (** aligned (access, target) heatmaps *)
  true_hit_rate : float;
}

type stats = { hits : int; misses : int; stores : int; errors : int }

val enabled : unit -> bool
val dir : unit -> string option
(** The cache directory: the last {!set_dir} value, else [CACHEBOX_SIMCACHE]. *)

val set_dir : string option -> unit
(** Override (or with [None], disable) the cache directory. *)

val with_dir : string option -> (unit -> 'a) -> 'a
(** Run with the directory temporarily overridden, restoring on exit. *)

val config_tag : Cache.config -> string
(** The canonical descriptor of one cache config, e.g. ["64s12w64b-lru"]:
    part of every {!descriptor}, and the shard router's placement and memo
    key, so both agree on what "the same config" means. *)

val descriptor :
  kind:string ->
  workload:string ->
  trace_len:int ->
  configs:Cache.config list ->
  spec:Heatmap.spec ->
  string
(** Canonical cache key covering every input the simulation result depends
    on; bump-safe (embeds the container format version). *)

val entry_path : dir:string -> descriptor:string -> string
(** The file an entry for [descriptor] lives at (exposed for tests that
    plant corrupt or stale entries). *)

val lookup : descriptor:string -> section list option
(** [Some sections] on a valid hit; [None] (counted as a miss, plus an
    error if the file existed but was invalid) otherwise. Always [None]
    when the cache is disabled. *)

val store : descriptor:string -> section list -> unit
(** Write an entry atomically; a no-op when disabled. I/O failures are
    counted in {!stats} and otherwise ignored — the cache is an
    accelerator, never a correctness dependency. *)

val with_sections : descriptor:string -> (unit -> section list) -> section list
(** [lookup], or run the simulation and [store] its result. *)

val stats : unit -> stats
val reset_stats : unit -> unit
