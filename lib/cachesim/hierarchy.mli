(** Multi-level cache hierarchy simulation.

    Demand accesses enter L1; misses propagate to L2 and then L3 (when
    present). The hierarchy is non-inclusive: each level behaves as a lone
    cache fed the misses of the level above. {!run_observed} reports every
    access that reaches a level with its hit flag — the per-level
    access/miss streams the CacheBox heatmap pipeline consumes (paper §2:
    the bus between level i-1 and level i carries level i's access trace;
    the bus below carries its miss trace). Nothing is recorded. *)

type level = L1 | L2 | L3

val level_name : level -> string

type t

val create :
  ?l2:Cache.config ->
  ?l3:Cache.config ->
  ?l1_prefetcher:Prefetch.kind ->
  l1:Cache.config ->
  unit ->
  t
(** L1 prefetches fill L1 only and do not count as demand accesses
    (matching the paper's setup where prefetching is off for ground truth
    and modelled separately for RQ7). *)

val run : t -> int array -> unit
(** Feeds a whole trace: {!run_observed} with an observer that does
    nothing. *)

val levels : t -> level array
(** The configured levels, innermost (L1) first — the index space of
    {!run_observed}'s observer. *)

val run_observed : t -> f:(int -> int -> bool -> unit) -> int array -> unit
(** Feeds the trace and calls [f level_index addr hit] for every access
    that reaches a level (index 0 is L1; see {!levels}), in order: L1
    first, then each deeper level until one hits. Memory use is constant
    in the trace length — the dataset pipeline folds these events straight
    into heatmap accumulators. *)

val prefetches : t -> int
(** Prefetches the L1 prefetcher has issued since creation or {!reset}
    (RQ7 ground truth). *)

val stats : t -> (level * Cache.stats) list
val reset : t -> unit
