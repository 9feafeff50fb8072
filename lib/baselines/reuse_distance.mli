(** Exact LRU stack-distance (reuse-distance) computation.

    The stack distance of an access is the number of *distinct* blocks
    referenced since the previous access to the same block; cold accesses
    have infinite distance. Computed in O(n log n) with a Fenwick tree over
    access timestamps (Bennett & Kruskal / Olken's algorithm). *)

val infinite : int
(** Sentinel for cold (first-touch) accesses ([max_int]). *)

val distances : ?block_bytes:int -> int array -> int array
(** Per-access stack distance of the block-folded trace, fully-associative
    semantics. Default block size 64. *)

val histogram : int array -> (int * int) list
(** Sorted (distance, count) pairs; {!infinite} collects cold misses. *)

val log2_binned : int array -> int array
(** Maps every distance to the representative distance of the power-of-two
    bucket containing it (0 and {!infinite} map to themselves). Compact
    log2-binned profiles are what HRD-family tools store instead of exact
    histograms; binning before prediction reproduces their fidelity. *)

val hit_rate_fully_associative : capacity_blocks:int -> int array -> float
(** Exact LRU hit rate of a fully-associative cache of the given capacity,
    derived from distances (LRU stack inclusion: hit iff distance <
    capacity). *)

val set_associative_hit_probability :
  sets:int -> ways:int -> distance:int -> float
(** Probabilistic fully-associative-to-set-associative conversion (Smith's
    binomial model): the probability that an access at fully-associative
    stack distance [d] hits in a [sets] x [ways] LRU cache, assuming blocks
    scatter uniformly over sets. *)

val predict_set_associative : sets:int -> ways:int -> int array -> float
(** Expected hit rate of a set-associative LRU cache under the binomial
    model, given the per-access distances. This is the (deliberately
    approximate) single-level predictor HRD builds on. *)
