(** SPEC CPU suite stand-in: a parameterized family of phase-structured
    synthetic benchmarks.

    Each benchmark is a deterministic mixture of access-pattern primitives
    (sequential streams, strided sweeps, Zipf hot-set accesses, pointer
    chases, stack walks and blocked 2-D traversals) whose footprints are
    drawn to span the paper's observed hit-rate spectrum (Fig 14: most SPEC
    traces above 65% L1 hit rate, with a long low-hit-rate tail). Benchmarks
    may have several phases — separate traces sharing a [group] — mirroring
    the multiple DPC3 trace files per SPEC benchmark used in Table 1. *)

type pattern =
  | Stream of { region_bytes : int; stride : int }
  | Zipf of { region_bytes : int; exponent : float }
  | Pointer_chase of { nodes : int }
  | Stack_walk of { max_depth : int }
  | Tiled of { matrix : int; tile : int }

val trace_of_patterns : seed:int -> (pattern * float) list -> int -> int array
(** [trace_of_patterns ~seed weighted n] interleaves the weighted patterns
    stochastically into an [n]-access trace. *)

val workloads : unit -> Workload.t list
(** The full SPEC-like roster (48 traces across 24 benchmark groups). *)

val table1_apps : string list
(** The five benchmark groups used by the paper's Table 1 comparison
    (numbered 600/602/607/631/638 after their SPEC counterparts); each has
    at least two phases. *)
