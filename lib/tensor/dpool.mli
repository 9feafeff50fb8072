(** Persistent domain pool for data-parallel kernels (OCaml 5 domains).

    Worker domains are spawned lazily on the first parallel region that needs
    them and reused for the lifetime of the process (an [at_exit] hook — or an
    explicit {!shutdown} — joins them). The pool backs the row-blocked
    {!Blas.gemm} kernel, the sample/channel-parallel loops in
    {!Conv}, the large elementwise loops in {!Tensor}, and batch-parallel
    CB-GAN inference ({!Cbox_infer}).

    {b Determinism.} Every parallel region splits its iteration space into
    deterministic contiguous slices, one per lane, and each output element is
    written by exactly one lane running the same scalar code as the serial
    path. Kernels built this way are bit-identical to their serial versions
    for every domain count (the property suite in [test/test_parallel.ml]
    checks this with exact float equality).

    {b Nesting.} A parallel region entered from inside another one (e.g. a
    {!Blas.gemm} inside a batch scored by {!parallel_map_array}) runs serially
    on the current domain instead of deadlocking; the outermost region owns
    the pool. *)

val recommended : unit -> int
(** Domains worth using on this machine (at least 1). *)

val domains : unit -> int
(** The pool's configured lane count: the last {!set_domains} value, else
    [CACHEBOX_DOMAINS] from the environment, else {!recommended}. A lane
    count of 1 means every kernel takes its serial path. *)

val set_domains : int -> unit
(** Override the lane count for subsequent parallel regions (e.g. from the
    [--domains] CLI flag). Raises [Invalid_argument] for counts < 1; counts
    are capped well below the runtime's domain limit. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the lane count set to [n], restoring the
    previous setting afterwards (also on exceptions). *)

val parallel_for : ?domains:int -> int -> (int -> int -> unit) -> unit
(** [parallel_for n body] partitions [0 .. n-1] into one contiguous slice per
    lane and calls [body lo hi] (inclusive bounds) for each slice, lane 0 on
    the calling domain. [body] must write only locations owned by its slice.
    Exceptions raised by any lane are re-raised on the caller (lowest lane
    first). [?domains] overrides the configured lane count for this call. *)

val parallel_map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array f a] applies [f] to every element, splitting the work
    across up to [domains] (default {!domains}) lanes. Order is preserved.
    [f] must not rely on shared mutable state: each lane executes a disjoint
    slice. An exception raised by [f] on any lane is re-raised on the caller
    with its original backtrace. Falls back to plain [Array.map] when one
    lane suffices or the array is small. *)

val shutdown : unit -> unit
(** Stop and join all pool workers. Safe to call at any time (also via
    [at_exit]); a later parallel region simply restarts the pool. *)
