(** Reusable per-domain scratch arena for hot-path kernels.

    Packed GEMM panels, im2col column matrices and gradient temporaries are
    borrowed from here so that a warmed-up training step or served inference
    performs no large Bigarray allocations. Each domain owns a private arena
    in domain-local storage; Dpool's persistent workers therefore keep their
    scratch across parallel regions.

    Ownership discipline: a borrowed tensor is valid only inside the
    [with_buf] callback and must not escape it (the slot is recycled as soon
    as the callback returns). Nested borrows — including borrows from a
    nested Dpool region running serially on the same domain — take distinct
    slots. *)

val with_buf : ?zero:bool -> int array -> (Tensor.t -> 'a) -> 'a
(** [with_buf ~zero shape f] borrows a scratch tensor of [shape] from the
    current domain's arena (allocating fresh backing storage only on a size
    class miss) and releases it when [f] returns or raises. Contents are
    stale garbage unless [zero] is set (default [false]). The tensor must
    not escape [f]. *)

val with_buf2 : ?zero:bool -> int array -> int array -> (Tensor.t -> Tensor.t -> 'a) -> 'a
(** Two nested borrows; both share the [zero] policy. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** [set_enabled false] makes every borrow allocate a fresh buffer (the
    pre-arena behaviour); on by default. Tests use it to check the arena
    against fresh allocation. *)

(** {1 Observability}

    Process-wide monotonic counters, summed across all domains. *)

val alloc_count : unit -> int
(** Fresh backing-buffer allocations performed by the arena (borrow misses).
    After warmup, a steady-state training step must leave this unchanged —
    the invariant the workspace regression test asserts. *)

val borrow_count : unit -> int
(** Total borrows served (hits + misses). *)
