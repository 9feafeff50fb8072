(** Tabular generative trace synthesis — the REaLTabFormer comparator of
    Table 1, reimplemented as three clone-and-resimulate synthesizers of
    increasing structure (mirroring the paper's Tab-Base / Tab-RD / Tab-IC
    columns):

    - {!val-base}: i.i.d. sampling from the empirical block-address
      distribution (no temporal structure at all);
    - {!val-rd}: an LRU-stack sampler that reproduces the trace's
      fully-associative reuse-distance histogram (temporal structure,
      no spatial structure);
    - {!val-ic}: a first-order Markov chain over exact block deltas
      ("instruction-context" conditioning; spatial structure, weak temporal
      structure). *)

type variant = Base | Rd | Ic

val synthesize : ?seed:int -> variant:variant -> ?block_bytes:int -> int array -> int array
(** Generate a clone trace of the same length as the input. *)

val predict : ?seed:int -> variant:variant -> Cache.config -> int array -> float
(** Clone the trace and simulate the clone: predicted hit rate. *)
