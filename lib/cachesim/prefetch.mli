(** Hardware prefetcher models (RQ7 substrate).

    A prefetcher observes the demand-access stream of one cache level and
    proposes block addresses to fill. The next-line prefetcher is the one the
    paper trains CB-GAN on; the stride prefetcher is provided for the
    "other prefetching algorithms" extension the paper hypothesises. *)

type kind =
  | No_prefetch
  | Next_line  (** always prefetch the next sequential block *)
  | Stride of { degree : int; table_size : int }
      (** reference-prediction-table stride detector keyed by a hash of the
          block region; prefetches [degree] strided blocks once a stride is
          confirmed twice *)

type t

val create : kind -> t

val on_access : t -> addr:int -> block_bytes:int -> int list
(** Byte addresses the prefetcher wants filled in response to a demand
    access to [addr]. *)

val max_degree : t -> int
(** Upper bound on proposals per access (0 for [No_prefetch]); sizes the
    scratch buffer for {!on_access_into}. *)

val on_access_into : t -> addr:int -> block_bytes:int -> buf:int array -> int
(** Allocation-free variant of {!on_access}: writes proposals into the
    first cells of [buf] (which must hold at least [max_degree t] elements)
    and returns how many were written. [No_prefetch] does no work at all.
    State transitions are identical to {!on_access}. *)

val issued : t -> int
(** Total prefetches proposed so far. *)

val reset : t -> unit
