(** Consistent hash ring over CRC-32 points (the router's placement
    function).

    Placement is deterministic across processes: a key's owner depends only
    on the node-name set and [vnodes], never on process state or node list
    order. Adding or removing one node moves only the keys that gain or
    lose that node (minimal disruption). *)

type t

val create : ?vnodes:int -> string list -> t
(** [create nodes] builds a ring with [vnodes] virtual points per node
    (default 128). Raises [Invalid_argument] on an empty or duplicate node
    list, or [vnodes < 1]. *)

val lookup : t -> key:string -> string
(** The node owning [key] (its primary replica). *)

val successors : t -> key:string -> int -> string list
(** The first [n] {e distinct} nodes clockwise from [key] — the retry
    order: primary first, then failover replicas. Capped at the node
    count. *)
