(** The trained teacher and student that [forward_digest --trained] and the
    core suite's pinned training numerics share. *)

val spec : Heatmap.spec

val caches : Cache.config list
(** The two cache geometries the fixture trains on. *)

val train : unit -> Cbgan.t * Student.t
(** An ngf-8 teacher ([Cbgan.create ~seed:42]) trained for one epoch at
    batch 2 and learning rate 0.01, then a student ([Student.create
    ~seed:7]) distilled from it the same way. Runs at the ambient domain
    count. *)
