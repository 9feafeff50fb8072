val set_dir : string option -> unit
(** Does nothing. There is no simulation cache: the dataset builders
    return what they simulate. This stub is kept only so that
    [benchmark/bench_train.ml] and [benchmark/bench_layers.ml], which
    call it, still build; the next change to [benchmark/] deletes it
    with its two calls (ROADMAP item 5). *)
