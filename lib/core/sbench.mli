(** Serving benchmarks: per-request inference (batch 1) vs dynamic
    micro-batching through the wide-batch conv lowering.

    Measures the {e real} service time of single requests and coalesced
    batches on the serving model hot path ({!Cbox_infer.run})
    — keeping every repetition's sample, so the replayed latency
    distribution has genuine spread (p50 and p99 differ) — then replays a
    deterministic closed-loop simulation — C logical
    clients, each reissuing on completion, a server flushing batches of up
    to 64 with a 5 ms linger — to report throughput and p50/p99 latency
    per concurrency level (1, 64 and 1024 clients, no real sockets
    needed). Also asserts the batched outputs match the sequential batch-1
    outputs exactly ({!result.max_abs_diff} is 0 when bit-identical).

    This is the code path behind [cachebox bench --suite serve]; CI gates
    the measured speedups against the committed [BENCH_SERVE.json]. *)

type mode_stats = {
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  total_s : float;  (** virtual seconds to serve the whole closed-loop run *)
}

type result = {
  name : string;  (** ["serve_c<clients>"] *)
  domains : int;
  clients : int;
  batch1 : mode_stats;
  dynamic : mode_stats;
  speedup : float;  (** dynamic throughput over batch-1 throughput *)
  max_abs_diff : float;
      (** largest |batched - sequential| over every synthetic heatmap
          element; 0.0 means bit-identical *)
}

val concurrency_levels : int list
(** [1; 64; 1024]. *)

val run : ?fast:bool -> ?log:(string -> unit) -> unit -> result list
(** Runs the suite. [fast] (default: [CACHEBOX_FAST] set) shrinks
    repetitions and rounds; [log] receives a progress line per step. *)

val to_kbench : result list -> Kbench.result list
(** Projection onto the kernel-benchmark schema ([ref_s] = batch-1 total,
    [tiled_s] = dynamic total, [max_rel_err] = [max_abs_diff]) so the CLI
    table and the [--baseline] perf gate are shared with the other
    suites. *)

val to_json : result list -> string
(** The [BENCH_SERVE.json] document: the {!to_kbench} fields per row plus
    [clients] and per-mode [*_rps]/[*_p50_ms]/[*_p99_ms]. The gate only
    reads (name, domains, speedup), so the extra fields are inert there. *)

val write_json : path:string -> result list -> unit
val pp_table : Format.formatter -> result list -> unit
