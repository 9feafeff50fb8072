(** CB-GAN training loop (paper §3.2.2, Fig 6) with a run-resilience layer.

    Standard pix2pix alternation per batch: one discriminator step on a
    (real, fake) pair with the fake detached, then one generator step
    minimising the adversarial loss plus [lambda_l1] times the L1
    reconstruction loss (Equation 1; the paper uses lambda = 150). Both
    optimizers are Adam with beta1 = 0.5.

    The resilience layer makes long training campaigns crash-safe:

    - {b Snapshots}: every [snapshot_every] batches the complete training
      state (parameters, batch-norm stats, Adam moments, PRNG state, epoch
      permutation, partial loss sums, completed-epoch history) is written to
      [snapshot_dir] as an atomic, checksummed {!Checkpoint} file; the
      newest [keep_snapshots] files are kept.
    - {b Exact resume}: [~resume:true] restarts from the newest loadable
      snapshot and the continued run is bit-identical — same per-epoch
      stats, same final weights — to a run that was never interrupted. A
      corrupt snapshot is skipped (journalled) in favour of the previous
      one; a snapshot written under different options is refused.
    - {b Divergence sentinel}: each batch's losses and gradient norms are
      scanned for NaN/Inf before the optimizer steps. On a trip the run
      rolls back to the last good snapshot, halves the learning rates in
      effect at the trip and retries, up to [max_retries] times, before
      failing with [Failure]. The halving compounds: a second trip before
      the next rollback point retries at a quarter of the rate, not as a
      replay of the first retry.
    - {b Journal}: when [journal] is set, run/epoch/snapshot/divergence/
      rollback/resume events are appended to a {!Runlog} JSONL file.

    {!Distill.train} runs on the same layer: both trainers call {!drive}. *)

type options = {
  epochs : int;
  batch_size : int;
  lr : float;
  beta1 : float;
  lambda_l1 : float;
  seed : int;
  domains : int option;
      (** Dpool lane count used for the whole run ([None] = ambient
          [CACHEBOX_DOMAINS] / machine default). Results are bit-identical
          for every setting. *)
  snapshot_every : int option;
      (** Snapshot cadence in batches, counted across the whole run
          ([None] = rollback points at epoch boundaries only, nothing on
          disk). *)
  snapshot_dir : string option;
      (** Where on-disk snapshots go (created if missing). [None] keeps
          snapshots in memory only. *)
  keep_snapshots : int;  (** rotating window of on-disk snapshots (>= 1) *)
  max_retries : int;  (** divergence rollbacks before giving up *)
  journal : string option;  (** append-only JSONL run log path *)
}

val default_options :
  ?epochs:int ->
  ?batch_size:int ->
  ?lambda_l1:float ->
  ?domains:int ->
  ?snapshot_every:int ->
  ?snapshot_dir:string ->
  ?journal:string ->
  unit ->
  options
(** Defaults: 2 epochs, batch 4, lr 2e-4, beta1 0.5, lambda 150, seed 1234,
    ambient domain count, no snapshotting/journal, keep 3 snapshots, 3
    divergence retries. *)

type epoch_stats = {
  epoch : int;
  g_adv : float;  (** mean generator adversarial loss *)
  g_l1 : float;  (** mean (unweighted) L1 reconstruction loss *)
  d_loss : float;  (** mean discriminator loss *)
  batches : int;
}

val train :
  ?log:(string -> unit) ->
  ?resume:bool ->
  Cbgan.t ->
  Heatmap.spec ->
  options ->
  Cbox_dataset.sample list ->
  epoch_stats list
(** Trains in place (random batching each epoch, as the paper notes) and
    returns per-epoch loss statistics for the whole run — including, after a
    resume, the epochs completed before the interruption. [~resume:true]
    requires [snapshot_dir]; with no snapshot present it starts fresh. *)

(** {1 The resilient training loop} *)

exception Diverged of string * float
(** Raised by a step whose loss or gradient norm is not finite: the source
    name and the value. {!drive} rolls back and retries. *)

val check : string -> float -> unit
(** [check source v] raises [Diverged (source, v)] unless [v] is finite. *)

type run = {
  epochs : int;
  batch_size : int;
  domains : int option;
  snapshot_every : int option;
  snapshot_dir : string option;
  keep_snapshots : int;
  max_retries : int;
  journal : string option;
}
(** The run settings every trainer's options carry, as in {!options}. *)

type 's trainer = {
  who : string;  (** prefix of error messages, e.g. ["Cbox_train.train"] *)
  section : string;
      (** snapshot arrays [<section>.pos], [.sums], [.order], [.history] *)
  schema : string;  (** snapshot [schema] meta value *)
  fingerprint : string;  (** options a resumed run must match exactly *)
  run_fields : (string * Runlog.value) list;
      (** extra [run_start] fields, journalled before [resume] *)
  terms : (string * string) list;
      (** per loss term: [epoch_end] journal field, epoch log label *)
  stats : epoch:int -> batches:int -> float array -> 's;
      (** an epoch's result from its per-term mean losses *)
  rng : Prng.t;  (** shuffles each epoch; snapshotted with the run *)
  params : Param.t list;
  bn : (string * float array) list;  (** live batch-norm running stats *)
  optimizers : (string * Optimizer.t) list;
      (** snapshot key prefix and optimizer; a rollback halves every rate and
          the journal reports the first *)
  step : Cbox_dataset.sample list -> bidx:int -> float array;
      (** trains on one batch, [bidx] being its 1-based index across the run,
          and returns its loss terms; calls {!check} before stepping *)
}
(** What differs between trainers; {!drive} owns the rest. *)

val drive :
  ?log:(string -> unit) ->
  resume:bool ->
  run ->
  's trainer ->
  Cbox_dataset.sample list ->
  's list
(** Runs the epochs with the resilience layer above and returns every
    epoch's stats, including epochs completed before a resume. The epoch
    log line is [epoch e/n: <label> <mean> ... (b batches)]. *)

val batch_tensors :
  Heatmap.spec -> use_cond:bool -> Cbox_dataset.sample list -> Tensor.t * Tensor.t * Tensor.t option
(** A batch's stacked access and target images, and its cache-parameter
    tensor when [use_cond]. *)
