(** Knowledge distillation of the CB-GAN generator into a {!Student}.

    Fits a half-depth/half-width student U-Net against the frozen teacher's
    synthetic miss heatmaps. The teacher only ever runs in eval mode
    (running-stats batch norm, no dropout), so its targets are deterministic,
    per-sample independent and bit-identical at any Dpool domain count; a
    distillation run is therefore exactly reproducible across
    [CACHEBOX_DOMAINS] settings.

    The loss blends ground-truth supervision with teacher imitation under
    [temperature] (0 = pure supervised — the teacher is never evaluated and
    the loss is bitwise the supervised one; 1 = pure distillation), each term
    a weighted pixel L1 + L2. An optional feature-matching term pulls the
    student's pooled bottleneck activations towards the teacher's through a
    learned linear adapter trained alongside the student (the adapter is a
    training-time artifact; the saved student checkpoint stands alone).

    The run is {!Cbox_train.drive}, the one resilient training loop:
    periodic atomic checksummed snapshots (schema
    [cachebox-distill-snapshot/1]) with exact bit-identical resume, a
    NaN/Inf divergence sentinel that rolls back to the last good snapshot and
    halves the learning rate in effect up to [max_retries] times, and an
    optional append-only {!Runlog} JSONL journal. *)

type options = {
  epochs : int;
  batch_size : int;
  lr : float;
  beta1 : float;
  temperature : float;
      (** teacher-imitation weight in [\[0, 1\]]: 0 = pure supervised,
          1 = pure distillation *)
  l1_weight : float;  (** pixel L1 weight inside each term *)
  l2_weight : float;  (** pixel L2 (MSE) weight inside each term *)
  feat_weight : float;
      (** bottleneck feature-matching weight; 0 disables the term (and the
          adapter) entirely *)
  seed : int;
  domains : int option;
      (** Dpool lane count pinned for the whole run ([None] = ambient
          [CACHEBOX_DOMAINS] / machine default); results are bit-identical
          for every setting. *)
  snapshot_every : int option;  (** snapshot cadence in batches across the run *)
  snapshot_dir : string option;
  keep_snapshots : int;
  max_retries : int;
  journal : string option;
}

val default_options :
  ?epochs:int ->
  ?batch_size:int ->
  ?temperature:float ->
  ?l1_weight:float ->
  ?l2_weight:float ->
  ?feat_weight:float ->
  ?domains:int ->
  ?snapshot_every:int ->
  ?snapshot_dir:string ->
  ?journal:string ->
  unit ->
  options
(** Defaults: 2 epochs, batch 4, lr 2e-4, beta1 0.5, temperature 1 (pure
    distillation), L1 weight 1, L2 weight 0.5, feature matching off, seed
    1234, ambient domains, no snapshotting/journal, keep 3 snapshots, 3
    divergence retries. *)

type epoch_stats = {
  epoch : int;
  pixel : float;  (** mean blended pixel loss *)
  feat : float;  (** mean feature-matching loss (0 when disabled) *)
  batches : int;
}

val student_config : ?depth_div:int -> ?width_div:int -> Cbgan.config -> Student.config
(** Derives the student architecture from a teacher configuration: levels
    divided by [depth_div] (floor 2), generator filters and conditioning
    dims divided by [width_div] (floors keep every dimension positive),
    image size and conditioning-MLP presence preserved. Defaults give the
    half-depth/half-width student. *)

val pixel_loss : l1_weight:float -> l2_weight:float -> Value.t -> Tensor.t -> Value.t
(** [pixel_loss ~l1_weight ~l2_weight out target] is
    [l1_weight * L1(out, target) + l2_weight * MSE(out, target)] — the exact
    supervised expression the zero-temperature distillation step reduces
    to. *)

val step_loss :
  temperature:float ->
  l1_weight:float ->
  l2_weight:float ->
  out:Value.t ->
  truth:Tensor.t ->
  teacher:Tensor.t option ->
  Value.t
(** One distillation step's pixel loss. At [temperature = 0] the teacher
    output is ignored (it may be [None]) and the result is bitwise
    [pixel_loss out truth]; at [temperature = 1] it is bitwise
    [pixel_loss out teacher]; in between the two terms blend as
    [(1 - t) * supervised + t * distillation]. Raises [Invalid_argument]
    when [temperature > 0] without a teacher output or when [temperature]
    is outside [\[0, 1\]]. *)

val train :
  ?log:(string -> unit) ->
  ?resume:bool ->
  teacher:Cbgan.t ->
  Student.t ->
  Heatmap.spec ->
  options ->
  Cbox_dataset.sample list ->
  epoch_stats list
(** Distills in place (the student and, when [feat_weight > 0], its
    training-time adapter update; the teacher is frozen) and returns
    per-epoch loss statistics for the whole run — including, after a
    resume, epochs completed before the interruption. [~resume:true]
    requires [snapshot_dir]; with no loadable snapshot it starts fresh.
    Raises [Invalid_argument] on an empty dataset, mismatched
    student/teacher geometry, or out-of-range loss options. *)
