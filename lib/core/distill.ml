(* Knowledge distillation: fits a half-depth/half-width Student generator
   against a frozen CB-GAN teacher's miss heatmaps. The teacher runs in eval
   mode only (running-stats batch norm, no dropout), so its targets are
   deterministic and per-sample independent — computed per batch on the fly
   with no stored target table, and bit-identical at any Dpool domain count.

   The loss blends plain supervision against the ground-truth heatmap with
   imitation of the teacher's output, controlled by [temperature]:

     temperature = 0   pure supervised regression (the teacher is never
                       evaluated; the loss is bitwise the supervised one)
     temperature = 1   pure distillation against the teacher
     in between        (1 - t) * supervised + t * distillation

   Both terms are pixel losses (weighted L1 + L2); an optional
   feature-matching term pulls the student's bottleneck activations towards
   the teacher's through a learned linear adapter (the two bottlenecks have
   different widths), trained jointly with the student.

   The run itself — rollback points, snapshots and exact resume, the NaN/Inf
   sentinel with LR-halving retries, the journal and the epoch loop — is
   Cbox_train.drive; this module supplies the student's state and step. *)

type options = {
  epochs : int;
  batch_size : int;
  lr : float;
  beta1 : float;
  temperature : float;
  l1_weight : float;
  l2_weight : float;
  feat_weight : float;
  seed : int;
  domains : int option;
  snapshot_every : int option;
  snapshot_dir : string option;
  keep_snapshots : int;
  max_retries : int;
  journal : string option;
}

let default_options ?(epochs = 2) ?(batch_size = 4) ?(temperature = 1.0)
    ?(l1_weight = 1.0) ?(l2_weight = 0.5) ?(feat_weight = 0.0) ?domains
    ?snapshot_every ?snapshot_dir ?journal () =
  {
    epochs;
    batch_size;
    lr = 2e-4;
    beta1 = 0.5;
    temperature;
    l1_weight;
    l2_weight;
    feat_weight;
    seed = 1234;
    domains;
    snapshot_every;
    snapshot_dir;
    keep_snapshots = 3;
    max_retries = 3;
    journal;
  }

type epoch_stats = {
  epoch : int;
  pixel : float;  (* mean blended pixel loss *)
  feat : float;  (* mean feature-matching loss (0 when disabled) *)
  batches : int;
}

(* Shared channel progression (ngf, 2ngf, 4ngf, 8ngf capped) — the same
   formula as Cbgan/Student's channel plans; used to size the bottleneck
   feature adapter without exposing either module's internals. *)
let bottleneck_channels ~ngf ~levels = ngf * min 8 (1 lsl min (levels - 1) 3)

let student_config ?(depth_div = 2) ?(width_div = 2) (t : Cbgan.config) =
  if depth_div < 1 || width_div < 1 then
    invalid_arg "Distill.student_config: divisors must be >= 1";
  {
    Student.st_image_size = t.Cbgan.image_size;
    st_levels = max 2 (t.Cbgan.levels / depth_div);
    st_ngf = max 1 (t.Cbgan.ngf / width_div);
    st_use_cond = t.Cbgan.use_cache_params;
    st_cond_hidden = max 2 (t.Cbgan.cond_hidden / width_div);
    st_cond_dim = max 1 (t.Cbgan.cond_dim / width_div);
  }

(* The supervised/distillation pixel term: weighted L1 + L2 against a fixed
   target image. Kept as a tiny named combinator so the zero-temperature
   path of [step_loss] is, by construction, exactly this expression — the
   qcheck bitwise-equivalence property depends on it. *)
let pixel_loss ~l1_weight ~l2_weight out target =
  Value.add
    (Value.scale (Value.l1_loss out target) l1_weight)
    (Value.scale (Value.mse_loss out target) l2_weight)

let step_loss ~temperature ~l1_weight ~l2_weight ~out ~truth ~teacher =
  if not (Float.is_finite temperature) || temperature < 0.0 || temperature > 1.0
  then invalid_arg "Distill.step_loss: temperature must be in [0, 1]";
  if temperature = 0.0 then pixel_loss ~l1_weight ~l2_weight out truth
  else begin
    let teacher_out =
      match teacher with
      | Some t -> t
      | None -> invalid_arg "Distill.step_loss: temperature > 0 requires a teacher output"
    in
    let dist = pixel_loss ~l1_weight ~l2_weight out teacher_out in
    if temperature = 1.0 then dist
    else
      Value.add
        (Value.scale (pixel_loss ~l1_weight ~l2_weight out truth) (1.0 -. temperature))
        (Value.scale dist temperature)
  end

let scalar v = Tensor.get (Value.value v) 0

let fingerprint options ~samples =
  Printf.sprintf "v1|%d|%d|%h|%h|%h|%h|%h|%h|%d|%d" options.epochs
    options.batch_size options.lr options.beta1 options.temperature
    options.l1_weight options.l2_weight options.feat_weight options.seed samples

let train ?log ?(resume = false) ~teacher student spec options samples =
  if
    (not (Float.is_finite options.temperature))
    || options.temperature < 0.0
    || options.temperature > 1.0
  then invalid_arg "Distill.train: temperature must be in [0, 1]";
  if options.l1_weight < 0.0 || options.l2_weight < 0.0 || options.feat_weight < 0.0
  then invalid_arg "Distill.train: loss weights must be non-negative";
  let rng = Prng.create options.seed in
  let scfg = Student.model_config student in
  let tcfg = Cbgan.model_config teacher in
  if scfg.Student.st_image_size <> tcfg.Cbgan.image_size then
    invalid_arg "Distill.train: student and teacher image sizes differ";
  if scfg.Student.st_use_cond <> tcfg.Cbgan.use_cache_params then
    invalid_arg "Distill.train: student and teacher conditioning disagree";
  (* The bottleneck adapter projects the student's pooled bottleneck
     features onto the teacher's channel width; it trains with the student
     and is discarded afterwards (the student checkpoint stands alone). *)
  let adapter =
    if options.feat_weight > 0.0 then
      Some
        (Layers.linear rng ~name:"distill.adapter"
           ~in_dim:(bottleneck_channels ~ngf:scfg.Student.st_ngf ~levels:scfg.Student.st_levels)
           ~out_dim:(bottleneck_channels ~ngf:tcfg.Cbgan.ngf ~levels:tcfg.Cbgan.levels)
           ~bias:true)
    else None
  in
  let params =
    Student.params student
    @ (match adapter with Some a -> Layers.linear_params a | None -> [])
  in
  let opt = Optimizer.adam ~lr:options.lr ~beta1:options.beta1 params in
  (* The teacher never trains: eval-mode forward, no dropout, no gradient
     flow (its output enters the loss as a constant tensor). *)
  let teacher_rng = Prng.create 0 in
  let step batch ~bidx =
    let access, target, cp =
      Cbox_train.batch_tensors spec ~use_cond:scfg.Student.st_use_cond batch
    in
    let teacher_out =
      if options.temperature > 0.0 then
        Some
          (Value.value
             (Cbgan.generator_forward teacher ~rng:teacher_rng ~training:false
                ?cache_params:cp access))
      else None
    in
    Optimizer.zero_grad opt;
    let out, s_bneck =
      Student.forward_with_bottleneck student ~training:true ?cache_params:cp access
    in
    let loss_pixel =
      step_loss ~temperature:options.temperature ~l1_weight:options.l1_weight
        ~l2_weight:options.l2_weight ~out ~truth:target ~teacher:teacher_out
    in
    let loss, feat_value =
      match adapter with
      | Some ad ->
        let t_feat = Tensor.spatial_mean (Cbgan.generator_encode teacher access) in
        let s_feat = Value.spatial_mean s_bneck in
        let feat = Value.mse_loss (Layers.apply_linear ad s_feat) t_feat in
        (Value.add loss_pixel (Value.scale feat options.feat_weight), scalar feat)
      | None -> (loss_pixel, 0.0)
    in
    Value.backward loss;
    Faultinject.poison_grads ~batch:bidx params;
    Cbox_train.check "distill_pixel" (scalar loss_pixel);
    Cbox_train.check "distill_feat" feat_value;
    Cbox_train.check "distill_grad_norm" (Optimizer.grad_norm opt);
    Optimizer.step opt;
    [| scalar loss_pixel; feat_value |]
  in
  Cbox_train.drive ?log ~resume
    {
      Cbox_train.epochs = options.epochs;
      batch_size = options.batch_size;
      domains = options.domains;
      snapshot_every = options.snapshot_every;
      snapshot_dir = options.snapshot_dir;
      keep_snapshots = options.keep_snapshots;
      max_retries = options.max_retries;
      journal = options.journal;
    }
    {
      Cbox_train.who = "Distill.train";
      section = "distill";
      schema = "cachebox-distill-snapshot/1";
      fingerprint = fingerprint options ~samples:(List.length samples);
      run_fields = [ ("temperature", Runlog.F options.temperature) ];
      terms = [ ("pixel", "pixel"); ("feat", "feat") ];
      stats = (fun ~epoch ~batches m -> { epoch; pixel = m.(0); feat = m.(1); batches });
      rng;
      params;
      bn = Student.state student;
      optimizers = [ ("opt.s.", opt) ];
      step;
    }
    samples
