type options = {
  epochs : int;
  batch_size : int;
  lr : float;
  beta1 : float;
  lambda_l1 : float;
  seed : int;
  domains : int option;
  snapshot_every : int option;
  snapshot_dir : string option;
  keep_snapshots : int;
  max_retries : int;
  journal : string option;
}

let default_options ?(epochs = 2) ?(batch_size = 4) ?(lambda_l1 = 150.0) ?domains
    ?snapshot_every ?snapshot_dir ?journal () =
  {
    epochs;
    batch_size;
    lr = 2e-4;
    beta1 = 0.5;
    lambda_l1;
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
  g_adv : float;
  g_l1 : float;
  d_loss : float;
  batches : int;
}

(* --- the resilient training loop ----------------------------------------

   A snapshot is the complete training state: parameters, batch-norm running
   stats, every optimizer's state (moments + step + lr), the PRNG state, the
   epoch permutation, the partial epoch-loss sums and the completed-epoch
   history. Restoring one and continuing is bit-identical to never having
   stopped.

   Snapshots live in two forms: an in-memory rollback point (always kept;
   the divergence sentinel rolls back to it) and an on-disk Checkpoint v2
   file (when [snapshot_dir] is set; crash resume starts from the newest
   loadable one). Both trainers run here; each supplies only its state and
   its per-batch step. *)

exception Diverged of string * float

let check source v = if not (Float.is_finite v) then raise (Diverged (source, v))

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

type 's trainer = {
  who : string;
  section : string;
  schema : string;
  fingerprint : string;
  run_fields : (string * Runlog.value) list;
  terms : (string * string) list;
  stats : epoch:int -> batches:int -> float array -> 's;
  rng : Prng.t;
  params : Param.t list;
  bn : (string * float array) list;
  optimizers : (string * Optimizer.t) list;
  step : Cbox_dataset.sample list -> bidx:int -> float array;
}

(* Mutable run position; everything here but [retries] is snapshotted. *)
type run_state = {
  mutable epoch : int;  (* 1-based current epoch *)
  mutable done_in_epoch : int;  (* completed batches within [epoch] *)
  mutable global_batch : int;  (* completed batches across the run *)
  mutable retries : int;  (* divergence rollbacks so far *)
  mutable sums : float array;  (* per-term loss sums over [epoch] so far *)
  mutable order : int array;  (* sample permutation for [epoch] *)
  mutable history : float array list;
      (* completed epochs, newest first, each as its snapshot row
         [epoch; term means...; batches] *)
}

let chunks size xs =
  let rec go acc current count = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if count = size then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (count + 1) rest
  in
  go [] [] 0 xs

let snapshot_name global = Printf.sprintf "snap-%09d.ckpt" global

(* (global_batch, path) pairs, newest first. *)
let list_snapshots dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if
             String.length f = 19
             && String.sub f 0 5 = "snap-"
             && Filename.check_suffix f ".ckpt"
           then
             Option.map (fun b -> (b, Filename.concat dir f)) (int_of_string_opt (String.sub f 5 9))
           else None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let drive_loop ~log ~resume (r : run) t samples =
  let fail msg = failwith (t.who ^ ": " ^ msg) in
  let samples_arr = Array.of_list samples in
  let n = Array.length samples_arr in
  let nterms = List.length t.terms in
  let key name = t.section ^ "." ^ name in
  let journal = Option.map Runlog.create r.journal in
  let jevent kind fields = Option.iter (fun j -> Runlog.event j kind fields) journal in
  let st =
    {
      epoch = 1;
      done_in_epoch = 0;
      global_batch = 0;
      retries = 0;
      sums = Array.make nterms 0.0;
      order = [||];
      history = [];
    }
  in
  let opt_states () = List.map (fun (_, o) -> Optimizer.state o) t.optimizers in
  let set_opt_states states =
    List.iter2 (fun (_, o) s -> Optimizer.set_state o s) t.optimizers states
  in
  (* Optimizer states as snapshot entries, each key under its prefix. *)
  let named states =
    List.concat
      (List.map2
         (fun (prefix, _) s -> List.map (fun (k, v) -> (prefix ^ k, v)) s)
         t.optimizers states)
  in

  (* --- in-memory rollback points: [capture ()] returns the restore ---
     Parameters and moments are kept as float32 tensor copies, so a capture
     is a copy and a restore a blit. *)
  let capture () =
    let params = List.map (fun p -> Tensor.copy p.Param.value) t.params in
    let bn = List.map (fun (_, a) -> Array.copy a) t.bn in
    let opts = List.map (fun (_, o) -> Optimizer.snapshot o) t.optimizers in
    let prng = Prng.state t.rng in
    let { epoch; done_in_epoch; global_batch; history; _ } = st in
    let sums = Array.copy st.sums in
    let order = Array.copy st.order in
    fun () ->
      List.iter2 (fun p src -> Tensor.blit ~src ~dst:p.Param.value) t.params params;
      List.iter2 (fun (_, live) a -> Array.blit a 0 live 0 (Array.length live)) t.bn bn;
      List.iter2 (fun (_, o) s -> Optimizer.restore o s) t.optimizers opts;
      Prng.set_state t.rng prng;
      st.epoch <- epoch;
      st.done_in_epoch <- done_in_epoch;
      st.global_batch <- global_batch;
      st.sums <- Array.copy sums;
      st.order <- Array.copy order;
      st.history <- history
  in

  (* --- on-disk snapshots (crash resume) --- *)
  let write_snapshot dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (snapshot_name st.global_batch) in
    Checkpoint.save path
      ~meta:
        [
          ("schema", t.schema);
          ("options", t.fingerprint);
          ("prng", Int64.to_string (Prng.state t.rng));
        ]
      ~params:t.params
      ~state:
        (t.bn
        @ named (opt_states ())
        @ [
            ( key "pos",
              [|
                float_of_int st.epoch;
                float_of_int st.done_in_epoch;
                float_of_int st.global_batch;
              |] );
            (key "sums", st.sums);
            (key "order", Array.map float_of_int st.order);
            (key "history", Array.concat (List.rev st.history));
          ]);
    jevent "snapshot"
      [ ("path", Runlog.S path); ("epoch", Runlog.I st.epoch); ("batch", Runlog.I st.global_batch) ];
    (* Rotate: keep the newest [keep_snapshots] files. *)
    list_snapshots dir
    |> List.iteri (fun i (_, p) ->
           if i >= max 1 r.keep_snapshots then try Sys.remove p with Sys_error _ -> ())
  in
  let restore_disk (c : Checkpoint.container) =
    (match List.assoc_opt "options" (Checkpoint.meta c) with
    | Some fp when fp = t.fingerprint -> ()
    | Some _ -> fail "snapshot was written with different options or dataset; refusing to resume"
    | None -> fail "snapshot has no options fingerprint");
    let req name =
      match Checkpoint.find_array c (key name) with
      | Some a -> a
      | None -> fail ("snapshot missing " ^ key name)
    in
    let pos = req "pos" in
    let sums = req "sums" in
    if Array.length pos <> 3 || Array.length sums <> nterms then
      fail "malformed snapshot position";
    let order = Array.map int_of_float (req "order") in
    if Array.length order <> n then fail "snapshot permutation does not match the dataset";
    let rows = req "history" in
    let width = nterms + 2 in
    if Array.length rows mod width <> 0 then fail ("malformed " ^ key "history" ^ " in snapshot");
    let states = opt_states () in
    Checkpoint.restore c ~params:t.params ~state:(t.bn @ named states);
    set_opt_states states;
    (match List.assoc_opt "prng" (Checkpoint.meta c) with
    | Some s -> Prng.set_state t.rng (Int64.of_string s)
    | None -> fail "snapshot has no PRNG state");
    st.epoch <- int_of_float pos.(0);
    st.done_in_epoch <- int_of_float pos.(1);
    st.global_batch <- int_of_float pos.(2);
    st.sums <- sums;
    st.order <- order;
    st.history <-
      List.rev (List.init (Array.length rows / width) (fun i -> Array.sub rows (i * width) width))
  in
  let try_resume dir =
    let rec attempt = function
      | [] -> jevent "resume_fresh" [ ("dir", Runlog.S dir) ]
      | (_, path) :: rest -> (
        match Checkpoint.read path with
        | exception Failure msg ->
          (* A corrupt or truncated snapshot (e.g. the crash hit mid-write on
             a filesystem without atomic rename) falls back to the previous
             one; replaying from an older point is still bit-identical. *)
          jevent "snapshot_corrupt" [ ("path", Runlog.S path); ("error", Runlog.S msg) ];
          attempt rest
        | c ->
          restore_disk c;
          jevent "resume"
            [
              ("path", Runlog.S path);
              ("epoch", Runlog.I st.epoch);
              ("batch", Runlog.I st.global_batch);
            ];
          log
            (Printf.sprintf "resumed from %s (epoch %d, batch %d)" path st.epoch st.global_batch))
    in
    attempt (list_snapshots dir)
  in

  let run () =
    jevent "run_start"
      ([
         ("epochs", Runlog.I r.epochs);
         ("batch_size", Runlog.I r.batch_size);
         ("samples", Runlog.I n);
       ]
      @ t.run_fields
      @ [ ("resume", Runlog.B resume) ]);
    (match (resume, r.snapshot_dir) with
    | true, Some dir -> try_resume dir
    | true, None -> invalid_arg (t.who ^ ": ~resume:true requires snapshot_dir")
    | false, _ -> ());
    let good = ref (capture ()) in
    while st.epoch <= r.epochs do
      if st.done_in_epoch = 0 then begin
        st.order <- Array.init n Fun.id;
        Prng.shuffle t.rng st.order;
        Array.fill st.sums 0 nterms 0.0
      end;
      let shuffled = List.map (fun i -> samples_arr.(i)) (Array.to_list st.order) in
      let batches = Array.of_list (chunks r.batch_size shuffled) in
      let nb = Array.length batches in
      match
        while st.done_in_epoch < nb do
          let bidx = st.global_batch + 1 in
          let terms = t.step batches.(st.done_in_epoch) ~bidx in
          Array.iteri (fun i v -> st.sums.(i) <- st.sums.(i) +. v) terms;
          st.done_in_epoch <- st.done_in_epoch + 1;
          st.global_batch <- bidx;
          (match r.snapshot_every with
          | Some k when k > 0 && bidx mod k = 0 ->
            (* An epoch's last batch is captured at the epoch boundary. *)
            if st.done_in_epoch < nb then good := capture ();
            Option.iter write_snapshot r.snapshot_dir
          | _ -> ());
          Faultinject.kill_point ~batch:bidx
        done
      with
      | () ->
        let nf = float_of_int (max 1 nb) in
        let means = Array.map (fun s -> s /. nf) st.sums in
        let per_term f = List.mapi (fun i term -> f term means.(i)) t.terms in
        log
          (Printf.sprintf "epoch %d/%d: %s (%d batches)" st.epoch r.epochs
             (String.concat " " (per_term (fun (_, label) m -> Printf.sprintf "%s %.4f" label m)))
             nb);
        jevent "epoch_end"
          ((("epoch", Runlog.I st.epoch) :: per_term (fun (field, _) m -> (field, Runlog.F m)))
          @ [ ("batches", Runlog.I nb) ]);
        st.history <-
          Array.concat [ [| float_of_int st.epoch |]; means; [| float_of_int nb |] ] :: st.history;
        st.epoch <- st.epoch + 1;
        st.done_in_epoch <- 0;
        (* Epoch boundaries are rollback points even with snapshotting off;
           after the last epoch the loop ends, so none is taken. *)
        if st.epoch <= r.epochs then good := capture ()
      | exception Diverged (source, v) ->
        jevent "divergence"
          [
            ("source", Runlog.S source);
            ("value", Runlog.F v);
            ("epoch", Runlog.I st.epoch);
            ("batch", Runlog.I (st.global_batch + 1));
            ("retries", Runlog.I st.retries);
          ];
        if st.retries >= r.max_retries then begin
          jevent "abort" [ ("reason", Runlog.S "divergence retries exhausted") ];
          fail
            (Printf.sprintf "%s diverged (%g) at batch %d; %d rollbacks exhausted" source v
               (st.global_batch + 1) st.retries)
        end;
        (* Halve the rates in effect now, not the ones the rollback point
           restores: a second divergence before the next rollback point then
           retries at lr/4 instead of replaying the lr/2 run bit for bit. *)
        let lrs = List.map (fun (_, o) -> Optimizer.lr o /. 2.0) t.optimizers in
        !good ();
        List.iter2 (fun (_, o) lr -> Optimizer.set_lr o lr) t.optimizers lrs;
        st.retries <- st.retries + 1;
        jevent "rollback"
          [
            ("epoch", Runlog.I st.epoch);
            ("batch", Runlog.I st.global_batch);
            ("lr", Runlog.F (List.hd lrs));
            ("retries", Runlog.I st.retries);
          ]
    done;
    jevent "run_end" [ ("epochs", Runlog.I r.epochs); ("batches", Runlog.I st.global_batch) ];
    List.rev_map
      (fun row ->
        t.stats ~epoch:(int_of_float row.(0)) ~batches:(int_of_float row.(nterms + 1))
          (Array.sub row 1 nterms))
      st.history
  in
  Fun.protect ~finally:(fun () -> Option.iter Runlog.close journal) run

let drive ?(log = fun _ -> ()) ~resume (r : run) t samples =
  if samples = [] then invalid_arg (t.who ^ ": empty dataset");
  (* [domains] pins the Dpool lane count for the whole run, so every kernel
     under the step (gemm, conv, elementwise) runs data-parallel; [None]
     keeps the ambient CACHEBOX_DOMAINS / machine default. *)
  match r.domains with
  | Some d -> Dpool.with_domains d (fun () -> drive_loop ~log ~resume r t samples)
  | None -> drive_loop ~log ~resume r t samples

(* --- the CB-GAN trainer ------------------------------------------------- *)

let batch_tensors spec ~use_cond (samples : Cbox_dataset.sample list) =
  let access = Cbox_dataset.batch_images spec (List.map (fun (s : Cbox_dataset.sample) -> s.access) samples) in
  let target = Cbox_dataset.batch_images spec (List.map (fun (s : Cbox_dataset.sample) -> s.target) samples) in
  let cp =
    if use_cond then
      Some (Cbgan.cache_params_tensor (List.map (fun (s : Cbox_dataset.sample) -> s.cache) samples))
    else None
  in
  (access, target, cp)

let scalar v = Tensor.get (Value.value v) 0

(* Options that must agree between the snapshotting run and the resuming
   run for bit-identical continuation ([%h] is exact for floats). *)
let fingerprint (options : options) ~samples =
  Printf.sprintf "v2|%d|%d|%h|%h|%h|%d|%d" options.epochs options.batch_size options.lr
    options.beta1 options.lambda_l1 options.seed samples

let train ?log ?(resume = false) model spec (options : options) samples =
  let rng = Prng.create options.seed in
  let g_params = Cbgan.generator_params model in
  let d_params = Cbgan.discriminator_params model in
  let g_opt = Optimizer.adam ~lr:options.lr ~beta1:options.beta1 g_params in
  let d_opt = Optimizer.adam ~lr:options.lr ~beta1:options.beta1 d_params in
  let use_cond = (Cbgan.model_config model).Cbgan.use_cache_params in
  let step batch ~bidx =
    let access, target, cp = batch_tensors spec ~use_cond batch in
    let shape = Tensor.shape target in
    (* One generator forward serves both phases: the discriminator step
       sees a detached copy, the generator step reuses the live graph. *)
    let fake = Cbgan.generator_forward model ~rng ~training:true ?cache_params:cp access in
    let fake_detached = Tensor.copy (Value.value fake) in
    (* --- Discriminator step --- *)
    Optimizer.zero_grad d_opt;
    let d_real = Cbgan.discriminator_forward model ~training:true ~access ~miss:(Value.const target) in
    let d_fake = Cbgan.discriminator_forward model ~training:true ~access ~miss:(Value.const fake_detached) in
    let ones = Tensor.ones (Tensor.shape (Value.value d_real)) in
    let zeros = Tensor.zeros (Tensor.shape (Value.value d_fake)) in
    let loss_d =
      Value.scale
        (Value.add (Value.bce_with_logits d_real ones) (Value.bce_with_logits d_fake zeros))
        0.5
    in
    Value.backward loss_d;
    check "d_loss" (scalar loss_d);
    check "d_grad_norm" (Optimizer.grad_norm d_opt);
    Optimizer.step d_opt;
    (* --- Generator step --- *)
    Optimizer.zero_grad g_opt;
    Optimizer.zero_grad d_opt;
    let d_on_fake = Cbgan.discriminator_forward model ~training:true ~access ~miss:fake in
    let adv_target = Tensor.ones (Tensor.shape (Value.value d_on_fake)) in
    let adv = Value.bce_with_logits d_on_fake adv_target in
    let l1 = Value.l1_loss fake (Tensor.view target shape) in
    (* Miss heatmaps can be very sparse (a few hundred non-empty pixels
       in a 64x64 image); a plain mean L1 is then dominated by the empty
       background and the generator collapses to "no misses". Class-
       balance by adding an L1 term restricted to the non-empty target
       pixels, weighted by half the background/foreground pixel ratio —
       the weight vanishes on dense targets and grows with sparsity. *)
    let fg_mask = Tensor.create shape in
    let td = target.Tensor.data and md = fg_mask.Tensor.data in
    for i = 0 to Tensor.numel target - 1 do
      Bigarray.Array1.unsafe_set md i
        (if Bigarray.Array1.unsafe_get td i > -0.999 then 1.0 else 0.0)
    done;
    let fg_count = Tensor.sum fg_mask in
    let bg_count = float_of_int (Tensor.numel target) -. fg_count in
    let fg_weight = Float.min 8.0 (0.5 *. (bg_count /. Float.max 1.0 fg_count)) in
    let recon =
      if fg_weight < 0.05 then l1
      else begin
        let fg_target = Tensor.mul target fg_mask in
        let l1_fg = Value.l1_loss (Value.mul fake (Value.const fg_mask)) fg_target in
        Value.add l1 (Value.scale l1_fg fg_weight)
      end
    in
    let loss_g = Value.add adv (Value.scale recon options.lambda_l1) in
    Value.backward loss_g;
    Faultinject.poison_grads ~batch:bidx g_params;
    check "g_adv" (scalar adv);
    check "g_l1" (scalar l1);
    check "g_grad_norm" (Optimizer.grad_norm g_opt);
    Optimizer.step g_opt;
    (* The generator step leaked gradients into the discriminator's
       parameters; clear them so the next D step starts clean. *)
    Optimizer.zero_grad d_opt;
    [| scalar adv; scalar l1; scalar loss_d |]
  in
  drive ?log ~resume
    {
      epochs = options.epochs;
      batch_size = options.batch_size;
      domains = options.domains;
      snapshot_every = options.snapshot_every;
      snapshot_dir = options.snapshot_dir;
      keep_snapshots = options.keep_snapshots;
      max_retries = options.max_retries;
      journal = options.journal;
    }
    {
      who = "Cbox_train.train";
      section = "train";
      schema = "cbox-train-snapshot/1";
      fingerprint = fingerprint options ~samples:(List.length samples);
      run_fields = [];
      terms = [ ("g_adv", "G_adv"); ("g_l1", "G_L1"); ("d_loss", "D") ];
      stats =
        (fun ~epoch ~batches m ->
          { epoch; g_adv = m.(0); g_l1 = m.(1); d_loss = m.(2); batches });
      rng;
      params = g_params @ d_params;
      bn = Cbgan.state model;
      optimizers = [ ("opt.g.", g_opt); ("opt.d.", d_opt) ];
      step;
    }
    samples
