(* Crash-safe training: checkpoint container integrity, optimizer/PRNG state
   round-trips, exact resume after a simulated crash, divergence rollback,
   and the fault-injection harness that drives all of it. *)

let feq tol = Alcotest.(check (float tol))

let temp_dir () =
  let d = Filename.temp_file "cbox_resil" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let no_stray_tmp dir =
  Array.for_all (fun f -> not (Filename.check_suffix f ".tmp")) (Sys.readdir dir)

(* --- checkpoint container --- *)

let test_checkpoint_v2_exact_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.ckpt" in
  let rng = Prng.create 7 in
  (* Values with full double-precision mantissas: the container must
     round-trip them bit-for-bit. *)
  let p = Param.create "w" (Tensor.randn rng [| 3; 5 |]) in
  let aux = Array.init 7 (fun _ -> Prng.float rng 1.0) in
  let meta = [ ("prng", "12345678901234"); ("note", "line1\nline2 \"quoted\"") ] in
  Checkpoint.save ~meta path ~params:[ p ] ~state:[ ("aux", aux) ];
  Alcotest.(check bool) "atomic write leaves no temp file" true (no_stray_tmp dir);
  let q = Param.create "w" (Tensor.zeros [| 3; 5 |]) in
  let aux' = Array.make 7 0.0 in
  let c = Checkpoint.read path in
  Alcotest.(check (list (pair string string))) "meta" meta (Checkpoint.meta c);
  Checkpoint.restore c ~params:[ q ] ~state:[ ("aux", aux') ];
  let bits t = Array.map Int64.bits_of_float (Tensor.to_array t) in
  Alcotest.(check bool) "params bit-identical" true
    (bits p.Param.value = bits q.Param.value);
  Alcotest.(check bool) "state bit-identical" true
    (Array.map Int64.bits_of_float aux = Array.map Int64.bits_of_float aux');
  rm_rf dir

let test_checkpoint_corruption_property =
  (* Any single corrupted byte must surface as [Failure] at load — never a
     crash with another exception and never silently wrong weights. *)
  QCheck.Test.make ~name:"corrupt any byte -> load fails with Failure" ~count:100
    QCheck.(int_range 0 10_000)
    (fun offset ->
      let dir = temp_dir () in
      let path = Filename.concat dir "c.ckpt" in
      let rng = Prng.create 11 in
      let p = Param.create "layer.w" (Tensor.randn rng [| 4; 4 |]) in
      Checkpoint.save ~meta:[ ("k", "v") ] path ~params:[ p ]
        ~state:[ ("s", [| 1.0; 2.0; 3.0 |]) ];
      Faultinject.corrupt_byte path ~offset;
      let ok =
        match Checkpoint.load path ~params:[ p ] ~state:[ ("s", [| 0.0; 0.0; 0.0 |]) ] with
        | () -> false (* corruption accepted: the checksum failed its job *)
        | exception Failure _ -> true
        | exception _ -> false
      in
      rm_rf dir;
      ok)

(* --- optimizer / PRNG state round-trips --- *)

let test_adam_state_roundtrip () =
  (* Two Adam optimizers over identical params; after syncing moments via
     state/set_state, further identical steps stay bit-identical — i.e. the
     moments really round-trip instead of silently resetting to zero. *)
  let mk () = Param.create "x" (Tensor.of_array [| 2 |] [| 1.0; -2.0 |]) in
  let loss p = Value.mse_loss (Value.of_param p) (Tensor.of_array [| 2 |] [| 3.0; 0.5 |]) in
  let steps opt p k =
    for _ = 1 to k do
      Optimizer.zero_grad opt;
      Value.backward (loss p);
      Optimizer.step opt
    done
  in
  let p1 = mk () in
  let o1 = Optimizer.adam ~lr:0.05 [ p1 ] in
  steps o1 p1 5;
  let p2 = Param.create "x" (Tensor.copy p1.Param.value) in
  let o2 = Optimizer.adam ~lr:0.9 [ p2 ] in
  (* deliberately different lr: set_state must restore it *)
  Optimizer.set_state o2 (Optimizer.state o1);
  feq 1e-12 "lr restored" (Optimizer.lr o1) (Optimizer.lr o2);
  steps o1 p1 5;
  steps o2 p2 5;
  Alcotest.(check bool) "trajectories bit-identical" true
    (Tensor.to_array p1.Param.value = Tensor.to_array p2.Param.value)

let test_adam_state_missing_entry () =
  let p = Param.create "x" (Tensor.zeros [| 1 |]) in
  let o = Optimizer.adam ~lr:0.1 [ p ] in
  (try
     Optimizer.set_state o [ ("lr", [| 0.1 |]) ];
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

let test_prng_state_roundtrip () =
  let g = Prng.create 99 in
  for _ = 1 to 10 do
    ignore (Prng.next_int64 g)
  done;
  let s = Prng.state g in
  let a = Array.init 8 (fun _ -> Prng.next_int64 g) in
  Prng.set_state g s;
  let b = Array.init 8 (fun _ -> Prng.next_int64 g) in
  Alcotest.(check bool) "stream reproduced" true (a = b)

(* --- trace_io hardening --- *)

(* Binary traces whose header declares 2^61 accesses (no payload, CRC 0)
   and 2^61 + 1 (one address under its true CRC). [8 * count] wraps to the
   payload's real size for both, so a reader that multiplies the count
   accepts the header. *)
let huge_count_traces dir =
  List.map
    (fun (name, count, addrs) ->
      let payload = Buffer.create 8 in
      List.iter (fun a -> Buffer.add_int64_le payload (Int64.of_int a)) addrs;
      let payload = Buffer.contents payload in
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc "CBTRACE2";
      let hdr = Bytes.create 12 in
      Bytes.set_int64_le hdr 0 (Int64.of_int count);
      Bytes.set_int32_le hdr 8 (Int32.of_int (Crc32.digest payload));
      output_bytes oc hdr;
      output_string oc payload;
      close_out oc;
      path)
    [ ("count-2p61.bin", 1 lsl 61, []); ("count-2p61+1.bin", (1 lsl 61) + 1, [ 64 ]) ]

let test_trace_io_trailing_garbage () =
  let dir = temp_dir () in
  let path = Filename.concat dir "t.bin" in
  let trace = Array.init 50 (fun i -> i * 64) in
  Trace_io.write_binary path trace;
  Alcotest.(check bool) "atomic write leaves no temp file" true (no_stray_tmp dir);
  Alcotest.(check bool) "clean roundtrip" true (Trace_io.read_binary path = trace);
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  output_string oc "junk";
  close_out oc;
  (try
     ignore (Trace_io.read_binary path);
     Alcotest.fail "expected Failure on trailing bytes"
   with Failure msg ->
     Alcotest.(check bool) "message names the problem" true
       (String.length msg > 0
       && String.sub msg 0 (String.length "Trace_io.read_binary") = "Trace_io.read_binary"));
  List.iter
    (fun path ->
      List.iter
        (fun (what, read) ->
          match read path with
          | _ -> Alcotest.failf "%s accepted %s" what path
          | exception Failure _ -> ())
        [ ("read_binary", Trace_io.read_binary); ("read_auto", Trace_io.read_auto) ])
    (huge_count_traces dir);
  rm_rf dir

(* --- run journal --- *)

let test_runlog_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  Runlog.with_journal path (fun j ->
      Runlog.event j "driver_start" [ ("driver", Runlog.S "rq1") ];
      Runlog.event j "driver_end" [ ("driver", Runlog.S "rq1"); ("seconds", Runlog.F 1.5) ];
      Runlog.event j "note" [ ("msg", Runlog.S "with \"quotes\" and\nnewline") ]);
  Alcotest.(check int) "three lines" 3 (List.length (Runlog.events path));
  Alcotest.(check (list string)) "completed drivers" [ "rq1" ] (Runlog.completed_drivers path);
  (match Runlog.events ~kind:"note" path with
  | [ line ] ->
    Alcotest.(check (option string)) "escaped field round-trips"
      (Some "with \"quotes\" and\nnewline") (Runlog.field line "msg")
  | other -> Alcotest.failf "expected one note event, got %d" (List.length other));
  rm_rf dir

(* Two domains append to one journal at once: every line must be a whole
   JSON object and every event must land exactly once. *)
let test_runlog_concurrent_appends () =
  let dir = temp_dir () in
  let path = Filename.concat dir "shared.jsonl" in
  let per_domain = 2_000 in
  Runlog.with_journal path (fun j ->
      let writer d () =
        for i = 0 to per_domain - 1 do
          Runlog.event j "tick" [ ("domain", Runlog.I d); ("seq", Runlog.I i) ]
        done
      in
      let others = List.map (fun d -> Domain.spawn (writer d)) [ 0; 1 ] in
      List.iter Domain.join others);
  let seen =
    List.map
      (fun line ->
        let int_field k json = Option.bind (Sjson.member k json) Sjson.to_int in
        match Sjson.parse line with
        | Ok json -> (
          match (int_field "domain" json, int_field "seq" json) with
          | Some d, Some i -> (d, i)
          | _ -> Alcotest.failf "line without its fields: %s" line)
        | Error why -> Alcotest.failf "unparseable line (%s): %s" why line)
      (Runlog.events path)
  in
  let expected =
    List.concat_map (fun d -> List.init per_domain (fun i -> (d, i))) [ 0; 1 ]
  in
  Alcotest.(check (list (pair int int))) "each event exactly once" expected
    (List.sort compare seen);
  rm_rf dir

let test_run_driver_skips_completed () =
  let dir = temp_dir () in
  let path = Filename.concat dir "sweep.jsonl" in
  let runs = ref 0 in
  let body () =
    incr runs;
    !runs
  in
  Runlog.with_journal path (fun j ->
      Alcotest.(check (option int)) "first run executes" (Some 1)
        (Experiments.run_driver ~journal:j ~name:"rq9" body));
  Runlog.with_journal path (fun j ->
      Alcotest.(check (option int)) "second run skipped" None
        (Experiments.run_driver ~journal:j ~name:"rq9" body);
      Alcotest.(check (option int)) "other driver still runs" (Some 2)
        (Experiments.run_driver ~journal:j ~name:"rq10" body));
  rm_rf dir

(* --- end-to-end: exact resume and divergence recovery --- *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()
let tiny_cache = Cache.config ~sets:4 ~ways:2 ()

let tiny_workload name seed =
  Workload.make ~name ~suite:Workload.Spec ~group:name (fun n ->
      let rng = Prng.create seed in
      Array.init n (fun i ->
          if Prng.float rng 1.0 < 0.7 then (i mod 32) * 8 else Prng.int rng 8192 * 64))

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_samples () =
  Cbox_dataset.to_samples
    (Cbox_dataset.build_l1 tiny_spec ~configs:[ tiny_cache ] ~trace_len:600
       [ tiny_workload "r1" 5; tiny_workload "r2" 6 ])

let bits =
  List.map (fun (p : Param.t) -> Array.map Int64.bits_of_float (Tensor.to_array p.Param.value))

(* A trainer under test, run on [tiny_samples]: [run] builds its model from
   [model_seed], trains it and returns every epoch's stats and the final
   weights, all as bits so runs compare exactly. [nan_source] is the
   sentinel check a poisoned gradient trips first. *)
type trainer = {
  run :
    ?resume:bool ->
    ?snapshot_every:int ->
    ?snapshot_dir:string ->
    ?journal:string ->
    model_seed:int ->
    epochs:int ->
    seed:int ->
    unit ->
    int64 array list * int64 array list;
  nan_source : string;
}

let stats_bits rows = List.map (Array.map Int64.bits_of_float) rows

let cbox_train =
  let run ?resume ?snapshot_every ?snapshot_dir ?journal ~model_seed ~epochs ~seed () =
    let model = Cbgan.create ~seed:model_seed tiny_model_config in
    let options =
      {
        (Cbox_train.default_options ~epochs ~batch_size:2 ?snapshot_every ?snapshot_dir ?journal ())
        with
        Cbox_train.lr = 1e-3;
        seed;
      }
    in
    let stats = Cbox_train.train ?resume model tiny_spec options (tiny_samples ()) in
    ( stats_bits
        (List.map
           (fun (s : Cbox_train.epoch_stats) ->
             [| float_of_int s.epoch; s.g_adv; s.g_l1; s.d_loss; float_of_int s.batches |])
           stats),
      bits (Cbgan.generator_params model @ Cbgan.discriminator_params model) )
  in
  { run; nan_source = "g_grad_norm" }

(* Distillation with feature matching on, so the adapter's weights and its
   Adam state go through every snapshot; the untrained teacher is fine. *)
let distill =
  let run ?resume ?snapshot_every ?snapshot_dir ?journal ~model_seed ~epochs ~seed () =
    let teacher = Cbgan.create ~seed:51 tiny_model_config in
    let student = Student.create ~seed:model_seed (Distill.student_config tiny_model_config) in
    let options =
      {
        (Distill.default_options ~epochs ~batch_size:2 ~temperature:0.5 ~feat_weight:0.5
           ?snapshot_every ?snapshot_dir ?journal ())
        with
        Distill.lr = 1e-3;
        seed;
      }
    in
    let stats = Distill.train ?resume ~teacher student tiny_spec options (tiny_samples ()) in
    ( stats_bits
        (List.map
           (fun (s : Distill.epoch_stats) ->
             [| float_of_int s.epoch; s.pixel; s.feat; float_of_int s.batches |])
           stats),
      bits (Unet.params student) )
  in
  { run; nan_source = "distill_grad_norm" }

let batches_per_epoch samples batch_size =
  (List.length samples + batch_size - 1) / batch_size

(* Train 4 epochs straight vs 2 epochs + kill mid-3rd + resume: epoch stats
   and every final parameter must agree bit-for-bit. *)
let run_exact_resume trainer ~corrupt_latest () =
  let nb = batches_per_epoch (tiny_samples ()) 2 in
  Alcotest.(check bool) "enough batches for a mid-epoch kill" true (nb >= 2);
  let run ?resume dir journal =
    trainer.run ?resume ~snapshot_every:2 ~snapshot_dir:dir ?journal ~model_seed:21 ~epochs:4
      ~seed:4242 ()
  in
  (* Straight run (snapshots to a throwaway dir so the code path is the
     same; they are never read back). *)
  let straight_dir = temp_dir () in
  let straight_stats, straight_weights = run straight_dir None in
  (* Interrupted run: kill at an arbitrary batch mid-3rd-epoch (an odd
     global index, so the latest snapshot is strictly older than the kill
     point and resume must replay batches). *)
  let dir = temp_dir () in
  let journal = Filename.concat dir "run.jsonl" in
  Faultinject.arm Faultinject.Kill ~at_batch:((2 * nb) + 1);
  (try
     ignore (run dir (Some journal));
     Alcotest.fail "expected Faultinject.Killed"
   with Faultinject.Killed b -> Alcotest.(check int) "killed at the armed batch" ((2 * nb) + 1) b);
  Faultinject.disarm ();
  if corrupt_latest then begin
    (* The newest snapshot is corrupted (as if the crash raced the write on
       a non-atomic filesystem): resume must journal it and fall back to
       the previous snapshot, still bit-identically. *)
    let snaps =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
      |> List.sort compare |> List.rev
    in
    Alcotest.(check bool) "several snapshots on disk" true (List.length snaps >= 2);
    Faultinject.corrupt_byte (Filename.concat dir (List.hd snaps)) ~offset:64
  end;
  (* Resume in a fresh model (fresh process simulation). *)
  let resumed_stats, resumed_weights = run ~resume:true dir (Some journal) in
  Alcotest.(check bool) "epoch stats bit-identical" true (straight_stats = resumed_stats);
  Alcotest.(check bool) "final weights bit-identical" true (straight_weights = resumed_weights);
  Alcotest.(check bool) "journal records the resume" true
    (Runlog.events ~kind:"resume" journal <> []);
  if corrupt_latest then
    Alcotest.(check bool) "journal records the corrupt snapshot" true
      (Runlog.events ~kind:"snapshot_corrupt" journal <> []);
  Alcotest.(check bool) "snapshot rotation keeps at most 3" true
    (List.length
       (Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".ckpt"))
    <= 3);
  rm_rf straight_dir;
  rm_rf dir

let test_exact_resume () = run_exact_resume cbox_train ~corrupt_latest:false ()
let test_resume_skips_corrupt_snapshot () = run_exact_resume cbox_train ~corrupt_latest:true ()
let test_distill_exact_resume () = run_exact_resume distill ~corrupt_latest:false ()
let test_distill_resume_skips_corrupt_snapshot () = run_exact_resume distill ~corrupt_latest:true ()

(* Poison a gradient mid-2nd-epoch [shots] times in a row: each trip rolls
   back to the epoch-1 boundary and halves the learning rate in effect, so
   the rollbacks journal lr/2, lr/4, ... and the run still completes. *)
let run_nan_rollback trainer ~shots =
  let nb = batches_per_epoch (tiny_samples ()) 2 in
  let dir = temp_dir () in
  let journal = Filename.concat dir "nan.jsonl" in
  Faultinject.arm ~count:shots Faultinject.Nan_grad ~at_batch:(nb + 2);
  let history, _ = trainer.run ~journal ~model_seed:22 ~epochs:3 ~seed:777 () in
  Faultinject.disarm ();
  Alcotest.(check int) "all epochs completed despite the NaN" 3 (List.length history);
  let divergences = Runlog.events ~kind:"divergence" journal in
  let rollbacks = Runlog.events ~kind:"rollback" journal in
  Alcotest.(check int) "divergences journalled" shots (List.length divergences);
  Alcotest.(check int) "rollbacks journalled" shots (List.length rollbacks);
  List.iter
    (fun line ->
      Alcotest.(check (option string)) "sentinel saw the NaN gradient norm"
        (Some trainer.nan_source) (Runlog.field line "source"))
    divergences;
  List.iteri
    (fun i line ->
      (* lr is numeric JSON; check the halved value appears on the line. *)
      let lr = 1e-3 /. Float.pow 2.0 (float_of_int (i + 1)) in
      let expected = Printf.sprintf "\"lr\": %.17g," lr in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (expected ^ " journalled") true (contains line expected))
    rollbacks;
  rm_rf dir

let test_nan_triggers_rollback_and_lr_halving () =
  run_nan_rollback cbox_train ~shots:1;
  run_nan_rollback cbox_train ~shots:2

let test_distill_nan_rollback () =
  run_nan_rollback distill ~shots:1;
  run_nan_rollback distill ~shots:2

let test_divergence_retries_exhausted () =
  let samples = tiny_samples () in
  let dir = temp_dir () in
  let journal = Filename.concat dir "abort.jsonl" in
  let model = Cbgan.create ~seed:23 tiny_model_config in
  let options =
    {
      (Cbox_train.default_options ~epochs:2 ~batch_size:2 ~journal ())
      with
      Cbox_train.lr = 1e-3;
      seed = 778;
      max_retries = 0;
    }
  in
  Faultinject.arm Faultinject.Nan_grad ~at_batch:1;
  (try
     ignore (Cbox_train.train model tiny_spec options samples);
     Alcotest.fail "expected Failure once retries are exhausted"
   with Failure _ -> ());
  Faultinject.disarm ();
  Alcotest.(check bool) "abort journalled" true (Runlog.events ~kind:"abort" journal <> []);
  rm_rf dir

let suite =
  ( "resilience",
    [
      Alcotest.test_case "checkpoint v2 exact roundtrip" `Quick test_checkpoint_v2_exact_roundtrip;
      QCheck_alcotest.to_alcotest test_checkpoint_corruption_property;
      Alcotest.test_case "adam state roundtrip" `Quick test_adam_state_roundtrip;
      Alcotest.test_case "adam state missing entry" `Quick test_adam_state_missing_entry;
      Alcotest.test_case "prng state roundtrip" `Quick test_prng_state_roundtrip;
      Alcotest.test_case "trace_io trailing garbage" `Quick test_trace_io_trailing_garbage;
      Alcotest.test_case "runlog roundtrip" `Quick test_runlog_roundtrip;
      Alcotest.test_case "run_driver skips completed" `Quick test_run_driver_skips_completed;
      Alcotest.test_case "exact resume after kill" `Slow test_exact_resume;
      Alcotest.test_case "resume skips corrupt snapshot" `Slow test_resume_skips_corrupt_snapshot;
      Alcotest.test_case "nan -> rollback + lr halving" `Slow test_nan_triggers_rollback_and_lr_halving;
      Alcotest.test_case "distill exact resume after kill" `Slow test_distill_exact_resume;
      Alcotest.test_case "distill resume skips corrupt snapshot" `Slow
        test_distill_resume_skips_corrupt_snapshot;
      Alcotest.test_case "distill nan -> rollback + lr halving" `Slow test_distill_nan_rollback;
      Alcotest.test_case "divergence retries exhausted" `Quick test_divergence_retries_exhausted;
      Alcotest.test_case "runlog: two domains append concurrently" `Quick
        test_runlog_concurrent_appends;
    ] )
