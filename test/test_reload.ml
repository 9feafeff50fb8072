(* Zero-downtime model reload: engine-level hot swap (bit-identity across
   a same-checkpoint swap, corrupt checkpoints rejected without touching
   the serving model), the reload wire verb, SIGHUP on a live daemon, and
   continuous traffic across a reload seeing identical answers. *)

let temp_dir () =
  let d = Filename.temp_file "cbox_reload" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let str_field json k = Option.bind (Sjson.member k json) Sjson.to_str
let bool_field json k = Option.bind (Sjson.member k json) Sjson.to_bool
let num_field json k = Option.bind (Sjson.member k json) Sjson.to_float

let check_str json k expected =
  Alcotest.(check (option string)) k (Some expected) (str_field json k)

let check_bool json k expected =
  Alcotest.(check (option bool)) k (Some expected) (bool_field json k)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_trace_len = 4 * Heatmap.accesses_per_image tiny_spec

let tiny_trace =
  lazy
    (let rng = Prng.create 31 in
     Array.init tiny_trace_len (fun i ->
         if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64))

let infer_line ?(id = "r") () =
  let trace = Lazy.force tiny_trace in
  Sjson.to_string
    (Sjson.Obj
       [
         ("id", Sjson.Str id);
         ("op", Sjson.Str "infer");
         ("sets", Sjson.Num 4.0);
         ("ways", Sjson.Num 2.0);
         ( "trace",
           Sjson.Arr (Array.to_list (Array.map (fun a -> Sjson.Num (float_of_int a)) trace))
         );
       ])

let reply engine line =
  match Serve_engine.handle_line engine line with
  | Serve_engine.Reply j | Serve_engine.Shutdown_reply j -> j

(* A saved checkpoint plus an engine armed for hot swap from it. *)
let with_reloadable_engine f =
  let dir = temp_dir () in
  let ckpt = Filename.concat dir "m.ckpt" in
  Cbgan.save (Cbgan.create ~seed:52 tiny_model_config) ckpt;
  let model =
    match Serve_engine.model_of_checkpoint ~seed:52 tiny_model_config ~path:ckpt with
    | Ok m -> Some m
    | Error e -> Alcotest.failf "fixture checkpoint unloadable: %s" e.Serve_error.message
  in
  let cfg =
    { (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ()) with
      Serve_engine.grace_lo = -1e9; grace_hi = 1e9 }
  in
  let reload =
    {
      Serve_engine.reload_seed = 52;
      reload_model_cfg = tiny_model_config;
      reload_default_path = Some ckpt;
      reload_student_path = None;
    }
  in
  let engine = Serve_engine.create ~reload ~spec:tiny_spec ~model cfg in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f ~dir ~ckpt engine)

let hit_rate json =
  match num_field json "hit_rate" with
  | Some hr -> hr
  | None -> Alcotest.failf "no hit_rate in %s" (Sjson.to_string json)

let test_engine_reload_bit_identity () =
  with_reloadable_engine (fun ~dir:_ ~ckpt:_ engine ->
      let r1 = reply engine (infer_line ~id:"before" ()) in
      check_bool r1 "ok" true;
      check_str r1 "source" "model";
      (match Serve_engine.reload engine () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reload failed: %s" e.Serve_error.message);
      Alcotest.(check int) "generation bumped" 1 (Serve_engine.reloads engine);
      let r2 = reply engine (infer_line ~id:"after" ()) in
      check_str r2 "source" "model";
      (* Same checkpoint, same weights: the swap must be invisible down to
         the last bit of the prediction. *)
      Alcotest.(check (float 0.0)) "bit-identical across the swap" (hit_rate r1)
        (hit_rate r2))

let test_engine_reload_corrupt_rejected () =
  with_reloadable_engine (fun ~dir ~ckpt:_ engine ->
      let r1 = reply engine (infer_line ()) in
      let bad = Filename.concat dir "bad.ckpt" in
      let oc = open_out_bin bad in
      output_string oc "not a checkpoint at all";
      close_out oc;
      (match Serve_engine.reload engine ~path:bad () with
      | Ok () -> Alcotest.fail "corrupt checkpoint accepted"
      | Error e ->
        Alcotest.(check bool) "typed model_unavailable" true
          (e.Serve_error.code = Serve_error.Model_unavailable));
      Alcotest.(check int) "no generation bump" 0 (Serve_engine.reloads engine);
      (* The old model is untouched and still serving, bit-identically. *)
      let r2 = reply engine (infer_line ()) in
      check_str r2 "source" "model";
      Alcotest.(check (float 0.0)) "old model still serves" (hit_rate r1) (hit_rate r2);
      let s = reply engine {|{"op": "stats"}|} in
      Alcotest.(check (option (float 1e-9))) "reload failure counted" (Some 1.0)
        (num_field s "reload_failures");
      Alcotest.(check (option (float 1e-9))) "no reload counted" (Some 0.0)
        (num_field s "reloads"))

let test_engine_reload_wire_verb () =
  with_reloadable_engine (fun ~dir:_ ~ckpt:_ engine ->
      let r = reply engine {|{"op": "reload", "id": "rl1"}|} in
      check_bool r "ok" true;
      check_str r "op" "reload";
      check_str r "id" "rl1";
      Alcotest.(check (option (float 1e-9))) "generation in the reply" (Some 1.0)
        (num_field r "reloads");
      (* Naming a missing checkpoint is a typed error, not a crash. *)
      let r = reply engine {|{"op": "reload", "checkpoint": "/no/such/file"}|} in
      check_bool r "ok" false;
      check_str r "error" "model_unavailable")

let test_engine_reload_without_spec () =
  let cfg =
    { (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ()) with
      Serve_engine.grace_lo = -1e9; grace_hi = 1e9 }
  in
  let engine = Serve_engine.create ~spec:tiny_spec ~model:None cfg in
  (match Serve_engine.reload engine () with
  | Ok () -> Alcotest.fail "reload without a spec accepted"
  | Error e ->
    Alcotest.(check bool) "typed invalid_config" true
      (e.Serve_error.code = Serve_error.Invalid_config));
  let r = reply engine {|{"op": "reload"}|} in
  check_bool r "ok" false;
  check_str r "error" "invalid_config"

(* --- live daemon --- *)

let with_reloadable_daemon f =
  let dir = temp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let ckpt = Filename.concat dir "m.ckpt" in
  Cbgan.save (Cbgan.create ~seed:52 tiny_model_config) ckpt;
  let model =
    match Serve_engine.model_of_checkpoint ~seed:52 tiny_model_config ~path:ckpt with
    | Ok m -> Some m
    | Error e -> Alcotest.failf "fixture checkpoint unloadable: %s" e.Serve_error.message
  in
  let reload =
    {
      Serve_engine.reload_seed = 52;
      reload_model_cfg = tiny_model_config;
      reload_default_path = Some ckpt;
      reload_student_path = None;
    }
  in
  let thread = Daemons.start ~model ~reload (Daemons.config ~queue_depth:32 sock) in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      f ~sock;
      let sd = Daemons.call sock {|{"op": "shutdown"}|} in
      check_bool sd "ok" true;
      Thread.join thread)

(* Continuous traffic across a hot swap: a client hammers inferences while
   a control connection triggers a reload of the same checkpoint. Every
   reply must be an untagged model success with the identical prediction —
   the swap shows up as (at most) latency, never as an error or a value
   change. *)
let test_daemon_reload_under_traffic () =
  with_reloadable_daemon (fun ~sock ->
      let c = Daemons.connect sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ask id = Daemons.request c (infer_line ~id ()) in
          let baseline = hit_rate (ask "t0") in
          let reloader =
            Thread.create (fun () -> Daemons.call sock {|{"op": "reload"}|}) ()
          in
          for i = 1 to 30 do
            let r = ask (Printf.sprintf "t%d" i) in
            check_bool r "ok" true;
            check_str r "id" (Printf.sprintf "t%d" i);
            check_str r "source" "model";
            Alcotest.(check (float 0.0))
              "prediction identical before/during/after the swap" baseline
              (hit_rate r)
          done;
          Thread.join reloader;
          let s = Daemons.call sock {|{"op": "stats"}|} in
          Alcotest.(check (option (float 1e-9))) "exactly one reload" (Some 1.0)
            (num_field s "reloads")))

let test_daemon_sighup_reload () =
  with_reloadable_daemon (fun ~sock ->
      let r1 = Daemons.call sock (infer_line ~id:"pre" ()) in
      check_str r1 "source" "model";
      Unix.kill (Unix.getpid ()) Sys.sighup;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        let s = Daemons.call sock {|{"op": "stats"}|} in
        if num_field s "reloads" = Some 1.0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "SIGHUP reload never landed; stats: %s" (Sjson.to_string s)
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      wait ();
      let r2 = Daemons.call sock (infer_line ~id:"post" ()) in
      check_str r2 "source" "model";
      Alcotest.(check (float 0.0)) "same checkpoint, same prediction" (hit_rate r1)
        (hit_rate r2))

let suite =
  ( "reload",
    [
      Alcotest.test_case "engine: same-checkpoint swap is bit-identical" `Quick
        test_engine_reload_bit_identity;
      Alcotest.test_case "engine: corrupt checkpoint rejected, old model serves"
        `Quick test_engine_reload_corrupt_rejected;
      Alcotest.test_case "engine: reload wire verb" `Quick test_engine_reload_wire_verb;
      Alcotest.test_case "engine: reload without a spec is typed" `Quick
        test_engine_reload_without_spec;
      Alcotest.test_case "daemon: hot swap under continuous traffic" `Quick
        test_daemon_reload_under_traffic;
      Alcotest.test_case "daemon: SIGHUP triggers a reload" `Quick
        test_daemon_sighup_reload;
    ] )
