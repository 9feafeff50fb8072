(* The wire client: loadgen's two checkers and the stream-session driver
   against in-process daemons and a router, and stub servers that break
   the protocol on purpose, so that every check can fail. *)

module S = Client.Stream

let temp_dir () =
  let d = Filename.temp_file "cbox_client" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let in_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let unix sock = Serve_daemon.Unix_socket sock

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

(* Three clients (so one dribbles), a malformed request in three and a
   backend mix, unless a test says otherwise. *)
let loadgen ?(clients = 3) ?(requests = 8) ?(invalid_every = 3)
    ?(backends = Cbox_infer.[ Backend_float32; Backend_int8; Backend_hrd; Backend_stm ])
    ?(shutdown_after = true) listen =
  Client.loadgen listen ~clients ~requests ~invalid_every ~benchmark:"600.perlbench_s-734B"
    ~trace_len:1000 ~backends ~shutdown_after

let check_problem problems expected =
  if not (List.exists (String.equal expected) problems) then
    Alcotest.failf "no problem %S among [%s]" expected (String.concat "; " problems)

let check_clean (r : Client.report) =
  Alcotest.(check (list string)) "no problems" [] r.Client.problems;
  Alcotest.(check int) "every request answered" 24 r.Client.answered;
  (* Without a model float32 and int8 degrade to hrd; stm answers itself. *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Cbox_infer.backend_name b ^ " answered some")
        true
        (List.assoc b r.Client.per_backend > 0))
    Cbox_infer.[ Backend_hrd; Backend_stm ]

(* --- against real servers --- *)

let test_loadgen_daemon () =
  in_dir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let server = Daemons.start (Daemons.config ~queue_depth:64 sock) in
      let r = loadgen (unix sock) in
      Thread.join server;
      check_clean r)

let test_loadgen_router () =
  in_dir (fun dir ->
      let b1 = Filename.concat dir "b1.sock"
      and b2 = Filename.concat dir "b2.sock"
      and rs = Filename.concat dir "r.sock" in
      let backends = [ (b1, Daemons.start (Daemons.config ~queue_depth:64 b1));
                       (b2, Daemons.start (Daemons.config ~queue_depth:64 b2)) ] in
      let router =
        Daemons.start_router
          (Router.default_config ~listen:(unix rs)
             ~backends:[ ("b1", unix b1); ("b2", unix b2) ])
      in
      let r = loadgen (unix rs) in
      Thread.join router;
      List.iter
        (fun (sock, thread) ->
          ignore (Daemons.call sock {|{"op": "shutdown"}|});
          Thread.join thread)
        backends;
      check_clean r)

let test_loadgen_stream () =
  in_dir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let server = Daemons.start (Daemons.config sock) in
      let r = Client.loadgen_stream (unix sock) ~clients:3 ~windows:12 ~shutdown_after:true in
      Thread.join server;
      Alcotest.(check (list string)) "no problems" [] r.Client.stream_problems;
      Alcotest.(check int) "every window delivered" 36 r.Client.windows;
      Alcotest.(check int) "one client died and resumed" 1 r.Client.resumes;
      Alcotest.(check int) "one over-credit chunk shed" 1 r.Client.credit_sheds)

let pour ?kill_after s trace =
  match S.pour ?kill_after s trace ~chunk:96 with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (S.failure_message f)

(* stream_smoke.sh's diff, in process: windows of a session killed after
   two windows and resumed by token are bit-identical to an uninterrupted
   session's. *)
let test_stream_kill_resume_bitidentical () =
  in_dir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let model = Cbgan.create ~seed:51 tiny_model_config in
      let server = Daemons.start ~model:(Some model) (Daemons.config sock) in
      let trace = (Suite.find "600.perlbench_s-734B").Workload.generate 1500 in
      let windows = ref [] in
      let on_window i w =
        match Option.bind (Sjson.member "hit_rate" w) Sjson.to_float with
        | Some h -> windows := Printf.sprintf "%d:%h" i h :: !windows
        | None -> Alcotest.failf "window %d has no hit rate" i
      in
      let opened c =
        match S.open_ c ~sets:64 ~ways:4 ~on_window with
        | Ok (s, _) -> s
        | Error f -> Alcotest.fail (S.failure_message f)
      in
      let reference =
        let c = Daemons.connect sock in
        pour (opened c) trace;
        Client.close c;
        List.rev !windows
      in
      windows := [];
      let killed = opened (Daemons.connect sock) in
      pour ~kill_after:2 killed trace;
      let before_kill = List.length !windows in
      Alcotest.(check bool) "killed mid-stream" true
        (before_kill >= 2 && before_kill < List.length reference);
      let c = Daemons.connect sock in
      (match S.resume c ~token:(S.token killed) ~last_window:(-1) ~on_window with
      | Ok s -> pour s trace
      | Error f -> Alcotest.fail (S.failure_message f));
      Client.close c;
      Alcotest.(check (list string)) "kill+resume windows = uninterrupted windows"
        (List.sort_uniq compare reference)
        (List.sort_uniq compare !windows);
      ignore (Daemons.call sock {|{"op": "shutdown"}|});
      Thread.join server)

(* --- against stubs that break the protocol --- *)

let id_of line =
  match Sjson.parse line with
  | Ok j -> Option.value (Option.bind (Sjson.member "id" j) Sjson.to_str) ~default:""
  | Error _ -> ""

let answer ?(fields = "") id = Printf.sprintf {|{"id": "%s", "ok": true%s}|} id fields

(* The router gives up on an upstream reply at its attempt timeout, but the
   reply may still arrive on that connection, so the connection must never
   carry another request. The stub backend answers "slow" late. *)
let test_router_drops_timed_out_connection () =
  in_dir (fun dir ->
      let b = Filename.concat dir "b.sock" and rs = Filename.concat dir "r.sock" in
      let on_line _ ticket line =
        match id_of line with
        | "slow" ->
          ignore
            (Thread.create
               (fun () ->
                 Thread.delay 0.3;
                 Reactor.resolve ticket (answer "slow"))
               ())
        | id -> Reactor.resolve ticket (answer id)
      in
      let stub = Daemons.start_reactor ~on_line b in
      let router =
        Daemons.start_router
          {
            (Router.default_config ~listen:(unix rs) ~backends:[ ("b", unix b) ]) with
            Router.attempt_timeout_s = 0.1;
            max_attempts = 1;
            fallback = Cbox_infer.No_fallback;
          }
      in
      let infer id =
        Printf.sprintf
          {|{"op": "infer", "id": "%s", "sets": 64, "ways": 4, "benchmark": "600.perlbench_s-734B", "trace_len": 1000}|}
          id
      in
      ignore (Daemons.call rs (infer "slow"));
      Thread.delay 0.5;
      List.iter
        (fun id ->
          let r = Daemons.call rs (infer id) in
          Alcotest.(check (option string)) "each reply answers its own request" (Some id)
            (Option.bind (Sjson.member "id" r) Sjson.to_str))
        [ "fast1"; "fast2"; "fast3" ];
      ignore (Daemons.call rs {|{"op": "shutdown"}|});
      Thread.join router;
      Daemons.stop_reactor stub)

(* A stub reactor: a stats request gets ["served"], the lines the stub has
   taken, and the fields [stats ()]; every other line goes to [infer]. *)
let with_stub ?max_line ?overflow_reply ?(infer = fun _ _ -> ()) ~stats f =
  in_dir (fun dir ->
      let sock = Filename.concat dir "stub.sock" in
      let served = ref 0 in
      let on_line _ ticket line =
        if line = {|{"op": "stats"}|} then
          Reactor.resolve ticket
            (Printf.sprintf {|{"ok": true, "served": %d%s}|} !served (stats ()))
        else begin
          incr served;
          infer ticket line
        end
      in
      let stub = Daemons.start_reactor ?max_line ?overflow_reply ~on_line sock in
      Fun.protect ~finally:(fun () -> Daemons.stop_reactor stub) (fun () -> f (unix sock)))

(* One bursting client, no malformed requests, no backend field. *)
let plain = loadgen ~clients:1 ~invalid_every:0 ~backends:[] ~shutdown_after:false

let test_swapped_replies_reported () =
  let held = ref None in
  let infer ticket line =
    match !held with
    | None -> held := Some (ticket, id_of line)
    | Some (first, first_id) ->
      held := None;
      Reactor.resolve first (answer (id_of line));
      Reactor.resolve ticket (answer first_id)
  in
  with_stub ~stats:(fun () -> {|, "shed": 0|}) ~infer (fun listen ->
      let r = plain ~requests:2 listen in
      check_problem r.Client.problems
        {|reply 0: id "c0-1", expected "c0-0" — reordered or duplicated|})

(* Answers every request from hrd without counting it, and counts one shed
   per stats request that nobody was shed. *)
let test_counter_skew_reported () =
  let sheds = ref 0 in
  let stats () =
    incr sheds;
    Printf.sprintf ", \"shed\": %d%s" !sheds
      (String.concat ""
         (List.map
            (fun b -> Printf.sprintf ", %S: 0" (Serve_engine.backend_counter b))
            Cbox_infer.backends))
  in
  let infer ticket line =
    Reactor.resolve ticket (answer ~fields:{|, "backend": "hrd"|} (id_of line))
  in
  with_stub ~stats ~infer (fun listen ->
      let r =
        loadgen ~clients:1 ~requests:4 ~invalid_every:0
          ~backends:[ Cbox_infer.Backend_hrd ] ~shutdown_after:false listen
      in
      check_problem r.Client.problems "daemon counted 1 shed requests, clients observed 0";
      check_problem r.Client.problems "daemon counted 0 hrd answers, clients observed 4")

(* Every request line is over the stub's frame cap, so the reactor sends its
   overflow reply, here a valid answer to request 0, and hangs up with the
   rest of the pipeline unread. A pipeline that fits the socket buffer sees
   the hang-up on its read, as a reset; one that outgrows it is still being
   written, which with SIGPIPE at its default, as in a fresh process, must
   fail the write, not kill the client. *)
let test_hangup_reported () =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  List.iter
    (fun requests ->
      with_stub ~max_line:64 ~overflow_reply:(answer "c0-0")
        ~stats:(fun () -> {|, "shed": 0|})
        (fun listen ->
          let r = plain ~requests listen in
          Alcotest.(check int) "one reply before the hang-up" 1 r.Client.answered;
          check_problem r.Client.problems "reply 1: EOF — reply dropped"))
    [ 50; 5000 ]

let test_unreachable_reported () =
  in_dir (fun dir ->
      let listen = unix (Filename.concat dir "nobody.sock") in
      let connect_failed problems =
        Alcotest.(check bool) "connect failure reported" true
          (List.exists (String.starts_with ~prefix:"connect: ") problems)
      in
      connect_failed (plain listen).Client.problems;
      connect_failed
        (Client.loadgen_stream listen ~clients:1 ~windows:2 ~shutdown_after:false)
          .Client.stream_problems;
      match Client.call listen {|{"op": "health"}|} with
      | Ok _ -> Alcotest.fail "call reached nobody"
      | Error e ->
        Alcotest.(check bool) "call reports the connect" true
          (String.starts_with ~prefix:"cannot connect: " e))

(* A chunk below 1 never advances the stream, so [pour] refuses it before
   sending a feed. The stub grants credit but rejects a fourth feed: a
   [pour] that looped on empty feeds fails instead of hanging. *)
let test_pour_rejects_empty_chunk () =
  let feeds = ref 0 in
  let infer ticket line =
    if String.starts_with ~prefix:{|{"op": "stream_open"|} line then
      Reactor.resolve ticket {|{"ok": true, "session": "s1", "consumed": 0, "credit": 64}|}
    else begin
      incr feeds;
      Reactor.resolve ticket
        (if !feeds > 3 then {|{"ok": false, "error": "bad_request", "message": "looping"}|}
         else {|{"ok": true, "consumed": 0, "credit": 64, "windows": []}|})
    end
  in
  with_stub ~stats:(fun () -> "") ~infer (fun listen ->
      match Client.connect listen with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match S.open_ c ~sets:64 ~ways:4 ~on_window:(fun _ _ -> ()) with
            | Error f -> Alcotest.fail (S.failure_message f)
            | Ok (s, _) ->
              List.iter
                (fun chunk ->
                  match S.pour s (Array.make 10 64) ~chunk with
                  | _ -> Alcotest.failf "pour accepted chunk %d" chunk
                  | exception Invalid_argument _ -> ())
                [ 0; -1 ];
              Alcotest.(check int) "no feed sent" 0 !feeds))

let suite =
  ( "client",
    [
      Alcotest.test_case "loadgen reconciles against a daemon" `Quick test_loadgen_daemon;
      Alcotest.test_case "loadgen reconciles through a router" `Quick test_loadgen_router;
      Alcotest.test_case "loadgen --stream against a daemon" `Quick test_loadgen_stream;
      Alcotest.test_case "stream: kill + resume is bit-identical" `Quick
        test_stream_kill_resume_bitidentical;
      Alcotest.test_case "swapped replies are a reorder" `Quick test_swapped_replies_reported;
      Alcotest.test_case "counter skew is reported" `Quick test_counter_skew_reported;
      Alcotest.test_case "hang-up mid-pipeline is a drop" `Quick test_hangup_reported;
      Alcotest.test_case "unreachable socket is a connect failure" `Quick
        test_unreachable_reported;
      Alcotest.test_case "router never reuses a timed-out connection" `Quick
        test_router_drops_timed_out_connection;
      Alcotest.test_case "pour refuses a chunk below 1" `Quick test_pour_rejects_empty_chunk;
    ] )
