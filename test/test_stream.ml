(* Live trace streaming: the session manager's credit/quota/poison/resume
   invariants, bit-identity of streamed windows against the offline
   pipeline, fault containment across sessions, the idle-connection reaper,
   and the Linebuf/Squeue framing layers the stream path rides on. *)

let temp_dir () =
  let d = Filename.temp_file "cbox_stream" "" in
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
let int_field json k = Option.bind (Sjson.member k json) Sjson.to_int

let geti json k =
  match int_field json k with
  | Some v -> v
  | None -> Alcotest.failf "missing integer field %S in %s" k (Sjson.to_string json)

let check_str json k expected =
  Alcotest.(check (option string)) k (Some expected) (str_field json k)

let check_bool json k expected =
  Alcotest.(check (option bool)) k (Some expected) (bool_field json k)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()
let apw = Heatmap.accesses_per_image tiny_spec
let step = Heatmap.step_accesses tiny_spec

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let with_model f =
  let model = Cbgan.create ~seed:51 tiny_model_config in
  Fun.protect ~finally:Faultinject.disarm (fun () -> f model)

let mk_trace ?(seed = 37) len =
  let rng = Prng.create seed in
  Array.init len (fun i ->
      if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64)

let tiny_trace = lazy (mk_trace (4 * apw))
let tiny_windows = Heatmap.image_count tiny_spec (4 * apw)

(* Wide validity gate so an untrained generator's raw answer counts as a
   model success; the NaN injected by [Nan_output] fails any gate. *)
let engine ?now ~model () =
  let cfg =
    {
      (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ()) with
      Serve_engine.grace_lo = -1e9;
      grace_hi = 1e9;
      breaker_cooldown_s = 5.0;
    }
  in
  Serve_engine.create ?now ~spec:tiny_spec ~model cfg

(* --- session manager (driven directly, no daemon) --- *)

(* Drive one request through the manager with capture closures: [drive]
   returns the submitted window items without executing them (for quota
   assertions), [call] additionally flushes them through the engine —
   batched, exactly like the daemon's batcher — and returns the reply. *)
let drive ?(conn = 1) mgr eng req =
  let subs = ref [] in
  let reply = ref None in
  Stream_session.handle mgr ~conn ~arrival:(Serve_engine.now eng)
    ~submit:(fun item cb -> subs := (item, cb) :: !subs)
    ~resolve:(fun j -> reply := Some j)
    ~exempt:(fun () -> ())
    req;
  (reply, List.rev !subs)

let flush_subs eng subs =
  if subs <> [] then begin
    let replies = Serve_engine.infer_batch eng (List.map fst subs) in
    List.iter2 (fun (_, cb) j -> cb j) subs replies
  end

let call ?conn mgr eng req =
  let reply, subs = drive ?conn mgr eng req in
  flush_subs eng subs;
  match !reply with
  | Some j -> j
  | None -> Alcotest.fail "request produced no reply"

let open_req ?id ?(sets = 4) ?(ways = 2) () = Validate.Stream_open { id; sets; ways }

let feed_req ?id ?seq ?ack ~token addrs =
  Validate.Stream_feed { id; session = token; seq; ack; payload = Validate.Addrs addrs }

let corrupt_req ~token =
  Validate.Stream_feed
    { id = None; session = token; seq = None; ack = None; payload = Validate.Corrupt "not an array" }

let resume_req ?last ~token () = Validate.Stream_resume { id = None; session = token; last_window = last }
let close_req ~token = Validate.Stream_close { id = None; session = token }

let open_session mgr eng =
  let o = call mgr eng (open_req ()) in
  check_bool o "ok" true;
  (Option.get (str_field o "session"), geti o "credit")

(* One window entry, compressed for list equality: index, the exact bits of
   the prediction, and whether it was degraded. *)
let window_entries reply =
  match Sjson.member "windows" reply with
  | Some (Sjson.Arr ws) ->
    List.map
      (fun w ->
        Printf.sprintf "%d:%Lx:%b" (geti w "window")
          (Int64.bits_of_float (Option.get (num_field w "hit_rate")))
          (bool_field w "degraded" = Some true))
      ws
  | _ -> []

(* Pour a trace through a session in credit-sized chunks, acknowledging as
   results arrive; returns every window entry in arrival order. *)
let pour ?conn mgr eng ~token ~credit trace =
  let out = ref [] in
  let acked = ref (-1) in
  let pos = ref 0 and credit = ref credit and guard = ref 0 in
  while !pos < Array.length trace do
    incr guard;
    if !guard > 1000 then Alcotest.fail "pour: no progress (credit stalled?)";
    let n = min !credit (Array.length trace - !pos) in
    let r = call ?conn mgr eng (feed_req ~token ~ack:!acked (Array.sub trace !pos n)) in
    check_bool r "ok" true;
    List.iter
      (fun e ->
        out := e :: !out;
        acked := max !acked (int_of_string (List.hd (String.split_on_char ':' e))))
      (window_entries r);
    pos := geti r "consumed";
    credit := geti r "credit"
  done;
  List.rev !out

(* The offline reference: window [c] of a streamed trace covers accesses
   [c*step, c*step+apw); an Infer over exactly that slice goes through
   [of_trace] and the same engine ladder, so the streamed prediction must
   match it bit for bit. *)
let offline_entries eng trace =
  let n = Heatmap.image_count tiny_spec (Array.length trace) in
  List.init n (fun c ->
      let slice = Array.sub trace (c * step) apw in
      let line =
        Printf.sprintf {|{"op": "infer", "sets": 4, "ways": 2, "trace": [%s]}|}
          (String.concat ", " (Array.to_list (Array.map string_of_int slice)))
      in
      match Serve_engine.handle_line eng line with
      | Serve_engine.Reply r ->
        Printf.sprintf "%d:%Lx:%b" c
          (Int64.bits_of_float (Option.get (num_field r "hit_rate")))
          (bool_field r "degraded" = Some true)
      | Serve_engine.Shutdown_reply _ -> Alcotest.fail "unexpected shutdown")

let stream_stat mgr k =
  match Stream_session.stats_fields mgr () with
  | [ ("stream", obj) ] -> geti obj k
  | _ -> Alcotest.fail "stats_fields did not produce one \"stream\" object"

let test_open_geometry_and_credit () =
  let eng = engine ~model:None () in
  let mgr = Stream_session.create eng in
  let o = call mgr eng (open_req ~id:"o1" ()) in
  check_bool o "ok" true;
  check_str o "op" "stream_open";
  check_str o "id" "o1";
  Alcotest.(check int) "accesses_per_image" apw (geti o "accesses_per_image");
  Alcotest.(check int) "step_accesses" step (geti o "step_accesses");
  Alcotest.(check int) "consumed" 0 (geti o "consumed");
  Alcotest.(check int) "next_window" 0 (geti o "next_window");
  let retain = Stream_session.default_config.Stream_session.retain_windows in
  Alcotest.(check int) "initial credit spans the retention ring"
    (apw + ((retain - 1) * step))
    (geti o "credit");
  Alcotest.(check int) "live sessions" 1 (Stream_session.live_sessions mgr);
  Alcotest.(check bool) "bytes charged" true (Stream_session.buffered_bytes mgr > 0);
  (* Bad geometry is a typed invalid_config, not a session. *)
  let bad = call mgr eng (open_req ~sets:100 ()) in
  check_bool bad "ok" false;
  check_str bad "error" "invalid_config";
  Alcotest.(check int) "no session from a rejected open" 1 (Stream_session.live_sessions mgr)

let test_streamed_windows_match_offline_hrd () =
  let eng = engine ~model:None () in
  let mgr = Stream_session.create eng in
  let trace = Lazy.force tiny_trace in
  let token, credit = open_session mgr eng in
  let got = pour mgr eng ~token ~credit trace in
  Alcotest.(check int) "window count" tiny_windows (List.length got);
  Alcotest.(check (list string)) "streamed = offline (analytical path)"
    (offline_entries eng trace) got;
  let c = call mgr eng (close_req ~token) in
  check_bool c "ok" true;
  Alcotest.(check int) "windows reported at close" tiny_windows (geti c "windows");
  Alcotest.(check int) "session released" 0 (Stream_session.live_sessions mgr)

let test_streamed_windows_match_offline_model () =
  with_model (fun model ->
      let eng = engine ~model:(Some model) () in
      let mgr = Stream_session.create eng in
      let trace = Lazy.force tiny_trace in
      let token, credit = open_session mgr eng in
      let got = pour mgr eng ~token ~credit trace in
      Alcotest.(check int) "window count" tiny_windows (List.length got);
      List.iter
        (fun e ->
          Alcotest.(check bool) (e ^ " not degraded") true
            (String.length e > 5 && String.sub e (String.length e - 5) 5 = "false"))
        got;
      Alcotest.(check (list string)) "streamed = offline (model path)"
        (offline_entries eng trace) got)

let test_credit_exhaustion_atomic_reject () =
  let eng = engine ~model:None () in
  let cfg = { Stream_session.default_config with Stream_session.retain_windows = 2 } in
  let mgr = Stream_session.create ~config:cfg eng in
  let trace = Lazy.force tiny_trace in
  let token, credit = open_session mgr eng in
  Alcotest.(check int) "initial credit" (apw + step) credit;
  (* Exhaust the grant without acknowledging anything: exactly two windows
     close and fill the retention ring, leaving zero credit. *)
  let r = call mgr eng (feed_req ~token (Array.sub trace 0 credit)) in
  check_bool r "ok" true;
  Alcotest.(check int) "two windows closed" 2 (List.length (window_entries r));
  Alcotest.(check int) "credit exhausted" 0 (geti r "credit");
  (* One more access is over budget: atomically rejected, nothing buffered,
     nothing consumed. *)
  let over = call mgr eng (feed_req ~token [| 64 |]) in
  check_bool over "ok" false;
  check_str over "error" "overloaded";
  Alcotest.(check int) "consumed unchanged by the reject" credit (geti over "consumed");
  Alcotest.(check int) "shed counted" 1 (stream_stat mgr "shed_credit");
  (* Acknowledging the retained windows restores exactly one ring's worth
     of credit. *)
  let ack = call mgr eng (feed_req ~token ~ack:1 [||]) in
  check_bool ack "ok" true;
  Alcotest.(check int) "credit restored by ack" (2 * step) (geti ack "credit");
  let r2 = call mgr eng (feed_req ~token ~ack:1 (Array.sub trace credit step)) in
  check_bool r2 "ok" true;
  Alcotest.(check int) "stream continues after ack" 1 (List.length (window_entries r2))

let test_corrupt_payload_poisons_one_session () =
  let eng = engine ~model:None () in
  let mgr = Stream_session.create eng in
  let trace = Lazy.force tiny_trace in
  let tok_a, _ = open_session mgr eng in
  let tok_b, credit_b = open_session mgr eng in
  (* A's chunk fails to parse as addresses: typed corrupt_input, sticky. *)
  let p = call mgr eng (corrupt_req ~token:tok_a) in
  check_bool p "ok" false;
  check_str p "error" "corrupt_input";
  Alcotest.(check int) "poison rolls nothing forward" 0 (geti p "consumed");
  let again = call mgr eng (feed_req ~token:tok_a (Array.sub trace 0 8)) in
  check_bool again "ok" false;
  check_str again "error" "corrupt_input";
  Alcotest.(check int) "poisoned feed consumes nothing" 0 (geti again "consumed");
  (* B is a different session on the same daemon: completely unaffected. *)
  let got_b = pour mgr eng ~token:tok_b ~credit:credit_b trace in
  Alcotest.(check (list string)) "neighbour session streams clean"
    (offline_entries eng trace) got_b;
  (* Resuming A clears the poison; the stream replays from [consumed]. *)
  let r = call mgr eng (resume_req ~token:tok_a ()) in
  check_bool r "ok" true;
  Alcotest.(check int) "resume names the replay point" 0 (geti r "consumed");
  Alcotest.(check int) "no windows in flight" 0 (geti r "pending");
  let healed = call mgr eng (feed_req ~token:tok_a (Array.sub trace 0 apw)) in
  check_bool healed "ok" true;
  Alcotest.(check int) "poison cleared, windows flow" 1
    (List.length (window_entries healed));
  Alcotest.(check int) "poison counted once, not per sticky replay" 1
    (stream_stat mgr "poisoned")

(* Range checks come before any address is fed: whatever the prefix, the
   chunk's length, where in it the bad address sits and how far out of
   range it is, the poisoned chunk applies nothing. *)
let test_bad_address_rolls_back_to_chunk_boundary =
  let trace = Lazy.force tiny_trace in
  let len = Array.length trace in
  QCheck.Test.make ~name:"bad address rolls back to chunk boundary" ~count:60
    QCheck.(quad (int_range 0 (len - 1)) (int_range 1 len) (int_range 0 (len - 1)) bool)
    (fun (k, n_raw, at_raw, negative) ->
      let eng = engine ~model:None () in
      let mgr = Stream_session.create eng in
      let token, _ = open_session mgr eng in
      (* First chunk: the prefix, ending anywhere (mid-window or not). *)
      let r1 = call mgr eng (feed_req ~token (Array.sub trace 0 k)) in
      check_bool r1 "ok" true;
      let closed_by_prefix = if k < apw then 0 else 1 + ((k - apw) / step) in
      Alcotest.(check int) "windows closed by the prefix" closed_by_prefix
        (List.length (window_entries r1));
      (* The bad chunk fits its credit and may close windows before the
         fault: the whole chunk must still roll back — consumed stays at the
         chunk boundary and no window it would close is dispatched. *)
      let n = 1 + ((n_raw - 1) mod min (geti r1 "credit") (len - k)) in
      let at = at_raw mod n in
      let bad = Array.sub trace k n in
      bad.(at) <- (if negative then -1 else Trace_io.max_address + 1);
      let r2 = call mgr eng (feed_req ~token bad) in
      check_bool r2 "ok" false;
      check_str r2 "error" "corrupt_input";
      Alcotest.(check int) "rolled back to the chunk boundary" k (geti r2 "consumed");
      Alcotest.(check int) "next_window rolled back" closed_by_prefix
        (geti r2 "next_window");
      Alcotest.(check int) "nothing left in flight" 0 (Stream_session.pending_windows mgr);
      (* Resume and replay the correct suffix: the stream must be bit-identical
         to a run that never saw the fault. *)
      let r = call mgr eng (resume_req ~token ()) in
      check_bool r "ok" true;
      let credit = geti r "credit" in
      let rest = Array.sub trace k (len - k) in
      let got = pour mgr eng ~token ~credit rest in
      Alcotest.(check (list string)) "replayed stream = uninterrupted stream"
        (offline_entries eng trace) (window_entries r1 @ got);
      true)

let test_conn_binding_and_resume_rebind () =
  let eng = engine ~model:None () in
  let mgr = Stream_session.create eng in
  let trace = Lazy.force tiny_trace in
  let token, _ = open_session mgr eng in
  (* conn 1 owns the session *)
  let hijack = call ~conn:2 mgr eng (feed_req ~token (Array.sub trace 0 8)) in
  check_bool hijack "ok" false;
  check_str hijack "error" "bad_request";
  let r = call ~conn:2 mgr eng (resume_req ~token ()) in
  check_bool r "ok" true;
  let ok2 = call ~conn:2 mgr eng (feed_req ~token (Array.sub trace 0 8)) in
  check_bool ok2 "ok" true;
  let stale = call ~conn:1 mgr eng (feed_req ~token (Array.sub trace 8 8)) in
  check_bool stale "ok" false;
  check_str stale "error" "bad_request"

let test_session_and_bytes_quotas () =
  let eng = engine ~model:None () in
  let cfg = { Stream_session.default_config with Stream_session.max_sessions = 1 } in
  let mgr = Stream_session.create ~config:cfg eng in
  let _tok, _ = open_session mgr eng in
  let second = call mgr eng (open_req ()) in
  check_bool second "ok" false;
  check_str second "error" "overloaded";
  Alcotest.(check int) "quota shed counted" 1 (stream_stat mgr "shed_quota");
  (* A byte budget of one session's footprint admits one open and sheds
     the next; a budget below it could never open one, so it is refused. *)
  let footprint = Stream_session.buffered_bytes mgr in
  let tight = { Stream_session.default_config with Stream_session.max_bytes = footprint } in
  let mgr2 = Stream_session.create ~config:tight eng in
  let _tok2, _ = open_session mgr2 eng in
  let o = call mgr2 eng (open_req ()) in
  check_bool o "ok" false;
  check_str o "error" "overloaded";
  Alcotest.(check int) "no bytes charged on reject" footprint
    (Stream_session.buffered_bytes mgr2);
  match
    Stream_session.create
      ~config:{ tight with Stream_session.max_bytes = footprint - 1 }
      eng
  with
  | _ -> Alcotest.fail "a budget below one session's footprint was accepted"
  | exception Invalid_argument _ -> ()

let test_pending_window_quota_degrades () =
  let eng = engine ~model:None () in
  let cfg = { Stream_session.default_config with Stream_session.max_pending_windows = 1 } in
  let mgr = Stream_session.create ~config:cfg eng in
  let trace = Lazy.force tiny_trace in
  let token, _ = open_session mgr eng in
  (* One chunk closes three windows; only the first fits under the global
     pending quota — the rest must degrade immediately, not queue. *)
  let reply, subs = drive mgr eng (feed_req ~token (Array.sub trace 0 (apw + (2 * step)))) in
  Alcotest.(check int) "only one window submitted to the batcher" 1 (List.length subs);
  Alcotest.(check int) "pending gauge" 1 (Stream_session.pending_windows mgr);
  flush_subs eng subs;
  (match !reply with
  | None -> Alcotest.fail "feed never resolved"
  | Some r ->
    check_bool r "ok" true;
    let ws = window_entries r in
    Alcotest.(check int) "all three windows answered" 3 (List.length ws);
    (match Sjson.member "windows" r with
    | Some (Sjson.Arr [ _; w1; w2 ]) ->
      check_str w1 "reason" "stream_window_quota";
      check_bool w1 "degraded" true;
      check_str w2 "reason" "stream_window_quota"
    | _ -> Alcotest.fail "expected three window entries"));
  Alcotest.(check int) "pending drains" 0 (Stream_session.pending_windows mgr);
  Alcotest.(check int) "quota degradations counted" 2 (stream_stat mgr "degraded_quota")

let test_ttl_eviction () =
  let t = ref 1000.0 in
  let eng = engine ~now:(fun () -> !t) ~model:None () in
  let cfg = { Stream_session.default_config with Stream_session.session_ttl_s = 10.0 } in
  let mgr = Stream_session.create ~config:cfg eng in
  let token, _ = open_session mgr eng in
  t := 1005.0;
  Stream_session.sweep mgr;
  Alcotest.(check int) "young session survives" 1 (Stream_session.live_sessions mgr);
  t := 1011.0;
  Stream_session.sweep mgr;
  Alcotest.(check int) "idle session evicted" 0 (Stream_session.live_sessions mgr);
  Alcotest.(check int) "eviction counted" 1 (stream_stat mgr "evicted");
  Alcotest.(check int) "bytes released" 0 (Stream_session.buffered_bytes mgr);
  let r = call mgr eng (feed_req ~token [| 64 |]) in
  check_bool r "ok" false;
  check_str r "error" "bad_request"

let test_fault_containment_across_sessions () =
  with_model (fun model ->
      let eng = engine ~model:(Some model) () in
      let mgr = Stream_session.create eng in
      let trace = Lazy.force tiny_trace in
      (* Clean reference stream. *)
      let tok_a, credit = open_session mgr eng in
      let clean = pour mgr eng ~token:tok_a ~credit trace in
      (* A NaN fault armed at B's second window: only that window degrades;
         every other window of B is bit-identical to the clean stream. *)
      let tok_b, credit_b = open_session mgr eng in
      Faultinject.arm ~count:1 Faultinject.Nan_output
        ~at_batch:(Serve_engine.requests_seen eng + 2);
      let got_b = pour mgr eng ~token:tok_b ~credit:credit_b trace in
      Faultinject.disarm ();
      Alcotest.(check int) "no windows lost" tiny_windows (List.length got_b);
      List.iteri
        (fun i (c, g) ->
          if i = 1 then
            Alcotest.(check bool) "faulted window degraded" true
              (String.length g > 4 && String.sub g (String.length g - 4) 4 = "true")
          else Alcotest.(check string) (Printf.sprintf "window %d bit-identical" i) c g)
        (List.combine clean got_b);
      (* A Slow fault stalls a batch but must not change any value. *)
      let tok_c, credit_c = open_session mgr eng in
      Faultinject.arm ~count:1 (Faultinject.Slow 0.02)
        ~at_batch:(Serve_engine.requests_seen eng + 1);
      let got_c = pour mgr eng ~token:tok_c ~credit:credit_c trace in
      Faultinject.disarm ();
      Alcotest.(check (list string)) "slow fault changes nothing" clean got_c)

let test_handle_rejects_non_stream () =
  let eng = engine ~model:None () in
  let mgr = Stream_session.create eng in
  let unknown = call mgr eng (feed_req ~token:"nope" [| 64 |]) in
  check_bool unknown "ok" false;
  check_str unknown "error" "bad_request";
  let unknown_r = call mgr eng (resume_req ~token:"nope" ()) in
  check_str unknown_r "error" "bad_request";
  let unknown_c = call mgr eng (close_req ~token:"nope") in
  check_str unknown_c "error" "bad_request";
  let misrouted = call mgr eng Validate.Health in
  check_bool misrouted "ok" false;
  check_str misrouted "error" "internal"

(* --- daemon end-to-end over a real Unix socket --- *)

let feed_line ~token ?ack addrs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf {|{"op": "stream_feed", "session": "%s"|} token);
  (match ack with
  | Some a -> Buffer.add_string buf (Printf.sprintf {|, "ack": %d|} a)
  | None -> ());
  Buffer.add_string buf {|, "addrs": [|};
  Array.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int a))
    addrs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* In-order, exactly-once window collection: a gap fails the test, a replay
   (index below the high-water mark, e.g. from a resume) is dropped. *)
let collect_windows reply next out =
  match Sjson.member "windows" reply with
  | Some (Sjson.Arr ws) ->
    List.iter
      (fun w ->
        let i = geti w "window" in
        if i >= !next then begin
          if i > !next then Alcotest.failf "window gap: expected %d, got %d" !next i;
          out :=
            Printf.sprintf "%d:%Lx" i
              (Int64.bits_of_float (Option.get (num_field w "hit_rate")))
            :: !out;
          next := i + 1
        end)
      ws
  | _ -> ()

let shutdown_daemon sock server =
  ignore (Daemons.call sock {|{"op": "shutdown"}|});
  Thread.join server

let test_daemon_stream_resume_bitidentical () =
  with_model (fun model ->
      let dir = temp_dir () in
      let sock = Filename.concat dir "s.sock" in
      let server = Daemons.start ~model:(Some model) (Daemons.config sock) in
      let trace = Lazy.force tiny_trace in
      (* Reference client: the whole trace in one credited feed. *)
      let a = Daemons.connect sock in
      let o_a = Daemons.request a {|{"op": "stream_open", "sets": 4, "ways": 2}|} in
      check_bool o_a "ok" true;
      let tok_a = Option.get (str_field o_a "session") in
      Alcotest.(check bool) "credit covers the whole tiny trace" true
        (geti o_a "credit" >= Array.length trace);
      let next_a = ref 0 and ws_a = ref [] in
      let r_a = Daemons.request a (feed_line ~token:tok_a trace) in
      check_bool r_a "ok" true;
      collect_windows r_a next_a ws_a;
      Alcotest.(check int) "reference stream complete" tiny_windows !next_a;
      Client.close a;
      (* Killed client: feed part of the trace, fire one more chunk and
         drop the connection without reading the reply. *)
      let b = Daemons.connect sock in
      let o_b = Daemons.request b {|{"op": "stream_open", "sets": 4, "ways": 2}|} in
      let tok_b = Option.get (str_field o_b "session") in
      let next_b = ref 0 and ws_b = ref [] in
      let r1 = Daemons.request b (feed_line ~token:tok_b (Array.sub trace 0 (apw + step))) in
      check_bool r1 "ok" true;
      collect_windows r1 next_b ws_b;
      Daemons.send b (feed_line ~token:tok_b (Array.sub trace (apw + step) step));
      Client.close b;
      (* The daemon must shrug the dead connection off. *)
      check_bool (Daemons.call sock {|{"op": "health"}|}) "ok" true;
      (* Re-attach, drain in-flight windows, and replay the remainder: the
         combined stream must be bit-identical to the reference client. *)
      let c = Daemons.connect sock in
      let rec resume_poll tries =
        if tries > 200 then Alcotest.fail "resume: pending windows never drained";
        let r =
          Daemons.request c
            (Printf.sprintf {|{"op": "stream_resume", "session": "%s", "last_window": %d}|}
               tok_b (!next_b - 1))
        in
        check_bool r "ok" true;
        if geti r "pending" > 0 then begin
          Thread.delay 0.01;
          resume_poll (tries + 1)
        end
        else r
      in
      let r = resume_poll 0 in
      collect_windows r next_b ws_b;
      let consumed = geti r "consumed" in
      Alcotest.(check bool) "resume names a sane replay point" true
        (consumed >= apw + step && consumed <= Array.length trace);
      let rest = Array.sub trace consumed (Array.length trace - consumed) in
      if Array.length rest > 0 then begin
        let r2 = Daemons.request c (feed_line ~token:tok_b ~ack:(!next_b - 1) rest) in
        check_bool r2 "ok" true;
        collect_windows r2 next_b ws_b
      end;
      Alcotest.(check int) "resumed stream complete" tiny_windows !next_b;
      Alcotest.(check (list string)) "windows bit-identical across kill+resume"
        (List.rev !ws_a) (List.rev !ws_b);
      let cl =
        Daemons.request c (Printf.sprintf {|{"op": "stream_close", "session": "%s"}|} tok_b)
      in
      check_bool cl "ok" true;
      Client.close c;
      shutdown_daemon sock server;
      rm_rf dir)

let test_daemon_overflow_and_partial_line_containment () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let server = Daemons.start (Daemons.config sock) in
  let trace = Lazy.force tiny_trace in
  (* A streaming session on connection A... *)
  let a = Daemons.connect sock in
  let o = Daemons.request a {|{"op": "stream_open", "sets": 4, "ways": 2}|} in
  let token = Option.get (str_field o "session") in
  let r1 = Daemons.request a (feed_line ~token (Array.sub trace 0 100)) in
  check_bool r1 "ok" true;
  (* ...an oversized line on connection B (over the reactor's 1 MiB frame
     cap, no newline — it can never be re-framed)... *)
  let fd_b = Daemons.raw_connect sock in
  let ic_b = Unix.in_channel_of_descr fd_b in
  Daemons.write_raw fd_b (String.make ((1 lsl 20) + 2) 'a');
  (match Daemons.parse (input_line ic_b) with
  | r ->
    check_bool r "ok" false;
    check_str r "error" "bad_request"
  | exception End_of_file -> Alcotest.fail "overflow closed without the typed reply");
  (match input_line ic_b with
  | _ -> Alcotest.fail "overflowed connection not closed"
  | exception End_of_file -> ());
  Unix.close fd_b;
  (* ...and a half-written line on connection C, dropped mid-request. *)
  let fd_c = Daemons.raw_connect sock in
  Daemons.write_raw fd_c {|{"op": "stream_feed", "session|};
  Unix.close fd_c;
  Thread.delay 0.05;
  (* Session A never noticed either neighbour. *)
  let r2 = Daemons.request a (feed_line ~token (Array.sub trace 100 (apw - 100))) in
  check_bool r2 "ok" true;
  Alcotest.(check int) "stream unaffected by misbehaving neighbours" 1
    (match Sjson.member "windows" r2 with Some (Sjson.Arr ws) -> List.length ws | _ -> 0);
  Client.close a;
  shutdown_daemon sock server;
  rm_rf dir

let test_daemon_idle_reaper_spares_streams () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let config = { (Daemons.config sock) with Serve_daemon.idle_timeout_s = Some 0.15 } in
  let server = Daemons.start config in
  let trace = Lazy.force tiny_trace in
  (* A streaming session (exempted at open)... *)
  let st = Daemons.connect sock in
  let o = Daemons.request st {|{"op": "stream_open", "sets": 4, "ways": 2}|} in
  check_bool o "ok" true;
  let token = Option.get (str_field o "session") in
  (* ...and a pack of slow-loris connections, each stuck mid-line. *)
  let lorises =
    List.init 20 (fun _ ->
        let fd = Daemons.raw_connect sock in
        Daemons.write_raw fd {|{"op": "hea|};
        fd)
  in
  Thread.delay 0.6;
  (* Every loris was reaped: its socket reads EOF. *)
  List.iter
    (fun fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      (match Unix.read fd (Bytes.create 1) 0 1 with
      | 0 -> ()
      | _ -> Alcotest.fail "slow-loris connection got data instead of EOF"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "slow-loris connection was not reaped"
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
      Unix.close fd)
    lorises;
  (* The idle stream survived far past the timeout and still works. *)
  let r = Daemons.request st (feed_line ~token (Array.sub trace 0 apw)) in
  check_bool r "ok" true;
  Alcotest.(check int) "stream window after idling" 1
    (match Sjson.member "windows" r with Some (Sjson.Arr ws) -> List.length ws | _ -> 0);
  (* And freed slots accept fresh clients. *)
  check_bool (Daemons.call sock {|{"op": "health"}|}) "ok" true;
  Client.close st;
  shutdown_daemon sock server;
  rm_rf dir

(* --- Linebuf framing under streaming chunk arrival --- *)

let test_linebuf_chunk_invariance_property =
  QCheck.Test.make ~name:"linebuf: stream frames survive arbitrary chunking" ~count:150
    QCheck.(pair (int_range 1 8) (list (int_range 1 400)))
    (fun (nlines, cuts) ->
      let lines =
        List.init nlines (fun i ->
            Printf.sprintf {|{"op": "stream_feed", "session": "s%d", "seq": %d, "addrs": [%d, %d, %d]}|}
              i i (i * 64) ((i + 1) * 64) ((i * 7) mod 4096 * 64))
      in
      let payload = String.concat "\n" lines ^ "\n" in
      let len = String.length payload in
      let cuts =
        List.sort_uniq compare (List.filter (fun c -> c > 0 && c < len) (List.map (fun c -> c mod len) cuts))
      in
      let rec pieces start = function
        | [] -> [ String.sub payload start (len - start) ]
        | c :: rest -> String.sub payload start (c - start) :: pieces c rest
      in
      let lb = Reactor.Linebuf.create ~max_line:(1 lsl 16) in
      let got =
        List.concat_map
          (fun piece ->
            let ls, overflowed = Reactor.Linebuf.feed lb piece in
            if overflowed then Alcotest.fail "spurious overflow";
            ls)
          (pieces 0 cuts)
      in
      got = lines && Reactor.Linebuf.pending lb = 0)

let test_linebuf_overflow_containment () =
  let lb = Reactor.Linebuf.create ~max_line:32 in
  (* Lines completed before the oversized one are still delivered... *)
  let ls, ov = Reactor.Linebuf.feed lb ("{\"ok\": 1}\n" ^ String.make 40 'x') in
  Alcotest.(check (list string)) "earlier line delivered" [ "{\"ok\": 1}" ] ls;
  Alcotest.(check bool) "overflow detected" true ov;
  Alcotest.(check bool) "sticky" true (Reactor.Linebuf.overflowed lb);
  (* ...and nothing after the overflow ever parses as a request. *)
  let ls2, _ = Reactor.Linebuf.feed lb "\n{\"op\": \"health\"}\n" in
  Alcotest.(check (list string)) "no lines after overflow" [] ls2

(* --- Squeue under concurrent producers --- *)

let test_squeue_concurrent_shed_accounting () =
  let q : int Squeue.t = Squeue.create ~capacity:8 in
  let producers = 4 and per = 500 in
  let accepted = Array.make producers 0 in
  let popped = ref 0 in
  let consumer =
    Thread.create
      (fun () ->
        let rec go () =
          match Squeue.pop q with
          | Some _ ->
            incr popped;
            go ()
          | None -> ()
        in
        go ())
      ()
  in
  let ths =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 1 to per do
              if Squeue.try_push q p then accepted.(p) <- accepted.(p) + 1;
              if i mod 64 = 0 then Thread.yield ()
            done)
          ())
  in
  List.iter Thread.join ths;
  Squeue.close q;
  Thread.join consumer;
  let acc = Array.fold_left ( + ) 0 accepted in
  Alcotest.(check bool) "some pushes admitted" true (acc > 0);
  Alcotest.(check bool) "sheds never exceed attempts" true (acc <= producers * per);
  (* Conservation: every accepted push is popped exactly once, every shed
     push never appears — no loss, no duplication. *)
  Alcotest.(check int) "accepted = popped" acc !popped;
  Alcotest.(check int) "queue fully drained" 0 (Squeue.length q)

let suite =
  ( "stream",
    [
      Alcotest.test_case "open reports geometry and credit" `Quick test_open_geometry_and_credit;
      Alcotest.test_case "streamed windows = offline (analytical)" `Quick
        test_streamed_windows_match_offline_hrd;
      Alcotest.test_case "streamed windows = offline (model)" `Slow
        test_streamed_windows_match_offline_model;
      Alcotest.test_case "credit exhaustion rejects atomically" `Quick
        test_credit_exhaustion_atomic_reject;
      Alcotest.test_case "corrupt chunk poisons only its session" `Quick
        test_corrupt_payload_poisons_one_session;
      QCheck_alcotest.to_alcotest test_bad_address_rolls_back_to_chunk_boundary;
      Alcotest.test_case "sessions bind to their connection" `Quick
        test_conn_binding_and_resume_rebind;
      Alcotest.test_case "session and byte quotas shed opens" `Quick test_session_and_bytes_quotas;
      Alcotest.test_case "pending-window quota degrades, not queues" `Quick
        test_pending_window_quota_degrades;
      Alcotest.test_case "idle sessions evicted by TTL" `Quick test_ttl_eviction;
      Alcotest.test_case "injected faults stay inside one session" `Slow
        test_fault_containment_across_sessions;
      Alcotest.test_case "unknown/misrouted requests get typed errors" `Quick
        test_handle_rejects_non_stream;
      Alcotest.test_case "daemon: kill + resume is bit-identical" `Slow
        test_daemon_stream_resume_bitidentical;
      Alcotest.test_case "daemon: overflow/partial lines contained" `Quick
        test_daemon_overflow_and_partial_line_containment;
      Alcotest.test_case "daemon: idle reaper spares live streams" `Slow
        test_daemon_idle_reaper_spares_streams;
      QCheck_alcotest.to_alcotest test_linebuf_chunk_invariance_property;
      Alcotest.test_case "linebuf overflow containment" `Quick test_linebuf_overflow_containment;
      Alcotest.test_case "squeue concurrent shed accounting" `Quick
        test_squeue_concurrent_shed_accounting;
    ] )
