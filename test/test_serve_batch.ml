(* Batched serving: batches the daemon forms from work queued behind a
   running forward, the incremental line-framing buffer, the select
   reactor's ordering and rejection paths, bit-identity of batched vs
   sequential inference, and counter/breaker atomicity under concurrent
   batch completions. *)

let temp_dir () =
  let d = Filename.temp_file "cbox_sbatch" "" in
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

(* --- incremental line framing --- *)

module Linebuf = Reactor.Linebuf

let feed_all lb chunks = List.concat_map (fun c -> fst (Linebuf.feed lb c)) chunks

let test_linebuf_framings () =
  let stream = "alpha\nbeta\n\ngamma delta\n" in
  let whole = feed_all (Linebuf.create ~max_line:64) [ stream ] in
  let bytewise =
    feed_all (Linebuf.create ~max_line:64)
      (List.init (String.length stream) (fun i -> String.make 1 stream.[i]))
  in
  let ragged =
    feed_all (Linebuf.create ~max_line:64) [ "alp"; "ha\nbe"; "ta\n\ngam"; "ma delta\n" ]
  in
  Alcotest.(check (list string)) "whole-stream framing" [ "alpha"; "beta"; ""; "gamma delta" ] whole;
  Alcotest.(check (list string)) "byte-by-byte framing matches" whole bytewise;
  Alcotest.(check (list string)) "ragged chunks match" whole ragged;
  let lb = Linebuf.create ~max_line:64 in
  ignore (Linebuf.feed lb "partial");
  Alcotest.(check int) "partial line pending" 7 (Linebuf.pending lb)

let test_linebuf_overflow () =
  let lb = Linebuf.create ~max_line:8 in
  let lines, overflowed = Linebuf.feed lb "ok\nwaaaaaaaay too long\nnext\n" in
  Alcotest.(check (list string)) "lines before the overflow still delivered" [ "ok" ] lines;
  Alcotest.(check bool) "overflow detected" true overflowed;
  Alcotest.(check bool) "overflow is sticky" true (Linebuf.overflowed lb);
  let lines2, overflowed2 = Linebuf.feed lb "short\n" in
  Alcotest.(check (list string)) "no lines after overflow" [] lines2;
  Alcotest.(check bool) "still overflowed" true overflowed2

let test_linebuf_chunking_property =
  let gen =
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 0 120)
           (Gen.frequency [ (6, Gen.printable); (1, Gen.return '\n') ]))
        (list_of_size (Gen.int_range 0 10) (int_range 1 20)))
  in
  QCheck.Test.make ~name:"linebuf framing is chunking-invariant" ~count:300 gen
    (fun (stream, cuts) ->
      let whole = feed_all (Linebuf.create ~max_line:256) [ stream ] in
      let chunks =
        let rec split s = function
          | [] -> if s = "" then [] else [ s ]
          | c :: rest ->
            if String.length s <= c then if s = "" then [] else [ s ]
            else String.sub s 0 c :: split (String.sub s c (String.length s - c)) rest
        in
        split stream cuts
      in
      feed_all (Linebuf.create ~max_line:256) chunks = whole)

(* --- reactor: real sockets, arbitrary framing, ordering, rejection --- *)

let start_reactor ?max_line ~on_line () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "r.sock" in
  (Daemons.start_reactor ?max_line ~on_line sock, sock, dir)

let stop_reactor (stub, _sock, dir) =
  Daemons.stop_reactor stub;
  rm_rf dir

let echo _r ticket line = Reactor.resolve ticket ("echo:" ^ line)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (fd, Unix.in_channel_of_descr fd)

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_reactor_framing () =
  let ((_, sock, _) as h) = start_reactor ~on_line:echo () in
  (* Byte-by-byte delivery. *)
  let fd1, ic1 = connect sock in
  String.iter (fun c -> send fd1 (String.make 1 c)) "hello\nworld\n";
  Alcotest.(check string) "byte-by-byte line 1" "echo:hello" (input_line ic1);
  Alcotest.(check string) "byte-by-byte line 2" "echo:world" (input_line ic1);
  (* Coalesced multi-line chunk, then a chunk split mid-line. *)
  let fd2, ic2 = connect sock in
  send fd2 "a\nb\nc\n";
  let l1 = input_line ic2 in
  let l2 = input_line ic2 in
  let l3 = input_line ic2 in
  Alcotest.(check (list string)) "coalesced chunk" [ "echo:a"; "echo:b"; "echo:c" ]
    [ l1; l2; l3 ];
  send fd2 "ab";
  send fd2 "c\nde";
  send fd2 "f\n";
  Alcotest.(check string) "mid-line split 1" "echo:abc" (input_line ic2);
  Alcotest.(check string) "mid-line split 2" "echo:def" (input_line ic2);
  Unix.close fd1;
  Unix.close fd2;
  stop_reactor h

(* Replies flush strictly in per-connection request order even when later
   requests resolve first. *)
let test_reactor_reply_order () =
  let pending = ref [] in
  let pm = Mutex.create () in
  let collect _r ticket line =
    Mutex.lock pm;
    pending := (ticket, line) :: !pending;
    Mutex.unlock pm
  in
  let ((_, sock, _) as h) = start_reactor ~on_line:collect () in
  let fd, ic = connect sock in
  send fd "first\nsecond\n";
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Mutex.lock pm;
     let n = List.length !pending in
     Mutex.unlock pm;
     n < 2)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.002
  done;
  (match !pending with
  | [ (tk2, "second"); (tk1, "first") ] ->
    Reactor.resolve tk2 "r:second";
    (* The early answer to the later request must wait for its predecessor. *)
    Thread.delay 0.05;
    Reactor.resolve tk1 "r:first"
  | _ -> Alcotest.fail "expected two pending tickets");
  Alcotest.(check string) "first reply first" "r:first" (input_line ic);
  Alcotest.(check string) "second reply second" "r:second" (input_line ic);
  Unix.close fd;
  stop_reactor h

let test_reactor_oversized_line () =
  let ((_, sock, _) as h) = start_reactor ~max_line:16 ~on_line:echo () in
  let fd, ic = connect sock in
  send fd ("ok\n" ^ String.make 64 'x' ^ "\n");
  Alcotest.(check string) "line before overflow answered" "echo:ok" (input_line ic);
  (match Sjson.parse (input_line ic) with
  | Ok j ->
    Alcotest.(check (option bool)) "overflow reply is an error" (Some false)
      (bool_field j "ok");
    Alcotest.(check (option string)) "typed bad_request" (Some "bad_request")
      (str_field j "error")
  | Error e -> Alcotest.failf "overflow reply is not JSON: %s" e);
  (match input_line ic with
  | exception End_of_file -> ()
  | l -> Alcotest.failf "expected EOF after overflow, got %S" l);
  Unix.close fd;
  stop_reactor h

let test_reactor_disconnect_mid_request () =
  let ((_, sock, _) as h) = start_reactor ~on_line:echo () in
  let fd, ic = connect sock in
  send fd "one\ntwo";
  (* Disconnect with the second request cut off mid-line: the partial is
     discarded, the completed request's reply still arrives. *)
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Alcotest.(check string) "completed request answered" "echo:one" (input_line ic);
  (match input_line ic with
  | exception End_of_file -> ()
  | l -> Alcotest.failf "expected EOF after disconnect, got %S" l);
  Unix.close fd;
  stop_reactor h

(* --- engine: batched vs sequential bit-identity, virtual-clock deadlines --- *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let tiny_model_config =
  { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with Cbgan.cond_dim = 4; cond_hidden = 8 }

let tiny_trace_len = 4 * Heatmap.accesses_per_image tiny_spec

let tiny_trace =
  lazy
    (let rng = Prng.create 31 in
     Array.init tiny_trace_len (fun i ->
         if Prng.float rng 1.0 < 0.7 then (i mod 32) * 64 else Prng.int rng 4096 * 64))

let infer_line ?id ?deadline_ms () =
  let trace = Lazy.force tiny_trace in
  Sjson.to_string
    (Sjson.Obj
       ((match id with None -> [] | Some id -> [ ("id", Sjson.Str id) ])
       @ [
           ("op", Sjson.Str "infer");
           ("sets", Sjson.Num 4.0);
           ("ways", Sjson.Num 2.0);
           ( "trace",
             Sjson.Arr (Array.to_list (Array.map (fun a -> Sjson.Num (float_of_int a)) trace))
           );
         ]
       @
       match deadline_ms with
       | None -> []
       | Some ms -> [ ("deadline_ms", Sjson.Num (float_of_int ms)) ]))

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

let tiny_model = lazy (Cbgan.create ~seed:51 tiny_model_config)

let classify_all e lines =
  List.map
    (fun line ->
      match Serve_engine.classify_line e line with
      | Serve_engine.Batchable item -> item
      | _ -> Alcotest.fail "expected a batchable infer request")
    lines

let hit_rate_bits reply =
  match num_field reply "hit_rate" with
  | Some hr -> Int64.bits_of_float hr
  | None -> Alcotest.failf "reply has no hit_rate: %s" (Sjson.to_string reply)

(* The acceptance property: a coalesced batch through one shared forward
   pass answers bit-identically to the sequential batch-1 path. *)
let test_batched_replies_bit_identical () =
  let model = Lazy.force tiny_model in
  let lines = List.init 8 (fun i -> infer_line ~id:(Printf.sprintf "b%d" i) ()) in
  let sequential =
    let e = engine ~model:(Some model) () in
    List.map
      (fun line ->
        match Serve_engine.handle_line e line with
        | Serve_engine.Reply j -> j
        | Serve_engine.Shutdown_reply _ -> Alcotest.fail "unexpected shutdown")
      lines
  in
  let batched =
    let e = engine ~model:(Some model) () in
    Serve_engine.infer_batch e (classify_all e lines)
  in
  List.iteri
    (fun i (seq, bat) ->
      Alcotest.(check (option string))
        (Printf.sprintf "id %d" i)
        (str_field seq "id") (str_field bat "id");
      Alcotest.(check (option string))
        (Printf.sprintf "source %d" i)
        (Some "model") (str_field bat "source");
      Alcotest.(check int64)
        (Printf.sprintf "hit_rate bits %d" i)
        (hit_rate_bits seq) (hit_rate_bits bat))
    (List.combine sequential batched)

(* The eval-mode forward that a coalesced batch shares: every layer lowers
   one sample at a time and batch norm uses its running statistics, so each
   row of a batched forward is bit-identical to that image's forward alone,
   for any batch composition and mix of cache configs. *)
let test_batched_forward_rows =
  let windows = lazy (Heatmap.of_trace tiny_spec (Lazy.force tiny_trace)) in
  QCheck.Test.make ~name:"batched forward rows = single-image forwards (bit-identical)"
    ~count:8
    QCheck.(int_range 2 8)
    (fun n ->
      let model = Lazy.force tiny_model in
      let ws = Lazy.force windows in
      let imgs = List.init n (fun i -> List.nth ws (i mod List.length ws)) in
      let cfgs =
        List.init n (fun i -> Cache.config ~sets:(4 lsl (i mod 3)) ~ways:(1 + (i mod 4)) ())
      in
      let forward imgs cfgs =
        Value.value
          (Cbgan.generator_forward model ~rng:(Prng.create 0) ~training:false
             ~cache_params:(Cbgan.cache_params_tensor cfgs)
             (Cbox_dataset.batch_images tiny_spec imgs))
      in
      let bits t = List.map Int64.bits_of_float (Array.to_list (Tensor.to_array t)) in
      let batched = forward imgs cfgs in
      let per = Tensor.numel batched / n in
      List.for_all
        (fun i ->
          let row = Tensor.slice_batch batched i 1 in
          Tensor.numel row = per
          && bits row = bits (forward [ List.nth imgs i ] [ List.nth cfgs i ]))
        (List.init n Fun.id))

(* Virtual clock through the batched path: expiry beats everything, and a
   missing model degrades (the ladder holds batch-side). *)
let test_batch_deadline_virtual_clock () =
  let t = ref 1000.0 in
  let e = engine ~now:(fun () -> !t) ~model:None () in
  let expired =
    match Serve_engine.classify_line e (infer_line ~id:"late" ~deadline_ms:1000 ()) with
    | Serve_engine.Batchable item -> item
    | _ -> Alcotest.fail "expected batchable"
  in
  t := 1002.0;
  let fresh =
    match Serve_engine.classify_line e (infer_line ~id:"fresh" ~deadline_ms:1000 ()) with
    | Serve_engine.Batchable item -> item
    | _ -> Alcotest.fail "expected batchable"
  in
  match Serve_engine.infer_batch e [ expired; fresh ] with
  | [ r_late; r_fresh ] ->
    Alcotest.(check (option bool)) "expired not answered" (Some false)
      (bool_field r_late "ok");
    Alcotest.(check (option string)) "typed deadline error" (Some "deadline_exceeded")
      (str_field r_late "error");
    Alcotest.(check (option bool)) "fresh answered" (Some true) (bool_field r_fresh "ok");
    Alcotest.(check (option bool)) "fresh degraded (no model)" (Some true)
      (bool_field r_fresh "degraded");
    Alcotest.(check (option string)) "degradation reason" (Some "model_unavailable")
      (str_field r_fresh "reason")
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

(* --- daemon: batches form behind a busy forward --- *)

let count json k =
  match num_field json k with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "reply has no %s: %s" k (Sjson.to_string json)

type daemon = { dir : string; sock : string; server : Thread.t; before : Sjson.t }

(* An in-process daemon over the tiny model, with its stats before any
   request. *)
let start_daemon ?(max_batch = 32) () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let config = { (Daemons.config sock) with Serve_daemon.max_batch } in
  let server = Daemons.start ~model:(Some (Lazy.force tiny_model)) config in
  { dir; sock; server; before = Daemons.call sock {|{"op": "stats"}|} }

(* Sends request "r1", whose forward stalls for 0.3 s (an injected [Slow]
   fault), and returns its connection once that forward has had 50 ms to
   start: whatever is sent next queues behind it. *)
let stall d =
  let first = Daemons.connect d.sock in
  Faultinject.arm (Faultinject.Slow 0.3) ~at_batch:1;
  Daemons.send first (infer_line ~id:"r1" ());
  Thread.delay 0.05;
  first

let check_model_reply id r =
  Alcotest.(check (option string)) "replies in request order" (Some id) (str_field r "id");
  Alcotest.(check (option bool)) (id ^ " ok") (Some true) (bool_field r "ok");
  Alcotest.(check (option string)) (id ^ " from the model") (Some "model")
    (str_field r "source")

(* Reads r1's reply, shuts the daemon down and returns how many forwards
   it ran since [start_daemon], and the most items one carried. *)
let finish d first =
  check_model_reply "r1" (Daemons.recv first);
  let after = Daemons.call d.sock {|{"op": "stats"}|} in
  ignore (Daemons.call d.sock {|{"op": "shutdown"}|});
  Thread.join d.server;
  Client.close first;
  rm_rf d.dir;
  (count after "batches" - count d.before "batches", count after "max_batch")

(* Requests r2-r6, pipelined on one connection while r1's forward runs. *)
let pipeline_behind_stall ~max_batch =
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      let d = start_daemon ~max_batch () in
      let first = stall d in
      let c = Daemons.connect d.sock in
      let ids = List.init 5 (fun i -> Printf.sprintf "r%d" (i + 2)) in
      List.iter (fun id -> Daemons.send c (infer_line ~id ())) ids;
      List.iter (fun id -> check_model_reply id (Daemons.recv c)) ids;
      Client.close c;
      finish d first)

let test_daemon_batches_queued_requests () =
  let batches, largest = pipeline_behind_stall ~max_batch:32 in
  Alcotest.(check int) "r1's forward, then one for r2-r6" 2 batches;
  Alcotest.(check int) "largest batch" 5 largest

let test_daemon_batch_max_splits () =
  let batches, largest = pipeline_behind_stall ~max_batch:2 in
  Alcotest.(check int) "r1's forward, then batches of 2, 2 and 1" 4 batches;
  Alcotest.(check int) "largest batch" 2 largest

(* The windows a stream feed closes join the plain requests queued with
   it: one forward carries the feed's two windows and r2 and r3. *)
let test_daemon_stream_windows_share_batch () =
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      let d = start_daemon () in
      let st = Daemons.connect d.sock in
      let o = Daemons.request st {|{"op": "stream_open", "sets": 4, "ways": 2}|} in
      let token = Option.get (str_field o "session") in
      let first = stall d in
      let addrs =
        Array.sub (Lazy.force tiny_trace) 0
          (Heatmap.accesses_per_image tiny_spec + Heatmap.step_accesses tiny_spec)
      in
      Daemons.send st
        (Sjson.to_string
           (Sjson.Obj
              [
                ("op", Sjson.Str "stream_feed");
                ("session", Sjson.Str token);
                ( "addrs",
                  Sjson.Arr
                    (Array.to_list (Array.map (fun a -> Sjson.Num (float_of_int a)) addrs)) );
              ]));
      let c = Daemons.connect d.sock in
      List.iter (fun id -> Daemons.send c (infer_line ~id ())) [ "r2"; "r3" ];
      (match Sjson.member "windows" (Daemons.recv st) with
      | Some (Sjson.Arr ws) ->
        Alcotest.(check int) "the feed closed two windows" 2 (List.length ws);
        List.iter
          (fun w ->
            Alcotest.(check (option string)) "window from the model" (Some "model")
              (str_field w "source"))
          ws
      | _ -> Alcotest.fail "feed reply carries no windows");
      List.iter (fun id -> check_model_reply id (Daemons.recv c)) [ "r2"; "r3" ];
      List.iter Client.close [ st; c ];
      let batches, largest = finish d first in
      Alcotest.(check int) "r1's forward, then one for both windows, r2 and r3" 2 batches;
      Alcotest.(check int) "largest batch" 4 largest)

(* A shutdown line taken in the same pass as queued requests: those
   requests still get the model's answers, and a line after it is shed. *)
let test_daemon_shutdown_answers_gathered () =
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      let d = start_daemon () in
      let first = stall d in
      let c = Daemons.connect d.sock and ctl = Daemons.connect d.sock in
      List.iter (fun id -> Daemons.send c (infer_line ~id ())) [ "r2"; "r3" ];
      Thread.delay 0.05;
      Daemons.send ctl {|{"op": "shutdown"}|};
      Daemons.send ctl (infer_line ~id:"late" ());
      check_model_reply "r1" (Daemons.recv first);
      List.iter (fun id -> check_model_reply id (Daemons.recv c)) [ "r2"; "r3" ];
      Alcotest.(check (option string)) "shutdown answered" (Some "shutdown")
        (str_field (Daemons.recv ctl) "op");
      Alcotest.(check (option string)) "a line after the shutdown is shed" (Some "overloaded")
        (str_field (Daemons.recv ctl) "error");
      Thread.join d.server;
      List.iter Client.close [ first; c; ctl ];
      rm_rf d.dir)

(* --- atomicity under concurrent batch completions --- *)

let test_stats_concurrent_batches () =
  let model = Lazy.force tiny_model in
  let e = engine ~model:(Some model) () in
  let items k =
    classify_all e (List.init 8 (fun i -> infer_line ~id:(Printf.sprintf "c%d_%d" k i) ()))
  in
  let items0 = items 0 and items1 = items 1 in
  let before = Serve_engine.stats e in
  let out = Array.make 2 [] in
  let spawn k its =
    Thread.create (fun () -> out.(k) <- Serve_engine.infer_batch e its) ()
  in
  let th0 = spawn 0 items0 and th1 = spawn 1 items1 in
  Thread.join th0;
  Thread.join th1;
  List.iter
    (fun r ->
      Alcotest.(check (option bool)) "batch reply ok" (Some true) (bool_field r "ok"))
    (out.(0) @ out.(1));
  let after = Serve_engine.stats e in
  let d f = f after - f before in
  Alcotest.(check int) "served counted exactly once each" 16
    (d (fun s -> s.Serve_stats.served));
  Alcotest.(check int) "two forward passes" 2 (d (fun s -> s.Serve_stats.batches));
  Alcotest.(check bool) "max batch at least 8" true (after.Serve_stats.max_batch >= 8);
  Alcotest.(check string) "breaker stays closed on concurrent successes" "closed"
    (Breaker.state_name (Serve_engine.breaker_state e))

let test_breaker_concurrent_failures () =
  let b = Breaker.create ~threshold:3 ~cooldown:1e9 ~now:(fun () -> 0.0) () in
  let hammer () =
    for _ = 1 to 100 do
      Breaker.record_failure b
    done
  in
  let threads = List.init 4 (fun _ -> Thread.create hammer ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no torn failure counts" 400 (Breaker.consecutive_failures b);
  Alcotest.(check int) "exactly one open transition" 1 (Breaker.times_opened b);
  Alcotest.(check string) "open" "open" (Breaker.state_name (Breaker.state b));
  Breaker.record_success b;
  Alcotest.(check string) "success closes" "closed"
    (Breaker.state_name (Breaker.state b))

let test_stats_batch_accounting () =
  let s = Serve_stats.create () in
  Serve_stats.record_batch s ~size:2;
  Serve_stats.record_batch s ~size:6;
  Serve_stats.record_batch s ~size:3;
  let sum = Serve_stats.snapshot s in
  Alcotest.(check int) "batches" 3 sum.Serve_stats.batches;
  Alcotest.(check int) "max batch" 6 sum.Serve_stats.max_batch

let suite =
  ( "serve-batch",
    [
      Alcotest.test_case "daemon batches requests queued behind a forward" `Slow
        test_daemon_batches_queued_requests;
      Alcotest.test_case "daemon splits a queued batch at max_batch" `Slow
        test_daemon_batch_max_splits;
      Alcotest.test_case "stream windows share a batch with queued requests" `Slow
        test_daemon_stream_windows_share_batch;
      Alcotest.test_case "shutdown answers the requests taken with it" `Slow
        test_daemon_shutdown_answers_gathered;
      Alcotest.test_case "linebuf framings agree" `Quick test_linebuf_framings;
      Alcotest.test_case "linebuf overflow" `Quick test_linebuf_overflow;
      QCheck_alcotest.to_alcotest test_linebuf_chunking_property;
      Alcotest.test_case "reactor arbitrary framing" `Quick test_reactor_framing;
      Alcotest.test_case "reactor per-connection reply order" `Quick test_reactor_reply_order;
      Alcotest.test_case "reactor oversized line rejected" `Quick test_reactor_oversized_line;
      Alcotest.test_case "reactor mid-request disconnect" `Quick
        test_reactor_disconnect_mid_request;
      Alcotest.test_case "batched replies bit-identical to batch-1" `Slow
        test_batched_replies_bit_identical;
      QCheck_alcotest.to_alcotest test_batched_forward_rows;
      Alcotest.test_case "batch deadlines on a virtual clock" `Quick
        test_batch_deadline_virtual_clock;
      Alcotest.test_case "stats atomic under concurrent batches" `Slow
        test_stats_concurrent_batches;
      Alcotest.test_case "breaker atomic under concurrent failures" `Quick
        test_breaker_concurrent_failures;
      Alcotest.test_case "stats batch accounting" `Quick test_stats_batch_accounting;
    ] )
