(* Batched serving: dynamic micro-batching policy (virtual clock), the
   incremental line-framing buffer, the select reactor's ordering and
   rejection paths, bit-identity of batched vs sequential inference, and
   counter/breaker atomicity under concurrent batch completions. *)

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

(* --- batcher: coalescing policy under a virtual clock --- *)

let batcher_cfg = { Batcher.max_batch = 4; max_linger_s = 0.02 }

let test_batcher_linger_flush () =
  let t = ref 100.0 in
  let b = Batcher.create ~now:(fun () -> !t) batcher_cfg in
  Batcher.push b "a";
  Batcher.push b "b";
  Alcotest.(check bool) "not due immediately" false (Batcher.due b);
  Alcotest.(check (option (float 1e-9))) "obligation is enqueue + linger" (Some 100.02)
    (Batcher.next_flush b);
  t := 100.019;
  Alcotest.(check bool) "not due just before linger" false (Batcher.due b);
  Alcotest.(check (list string)) "take refuses before due" [] (Batcher.take b);
  t := 100.02;
  Alcotest.(check bool) "due at linger" true (Batcher.due b);
  Alcotest.(check (list string)) "FIFO batch" [ "a"; "b" ] (Batcher.take b);
  Alcotest.(check int) "emptied" 0 (Batcher.length b);
  Alcotest.(check (pair int int)) "counted as a timed flush" (0, 1) (Batcher.flushes b)

let test_batcher_full_batch () =
  let t = ref 5.0 in
  let b = Batcher.create ~now:(fun () -> !t) batcher_cfg in
  List.iter (Batcher.push b) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "full batch due with no time passing" true (Batcher.due b);
  Alcotest.(check (list int)) "take caps at max_batch" [ 1; 2; 3; 4 ] (Batcher.take b);
  Alcotest.(check int) "remainder queued" 1 (Batcher.length b);
  Alcotest.(check (pair int int)) "counted as a full flush" (1, 0) (Batcher.flushes b);
  Alcotest.(check (list int)) "drain ignores obligations" [ 5 ] (Batcher.drain b)

let test_batcher_deadline_flush () =
  let t = ref 50.0 in
  let b = Batcher.create ~now:(fun () -> !t) batcher_cfg in
  (* Deadline 60 ms out, margin 50 ms: must flush within 10 ms — tighter
     than the 20 ms linger. *)
  Batcher.push b ~deadline:(!t +. 0.06) "tight";
  Alcotest.(check (option (float 1e-9))) "deadline tightens the obligation"
    (Some 50.01) (Batcher.next_flush b);
  (* Already inside the margin: flush immediately, not in the past. *)
  Batcher.push b ~deadline:(!t +. 0.01) "urgent";
  Alcotest.(check bool) "deadline-near request forces the flush" true (Batcher.due b);
  Alcotest.(check (list string)) "flush carries the whole queue" [ "tight"; "urgent" ]
    (Batcher.take b)

(* Replaying a random push schedule against a virtual clock: every request
   flushes by its documented obligation
   max(enqueue, min(enqueue + linger, deadline - margin)), and batches
   come out strictly FIFO. *)
let test_batcher_obligation_property =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (pair (float_range 0.0 0.015) (option (float_range 0.0 0.2))))
  in
  QCheck.Test.make ~name:"batcher flushes by obligation, FIFO" ~count:200 gen
    (fun pushes ->
      let t = ref 0.0 in
      let b = Batcher.create ~now:(fun () -> !t) batcher_cfg in
      let flushed = ref [] in
      let flush_now () =
        List.iter (fun item -> flushed := (item, !t) :: !flushed) (Batcher.take b)
      in
      (* Model the daemon's polling loop faithfully: never jump the clock
         past a pending flush obligation without flushing at it. *)
      let advance_to target =
        let rec go () =
          match Batcher.next_flush b with
          | Some at when at <= target ->
            t := Float.max !t at;
            while Batcher.due b do
              flush_now ()
            done;
            go ()
          | _ -> t := Float.max !t target
        in
        go ()
      in
      List.iteri
        (fun i (dt, deadline_off) ->
          advance_to (!t +. dt);
          let deadline = Option.map (fun off -> !t +. off) deadline_off in
          let obligation =
            let linger = !t +. batcher_cfg.Batcher.max_linger_s in
            match deadline with
            | None -> linger
            | Some d ->
              Float.max !t (Float.min linger (d -. Batcher.deadline_margin_s))
          in
          Batcher.push b ?deadline (i, obligation);
          while Batcher.due b do
            flush_now ()
          done)
        pushes;
      while Batcher.length b > 0 do
        (match Batcher.next_flush b with
        | Some at -> t := Float.max !t at
        | None -> ());
        while Batcher.due b do
          flush_now ()
        done
      done;
      let flushed = List.rev !flushed in
      let fifo = List.mapi (fun pos ((i, _), _) -> pos = i) flushed in
      List.for_all Fun.id fifo
      && List.for_all
           (fun ((_, obligation), at) -> at <= obligation +. 1e-9)
           flushed)

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
  Alcotest.(check int) "stage timings for every batched request" 16
    (d (fun s -> s.Serve_stats.staged));
  Alcotest.(check int) "two forward passes" 2 (d (fun s -> s.Serve_stats.batches));
  Alcotest.(check int) "batched requests counted" 16
    (d (fun s -> s.Serve_stats.batched_requests));
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

let test_stats_stage_accounting () =
  let s = Serve_stats.create () in
  Serve_stats.record_stages s ~queue_s:0.010 ~batch_s:0.004 ~infer_s:0.002;
  Serve_stats.record_stages s ~queue_s:0.020 ~batch_s:(-1.0) ~infer_s:0.004;
  Serve_stats.record_batch s ~size:2;
  Serve_stats.record_batch s ~size:6;
  let sum = Serve_stats.snapshot s in
  Alcotest.(check int) "staged" 2 sum.Serve_stats.staged;
  Alcotest.(check (float 1e-6)) "queue mean" 15.0 sum.Serve_stats.queue_ms_mean;
  Alcotest.(check (float 1e-6)) "negative batch wait clamps to 0" 2.0
    sum.Serve_stats.batch_ms_mean;
  Alcotest.(check (float 1e-6)) "infer mean" 3.0 sum.Serve_stats.infer_ms_mean;
  Alcotest.(check int) "batches" 2 sum.Serve_stats.batches;
  Alcotest.(check int) "batched requests" 8 sum.Serve_stats.batched_requests;
  Alcotest.(check int) "max batch" 6 sum.Serve_stats.max_batch;
  Alcotest.(check (float 1e-6)) "mean batch" 4.0 sum.Serve_stats.mean_batch

let suite =
  ( "serve-batch",
    [
      Alcotest.test_case "batcher linger flush" `Quick test_batcher_linger_flush;
      Alcotest.test_case "batcher full batch" `Quick test_batcher_full_batch;
      Alcotest.test_case "batcher deadline flush" `Quick test_batcher_deadline_flush;
      QCheck_alcotest.to_alcotest test_batcher_obligation_property;
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
      Alcotest.test_case "stats stage accounting" `Quick test_stats_stage_accounting;
    ] )
