type listen = Unix_socket of string | Tcp of string * int

type config = {
  listen : listen;
  queue_depth : int;
  batcher : Batcher.config;
  engine : Serve_engine.config;
  stream : Stream_session.config;
  idle_timeout_s : float option;
}

let default_config listen =
  {
    listen;
    queue_depth = 64;
    batcher = Batcher.default_config;
    engine = Serve_engine.default_config ();
    stream = Stream_session.default_config;
    idle_timeout_s = None;
  }

(* A queued request: the raw line, its admission timestamp (deadlines count
   from it, so queue wait is on the clock) and the reactor ticket that will
   carry the reply back to the connection, in per-connection order. *)
type job = { line : string; arrival : float; ticket : Reactor.ticket }

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> (
    match (Unix.gethostbyname host).Unix.h_addr_list.(0) with
    | addr -> Unix.ADDR_INET (addr, port)
    | exception (Not_found | Invalid_argument _) ->
      Serve_error.fail Serve_error.Invalid_config "cannot resolve host %S" host)

let bind_listener = function
  | Unix_socket path ->
    if Sys.file_exists path then begin
      (* Only a stale socket file (connect refused) may be reclaimed;
         a live daemon on the same path is a configuration error, and
         anything else (say, a regular file) is left for bind to reject. *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error _ -> `Unknown
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      (match verdict with
      | `Live ->
        Serve_error.fail Serve_error.Invalid_config
          "socket %s is in use by a running daemon" path
      | `Stale -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | `Unknown -> ())
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.bind fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Serve_error.fail Serve_error.Internal "cannot bind unix socket %s: %s" path
         (Unix.error_message e));
    fd
  | Tcp (host, port) ->
    let addr = sockaddr (Tcp (host, port)) in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    (try Unix.bind fd addr
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Serve_error.fail Serve_error.Internal "cannot bind %s:%d: %s" host port
         (Unix.error_message e));
    fd

(* The batcher thread: drains the admission queue, coalesces infer requests
   in the {!Batcher}, and runs each due batch through the engine inline.

   Shutdown protocol, on a [{"op": "shutdown"}] line:
   + flip [draining] so the reactor answers further lines with the shed
     reply without touching the queue;
   + answer the shutdown request itself;
   + requests already coalescing in the batcher were picked up before the
     shutdown, so they get real (batched) answers;
   + close the admission queue, answering orphaned queue entries as shed;
   + stop the reactor, which flushes every reply and closes connections —
     idle clients see EOF. *)
let batcher_loop engine sessions b queue reactor draining =
  (* Deferred (reload) work runs on its own threads so a multi-second model
     load never stalls the batcher; shutdown joins them so every ticket is
     resolved before the reactor stops. *)
  let deferred = ref [] in
  let dm = Mutex.create () in
  let note_deferred th =
    Mutex.lock dm;
    deferred := th :: !deferred;
    Mutex.unlock dm
  in
  let join_deferred () =
    Mutex.lock dm;
    let ths = !deferred in
    deferred := [];
    Mutex.unlock dm;
    List.iter Thread.join ths
  in
  let dispatch batch =
    if batch <> [] then
      let replies = Serve_engine.infer_batch engine (List.map fst batch) in
      List.iter2 (fun (_, complete) json -> complete json) batch replies
  in
  let process job =
    match Serve_engine.classify_line ~arrival:job.arrival engine job.line with
    | Serve_engine.Immediate (Serve_engine.Reply json) ->
      Reactor.resolve job.ticket (Sjson.to_string json);
      `Continue
    | Serve_engine.Immediate (Serve_engine.Shutdown_reply json) ->
      `Shutdown (job.ticket, json)
    | Serve_engine.Batchable item ->
      let ticket = job.ticket in
      Serve_engine.set_item_pickup item (Serve_engine.now engine);
      Batcher.push b
        ~deadline:(Serve_engine.item_deadline item)
        (item, fun json -> Reactor.resolve ticket (Sjson.to_string json));
      `Continue
    | Serve_engine.Stream req ->
      let ticket = job.ticket in
      Stream_session.handle sessions
        ~conn:(Reactor.ticket_conn_id ticket)
        ~arrival:job.arrival
        ~submit:(fun item complete ->
          Serve_engine.set_item_pickup item (Serve_engine.now engine);
          Batcher.push b ~deadline:(Serve_engine.item_deadline item) (item, complete))
        ~resolve:(fun json -> Reactor.resolve ticket (Sjson.to_string json))
        ~exempt:(fun () -> Reactor.exempt_idle ticket)
        req;
      `Continue
    | Serve_engine.Deferred thunk ->
      let ticket = job.ticket in
      note_deferred
        (Thread.create
           (fun () ->
             match thunk () with
             | Serve_engine.Reply json | Serve_engine.Shutdown_reply json ->
               Reactor.resolve ticket (Sjson.to_string json))
           ());
      `Continue
  in
  let shutdown ticket json =
    Atomic.set draining true;
    Reactor.resolve ticket (Sjson.to_string json);
    dispatch (Batcher.drain b);
    Squeue.close queue;
    let rec drain_orphans () =
      match Squeue.pop queue with
      | None -> ()
      | Some orphan ->
        Reactor.resolve orphan.ticket
          (Sjson.to_string (Serve_engine.draining_reply engine));
        drain_orphans ()
    in
    drain_orphans ();
    join_deferred ();
    Reactor.stop reactor
  in
  (* Abandoned sessions release their quota without waiting for the next
     open: sweep at most once a second, from whichever branch of the loop
     is active. (A fully idle daemon sweeps on the next request — opens
     also sweep, so quota admission never sees stale sessions.) *)
  let last_sweep = ref (Serve_engine.now engine) in
  let maybe_sweep () =
    let now = Serve_engine.now engine in
    if now -. !last_sweep > 1.0 then begin
      last_sweep := now;
      Stream_session.sweep sessions
    end
  in
  let rec loop () =
    maybe_sweep ();
    if Batcher.length b = 0 then
      (* Nothing coalescing: block until the reactor admits a request. *)
      match Squeue.pop queue with
      | None ->
        join_deferred ();
        Reactor.stop reactor (* external close: bail out cleanly *)
      | Some job -> step job
    else if Batcher.due b then begin
      dispatch (Batcher.take b);
      loop ()
    end
    else
      (* A batch is forming: keep pulling ready work, and otherwise nap
         until the earliest flush obligation (bounded so a new arrival is
         picked up within a millisecond). *)
      match Squeue.try_pop queue with
      | Some job -> step job
      | None ->
        let wait =
          match Batcher.next_flush b with
          | Some at -> at -. Serve_engine.now engine
          | None -> 0.001
        in
        if wait > 0.0 then Thread.delay (Float.min wait 0.001);
        loop ()
  and step job =
    match process job with
    | `Continue -> loop ()
    | `Shutdown (ticket, json) -> shutdown ticket json
  in
  loop ()

let run ?journal ?reload ?student_path ?(ready = fun () -> ()) ~spec ~model config =
  (* A client (or a routing front-end hedging a slow attempt) may close its
     connection while a reply is in flight; the write must surface as EPIPE
     for the reactor to clean up, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Everything a configured number can make a constructor reject is built
     before the socket is bound: a bad number is an [invalid_config] error,
     with no socket file left behind and no thread dying after startup. *)
  let engine, queue, batcher, sessions =
    try
      let engine =
        Serve_engine.create ?journal ?reload ?student_path ~spec ~model config.engine
      in
      let queue : job Squeue.t = Squeue.create ~capacity:config.queue_depth in
      (* Each batched item carries its own completion callback: a plain
         infer resolves its reactor ticket, a streamed window reports into
         its feed's completion group (which resolves the feed's ticket once
         every window the chunk closed has landed). *)
      let batcher : (Serve_engine.infer_item * (Sjson.t -> unit)) Batcher.t =
        Batcher.create ~now:(fun () -> Serve_engine.now engine) config.batcher
      in
      (engine, queue, batcher, Stream_session.create ~config:config.stream engine)
    with Invalid_argument m -> Serve_error.fail Serve_error.Invalid_config "%s" m
  in
  let listener = bind_listener config.listen in
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  (match journal with
  | None -> ()
  | Some j ->
    Runlog.event j "serve_start"
      [
        ( "listen",
          Runlog.S
            (match config.listen with
            | Unix_socket p -> "unix:" ^ p
            | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p) );
        ("model_loaded", Runlog.B (Serve_engine.model_loaded engine));
      ]);
  let reactor = Reactor.create ?idle_timeout_s:config.idle_timeout_s ~listener () in
  Serve_engine.set_extra_stats engine (Stream_session.stats_fields sessions);
  let draining = Atomic.make false in
  Reactor.set_on_line reactor (fun ticket line ->
      if Atomic.get draining then
        Reactor.resolve ticket (Sjson.to_string (Serve_engine.draining_reply engine))
      else begin
        let job = { line; arrival = Serve_engine.now engine; ticket } in
        if not (Squeue.try_push queue job) then
          Reactor.resolve ticket (Sjson.to_string (Serve_engine.overload_reply engine))
      end);
  (* SIGHUP = operator-driven zero-downtime reload of the default
     checkpoint path. The handler only spawns a thread; the load/compile/swap
     runs entirely off the serving path, and a failed reload is journaled
     and leaves the old model serving. Restored on exit so in-process test
     daemons don't leak handlers. *)
  let restore_sighup =
    match reload with
    | None -> fun () -> ()
    | Some _ ->
      let prev =
        Sys.signal Sys.sighup
          (Sys.Signal_handle
             (fun _ ->
               ignore
                 (Thread.create
                    (fun () ->
                      match Serve_engine.reload engine () with Ok () | Error _ -> ())
                    ())))
      in
      fun () -> Sys.set_signal Sys.sighup prev
  in
  let batcher =
    Thread.create (fun () -> batcher_loop engine sessions batcher queue reactor draining) ()
  in
  ready ();
  Reactor.run reactor;
  Thread.join batcher;
  restore_sighup ();
  (try Unix.close listener with Unix.Unix_error _ -> ());
  match config.listen with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()
