type listen = Unix_socket of string | Tcp of string * int

type config = {
  listen : listen;
  queue_depth : int;
  max_batch : int;
  engine : Serve_engine.config;
  stream : Stream_session.config;
  idle_timeout_s : float option;
}

let default_config listen =
  {
    listen;
    queue_depth = 64;
    max_batch = 32;
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

(* A line admitted, or arriving, after a shutdown: shed, journalled with
   why "shutdown". *)
let draining_reply engine =
  Sjson.to_string
    (Serve_engine.shed_reply ~why:"shutdown" engine
       (Serve_error.v Serve_error.Overloaded "server shutting down"))

(* The batcher thread: blocks until the reactor admits a line, then takes
   whatever else is already queued, and runs the infer items those lines
   carry (plain requests and the windows a stream feed closes) through the
   engine inline, at most [max_batch] per forward. Work that queues behind
   a running forward shares the next batch; nothing waits for batch mates.

   Shutdown protocol, on a [{"op": "shutdown"}] line:
   + flip [draining] so the reactor answers further lines with the shed
     reply without touching the queue;
   + answer the shutdown request itself;
   + infer items gathered from lines taken before the shutdown get real
     (batched) answers;
   + close the admission queue, answering orphaned queue entries as shed;
   + stop the reactor, which flushes every reply and closes connections —
     idle clients see EOF. *)
let batcher_loop engine sessions ~max_batch queue reactor draining =
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
  (* Each gathered item carries its own completion callback: a plain infer
     resolves its reactor ticket, a streamed window reports into its feed's
     completion group (which resolves the feed's ticket once every window
     the chunk closed has landed). *)
  let pending = Queue.create () in
  let submit item complete = Queue.push (item, complete) pending in
  (* One forward over the oldest [max_batch] gathered items. *)
  let dispatch () =
    let rec take k =
      if k = 0 || Queue.is_empty pending then []
      else
        let x = Queue.pop pending in
        x :: take (k - 1)
    in
    let batch = take max_batch in
    let replies = Serve_engine.infer_batch engine (List.map fst batch) in
    List.iter2 (fun (_, complete) json -> complete json) batch replies
  in
  let flush () =
    while not (Queue.is_empty pending) do
      dispatch ()
    done
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
      submit item (fun json -> Reactor.resolve ticket (Sjson.to_string json));
      `Continue
    | Serve_engine.Stream req ->
      let ticket = job.ticket in
      Stream_session.handle sessions
        ~conn:(Reactor.ticket_conn_id ticket)
        ~arrival:job.arrival ~submit
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
    flush ();
    Squeue.close queue;
    let rec drain_orphans () =
      match Squeue.pop queue with
      | None -> ()
      | Some orphan ->
        Reactor.resolve orphan.ticket (draining_reply engine);
        drain_orphans ()
    in
    drain_orphans ();
    join_deferred ();
    Reactor.stop reactor
  in
  (* Abandoned sessions release their quota without waiting for the next
     open: sweep at most once a second, before each line taken. (A fully
     idle daemon sweeps on the next request — opens also sweep, so quota
     admission never sees stale sessions.) *)
  let last_sweep = ref (Serve_engine.now engine) in
  let maybe_sweep () =
    let now = Serve_engine.now engine in
    if now -. !last_sweep > 1.0 then begin
      last_sweep := now;
      Stream_session.sweep sessions
    end
  in
  let rec loop () =
    match Squeue.pop queue with
    | None ->
      join_deferred ();
      Reactor.stop reactor (* external close: bail out cleanly *)
    | Some job -> step job
  and step job =
    maybe_sweep ();
    match process job with
    | `Shutdown (ticket, json) -> shutdown ticket json
    | `Continue -> (
      while Queue.length pending >= max_batch do
        dispatch ()
      done;
      match Squeue.try_pop queue with
      | Some job -> step job
      | None ->
        flush ();
        loop ())
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
  let engine, queue, sessions =
    try
      if config.max_batch < 1 then invalid_arg "Serve_daemon.run: max_batch must be >= 1";
      let engine =
        Serve_engine.create ?journal ?reload ?student_path ~spec ~model config.engine
      in
      let queue : job Squeue.t = Squeue.create ~capacity:config.queue_depth in
      (engine, queue, Stream_session.create ~config:config.stream engine)
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
      if Atomic.get draining then Reactor.resolve ticket (draining_reply engine)
      else begin
        let job = { line; arrival = Serve_engine.now engine; ticket } in
        if not (Squeue.try_push queue job) then
          Reactor.resolve ticket
            (Sjson.to_string
               (Serve_engine.shed_reply engine
                  (Serve_error.v Serve_error.Overloaded "request queue full")))
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
    Thread.create
      (fun () ->
        batcher_loop engine sessions ~max_batch:config.max_batch queue reactor draining)
      ()
  in
  ready ();
  Reactor.run reactor;
  Thread.join batcher;
  restore_sighup ();
  (try Unix.close listener with Unix.Unix_error _ -> ());
  match config.listen with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()
