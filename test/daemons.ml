(* In-process daemons, routers and stub servers for the socket suites, and
   the client calls the tests make to them. *)

let tiny_spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 ()

let config ?(queue_depth = 8) sock =
  {
    Serve_daemon.listen = Serve_daemon.Unix_socket sock;
    queue_depth;
    max_batch = 32;
    engine =
      { (Serve_engine.default_config ~fallback:Cbox_infer.Fallback_hrd ()) with
        Serve_engine.grace_lo = -1e9; grace_hi = 1e9 };
    stream = Stream_session.default_config;
    idle_timeout_s = None;
  }

(* Runs [serve ~ready] in a thread and returns once it calls [ready], so no
   test races the bind. *)
let spawn serve =
  let m = Mutex.create () and c = Condition.create () in
  let ready = ref false in
  let thread =
    Thread.create
      (fun () ->
        serve ~ready:(fun () ->
            Mutex.lock m;
            ready := true;
            Condition.signal c;
            Mutex.unlock m))
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  thread

let start ?reload ?(model = None) config =
  spawn (fun ~ready -> Serve_daemon.run ?reload ~ready ~spec:tiny_spec ~model config)

let start_router config = spawn (fun ~ready -> Router.run ~ready config)

(* A bare reactor on [sock] answering with [on_line]: a stub server. Stop
   it only with every ticket resolved. *)
let start_reactor ?max_line ?overflow_reply ~on_line sock =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 16;
  Unix.set_nonblock listener;
  let r = Reactor.create ?max_line ?overflow_reply ~listener () in
  Reactor.set_on_line r (on_line r);
  (r, Thread.create Reactor.run r, listener)

let stop_reactor (r, thread, listener) =
  Reactor.stop r;
  Thread.join thread;
  try Unix.close listener with Unix.Unix_error _ -> ()

(* Every connection and call sends and receives under [timeout]: a reply
   that never comes fails the case instead of hanging the suite. *)
let timeout = 30.0

let connect sock =
  match Client.connect ~timeout (Serve_daemon.Unix_socket sock) with
  | Ok c -> c
  | Error e -> Alcotest.failf "cannot connect to %s: %s" sock e

let parse line =
  match Sjson.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "daemon sent a non-JSON reply: %s" e

let send c line =
  match Client.send c line with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send failed: %s" (Client.error_message e)

let reply = function
  | Ok line -> parse line
  | Error e -> Alcotest.failf "no reply: %s" (Client.error_message e)

let recv c = reply (Client.recv c)
let request c line = reply (Client.request c line)

(* One request on a fresh connection. *)
let call sock line =
  match Client.call ~timeout (Serve_daemon.Unix_socket sock) line with
  | Ok line -> parse line
  | Error e -> Alcotest.failf "%s: %s" sock e

(* A plain socket, for tests that send malformed frames on purpose. *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* The daemon may hang up mid-write. *)
let write_raw fd s =
  try ignore (Unix.write_substring fd s 0 (String.length s)) with Unix.Unix_error _ -> ()
