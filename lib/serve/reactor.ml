(* Single-threaded non-blocking event loop owning accept/read/write for the
   serving daemon.

   One Unix.select loop replaces the old thread-per-connection readers: each
   accepted connection carries an incremental line buffer (bytes arrive in
   any framing — byte-by-byte, whole lines, coalesced multi-line chunks), a
   FIFO of reply tickets, and an output buffer. Request processing happens
   elsewhere (the batcher thread); the loop's only cross-thread surface is
   [resolve], which fills a ticket and wakes the loop through a self-pipe.

   Ordering: replies on one connection go out strictly in request order —
   [flush_ready] only moves the {e resolved prefix} of the ticket FIFO into
   the output buffer, so an early answer to a later request waits for its
   predecessors. *)

module Linebuf = struct
  type t = {
    max_line : int;
    buf : Buffer.t;  (* current partial line, no newline yet *)
    mutable overflowed : bool;
  }

  let create ~max_line =
    if max_line < 1 then invalid_arg "Linebuf.create: max_line must be >= 1";
    { max_line; buf = Buffer.create 256; overflowed = false }

  let pending t = Buffer.length t.buf
  let overflowed t = t.overflowed

  (* Append a chunk; return the complete lines it closed, in order. Lines
     completed before an oversized line is detected are still delivered;
     the overflow is sticky (the stream cannot be re-framed safely, the
     caller must reject and close). *)
  let feed t chunk =
    if t.overflowed then ([], true)
    else begin
      let lines = ref [] in
      let n = String.length chunk in
      let i = ref 0 in
      while (not t.overflowed) && !i < n do
        (match String.index_from_opt chunk !i '\n' with
        | Some j ->
          Buffer.add_substring t.buf chunk !i (j - !i);
          if Buffer.length t.buf > t.max_line then t.overflowed <- true
          else begin
            lines := Buffer.contents t.buf :: !lines;
            Buffer.clear t.buf;
            i := j + 1
          end
        | None ->
          Buffer.add_substring t.buf chunk !i (n - !i);
          if Buffer.length t.buf > t.max_line then t.overflowed <- true;
          i := n)
      done;
      (List.rev !lines, t.overflowed)
    end
end

type t = {
  listener : Unix.file_descr;
  max_conns : int;
  max_line : int;
  overflow_reply : string;
  idle_timeout : float option;  (* reap quiet connections after this long *)
  mutable on_line : ticket -> string -> unit;
  m : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable woken : bool;  (* a wake byte is already in flight *)
  mutable conns : conn list;
  mutable next_cid : int;
  mutable stopping : bool;
}

and conn = {
  owner : t;
  cid : int;  (* stable per-connection id (session binding) *)
  fd : Unix.file_descr;
  lbuf : Linebuf.t;
  out : Buffer.t;
  mutable out_off : int;  (* bytes of [out] already written *)
  tickets : ticket Queue.t;  (* unanswered requests, FIFO *)
  mutable closing : bool;  (* read side done; close once flushed *)
  mutable last_activity : float;  (* last byte read or written *)
  mutable idle_exempt : bool;  (* streaming sessions opt out of the reaper *)
}

and ticket = { tk_conn : conn; mutable tk_reply : string option }

let wake_locked t =
  if not t.woken then begin
    t.woken <- true;
    ignore (try Unix.write t.wake_w (Bytes.make 1 '!') 0 1 with Unix.Unix_error _ -> 0)
  end

let create ?(max_conns = 512) ?(max_line = 1 lsl 20)
    ?(overflow_reply =
      {|{"ok": false, "error": "bad_request", "message": "line too long"}|})
    ?idle_timeout_s ~listener () =
  (match idle_timeout_s with
  | Some s when s <= 0.0 -> invalid_arg "Reactor.create: idle_timeout_s must be > 0"
  | _ -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  {
    listener;
    max_conns;
    max_line;
    overflow_reply;
    idle_timeout = idle_timeout_s;
    on_line = (fun _ _ -> ());
    m = Mutex.create ();
    wake_r;
    wake_w;
    woken = false;
    conns = [];
    next_cid = 0;
    stopping = false;
  }

let set_on_line t f = t.on_line <- f

let resolve ticket reply =
  let t = ticket.tk_conn.owner in
  Mutex.protect t.m (fun () ->
      ticket.tk_reply <- Some reply;
      wake_locked t)

let stop t =
  Mutex.protect t.m (fun () ->
      t.stopping <- true;
      wake_locked t)

let ticket_conn_id ticket = ticket.tk_conn.cid

(* Exempting is a plain boolean store: the reaper only ever reads it on the
   loop thread, and a stale read merely delays the exemption by one loop
   iteration (the connection just carried a request, so it is not idle). *)
let exempt_idle ticket = ticket.tk_conn.idle_exempt <- true

(* --- loop internals (reactor thread only, except where noted) --- *)

let enqueue_ticket t conn =
  let tk = { tk_conn = conn; tk_reply = None } in
  Mutex.protect t.m (fun () -> Queue.push tk conn.tickets);
  tk

(* Move the resolved prefix of the ticket FIFO into the output buffer. *)
let flush_ready t conn =
  Mutex.protect t.m (fun () ->
      let rec go () =
        match Queue.peek_opt conn.tickets with
        | Some { tk_reply = Some reply; _ } ->
          ignore (Queue.pop conn.tickets);
          Buffer.add_string conn.out reply;
          Buffer.add_char conn.out '\n';
          go ()
        | _ -> ()
      in
      go ())

let close_conn t conn =
  Mutex.protect t.m (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns);
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let conn_flushed conn = conn.out_off >= Buffer.length conn.out

let has_pending t conn = Mutex.protect t.m (fun () -> not (Queue.is_empty conn.tickets))

(* Closing decision: a connection dies once its read side is finished AND
   every admitted request has been answered and flushed. *)
let maybe_close t conn =
  if conn.closing && conn_flushed conn && not (has_pending t conn) then close_conn t conn

let handle_readable t conn =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.fd chunk 0 4096 with
  | 0 ->
    (* EOF: a partial line never completes — a request cut off by the
       disconnect is rejected by discarding it (there is nobody to answer).
       Replies still owed are flushed before the close. *)
    conn.closing <- true;
    maybe_close t conn
  | n ->
    conn.last_activity <- Unix.gettimeofday ();
    let lines, overflowed = Linebuf.feed conn.lbuf (Bytes.sub_string chunk 0 n) in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" then begin
          let tk = enqueue_ticket t conn in
          t.on_line tk line
        end)
      lines;
    if overflowed then begin
      (* Framing is unrecoverable: answer with a protocol error and stop
         reading; queued requests still drain in order before the close. *)
      let tk = enqueue_ticket t conn in
      resolve tk t.overflow_reply;
      conn.closing <- true
    end;
    flush_ready t conn;
    maybe_close t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) ->
    (* Connection reset: nobody left to answer; drop everything. *)
    Mutex.protect t.m (fun () -> Queue.clear conn.tickets);
    close_conn t conn

let handle_writable t conn =
  let len = Buffer.length conn.out - conn.out_off in
  if len > 0 then begin
    let data = Buffer.to_bytes conn.out in
    match Unix.write conn.fd data conn.out_off len with
    | n ->
      if n > 0 then conn.last_activity <- Unix.gettimeofday ();
      conn.out_off <- conn.out_off + n;
      if conn_flushed conn then begin
        Buffer.clear conn.out;
        conn.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error (_, _, _) ->
      Mutex.protect t.m (fun () -> Queue.clear conn.tickets);
      close_conn t conn
  end;
  maybe_close t conn

let handle_accept t =
  match Unix.accept t.listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    let conn =
      {
        owner = t;
        cid = Mutex.protect t.m (fun () -> t.next_cid <- t.next_cid + 1; t.next_cid);
        fd;
        lbuf = Linebuf.create ~max_line:t.max_line;
        out = Buffer.create 256;
        out_off = 0;
        tickets = Queue.create ();
        closing = false;
        last_activity = Unix.gettimeofday ();
        idle_exempt = false;
      }
    in
    Mutex.protect t.m (fun () -> t.conns <- conn :: t.conns)
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    ()
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
    (* Listener shut down under us (external kill path). *)
    Mutex.protect t.m (fun () -> t.stopping <- true)

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  in
  go ();
  Mutex.protect t.m (fun () -> t.woken <- false)

let run t =
  let finished = ref false in
  while not !finished do
    let stopping, conns = Mutex.protect t.m (fun () -> (t.stopping, t.conns)) in
    (* In stopping mode every ticket has been resolved by the shutdown
       drain; flush what remains and close as connections empty out. *)
    if stopping then begin
      List.iter (fun c -> flush_ready t c) conns;
      List.iter
        (fun c ->
          if conn_flushed c && not (has_pending t c) then close_conn t c)
        conns
    end;
    (* Idle reaper: a connection that owes nothing (no unanswered tickets,
       output flushed) and has been quiet past the timeout is closed, so
       slow-loris connections cannot pin [max_conns] slots forever.
       Streaming sessions opt out via {!exempt_idle}; their lifetime is
       governed by the session TTL instead. *)
    let idle_candidate c =
      (not c.idle_exempt) && (not c.closing) && conn_flushed c
      && not (has_pending t c)
    in
    (match t.idle_timeout with
    | Some it when not stopping ->
      let now = Unix.gettimeofday () in
      List.iter
        (fun c ->
          if idle_candidate c && now -. c.last_activity > it then close_conn t c)
        conns
    | _ -> ());
    let conns = Mutex.protect t.m (fun () -> t.conns) in
    if stopping && conns = [] then finished := true
    else begin
      let accepting = (not stopping) && List.length conns < t.max_conns in
      let reads =
        t.wake_r
        :: (if accepting then [ t.listener ] else [])
        @ List.filter_map (fun c -> if c.closing then None else Some c.fd) conns
      in
      let writes = List.filter_map (fun c -> if conn_flushed c then None else Some c.fd) conns in
      (* With the reaper armed, sleep only until the earliest candidate
         would expire; with no candidates (or no reaper) block — every
         other state change wakes the loop via fd readiness or the
         self-pipe. *)
      let timeout =
        match t.idle_timeout with
        | None -> -1.0
        | Some it -> (
          let now = Unix.gettimeofday () in
          let next =
            List.fold_left
              (fun acc c ->
                if idle_candidate c then
                  let d = c.last_activity +. it -. now in
                  Some (match acc with None -> d | Some a -> Float.min a d)
                else acc)
              None conns
          in
          match next with None -> -1.0 | Some d -> Float.max 0.01 d)
      in
      match Unix.select reads writes [] timeout with
      | rs, ws, _ ->
        if List.mem t.wake_r rs then drain_wake t;
        (* Ticket resolutions arrive from the batcher thread at any time;
           sweep every connection for newly-ready replies. *)
        List.iter (fun c -> flush_ready t c) (Mutex.protect t.m (fun () -> t.conns));
        List.iter
          (fun c ->
            if List.mem c.fd ws then handle_writable t c
            else if not (conn_flushed c) then ()
            else maybe_close t c)
          (Mutex.protect t.m (fun () -> t.conns));
        List.iter
          (fun c -> if List.mem c.fd rs then handle_readable t c)
          (Mutex.protect t.m (fun () -> t.conns));
        if accepting && List.mem t.listener rs then handle_accept t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* A connection died between snapshot and select; next iteration
           rebuilds the sets from live state. *)
        ()
    end
  done;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
