(* --- connections --- *)

type error = Eof | Timeout | Io of string

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;  (* read buffer *)
  mutable rest : string;  (* bytes read; those from [pos] are not returned yet *)
  mutable pos : int;
  mutable closed : bool;
}

(* The reactor's request frame cap, applied to replies. *)
let max_line = 1 lsl 20

let error_message = function
  | Eof -> "connection closed without a reply"
  | Timeout -> "timed out"
  | Io m -> m

(* A socket that cannot take the option fails its next read or write,
   which reports it. *)
let set_timeout t secs =
  let secs = Float.max 0.01 secs in
  try
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO secs;
    Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO secs
  with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let connect ?timeout listen =
  (* A peer may hang up while requests are still being written; that must
     fail the write with EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Serve_daemon.sockaddr listen with
  | exception Serve_error.Error e -> Error e.Serve_error.message
  | addr -> (
    match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | fd -> (
      match Unix.connect fd addr with
      | () ->
        let t = { fd; chunk = Bytes.create 65536; rest = ""; pos = 0; closed = false } in
        Option.iter (set_timeout t) timeout;
        Ok t
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Unix.error_message e)))

let io_error = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK -> Timeout
  (* A unix socket whose peer closed with our requests still unread reads
     one ECONNRESET before EOF. *)
  | Unix.ECONNRESET -> Eof
  | e -> Io (Unix.error_message e)

let send t line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go pos =
    if pos >= len then Ok ()
    else
      match Unix.single_write_substring t.fd data pos (len - pos) with
      | 0 -> Error Eof
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (e, _, _) -> Error (io_error e)
  in
  go 0

let rec recv t =
  match String.index_from_opt t.rest t.pos '\n' with
  | Some i ->
    let line = String.sub t.rest t.pos (i - t.pos) in
    t.pos <- i + 1;
    Ok line
  | None when String.length t.rest - t.pos > max_line -> Error Eof
  | None -> (
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> Error Eof
    | n ->
      let pending = String.length t.rest - t.pos in
      t.rest <- String.sub t.rest t.pos pending ^ Bytes.sub_string t.chunk 0 n;
      t.pos <- 0;
      recv t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv t
    | exception Unix.Unix_error (e, _, _) -> Error (io_error e))

let request t line = Result.bind (send t line) (fun () -> recv t)

let call ?timeout listen line =
  match connect ?timeout listen with
  | Error e -> Error ("cannot connect: " ^ e)
  | Ok c ->
    let reply = request c line in
    close c;
    Result.map_error error_message reply

(* --- replies --- *)

let field conv name j = Option.bind (Sjson.member name j) conv
let is_ok j = field Sjson.to_bool "ok" j = Some true
let error_code j = Option.bind (field Sjson.to_str "error" j) Serve_error.code_of_string

let exit_code j =
  if is_ok j then 0
  else Serve_error.exit_code (Option.value (error_code j) ~default:Serve_error.Internal)

(* The counters of one stats reply. *)
let snapshot ?timeout listen =
  Result.bind (call ?timeout listen {|{"op": "stats"}|}) Sjson.parse

(* How far counter [key] moved; "stream.windows" names one inside the
   stream object. *)
let delta before after key =
  let counter j =
    List.fold_left
      (fun j k -> Option.bind j (Sjson.member k))
      (Some j) (String.split_on_char '.' key)
    |> fun v -> Option.bind v Sjson.to_int
  in
  match (counter before, counter after) with
  | Some a, Some b -> Some (b - a)
  | _ -> None

(* --- the stream-session driver --- *)

module Stream = struct
  type failure = Broken of error | Rejected of Sjson.t | Protocol of string

  type session = {
    mutable conn : t;
    token : string;
    on_window : int -> Sjson.t -> unit;
    mutable next : int;
    mutable delivered : int;
    mutable credit : int;
    mutable consumed : int;
    mutable seq : int;
  }

  let failure_message = function
    | Broken e -> error_message e
    | Rejected j -> "rejected: " ^ Sjson.to_string j
    | Protocol m -> m

  let ( let* ) = Result.bind

  let exchange conn line =
    match request conn line with
    | Error e -> Error (Broken e)
    | Ok reply -> (
      match Sjson.parse reply with
      | Error e -> Error (Protocol ("server sent bad JSON: " ^ e))
      | Ok j -> if is_ok j then Ok j else Error (Rejected j))

  (* Deliver a reply's windows and take its grant. A window below [next] is
     a replay of one already delivered; one past it is a gap, except for the
     first: a session resumed by token cannot know where the replay starts. *)
  let deliver s j =
    s.credit <- Option.value (field Sjson.to_int "credit" j) ~default:0;
    s.consumed <- Option.value (field Sjson.to_int "consumed" j) ~default:s.consumed;
    let take acc w =
      let* () = acc in
      match field Sjson.to_int "window" w with
      | None -> Error (Protocol "window entry without an index")
      | Some i when i < s.next -> Ok ()
      | Some i when i > s.next && s.delivered > 0 ->
        Error
          (Protocol
             (Printf.sprintf "window %d arrived before %d — gap or reorder" i s.next))
      | Some i ->
        s.on_window i w;
        s.next <- i + 1;
        s.delivered <- s.delivered + 1;
        Ok ()
    in
    match Sjson.member "windows" j with
    | Some (Sjson.Arr ws) -> List.fold_left take (Ok ()) ws
    | _ -> Ok ()

  let step s line =
    let* j = exchange s.conn line in
    let* () = deliver s j in
    Ok j

  let session conn ~token ~on_window ~next =
    { conn; token; on_window; next; delivered = 0; credit = 0; consumed = 0; seq = 0 }

  let open_ conn ~sets ~ways ~on_window =
    let* j =
      exchange conn
        (Printf.sprintf "{\"op\": \"stream_open\", \"sets\": %d, \"ways\": %d}" sets ways)
    in
    match field Sjson.to_str "session" j with
    | None -> Error (Protocol "open reply has no session token")
    | Some token ->
      let s = session conn ~token ~on_window ~next:0 in
      let* () = deliver s j in
      Ok (s, j)

  (* Windows still in the batcher when the old connection died land in the
     retention ring as they finish: poll until none is pending. *)
  let rec attach s =
    let* j =
      step s
        (Printf.sprintf "{\"op\": \"stream_resume\", \"session\": %S, \"last_window\": %d}"
           s.token (s.next - 1))
    in
    if Option.value (field Sjson.to_int "pending" j) ~default:0 = 0 then Ok ()
    else begin
      Thread.delay 0.02;
      attach s
    end

  let resume conn ~token ~last_window ~on_window =
    let s = session conn ~token ~on_window ~next:(last_window + 1) in
    let* () = attach s in
    Ok s

  let reattach s conn =
    s.conn <- conn;
    attach s

  (* The next chunk, clipped to the credit, acking every delivered window. *)
  let feed_line s trace ~chunk ~corrupt =
    let n = min chunk (min s.credit (Array.length trace - s.consumed)) in
    let addrs =
      if corrupt then {|1, "bogus"|}
      else String.concat "," (List.init n (fun i -> string_of_int trace.(s.consumed + i)))
    in
    let line =
      Printf.sprintf
        "{\"op\": \"stream_feed\", \"session\": %S, \"seq\": %d, \"ack\": %d, \"addrs\": [%s]}"
        s.token s.seq (s.next - 1) addrs
    in
    s.seq <- s.seq + 1;
    (n, line)

  let feed ?(corrupt = false) s trace ~chunk =
    (* No credit: the retention ring is full of results still in flight. An
       empty feed acks what was delivered and fetches a fresh grant. *)
    if s.credit = 0 then Thread.delay 0.02;
    step s (snd (feed_line s trace ~chunk ~corrupt))

  let token s = s.token
  let consumed s = s.consumed
  let delivered s = s.delivered

  let pour ?kill_after ?corrupt_at s trace ~chunk =
    if chunk < 1 then invalid_arg "Client.Stream.pour: chunk must be >= 1";
    let rec go () =
      if s.consumed >= Array.length trace then
        Result.map Option.some
          (exchange s.conn
             (Printf.sprintf "{\"op\": \"stream_close\", \"session\": %S}" s.token))
      else
        let* _ = feed ~corrupt:(corrupt_at = Some s.seq) s trace ~chunk in
        match kill_after with
        | Some k when s.delivered >= k ->
          let n, line = feed_line s trace ~chunk ~corrupt:false in
          if n > 0 then ignore (send s.conn line);
          close s.conn;
          Ok None
        | _ -> go ()
    in
    go ()
end

(* --- loadgen's checkers --- *)

type report = {
  answered : int;
  ok : int;
  degraded : int;
  bad_request : int;
  shed : int;
  late : int;
  per_backend : (Cbox_infer.backend * int) list;
  problems : string list;
}

type stream_report = {
  windows : int;
  resumes : int;
  credit_sheds : int;
  stream_problems : string list;
}

(* One thread per client between two stats snapshots: the target may be
   long-lived (a router shared by several smoke phases), so [reconcile]
   compares counter deltas, not absolutes, with what the clients saw. *)
let run_clients listen ~clients ~client ~totals ~reconcile ~shutdown_after =
  let failures = Array.make clients [] in
  let note k m = failures.(k) <- m :: failures.(k) in
  let before = snapshot ~timeout:60.0 listen in
  List.iter Thread.join (List.init clients (fun k -> Thread.create (client (note k)) k));
  let counters =
    match (before, snapshot ~timeout:60.0 listen) with
    | Error e, _ | _, Error e -> [ "stats query failed: " ^ e ]
    | Ok b, Ok a -> reconcile b a
  in
  let shutdown =
    if not shutdown_after then []
    else
      match Result.map Sjson.parse (call ~timeout:60.0 listen {|{"op": "shutdown"}|}) with
      | Ok (Ok j) when is_ok j -> []
      | Ok (Ok j) -> [ "shutdown refused: " ^ Sjson.to_string j ]
      | Ok (Error e) | Error e -> [ "shutdown failed: " ^ e ]
  in
  List.concat_map List.rev (Array.to_list failures) @ totals () @ counters @ shutdown

(* Each [(what, key, seen)]: counter [key] must have moved by exactly
   [seen]; a missing one is a problem when [required]. *)
let exact ?(required = true) before after checks =
  List.concat_map
    (fun (what, key, seen) ->
      match delta before after key with
      | Some d when d = seen -> []
      | Some d -> [ Printf.sprintf "daemon counted %d %s, clients observed %d" d what seen ]
      | None when required -> [ Printf.sprintf "stats reply has no %s counter" key ]
      | None -> [])
    checks

let loadgen listen ~clients ~requests ~invalid_every ~benchmark ~trace_len ~backends
    ~shutdown_after =
  let answered = Atomic.make 0 and ok = Atomic.make 0 and degraded = Atomic.make 0 in
  let shed = Atomic.make 0 and late = Atomic.make 0 and bad_request = Atomic.make 0 in
  let by_backend = List.map (fun b -> (b, Atomic.make 0)) Cbox_infer.backends in
  let is_valid j = invalid_every <= 0 || (j + 1) mod invalid_every <> 0 in
  (* Each request draws its backend by position, so one invocation always
     generates the same interleaving and the reconciliation is exact.
     Geometry varies per client and per request so the traffic spreads
     across a router's shards instead of collapsing onto one memoized key. *)
  let mix = Array.of_list (List.map Cbox_infer.backend_name backends) in
  let request k j =
    if is_valid j then
      Printf.sprintf
        "{\"op\": \"infer\", \"id\": \"c%d-%d\", \"sets\": %d, \"ways\": %d, \"benchmark\": \
         %S, \"trace_len\": %d%s}"
        k j
        (16 lsl (j mod 4))
        (1 + (k mod 8))
        benchmark trace_len
        (if mix = [||] then ""
         else Printf.sprintf ", \"backend\": %S" mix.((k + j) mod Array.length mix))
    else Printf.sprintf "{\"op\": \"infer\", \"id\": \"c%d-%d\"" k j
  in
  (* Replies come back in request order, so reply j answers request j: a
     valid request must echo its own id, a malformed one must come back as
     bad_request, and either may be an id-less overloaded shed. *)
  let check note k j line =
    let fail fmt = Printf.ksprintf note ("reply %d: " ^^ fmt) j in
    Atomic.incr answered;
    match Sjson.parse line with
    | Error e -> fail "server sent bad JSON (%s)" e
    | Ok json -> (
      let expect = Printf.sprintf "c%d-%d" k j in
      match (field Sjson.to_str "id" json, field Sjson.to_str "error" json) with
      | Some got, _ when got <> expect ->
        fail "id %S, expected %S — reordered or duplicated" got expect
      | Some _, None -> (
        Atomic.incr ok;
        (* Degraded answers (a backend fallback, or the router covering for
           dead shards) are successes, counted apart. *)
        if field Sjson.to_bool "degraded" json = Some true then Atomic.incr degraded;
        match field Sjson.to_str "backend" json with
        | None -> ()
        | Some b -> (
          match Cbox_infer.backend_of_string b with
          | Some b -> Atomic.incr (List.assoc b by_backend)
          | None -> fail "unknown backend %S" b))
      | Some _, Some "deadline_exceeded" ->
        (* Deadline-aware flushing under overload: an in-order, exactly-once
           answer, just an unhappy one. *)
        Atomic.incr late
      | Some _, Some err -> fail "unexpected error %S on a valid request" err
      | None, Some "overloaded" -> Atomic.incr shed
      | None, Some "bad_request" when not (is_valid j) -> Atomic.incr bad_request
      | None, err -> fail "unmatched reply (error %s)" (Option.value err ~default:"<none>"))
  in
  let client note k =
    match connect ~timeout:60.0 listen with
    | Error e -> note ("connect: " ^ e)
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* A third of the clients dribble line by line instead of
             bursting, to vary the interleavings the reactor sees. A failed
             write stops sending; the replies it cost show up as drops. *)
          let lines = List.init requests (request k) in
          if k mod 3 = 2 then
            ignore (List.for_all (fun l -> Thread.delay 0.001; send c l = Ok ()) lines)
          else if lines <> [] then ignore (send c (String.concat "\n" lines));
          let rec read j =
            if j < requests then
              match recv c with
              | Ok line ->
                check note k j line;
                read (j + 1)
              | Error Eof -> note (Printf.sprintf "reply %d: EOF — reply dropped" j)
              | Error e ->
                note (Printf.sprintf "reply %d: read failed (%s)" j (error_message e))
          in
          read 0)
  in
  let total = clients * requests and count = Atomic.get in
  let totals () =
    if count answered = total then []
    else
      [
        Printf.sprintf "answered %d of %d requests — replies were dropped" (count answered)
          total;
      ]
  in
  (* Every successful answer credits exactly one backend counter. Missing
     ones fail the run only when backends were requested. *)
  let reconcile before after =
    exact before after [ ("shed requests", "shed", count shed) ]
    @ (match delta before after "served" with
      | Some d when d < total - count shed ->
        [ Printf.sprintf "daemon served %d < answered-minus-shed %d" d (total - count shed) ]
      | Some _ -> []
      | None -> [ "stats reply has no served counter" ])
    @ exact ~required:(backends <> []) before after
        (List.map
           (fun (b, c) ->
             (Cbox_infer.backend_name b ^ " answers", Serve_engine.backend_counter b, count c))
           by_backend)
  in
  let problems =
    run_clients listen ~clients ~client ~totals ~reconcile ~shutdown_after
  in
  {
    answered = count answered;
    ok = count ok;
    degraded = count degraded;
    bad_request = count bad_request;
    shed = count shed;
    late = count late;
    per_backend = List.map (fun (b, c) -> (b, count c)) by_backend;
    problems;
  }

(* Streaming load: a third of the clients die halfway and resume on a fresh
   connection (k mod 3 = 1), a third send one chunk past their credit and
   expect the typed shed (k mod 3 = 2), the rest stream cleanly. *)
let loadgen_stream listen ~clients ~windows ~shutdown_after =
  let delivered = Atomic.make 0 and resumes = Atomic.make 0 and sheds = Atomic.make 0 in
  let client note k =
    let exception Fatal in
    let must what = function
      | Ok v -> v
      | Error f ->
        note (what ^ ": " ^ Stream.failure_message f);
        raise Fatal
    in
    let conn = ref None in
    let connect () =
      match connect ~timeout:60.0 listen with
      | Error e -> must "connect" (Error (Stream.Protocol e))
      | Ok c ->
        Option.iter close !conn;
        conn := Some c;
        c
    in
    Fun.protect
      ~finally:(fun () -> Option.iter close !conn)
      (fun () ->
        try
          let s, opened =
            must "open"
              (Stream.open_ (connect ())
                 ~sets:(16 lsl (k mod 4))
                 ~ways:(1 + (k mod 8))
                 ~on_window:(fun _ _ -> Atomic.incr delivered))
          in
          let int name = Option.value (field Sjson.to_int name opened) ~default:0 in
          let step_accesses = int "step_accesses" and chunk = 512 in
          (* A deterministic trace: the resumed half regenerates the same
             addresses from the server's consumed position. *)
          let trace =
            Array.init
              (int "accesses_per_image" + ((windows - 1) * step_accesses))
              (fun i -> (i * 2654435761) lxor (k * 40503) land 0xFFFFF)
          in
          let feed () = ignore (must "feed" (Stream.feed s trace ~chunk)) in
          (match k mod 3 with
          | 1 ->
            (* Die abruptly halfway, with no feed in flight. *)
            while s.Stream.delivered < windows / 2 do
              feed ()
            done;
            if s.Stream.delivered < windows then begin
              ignore (must "resume" (Stream.reattach s (connect ())));
              Atomic.incr resumes
            end
          | 2 ->
            feed ();
            (* A chunk past the credit must shed, typed, and apply nothing. *)
            if s.Stream.delivered < windows then begin
              let n = s.Stream.credit + step_accesses + 1 in
              match
                Stream.exchange s.Stream.conn
                  (Printf.sprintf
                     "{\"op\": \"stream_feed\", \"session\": %S, \"seq\": -1, \"addrs\": [%s]}"
                     s.Stream.token
                     (String.concat "," (List.init n (fun _ -> "1"))))
              with
              | Error (Stream.Rejected j) when error_code j = Some Serve_error.Overloaded ->
                Atomic.incr sheds
              | Ok j | Error (Stream.Rejected j) ->
                note ("over-credit chunk was not shed: " ^ Sjson.to_string j)
              | Error f -> must "probe" (Error f)
            end
          | _ -> ());
          ignore (must "feed" (Stream.pour s trace ~chunk))
        with Fatal -> ())
  in
  let count = Atomic.get in
  let totals () =
    if count delivered = clients * windows then []
    else
      [ Printf.sprintf "received %d windows, expected %d" (count delivered) (clients * windows) ]
  in
  let reconcile before after =
    exact before after
      [
        ("stream opens", "stream.opened", clients);
        ("stream closes", "stream.closed", clients);
        ("streamed windows", "stream.windows", count delivered);
        ("credit sheds", "stream.shed_credit", count sheds);
        ("resumes", "stream.resumed", count resumes);
      ]
  in
  {
    windows = count delivered;
    resumes = count resumes;
    credit_sheds = count sheds;
    stream_problems = run_clients listen ~clients ~client ~totals ~reconcile ~shutdown_after;
  }
