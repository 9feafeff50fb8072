(* Live trace streaming sessions: bounded buffering with explicit credit,
   global quotas, check-then-apply chunks and per-session fault
   containment.

   One manager owns every session behind a daemon. All entry points run on
   the daemon's batcher thread: {!handle}, the sweep, and the window
   completion callbacks of the batches it runs. A single manager mutex
   guards the registry and all session state — the critical sections are
   small (no model work, no I/O) so contention is negligible next to
   inference.

   Lock ordering: the manager lock may be taken first and engine/reactor
   locks acquired under it (stats recording, ticket resolution); nothing in
   the engine or reactor ever calls back into the manager, so the order is
   acyclic. *)

type config = {
  max_sessions : int;
  retain_windows : int;
  max_pending_windows : int;
  max_bytes : int;
  session_ttl_s : float;
}

let default_config =
  {
    max_sessions = 64;
    retain_windows = 8;
    max_pending_windows = 256;
    max_bytes = 64 * 1024 * 1024;
    session_ttl_s = 300.0;
  }

type session = {
  token : string;
  cache : Cache.config;
  accum : Heatmap.Accum.t;
  tail : int array;
      (* ring of the last [accesses_per_image] addresses fed, indexed by
         stream position mod its length. A window completing at image index
         c spans positions [c*step, c*step+apw): exactly the ring's live
         contents at the moment of completion, so the window's own trace
         (for the HRD/STM degradation path) is recoverable without keeping
         the stream. *)
  mutable retained : (int * Sjson.t) list;  (* un-acked window results, ascending *)
  mutable poisoned : Serve_error.t option;
  mutable conn : int;  (* reactor connection this session is bound to *)
  mutable last_seen : float;
  mutable inflight : int;  (* windows submitted to the batcher, not yet resolved *)
  bytes : int;  (* fixed footprint estimate, charged against the global quota *)
}

type t = {
  cfg : config;
  engine : Serve_engine.t;
  m : Mutex.t;
  sessions : (string, session) Hashtbl.t;
  mutable next_token : int;
  mutable pending : int;  (* global in-flight windows across sessions *)
  mutable bytes : int;  (* summed session footprints *)
  mutable opened : int;
  mutable resumed : int;
  mutable closed : int;
  mutable windows : int;  (* windows completed (inferred or quota-degraded) *)
  mutable degraded_quota : int;
  mutable shed_credit : int;
  mutable shed_quota : int;
  mutable poison_count : int;
  mutable evicted : int;
}

(* A feed's completion group: the feed reply resolves only once every
   window the chunk closed has its result, so the reactor's one-reply-per-
   line contract holds and per-connection FIFO order is preserved. *)
type group = {
  g_token : string;
  g_id : string option;
  g_seq : int option;
  mutable g_waiting : int;
  mutable g_windows : (int * Sjson.t) list;
  g_resolve : Sjson.t -> unit;
}

(* One session's footprint, charged against [max_bytes]: the accumulator's
   column ring and open-window histogram, the tail ring, and slack for the
   retention ring's scalar records. *)
let session_bytes spec =
  (8 * (((spec.Heatmap.width + 1) * spec.Heatmap.height) + Heatmap.accesses_per_image spec))
  + 4096

let create ?(config = default_config) engine =
  if config.max_sessions <= 0 then invalid_arg "Stream_session.create: max_sessions";
  if config.retain_windows <= 0 then invalid_arg "Stream_session.create: retain_windows";
  if config.max_pending_windows <= 0 then
    invalid_arg "Stream_session.create: max_pending_windows";
  if config.session_ttl_s <= 0.0 then invalid_arg "Stream_session.create: session_ttl_s";
  let footprint = session_bytes (Serve_engine.spec engine) in
  if config.max_bytes < footprint then
    invalid_arg
      (Printf.sprintf
         "Stream_session.create: max_bytes %d is below one session's footprint (%d bytes)"
         config.max_bytes footprint);
  {
    cfg = config;
    engine;
    m = Mutex.create ();
    sessions = Hashtbl.create 16;
    next_token = 0;
    pending = 0;
    bytes = 0;
    opened = 0;
    resumed = 0;
    closed = 0;
    windows = 0;
    degraded_quota = 0;
    shed_credit = 0;
    shed_quota = 0;
    poison_count = 0;
    evicted = 0;
  }

let num n = Sjson.Num (float_of_int n)

let with_fields json extra =
  match json with Sjson.Obj fs -> Sjson.Obj (fs @ extra) | j -> j

(* Strip a per-window engine reply down to the fields a window entry
   carries: the prediction and its provenance, not the transport framing. *)
let window_json ~index reply =
  let keep = [ "hit_rate"; "degraded"; "source"; "backend"; "reason"; "error"; "message" ] in
  let fields =
    match reply with
    | Sjson.Obj fs -> List.filter (fun (k, _) -> List.mem k keep) fs
    | _ -> []
  in
  Sjson.Obj (("window", num index) :: fields)

(* Credit, in accesses: how much more the client may pour before windows
   could outrun the retention ring. With [rem] retention slots free the
   client may close at most [rem] more windows, i.e. feed up to the end of
   window [completed + rem - 1]. Window c completes at stream position
   apw + c*step, so the grant is the distance to the next completion plus
   (rem-1) full steps. *)
let credit_locked mgr s =
  let spec = Serve_engine.spec mgr.engine in
  let apw = Heatmap.accesses_per_image spec in
  let step = Heatmap.step_accesses spec in
  let outstanding = List.length s.retained + s.inflight in
  let rem = mgr.cfg.retain_windows - outstanding in
  if rem <= 0 then 0
  else
    let fed = Heatmap.Accum.fed s.accum in
    let next_done = apw + (Heatmap.Accum.completed s.accum * step) in
    next_done - fed + ((rem - 1) * step)

let session_fields mgr s =
  [
    ("session", Sjson.Str s.token);
    ("consumed", num (Heatmap.Accum.fed s.accum));
    ("next_window", num (Heatmap.Accum.completed s.accum));
    ("credit", num (credit_locked mgr s));
  ]

let id_field = function None -> [] | Some id -> [ ("id", Sjson.Str id) ]
let seq_field = function None -> [] | Some s -> [ ("seq", num s) ]

let journal mgr kind s extra =
  Serve_engine.journal mgr.engine kind (("session", Runlog.S s.token) :: extra)

let sweep_locked mgr ~now =
  let dead =
    Hashtbl.fold
      (fun tok s acc ->
        if s.inflight = 0 && now -. s.last_seen > mgr.cfg.session_ttl_s then
          (tok, s) :: acc
        else acc)
      mgr.sessions []
  in
  List.iter
    (fun ((tok : string), (s : session)) ->
      Hashtbl.remove mgr.sessions tok;
      mgr.bytes <- mgr.bytes - s.bytes;
      mgr.evicted <- mgr.evicted + 1;
      journal mgr "stream_evict" s
        [ ("idle_s", Runlog.F (now -. s.last_seen)); ("retained", Runlog.I (List.length s.retained)) ])
    dead

let sweep mgr =
  Mutex.protect mgr.m (fun () -> sweep_locked mgr ~now:(Serve_engine.now mgr.engine))

(* --- window completion --- *)

let insert_sorted (w, j) retained =
  let rec go = function
    | [] -> [ (w, j) ]
    | (w', _) :: _ as rest when w < w' -> (w, j) :: rest
    | hd :: rest -> hd :: go rest
  in
  go retained

(* Record one window's result into its feed group (and the session's
   retention ring for resume replay); the last window to land builds and
   resolves the feed reply. Lock held. *)
let complete_window_locked mgr g index wjson =
  (match Hashtbl.find_opt mgr.sessions g.g_token with
  | Some s -> s.retained <- insert_sorted (index, wjson) s.retained
  | None -> () (* session closed/evicted mid-flight: nothing to retain *));
  g.g_windows <- (index, wjson) :: g.g_windows;
  g.g_waiting <- g.g_waiting - 1;
  if g.g_waiting = 0 then begin
    let ws =
      List.sort (fun (a, _) (b, _) -> compare a b) g.g_windows |> List.map snd
    in
    let tail =
      match Hashtbl.find_opt mgr.sessions g.g_token with
      | Some s -> session_fields mgr s
      | None -> [ ("session", Sjson.Str g.g_token) ]
    in
    g.g_resolve
      (Sjson.Obj
         ([ ("ok", Sjson.Bool true); ("op", Sjson.Str "stream_feed") ]
         @ id_field g.g_id @ seq_field g.g_seq
         @ tail
         @ [ ("windows", Sjson.Arr ws) ]))
  end

(* Completion callback for a window that went through the batcher; runs
   when the batcher thread finishes the window's batch. *)
let on_window_reply mgr g index reply =
  Mutex.protect mgr.m (fun () ->
      mgr.pending <- mgr.pending - 1;
      (match Hashtbl.find_opt mgr.sessions g.g_token with
      | Some s -> s.inflight <- s.inflight - 1
      | None -> ());
      complete_window_locked mgr g index (window_json ~index reply))

(* --- ops --- *)

let unknown_session mgr ?id ~arrival token =
  Serve_engine.error_reply_counted ?id mgr.engine ~arrival
    (Serve_error.v Serve_error.Bad_request "unknown session %S" token)

let open_session mgr ~conn ~arrival ~resolve ~exempt ~id ~sets ~ways =
  let reply =
    Mutex.protect mgr.m (fun () ->
        let now = Serve_engine.now mgr.engine in
        sweep_locked mgr ~now;
        if Hashtbl.length mgr.sessions >= mgr.cfg.max_sessions then begin
          mgr.shed_quota <- mgr.shed_quota + 1;
          `Err
            (Serve_engine.shed_reply ?id ~why:"stream_sessions" mgr.engine
               (Serve_error.v Serve_error.Overloaded
                  "session quota reached (%d live sessions)" mgr.cfg.max_sessions))
        end
        else
          match Validate.cache_config ~sets ~ways () with
          | Error e -> `Err (Serve_engine.error_reply_counted ?id mgr.engine ~arrival e)
          | Ok cache ->
            let spec = Serve_engine.spec mgr.engine in
            let apw = Heatmap.accesses_per_image spec in
            let bytes = session_bytes spec in
            if mgr.bytes + bytes > mgr.cfg.max_bytes then begin
              mgr.shed_quota <- mgr.shed_quota + 1;
              `Err
                (Serve_engine.shed_reply ?id ~why:"stream_bytes" mgr.engine
                   (Serve_error.v Serve_error.Overloaded
                      "session memory quota reached (%d of %d bytes)" mgr.bytes
                      mgr.cfg.max_bytes))
            end
            else begin
              mgr.next_token <- mgr.next_token + 1;
              let token =
                Printf.sprintf "s%d-%08x" mgr.next_token
                  (Crc32.digest (Printf.sprintf "%d:%.9f" mgr.next_token now)
                  land 0xFFFFFFFF)
              in
              let s =
                {
                  token;
                  cache;
                  accum = Heatmap.Accum.create spec;
                  tail = Array.make apw 0;
                  retained = [];
                  poisoned = None;
                  conn;
                  last_seen = now;
                  inflight = 0;
                  bytes;
                }
              in
              Hashtbl.replace mgr.sessions token s;
              mgr.bytes <- mgr.bytes + bytes;
              mgr.opened <- mgr.opened + 1;
              journal mgr "stream_open" s [ ("conn", Runlog.I conn) ];
              `Ok
                (Serve_engine.ok_counted mgr.engine ~arrival
                   (Sjson.Obj
                      ([ ("ok", Sjson.Bool true); ("op", Sjson.Str "stream_open") ]
                      @ id_field id @ session_fields mgr s
                      @ [
                          ("height", num spec.Heatmap.height);
                          ("width", num spec.Heatmap.width);
                          ("window", num spec.Heatmap.window);
                          ("accesses_per_image", num apw);
                          ("step_accesses", num (Heatmap.step_accesses spec));
                          ("retain_windows", num mgr.cfg.retain_windows);
                        ])))
            end)
  in
  match reply with
  | `Ok json ->
    exempt ();
    resolve json
  | `Err json -> resolve json

(* An error reply that still tells the client where its session stands. *)
let session_error mgr s ?id ~arrival e =
  `Resolve
    (with_fields
       (Serve_engine.error_reply_counted ?id mgr.engine ~arrival e)
       (session_fields mgr s))

let poison_locked mgr s ?id ~arrival e =
  s.poisoned <- Some e;
  mgr.poison_count <- mgr.poison_count + 1;
  journal mgr "stream_poisoned" s [ ("reason", Runlog.S e.Serve_error.message) ];
  session_error mgr s ?id ~arrival e

(* Apply one admitted chunk, checking before applying: every address is
   range-checked before any is fed, so a bad one poisons the session with
   nothing applied — neighbours never see the fault, and [consumed] in the
   reply is the chunk boundary the client replays from after resuming.
   Windows the chunk closes are collected while it is fed and dispatched
   once all of it is in. Lock held. *)
let apply_chunk mgr s ~arrival ~resolve ~id ~seq addrs =
  match Array.find_index (fun a -> a < 0 || a > Trace_io.max_address) addrs with
  | Some i ->
    poison_locked mgr s ?id ~arrival
      (Serve_error.v Serve_error.Corrupt_input
         "address %d at chunk offset %d out of range [0, 2^52]" addrs.(i) i)
  | None ->
    let spec = Serve_engine.spec mgr.engine in
    let apw = Heatmap.accesses_per_image spec in
    let step = Heatmap.step_accesses spec in
    let closed = ref [] in
    Array.iter
      (fun a ->
        s.tail.(Heatmap.Accum.fed s.accum mod apw) <- a;
        let before = Heatmap.Accum.completed s.accum in
        Heatmap.Accum.add s.accum ~addr:a ~mask:1;
        if Heatmap.Accum.completed s.accum > before then begin
          (* Extract the window's own trace NOW — a later window in the
             same chunk overwrites these ring positions. *)
          let trace = Array.init apw (fun k -> s.tail.(((before * step) + k) mod apw)) in
          match Heatmap.Accum.take_completed s.accum with
          | [ planes ] -> closed := (before, trace, planes.(0)) :: !closed
          | _ -> ()
        end)
      addrs;
    let closed = List.rev !closed in
    mgr.windows <- mgr.windows + List.length closed;
    if closed = [] then
      `Resolve
        (Serve_engine.ok_counted mgr.engine ~arrival
           (Sjson.Obj
              ([ ("ok", Sjson.Bool true); ("op", Sjson.Str "stream_feed") ]
              @ id_field id @ seq_field seq @ session_fields mgr s
              @ [ ("windows", Sjson.Arr []) ])))
    else begin
      let g =
        {
          g_token = s.token;
          g_id = id;
          g_seq = seq;
          g_waiting = List.length closed;
          g_windows = [];
          g_resolve = resolve;
        }
      in
      let items = ref [] in
      List.iter
        (fun (c, trace, access) ->
          if mgr.pending >= mgr.cfg.max_pending_windows then begin
            (* Over the global window quota: degrade this window to the
               analytical baseline right here — the existing ladder rung —
               instead of deepening the backlog. *)
            mgr.degraded_quota <- mgr.degraded_quota + 1;
            let rj =
              Serve_engine.degraded_reply mgr.engine ~arrival
                ~reason:"stream_window_quota" s.cache trace
            in
            complete_window_locked mgr g c (window_json ~index:c rj)
          end
          else begin
            mgr.pending <- mgr.pending + 1;
            s.inflight <- s.inflight + 1;
            let item =
              Serve_engine.stream_item mgr.engine ~arrival ~cache:s.cache ~trace
                ~access
            in
            items := (item, on_window_reply mgr g c) :: !items
          end)
        closed;
      `Submit (List.rev !items)
    end

let feed mgr ~conn ~arrival ~resolve ~submit ~id ~token ~seq ~ack ~payload =
  let action =
    Mutex.protect mgr.m (fun () ->
        match Hashtbl.find_opt mgr.sessions token with
        | None -> `Resolve (unknown_session mgr ?id ~arrival token)
        | Some s ->
          s.last_seen <- Serve_engine.now mgr.engine;
          if s.conn <> conn then
            `Resolve
              (with_fields
                 (Serve_engine.error_reply_counted ?id mgr.engine ~arrival
                    (Serve_error.v Serve_error.Bad_request
                       "session %S is bound to another connection; stream_resume to re-attach"
                       token))
                 [ ("session", Sjson.Str token) ])
          else begin
            (match ack with
            | Some a -> s.retained <- List.filter (fun (w, _) -> w > a) s.retained
            | None -> ());
            match s.poisoned with
            | Some e ->
              (* Sticky: the fault stays contained to this session until
                 the client acknowledges it by resuming. *)
              session_error mgr s ?id ~arrival e
            | None -> (
              match payload with
              | Validate.Corrupt msg ->
                poison_locked mgr s ?id ~arrival
                  (Serve_error.v Serve_error.Corrupt_input "corrupt stream chunk: %s" msg)
              | Validate.Addrs addrs ->
                let credit = credit_locked mgr s in
                if Array.length addrs > credit then begin
                  mgr.shed_credit <- mgr.shed_credit + 1;
                  `Resolve
                    (with_fields
                       (Serve_engine.shed_reply ?id ~why:"stream_credit" mgr.engine
                          (Serve_error.v Serve_error.Overloaded
                             "chunk of %d accesses exceeds credit %d"
                             (Array.length addrs) credit))
                       (session_fields mgr s))
                end
                else apply_chunk mgr s ~arrival ~resolve ~id ~seq addrs)
          end)
  in
  match action with
  | `Resolve json -> resolve json
  | `Submit items -> List.iter (fun (item, cb) -> submit item cb) items

let resume mgr ~conn ~arrival ~resolve ~exempt ~id ~token ~last_window =
  let reply =
    Mutex.protect mgr.m (fun () ->
        match Hashtbl.find_opt mgr.sessions token with
        | None -> `Err (unknown_session mgr ?id ~arrival token)
        | Some s ->
          s.last_seen <- Serve_engine.now mgr.engine;
          (* Re-bind to the new connection; clear any poison — the chunk
             that raised it applied nothing, so [consumed] below is the
             exact replay point. *)
          s.conn <- conn;
          s.poisoned <- None;
          (match last_window with
          | Some lw -> s.retained <- List.filter (fun (w, _) -> w > lw) s.retained
          | None -> ());
          mgr.resumed <- mgr.resumed + 1;
          journal mgr "stream_resume" s
            [ ("conn", Runlog.I conn); ("pending", Runlog.I s.inflight) ];
          `Ok
            (Serve_engine.ok_counted mgr.engine ~arrival
               (Sjson.Obj
                  ([ ("ok", Sjson.Bool true); ("op", Sjson.Str "stream_resume") ]
                  @ id_field id @ session_fields mgr s
                  @ [
                      (* Windows still in the batcher: their results land in
                         the retention ring as they finish — poll resume
                         until [pending] is 0 to collect them. *)
                      ("pending", num s.inflight);
                      ("windows", Sjson.Arr (List.map snd s.retained));
                    ]))))
  in
  match reply with
  | `Ok json ->
    exempt ();
    resolve json
  | `Err json -> resolve json

let close mgr ~arrival ~resolve ~id ~token =
  resolve
    (Mutex.protect mgr.m (fun () ->
         match Hashtbl.find_opt mgr.sessions token with
         | None -> unknown_session mgr ?id ~arrival token
         | Some s ->
           Hashtbl.remove mgr.sessions token;
           mgr.bytes <- mgr.bytes - s.bytes;
           mgr.closed <- mgr.closed + 1;
           journal mgr "stream_close" s
             [ ("windows", Runlog.I (Heatmap.Accum.completed s.accum)) ];
           Serve_engine.ok_counted mgr.engine ~arrival
             (Sjson.Obj
                ([ ("ok", Sjson.Bool true); ("op", Sjson.Str "stream_close") ]
                @ id_field id
                @ [
                    ("session", Sjson.Str token);
                    ("consumed", num (Heatmap.Accum.fed s.accum));
                    ("windows", num (Heatmap.Accum.completed s.accum));
                  ]))))

let handle mgr ~conn ~arrival ~submit ~resolve ~exempt (req : Validate.request) =
  (* Guard against double resolution: a feed that submitted windows will be
     resolved by its completion group, and the catch-all below must not
     race it. First resolution wins; the rest are dropped. *)
  let once = ref false in
  let resolve json =
    if not !once then begin
      once := true;
      resolve json
    end
  in
  try
    match req with
    | Validate.Stream_open { id; sets; ways } ->
      open_session mgr ~conn ~arrival ~resolve ~exempt ~id ~sets ~ways
    | Validate.Stream_feed { id; session; seq; ack; payload } ->
      feed mgr ~conn ~arrival ~resolve ~submit ~id ~token:session ~seq ~ack ~payload
    | Validate.Stream_resume { id; session; last_window } ->
      resume mgr ~conn ~arrival ~resolve ~exempt ~id ~token:session ~last_window
    | Validate.Stream_close { id; session } ->
      close mgr ~arrival ~resolve ~id ~token:session
    | _ ->
      resolve
        (Serve_engine.error_reply_counted mgr.engine ~arrival
           (Serve_error.v Serve_error.Internal "not a stream request"))
  with e ->
    resolve (Serve_engine.error_reply_counted mgr.engine ~arrival (Serve_error.of_exn e))

let live_sessions mgr = Mutex.protect mgr.m (fun () -> Hashtbl.length mgr.sessions)
let pending_windows mgr = Mutex.protect mgr.m (fun () -> mgr.pending)
let buffered_bytes mgr = Mutex.protect mgr.m (fun () -> mgr.bytes)

let stats_fields mgr () =
  Mutex.protect mgr.m (fun () ->
      [
        ( "stream",
          Sjson.Obj
            [
              ("sessions", num (Hashtbl.length mgr.sessions));
              ("opened", num mgr.opened);
              ("resumed", num mgr.resumed);
              ("closed", num mgr.closed);
              ("windows", num mgr.windows);
              ("pending", num mgr.pending);
              ("bytes", num mgr.bytes);
              ("degraded_quota", num mgr.degraded_quota);
              ("shed_credit", num mgr.shed_credit);
              ("shed_quota", num mgr.shed_quota);
              ("poisoned", num mgr.poison_count);
              ("evicted", num mgr.evicted);
            ] );
      ])
