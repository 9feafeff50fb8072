let max_sets = 1 lsl 22
let max_ways = 1024
let max_block = 65536
let default_max_trace_len = 2_000_000

(* A requested deadline must lie in (0, 600 s]; it is served with at most
   60 s of budget, by a daemon and a router alike. *)
let max_deadline_s = 600.0
let deadline_cap_s = 60.0

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let err code fmt = Printf.ksprintf (fun m -> Error { Serve_error.code; message = m }) fmt

let cache_config ?(block_bytes = 64) ?(policy = Cache.Lru) ~sets ~ways () =
  if not (is_power_of_two sets) then
    err Serve_error.Invalid_config "sets must be a power of two (got %d)" sets
  else if sets > max_sets then
    err Serve_error.Invalid_config "sets too large (got %d, max %d)" sets max_sets
  else if ways <= 0 then
    err Serve_error.Invalid_config "ways must be positive (got %d)" ways
  else if ways > max_ways then
    err Serve_error.Invalid_config "ways too large (got %d, max %d)" ways max_ways
  else if not (is_power_of_two block_bytes) then
    err Serve_error.Invalid_config "block_bytes must be a power of two (got %d)" block_bytes
  else if block_bytes < 8 || block_bytes > max_block then
    err Serve_error.Invalid_config "block_bytes out of range [8, %d] (got %d)" max_block
      block_bytes
  else
    (* The constructor re-checks the structural invariants; any residual
       Invalid_argument is still mapped, so this function is total. *)
    match Cache.config ~block_bytes ~policy ~sets ~ways () with
    | cfg -> Ok cfg
    | exception Invalid_argument m -> err Serve_error.Invalid_config "%s" m

let hierarchy_configs configs =
  let rec go level = function
    | a :: (b :: _ as rest) ->
      if Cache.size_bytes b < Cache.size_bytes a then
        err Serve_error.Invalid_config
          "cache levels must grow outward: L%d (%s, %d B) is larger than L%d (%s, %d B)"
          level (Cache.config_name a) (Cache.size_bytes a) (level + 1) (Cache.config_name b)
          (Cache.size_bytes b)
      else go (level + 1) rest
    | _ -> Ok ()
  in
  go 1 configs

let trace ?(max_len = default_max_trace_len) ?(what = "trace") t =
  let n = Array.length t in
  if n = 0 then err Serve_error.Bad_request "%s is empty" what
  else if n > max_len then
    err Serve_error.Bad_request "%s too long (%d accesses, max %d)" what n max_len
  else begin
    let bad = ref (-1) in
    (try
       Array.iteri
         (fun i a ->
           if a < 0 || a > Trace_io.max_address then begin
             bad := i;
             raise Exit
           end)
         t
     with Exit -> ());
    if !bad >= 0 then
      err Serve_error.Bad_request "%s address at index %d out of range [0, 2^52]" what !bad
    else Ok ()
  end

let trace_for_spec spec ?max_len t =
  match trace ?max_len t with
  | Error _ as e -> e
  | Ok () ->
    let need = Heatmap.accesses_per_image spec in
    if Array.length t < need then
      err Serve_error.Bad_request
        "trace too short for the heatmap pipeline (%d accesses, need at least %d)"
        (Array.length t) need
    else Ok ()

let read_trace_file ?max_len path =
  if not (Sys.file_exists path) then
    err Serve_error.Corrupt_input "trace file %s does not exist" path
  else
    match Trace_io.read_auto path with
    | t -> (
      match trace ?max_len ~what:(Printf.sprintf "trace file %s" path) t with
      | Ok () -> Ok t
      | Error e ->
        (* The request named a readable file whose *content* is unusable
           (empty, over-limit, out-of-range addresses): that is corrupt
           input, not a malformed request. *)
        Error { e with Serve_error.code = Serve_error.Corrupt_input })
    | exception Failure m -> err Serve_error.Corrupt_input "%s" m
    | exception Sys_error m -> err Serve_error.Corrupt_input "%s" m

let load_checkpoint thunk =
  match thunk () with
  | v -> Ok v
  | exception Failure m -> err Serve_error.Model_unavailable "checkpoint rejected: %s" m
  | exception Sys_error m -> err Serve_error.Model_unavailable "checkpoint unreadable: %s" m

(* --- wire requests --- *)

type trace_source =
  | Inline of int array
  | Benchmark of { name : string; length : int }
  | File of string

let resolve_trace ~max_len = function
  | Inline arr -> Ok arr
  | Benchmark { name; length } -> (
    match Suite.find name with
    | w -> Ok (w.Workload.generate length)
    | exception Not_found -> err Serve_error.Bad_request "unknown benchmark %S" name)
  | File path -> read_trace_file ~max_len path

(* A stream chunk's payload survives validation even when it is broken:
   the session layer must see the fault (to poison that one session with a
   typed [corrupt_input]) rather than have the whole line bounce as a
   sessionless [bad_request]. Address range checks are likewise left to the
   session, which checks a whole chunk before applying any of it. *)
type feed_payload = Addrs of int array | Corrupt of string

type request =
  | Infer of {
      id : string option;
      sets : int;
      ways : int;
      source : trace_source;
      deadline_s : float option;
      backend : Cbox_infer.backend option;
    }
  | Health
  | Stats_request
  | Shutdown
  | Reload of { id : string option; checkpoint : string option }
  | Stream_open of { id : string option; sets : int; ways : int }
  | Stream_feed of {
      id : string option;
      session : string;
      seq : int option;
      ack : int option;
      payload : feed_payload;
    }
  | Stream_resume of { id : string option; session : string; last_window : int option }
  | Stream_close of { id : string option; session : string }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field_int json key =
  match Sjson.member key json with
  | None -> err Serve_error.Bad_request "missing required field %S" key
  | Some v -> (
    match Sjson.to_int v with
    | Some i -> Ok i
    | None -> err Serve_error.Bad_request "field %S must be an integer" key)

let opt_field json key conv kind =
  match Sjson.member key json with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> err Serve_error.Bad_request "field %S must be %s" key kind)

let req_str json key =
  match Sjson.member key json with
  | None -> err Serve_error.Bad_request "missing required field %S" key
  | Some v -> (
    match Sjson.to_str v with
    | Some s when s <> "" -> Ok s
    | Some _ -> err Serve_error.Bad_request "field %S must be non-empty" key
    | None -> err Serve_error.Bad_request "field %S must be a string" key)

let feed_payload json =
  match Sjson.member "addrs" json with
  | None -> Corrupt "missing required field \"addrs\""
  | Some v -> (
    match Sjson.to_list v with
    | None -> Corrupt "field \"addrs\" must be an array of addresses"
    | Some items -> (
      let n = List.length items in
      let arr = Array.make n 0 in
      let bad = ref None in
      List.iteri
        (fun i v ->
          match Sjson.to_int v with
          | Some a -> arr.(i) <- a
          | None -> if !bad = None then bad := Some i)
        items;
      match !bad with
      | Some i -> Corrupt (Printf.sprintf "\"addrs\" element %d is not an integer" i)
      | None -> Addrs arr))

let inline_trace ~max_trace_len items =
  let n = List.length items in
  if n > max_trace_len then
    err Serve_error.Bad_request "field \"trace\" too long (%d accesses, max %d)" n
      max_trace_len
  else begin
    let arr = Array.make n 0 in
    let bad = ref false in
    List.iteri
      (fun i v ->
        match Sjson.to_int v with
        | Some a -> arr.(i) <- a
        | None -> bad := true)
      items;
    if !bad then err Serve_error.Bad_request "field \"trace\" must contain only integers"
    else
      let* () = trace ~max_len:max_trace_len ~what:"field \"trace\"" arr in
      Ok (Inline arr)
  end

let infer_source ~max_trace_len json =
  let present k = Sjson.member k json <> None in
  let sources = List.filter present [ "trace"; "benchmark"; "trace_file" ] in
  match sources with
  | [ "trace" ] -> (
    match Sjson.to_list (Option.get (Sjson.member "trace" json)) with
    | Some items -> inline_trace ~max_trace_len items
    | None -> err Serve_error.Bad_request "field \"trace\" must be an array of addresses")
  | [ "benchmark" ] -> (
    match Sjson.to_str (Option.get (Sjson.member "benchmark" json)) with
    | None -> err Serve_error.Bad_request "field \"benchmark\" must be a string"
    | Some name ->
      let* length =
        match Sjson.member "trace_len" json with
        | None -> Ok 16_000
        | Some v -> (
          match Sjson.to_int v with
          | Some l when l >= 1 && l <= max_trace_len -> Ok l
          | Some l ->
            err Serve_error.Bad_request "field \"trace_len\" out of range [1, %d] (got %d)"
              max_trace_len l
          | None -> err Serve_error.Bad_request "field \"trace_len\" must be an integer")
      in
      Ok (Benchmark { name; length }))
  | [ "trace_file" ] -> (
    match Sjson.to_str (Option.get (Sjson.member "trace_file" json)) with
    | Some path -> Ok (File path)
    | None -> err Serve_error.Bad_request "field \"trace_file\" must be a string")
  | [] ->
    err Serve_error.Bad_request
      "infer needs a trace source: one of \"trace\", \"benchmark\" or \"trace_file\""
  | several ->
    err Serve_error.Bad_request "conflicting trace sources: %s"
      (String.concat ", " several)

let request ?(max_trace_len = default_max_trace_len) line =
  let* json =
    match Sjson.parse line with
    | Ok json -> Ok json
    | Error why -> err Serve_error.Bad_request "malformed JSON: %s" why
  in
  match json with
  | Sjson.Obj _ -> (
    match Sjson.member "op" json with
    | None -> err Serve_error.Bad_request "missing required field \"op\""
    | Some op -> (
      match Sjson.to_str op with
      | None -> err Serve_error.Bad_request "field \"op\" must be a string"
      | Some "health" -> Ok Health
      | Some "stats" -> Ok Stats_request
      | Some "shutdown" -> Ok Shutdown
      | Some "reload" ->
        let* id = opt_field json "id" Sjson.to_str "a string" in
        let* checkpoint = opt_field json "checkpoint" Sjson.to_str "a string" in
        Ok (Reload { id; checkpoint })
      | Some "infer" ->
        let* id = opt_field json "id" Sjson.to_str "a string" in
        let* sets = field_int json "sets" in
        let* ways = field_int json "ways" in
        let* source = infer_source ~max_trace_len json in
        let* deadline_s =
          match Sjson.member "deadline_ms" json with
          | None -> Ok None
          | Some v -> (
            match Sjson.to_float v with
            | Some ms when ms > 0.0 && ms <= max_deadline_s *. 1000.0 ->
              Ok (Some (Float.min deadline_cap_s (ms /. 1000.0)))
            | Some ms ->
              err Serve_error.Bad_request
                "field \"deadline_ms\" out of range (0, %g] (got %g)"
                (max_deadline_s *. 1000.0) ms
            | None -> err Serve_error.Bad_request "field \"deadline_ms\" must be a number")
        in
        let* backend =
          match Sjson.member "backend" json with
          | None -> Ok None
          | Some v -> (
            match Sjson.to_str v with
            | None -> err Serve_error.Bad_request "field \"backend\" must be a string"
            | Some s -> (
              match Cbox_infer.backend_of_string s with
              | Some b -> Ok (Some b)
              | None ->
                err Serve_error.Invalid_config
                  "unknown backend %S (expected float32, int8, student, student-int8, \
                   hrd or stm)" s))
        in
        Ok (Infer { id; sets; ways; source; deadline_s; backend })
      | Some "stream_open" ->
        let* id = opt_field json "id" Sjson.to_str "a string" in
        let* sets = field_int json "sets" in
        let* ways = field_int json "ways" in
        Ok (Stream_open { id; sets; ways })
      | Some "stream_feed" ->
        let* id = opt_field json "id" Sjson.to_str "a string" in
        let* session = req_str json "session" in
        let* seq = opt_field json "seq" Sjson.to_int "an integer" in
        let* ack = opt_field json "ack" Sjson.to_int "an integer" in
        Ok (Stream_feed { id; session; seq; ack; payload = feed_payload json })
      | Some "stream_resume" ->
        let* id = opt_field json "id" Sjson.to_str "a string" in
        let* session = req_str json "session" in
        let* last_window = opt_field json "last_window" Sjson.to_int "an integer" in
        Ok (Stream_resume { id; session; last_window })
      | Some "stream_close" ->
        let* id = opt_field json "id" Sjson.to_str "a string" in
        let* session = req_str json "session" in
        Ok (Stream_close { id; session })
      | Some other -> err Serve_error.Bad_request "unknown op %S" other))
  | _ -> err Serve_error.Bad_request "request must be a JSON object"
