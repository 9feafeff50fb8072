(* Append-only JSONL run journal.

   Every event is one JSON object per line, flushed immediately, so a crash
   mid-run loses at most the event being written and a journal can be tailed
   while the run is live. A journal is shared by threads and domains (a
   daemon's batcher, reactor and reload threads all write to it), so each
   event is written whole under the journal's own lock. Lines are written
   and read back with [Sjson], the serving protocol's codec: a line that
   does not parse (one cut short by a crash mid-write) is no event at all. *)

type value = S of string | I of int | F of float | B of bool

type t = { path : string; oc : out_channel; m : Mutex.t }

(* Integers print exactly up to 2^53, far past any count a journal carries. *)
let json_of_value = function
  | S s -> Sjson.Str s
  | I i -> Sjson.Num (float_of_int i)
  | F f -> Sjson.Num f
  | B b -> Sjson.Bool b

let create path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  { path; oc; m = Mutex.create () }

let path t = t.path

(* The timestamp is taken under the lock too, so lines are in [ts] order. *)
let event t kind fields =
  Mutex.protect t.m (fun () ->
      let fields =
        ("ts", Sjson.Num (Unix.gettimeofday ()))
        :: ("event", Sjson.Str kind)
        :: List.map (fun (k, v) -> (k, json_of_value v)) fields
      in
      output_string t.oc (Sjson.to_string (Sjson.Obj fields));
      output_char t.oc '\n';
      flush t.oc)

let close t = Mutex.protect t.m (fun () -> close_out t.oc)

let with_journal path f =
  let t = create path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --- read-back --- *)

let field line key =
  match Sjson.parse line with
  | Ok json -> Option.bind (Sjson.member key json) Sjson.to_str
  | Error _ -> None

let events ?kind path =
  let all =
    if Sys.file_exists path then In_channel.with_open_text path In_channel.input_lines
    else []
  in
  match kind with
  | None -> all
  | Some k -> List.filter (fun l -> field l "event" = Some k) all

let completed_drivers path =
  List.filter_map (fun l -> field l "driver") (events ~kind:"driver_end" path)
