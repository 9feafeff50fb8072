(* Append-only JSONL run journal.

   Every event is one JSON object per line, flushed immediately, so a crash
   mid-run loses at most the event being written and a journal can be tailed
   while the run is live. A journal is shared by threads and domains (a
   daemon's batcher, reactor and reload threads all write to it), so each
   event is written whole under the journal's own lock. The reader side is
   deliberately minimal: we only ever read back journals this module wrote,
   and only to answer "which events of kind K happened, and with which
   fields" -- enough to make an experiment sweep resumable per-driver. *)

type value = S of string | I of int | F of float | B of bool

type t = { path : string; oc : out_channel; m : Mutex.t }

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_json = function
  | S s -> "\"" ^ escape s ^ "\""
  | I i -> string_of_int i
  | F f ->
    if Float.is_nan f then "\"nan\""
    else if f = Float.infinity then "\"inf\""
    else if f = Float.neg_infinity then "\"-inf\""
    else Printf.sprintf "%.17g" f
  | B b -> if b then "true" else "false"

let create path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  { path; oc; m = Mutex.create () }

let path t = t.path

(* The timestamp is taken under the lock too, so lines are in [ts] order. *)
let event t kind fields =
  Mutex.protect t.m (fun () ->
      let fields = ("ts", F (Unix.gettimeofday ())) :: ("event", S kind) :: fields in
      let line =
        "{"
        ^ String.concat ", "
            (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ value_to_json v) fields)
        ^ "}"
      in
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t = Mutex.protect t.m (fun () -> close_out t.oc)

let with_journal path f =
  let t = create path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --- read-back --- *)

let lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let out = ref [] in
        (try
           while true do
             out := input_line ic :: !out
           done
         with End_of_file -> ());
        List.rev !out)
  end

(* Extracts the string value of ["key": "..."] from a line this module
   wrote. Only used on our own output, where keys are plain identifiers. *)
let field line key =
  let needle = "\"" ^ key ^ "\": \"" in
  let nlen = String.length needle in
  let llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then begin
      let buf = Buffer.create 16 in
      let rec copy j =
        if j >= llen then None
        else
          match line.[j] with
          | '"' -> Some (Buffer.contents buf)
          | '\\' when j + 1 < llen ->
            (match line.[j + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | c -> Buffer.add_char buf c);
            copy (j + 2)
          | c ->
            Buffer.add_char buf c;
            copy (j + 1)
      in
      copy (i + nlen)
    end
    else find (i + 1)
  in
  find 0

let events ?kind path =
  let all = lines path in
  match kind with
  | None -> all
  | Some k -> List.filter (fun l -> field l "event" = Some k) all

let completed_drivers path =
  List.filter_map (fun l -> field l "driver") (events ~kind:"driver_end" path)
