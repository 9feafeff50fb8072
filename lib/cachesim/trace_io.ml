let binary_magic_v1 = "CBTRACE1"
let binary_magic = "CBTRACE2"

(* Addresses above 2^52 cannot survive the float64 paths downstream (heatmap
   pixel coordinates, JSON interchange) and never occur in real traces; the
   bound doubles as a corruption tripwire for v1 files, which carry no
   checksum. *)
let max_address = 1 lsl 52

(* Both writers go through a temp file + rename so a crash (or full disk)
   mid-write never leaves a truncated trace under the target name. *)
let atomic_write path ~binary write_to =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".trace" ".tmp" in
  match
    let oc = if binary then open_out_bin tmp else open_out tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_to oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let check_writable_address a =
  if a < 0 || a > max_address then
    invalid_arg (Printf.sprintf "Trace_io: address 0x%x out of range" a)

let write_text path trace =
  Array.iter check_writable_address trace;
  atomic_write path ~binary:false (fun oc ->
      Array.iter (fun a -> Printf.fprintf oc "0x%x\n" a) trace)

let parse_hex_line line lineno =
  let s = String.trim line in
  let s = if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  match int_of_string_opt ("0x" ^ s) with
  | Some v when v >= 0 && v <= max_address -> v
  | Some _ | None ->
    failwith (Printf.sprintf "Trace_io.read_text: malformed address at line %d" lineno)

let read_text path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let out = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let trimmed = String.trim line in
           if trimmed <> "" && trimmed.[0] <> '#' then
             out := parse_hex_line trimmed !lineno :: !out
         done
       with End_of_file -> ());
      Array.of_list (List.rev !out))

(* v2 ("CBTRACE2") layout:
     magic                      8 bytes
     count                      u64 LE
     CRC-32 (IEEE) of payload   u32 LE
     payload                    count * s64 LE addresses
   v1 ("CBTRACE1") had no checksum (magic, u64 count, addresses); it is
   still readable, with a per-address range check as the only corruption
   defence it admits. New files are always v2: any single corrupted byte
   surfaces as a clean [Failure] instead of a silently different trace. *)
let write_binary path trace =
  Array.iter check_writable_address trace;
  let payload = Buffer.create (8 * Array.length trace) in
  Array.iter (fun a -> Buffer.add_int64_le payload (Int64.of_int a)) trace;
  let payload = Buffer.contents payload in
  atomic_write path ~binary:true (fun oc ->
      output_string oc binary_magic;
      let hdr = Bytes.create 12 in
      Bytes.set_int64_le hdr 0 (Int64.of_int (Array.length trace));
      Bytes.set_int32_le hdr 8 (Int32.of_int (Crc32.digest payload));
      output_bytes oc hdr;
      output_string oc payload)

let check_read_address a =
  if a < 0 || a > max_address then
    failwith (Printf.sprintf "Trace_io.read_binary: address out of range (corrupt trace)")
  else a

let read_binary path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let mlen = String.length binary_magic in
      if len < mlen + 8 then failwith "Trace_io.read_binary: file too short";
      let magic = really_input_string ic mlen in
      let v2 = magic = binary_magic in
      if (not v2) && magic <> binary_magic_v1 then
        failwith "Trace_io.read_binary: bad magic";
      let buf = Bytes.create 8 in
      really_input ic buf 0 8;
      let count = Int64.to_int (Bytes.get_int64_le buf 0) in
      let header = mlen + 8 + if v2 then 4 else 0 in
      (* Compared with the addresses the file can hold, not multiplied:
         [8 * count] wraps for a count of 2^60 or more. *)
      if count < 0 || len < header || count > (len - header) / 8 then
        failwith "Trace_io.read_binary: truncated payload";
      let expected = header + (8 * count) in
      if len > expected then
        failwith
          (Printf.sprintf
             "Trace_io.read_binary: %d trailing byte(s) after the declared %d accesses \
              (corrupt or mis-written trace)"
             (len - expected) count);
      if v2 then begin
        really_input ic buf 0 4;
        let stored_crc = Int32.to_int (Bytes.get_int32_le buf 0) land 0xFFFFFFFF in
        let payload = really_input_string ic (8 * count) in
        if Crc32.digest payload <> stored_crc then
          failwith "Trace_io.read_binary: checksum mismatch (corrupt trace)";
        Array.init count (fun i ->
            check_read_address (Int64.to_int (String.get_int64_le payload (8 * i))))
      end
      else
        Array.init count (fun _ ->
            really_input ic buf 0 8;
            check_read_address (Int64.to_int (Bytes.get_int64_le buf 0))))

let read_auto path =
  let probe =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        really_input_string ic (min (in_channel_length ic) (String.length binary_magic)))
  in
  let is_partial_magic m =
    String.length probe > 0
    && String.length probe < String.length m
    && String.equal probe (String.sub m 0 (String.length probe))
  in
  if String.equal probe binary_magic || String.equal probe binary_magic_v1 then
    read_binary path
  else if is_partial_magic binary_magic || is_partial_magic binary_magic_v1 then
    (* "C", "CB", ... with nothing after: a binary trace truncated inside
       its magic, not a one-line text trace that happens to be hex. *)
    failwith "Trace_io.read_auto: truncated binary trace (partial magic)"
  else read_text path
