(* Checkpoint container ("CBOXCKPT2"):
     magic                      9 bytes
     payload length             u64 LE
     CRC-32 (IEEE) of payload   u32 LE
     payload:
       meta count               u32 LE
       meta entries             (klen, key, vlen, value) with u32 lengths
       entry count              u32 LE
       entries                  (nlen, name, ndims, dims..., float64 data)

   The checksum turns any single-byte corruption into a clean [Failure],
   and the float64 payload makes save/load an exact round-trip (required
   for bit-identical training resume). *)

let magic = "CBOXCKPT2"

(* CRC-32 lives in the shared [Crc32] module (lib/tensor) so the trace
   container uses the identical, identically-tested implementation. *)
let crc32 = Crc32.digest

(* --- writing --- *)

let write_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let write_string buf s =
  write_u32 buf (String.length s);
  Buffer.add_string buf s

let write_entry buf name dims (get : int -> float) n =
  write_string buf name;
  write_u32 buf (Array.length dims);
  Array.iter (fun d -> write_u32 buf d) dims;
  for i = 0 to n - 1 do
    Buffer.add_int64_le buf (Int64.bits_of_float (get i))
  done

let atomic_write path write_to =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".ckpt" ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_to oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let save ?(meta = []) path ~params ~state =
  let payload = Buffer.create (1 lsl 16) in
  write_u32 payload (List.length meta);
  List.iter
    (fun (k, v) ->
      write_string payload k;
      write_string payload v)
    meta;
  write_u32 payload (List.length params + List.length state);
  List.iter
    (fun (p : Param.t) ->
      let v = p.value in
      write_entry payload p.name (Tensor.shape v) (Tensor.get v) (Tensor.numel v))
    params;
  List.iter
    (fun (name, a) ->
      write_entry payload name [| Array.length a |] (Array.get a) (Array.length a))
    state;
  let payload = Buffer.contents payload in
  atomic_write path (fun oc ->
      output_string oc magic;
      let hdr = Bytes.create 12 in
      Bytes.set_int64_le hdr 0 (Int64.of_int (String.length payload));
      Bytes.set_int32_le hdr 8 (Int32.of_int (crc32 payload));
      output_bytes oc hdr;
      output_string oc payload)

(* --- reading --- *)

type entry = { dims : int array; data : float array }
type container = { meta : (string * string) list; table : (string, entry) Hashtbl.t }

let read path =
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fail what = failwith (Printf.sprintf "Checkpoint.load: %s in %s" what path) in
  let mlen = String.length magic in
  if String.length raw < mlen || String.sub raw 0 mlen <> magic then fail "bad magic";
  if String.length raw < mlen + 12 then fail "truncated header";
  let plen = Int64.to_int (String.get_int64_le raw mlen) in
  let stored_crc = Int32.to_int (String.get_int32_le raw (mlen + 8)) land 0xFFFFFFFF in
  if plen < 0 || String.length raw <> mlen + 12 + plen then fail "payload length mismatch";
  let payload = String.sub raw (mlen + 12) plen in
  if crc32 payload <> stored_crc then fail "checksum mismatch (corrupt file)";
  (* A cursor over the payload whose reads raise [Failure] (never
     [Invalid_argument]) when the payload is shorter than the structure it
     declares. *)
  let pos = ref 0 in
  let left () = plen - !pos in
  let need n = if n > left () then fail "truncated file" in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le payload !pos) in
    pos := !pos + 4;
    if v < 0 then fail "negative count";
    v
  in
  let str () =
    let n = u32 () in
    need n;
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  in
  let f64 () =
    need 8;
    let v = Int64.float_of_bits (String.get_int64_le payload !pos) in
    pos := !pos + 8;
    v
  in
  let meta_count = u32 () in
  if meta_count > 10_000 then fail "implausible meta count";
  let meta =
    List.init meta_count (fun _ ->
        let k = str () in
        let v = str () in
        (k, v))
  in
  let table = Hashtbl.create 64 in
  for _ = 1 to u32 () do
    let name = str () in
    let ndims = u32 () in
    if ndims > 8 then fail "implausible rank";
    let dims = Array.init ndims (fun _ -> u32 ()) in
    (* The element count is bounded by the float64s left before anything
       is allocated: [n <= limit / d] keeps [n * d <= limit], so no product
       overflows, and the last check covers rank 0 (one element). *)
    let limit = left () / 8 in
    let too_big () = fail ("entry larger than the file: " ^ name) in
    let n =
      if Array.mem 0 dims then 0
      else Array.fold_left (fun n d -> if n > limit / d then too_big () else n * d) 1 dims
    in
    if n > limit then too_big ();
    Hashtbl.replace table name { dims; data = Array.init n (fun _ -> f64 ()) }
  done;
  { meta; table }

let meta c = c.meta

let find_array c name =
  Option.map (fun e -> e.data) (Hashtbl.find_opt c.table name)

let restore c ~params ~state =
  let find name =
    match Hashtbl.find_opt c.table name with
    | Some e -> e
    | None -> failwith ("Checkpoint.load: missing entry " ^ name)
  in
  List.iter
    (fun (p : Param.t) ->
      let e = find p.name in
      if e.dims <> Tensor.shape p.value then
        failwith ("Checkpoint.load: shape mismatch for " ^ p.name);
      Array.iteri (fun i v -> Tensor.set p.value i v) e.data)
    params;
  List.iter
    (fun (name, a) ->
      let e = find name in
      if Array.length e.data <> Array.length a then
        failwith ("Checkpoint.load: length mismatch for " ^ name);
      Array.blit e.data 0 a 0 (Array.length a))
    state

let load path ~params ~state = restore (read path) ~params ~state

let entries path =
  let c = read path in
  Hashtbl.fold (fun name e acc -> (name, e.dims) :: acc) c.table []
  |> List.sort compare
