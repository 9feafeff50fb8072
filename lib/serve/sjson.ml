type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- parsing: recursive descent over the string, internal exception
   converted to [Error] at the boundary so the parser is total. --- *)

exception Bad of string

(* The wire protocol nests three levels deep; a line of brackets must not
   cost the batcher thread more than a few dozen steps to reject. *)
let max_depth = 64

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let err fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> err "expected '%c' at offset %d, got '%c'" c !pos d
    | None -> err "expected '%c' at offset %d, got end of input" c !pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else err "bad literal at offset %d" !pos
  in
  let hex4 () =
    if !pos + 4 > n then err "truncated \\u escape at offset %d" !pos;
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> err "bad hex digit '%c' in \\u escape at offset %d" c !pos
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* A \u escape naming a high surrogate must be immediately followed by a
     low-surrogate escape; the pair recombines into one code point so
     non-BMP text decodes to real UTF-8, not CESU-8. Lone surrogates are a
     parse error. *)
  let unicode_escape () =
    let cp = hex4 () in
    if cp >= 0xD800 && cp <= 0xDBFF then begin
      if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        err "unpaired high surrogate \\u%04x at offset %d" cp !pos;
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then
        err "high surrogate \\u%04x followed by non-low \\u%04x" cp lo;
      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else if cp >= 0xDC00 && cp <= 0xDFFF then
      err "unpaired low surrogate \\u%04x at offset %d" cp !pos
    else cp
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then err "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' -> add_utf8 buf (unicode_escape ())
         | c -> err "bad escape '\\%c'" c);
        go ()
      | c when Char.code c < 0x20 -> err "unescaped control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f when Float.is_nan f || f = Float.infinity || f = Float.neg_infinity ->
      err "non-finite number %S at offset %d" lit start
    | Some f -> Num f
    | None -> err "bad number %S at offset %d" lit start
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some ('{' | '[') when depth = max_depth ->
      err "nesting deeper than %d at offset %d" max_depth !pos
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> err "expected ',' or '}' at offset %d" !pos
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> err "expected ',' or ']' at offset %d" !pos
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> err "unexpected character '%c' at offset %d" c !pos
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then err "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

(* --- printing --- *)

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

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f ->
    if Float.is_nan f then "\"nan\""
    else if f = Float.infinity then "\"inf\""
    else if f = Float.neg_infinity then "\"-inf\""
    else if Float.is_integer f && Float.abs f < 9.007199254740992e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) fields)
    ^ "}"

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 4.503599627370496e15 ->
    Some (int_of_float f)
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None
