(** Minimal JSON codec for the line-delimited serving protocol and the run
    journal: {!Runlog} writes its events and reads them back through it.

    Parses full JSON (objects, arrays, strings with escapes, numbers,
    booleans, null) into a plain variant; numbers are held as float64, which
    is exact for every integer the protocol carries (trace addresses are
    bounded to 2^52 by {!Trace_io.max_address}). The parser is total: it
    returns [Error] on malformed input and never raises. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse (trailing garbage is an error). Arrays and objects
    nest at most 64 deep: a deeper value is an [Error] at its 65th opening
    bracket, so a line of brackets costs no more than 64 steps to reject. *)

val to_string : t -> string
(** Compact one-line rendering (no embedded newlines, so the result is
    always a valid protocol line). Integral numbers print without a decimal
    point. *)

(** {1 Accessors} — all total, [None]/default on type mismatch. *)

val member : string -> t -> t option
(** Field of an object ([None] for non-objects and absent fields). *)

val to_int : t -> int option
(** [Num] with an exactly-integral value in int range. *)

val to_float : t -> float option

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
