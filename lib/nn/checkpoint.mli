(** Binary model checkpoints.

    A checkpoint stores named parameter tensors, named auxiliary float arrays
    (batch-norm running statistics, optimizer moments, training counters) and
    a small string-to-string metadata section. The on-disk format (v2) is a
    little-endian binary container protected by a CRC-32 checksum and written
    atomically (temp file + rename), so a crash mid-save never leaves a
    truncated checkpoint under the target name and any corrupted byte is
    rejected at load with [Failure]. Payload floats are stored as full
    float64 bits: a save/load round-trip is exact, which the resumable
    training loop relies on for bit-identical resume.

    This float checkpoint is the only model artifact: an int8 program is
    compiled from it ({!Qgen}), never stored. *)

val save :
  ?meta:(string * string) list ->
  string ->
  params:Param.t list ->
  state:(string * float array) list ->
  unit
(** Writes a v2 checkpoint atomically; replaces any existing file. [meta]
    carries small string key/value pairs (PRNG state, epoch, options hash). *)

val load :
  string -> params:Param.t list -> state:(string * float array) list -> unit
(** Loads values into the given parameters/state arrays by name. Raises
    [Failure] if the file is malformed or corrupt (checksum mismatch), an
    entry is missing, or a shape disagrees. Entries present in the file but
    not requested are ignored. *)

(** {1 Container access}

    For callers that need the metadata or variable-length entries (the
    training snapshot loader), [read] parses and verifies the file once and
    the accessors below work on the parsed container. *)

type container

val read : string -> container
(** Parses and checksum-verifies a checkpoint. Raises [Failure] on any
    malformed or corrupt input, never any other exception: an entry whose
    dimensions claim more data than the file holds fails before anything
    is allocated for it. *)

val meta : container -> (string * string) list
(** Metadata pairs. *)

val find_array : container -> string -> float array option
(** The named entry's payload, flattened. *)

val restore :
  container -> params:Param.t list -> state:(string * float array) list -> unit
(** As {!load}, from an already-parsed container. *)

val entries : string -> (string * int array) list
(** Names and shapes stored in a checkpoint (diagnostic). *)
