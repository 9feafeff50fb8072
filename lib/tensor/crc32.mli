(** CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320).

    One implementation and one set of test vectors for every CRC in the
    system: the checksummed on-disk containers (model checkpoints, binary
    traces), the shard router's ring points and prediction-memo trace
    digests, and stream-session tokens. *)

val digest : string -> int
(** CRC-32 of the whole string, in [0, 0xFFFFFFFF]. *)
