(** Precomputed line-start index for a source buffer.

    Built once per scanned source, then every finding's (line, column)
    is a binary search instead of a rescan from byte 0 — the seed
    engine's [line_of_offset] was linear per finding, i.e. quadratic on
    finding-dense files. *)

type t

val build : string -> t
(** One pass over the source, recording every line-start offset. *)

val line : t -> int -> int
(** [line t offset] is the 1-based line containing [offset].  Offsets
    past the end of the source report the last line, matching the seed
    engine's clamping behaviour. *)

val column : t -> int -> int
(** [column t offset] is the 0-based column of [offset] within its
    line. *)
