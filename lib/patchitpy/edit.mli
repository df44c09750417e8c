(** Edit deltas: the unit of change of a patch round.

    A patch round does not rebuild the source string once per
    application.  Each application is recorded as an edit — an old-text
    span and its replacement — and the whole round is materialized in a
    single left-to-right pass through an edit buffer ({!apply}). *)

type t = {
  start : int;  (** first byte of the replaced old-text span *)
  stop : int;  (** one past the last replaced byte; [start = stop] inserts *)
  repl : string;  (** the replacement text *)
}

val delta : t -> int
(** Byte-length change: [length repl - (stop - start)]. *)

val valid : string -> t list -> bool
(** The edits are sorted by [start], pairwise non-overlapping, and in
    bounds for the given old source. *)

val apply : string -> t list -> string
(** [apply source edits] materializes every edit in one pass through an
    output buffer — O(|source| + Σ|repl|) regardless of how many edits
    the round produced, where the seed patcher's per-application string
    splice was O(|source|) {e each}.  [edits] must satisfy {!valid}.
    Records the bytes moved through the buffer in the
    [edit_bytes_moved_total] telemetry counter. *)
