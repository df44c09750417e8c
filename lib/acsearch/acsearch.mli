(** Aho–Corasick multi-pattern substring search.

    Compiles a set of literal byte strings into a single automaton; one
    pass over a subject then reports which patterns occur in it.  This
    is the shared prefilter behind {!Patchitpy.Scanner}: the catalog's
    required literals are matched in O(|subject|) total instead of one
    naive substring scan per (rule, literal) pair.

    Patterns are plain byte strings — no encoding assumptions, so any
    UTF-8 (or binary) content works unchanged. *)

type t
(** A compiled automaton.  Immutable after {!build}: safe to share
    across domains. *)

val build : string list -> t
(** [build patterns] compiles the automaton.  Patterns keep their list
    index as identity; duplicates are allowed (each index is reported).
    The empty string occurs in every subject, including [""]. *)

val pattern_count : t -> int
(** Number of patterns the automaton was built from. *)

val search : t -> string -> int list
(** [search t subject] is the sorted list of distinct pattern indices
    occurring at least once in [subject].  Overlapping and nested
    occurrences are all found (e.g. ["he"] and ["she"] both hit in
    ["she"]). *)

val search_mask : t -> string -> bool array
(** [search_mask t subject] is an array of length {!pattern_count}
    where slot [i] tells whether pattern [i] occurs in [subject] —
    the allocation-friendly variant of {!search} for hot paths. *)

val mem : t -> string -> bool
(** [mem t subject] is [true] iff any pattern occurs in [subject].
    Short-circuits on the first hit. *)

(** {1 Binary codec}

    Serialization for rule packs.  The wire form is the pattern trie —
    a few kilobytes of (byte, child) edges — not the expanded
    transition table; {!read} re-runs the same breadth-first squash
    {!build} uses, so loading costs one table allocation and a blit
    pass.  {!read} validates that the edges form a tree rooted at
    state 0 and bounds-checks every index, raising {!Binio.Corrupt} /
    {!Binio.Truncated} on malformed input; beyond that any tree is a
    valid automaton, and the search loops mask every fetched state id
    into the table's range — adversarial bytes can mis-transition but
    never read out of bounds.  Content integrity is the containing
    pack's checksum's job. *)

val write : Buffer.t -> t -> unit
(** Appends the serialized automaton. *)

val read : Binio.r -> t
(** Decodes an automaton written by {!write}.
    @raise Binio.Corrupt on structurally invalid input.
    @raise Binio.Truncated if the input ends early. *)
