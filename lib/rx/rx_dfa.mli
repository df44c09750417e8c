(** Lazy-DFA execution over the Pike-NFA program.

    The RE2-style hybrid engine: DFA states are priority-ordered sets
    of NFA threads, materialized on demand into bounded per-pattern
    transition caches, giving O(subject) matching with no backtracking
    budget on the match/no-match path.  [Rx] drives it as the default
    execution tier — a forward pass finds where the leftmost-first
    match ends, a backward pass over the reversed program finds where
    it starts, and the backtracker then extracts capture groups from
    the confirmed span.  See rx_dfa.ml for the determinization
    invariants that preserve leftmost-first semantics.

    Nothing here is specific to the [Rx] wrapper: the functions take
    explicit programs, caches and subjects, which is what the stress
    tests use to exercise tiny caches. *)

type static
(** The immutable, per-pattern half: forward and reverse programs plus
    the byte-class tables.  Shareable across domains. *)

type cache
(** The mutable half: interned states and transition rows for one
    domain's use of one pattern.  Not synchronized — callers keep one
    cache per (pattern, domain). *)

exception Bail
(** The cache thrashed (repeated flushes within one search) or an
    internal cross-check failed; the caller must re-run the search on
    the backtracking engine. *)

val reverse_node : Rx_ast.node -> Rx_ast.node
(** Structural reversal of a pattern: matches exactly the reversed
    strings of the original's matches.  Assertions keep their opcode;
    the backward machine evaluates them with the boundary sides
    swapped. *)

val inst_accepts : Rx_pike.inst -> char -> bool
(** Whether a consuming instruction steps on the byte ([false] for
    every non-consuming instruction). *)

val predicates : Rx_pike.inst array -> int array * Rx_pike.inst array
(** [predicates prog] deduplicates the consuming instructions of
    [prog] structurally: [(pred, distinct)] where [pred.(pc)] indexes
    [distinct] for consuming pcs and is [-1] elsewhere. *)

val derive_classes : Rx_pike.inst array -> string * int * int array * string
(** [derive_classes distinct] is the byte-class compression induced by
    the predicates [distinct] and the context facts:
    [(classes, nclasses, class_fact, class_repr)] — the byte-to-class
    table, the class count, each class's fact (one extra entry, the
    end-of-input sentinel), and one representative byte per class. *)

val build : fwd:Rx_pike.inst array -> rev:Rx_pike.inst array -> static
(** [build ~fwd ~rev] derives the byte-class compression and packages
    both programs.  [rev] must be the Pike compilation of
    [reverse_node] applied to the AST [fwd] was compiled from. *)

val make_cache : ?max_states:int -> static -> cache
(** A fresh, empty transition cache.  [max_states] (default 512) bounds
    the interned state count per direction; overflowing flushes the
    table and restarts the in-flight transition ("clear and restart"),
    so correctness never depends on the bound.
    @raise Invalid_argument when [max_states < 2]. *)

val search :
  cache ->
  ?recorder:Telemetry.recorder ->
  ?cap:int ->
  ?steps_acc:int ref ->
  ?first_bytes:Bytes.t ->
  ?first_byte:char ->
  ?prefixes:(string * int) array ->
  bol_only:bool ->
  string ->
  int ->
  (int * int) option
(** [search cache subject pos] is [Some (start, e)] where [start] is
    the start offset of the leftmost-first match beginning at or after
    [pos] and [e] the boundary where the forward pass saw that match
    end — an end of {e some} match from [start], not necessarily the
    backtracker-preferred one, which is why callers re-run the
    backtracker at [start] for authoritative spans.  [first_bytes]
    and [bol_only] have {!Rx_match.search}'s semantics;
    [first_byte], when the FIRST set is a singleton, lets dead
    stretches be skipped with [String.index_from] (memchr).
    [prefixes], when every match starts with one of a few literals of
    two or more bytes each, upgrades the skip to memchr-plus-verify —
    one lane per literal, each [(lit, anchor)] hunting the byte at
    [anchor] (the literal's rarest, chosen at compile time) and landing
    on the earliest verified hit: candidate offsets whose surrounding
    bytes don't spell any of the literals never touch the transition
    tables at all.
    Each scanned byte ticks [steps_acc] once and is checked against
    [cap] ({!Rx_match.Budget_exceeded} past it) — the deadline hook.
    [recorder], when supplied, is the pre-fetched telemetry handle the
    cache-pressure counters are flushed through; without it the flush
    fetches its own, so counts are identical either way.
    @raise Bail when the engine gives up (cache thrash). *)

val is_match :
  cache ->
  ?recorder:Telemetry.recorder ->
  ?cap:int ->
  ?steps_acc:int ref ->
  ?first_bytes:Bytes.t ->
  ?first_byte:char ->
  ?prefixes:(string * int) array ->
  bol_only:bool ->
  string ->
  int ->
  bool
(** Boolean variant of {!search}: the forward pass alone, stopping at
    the first match flag — no backward pass runs. *)

val state_count : cache -> int * int
(** Interned (forward, backward) state counts — cache-pressure
    introspection for tests and benchmarks. *)
