(** Lazy-DFA execution over Pike-NFA programs: the one determinizing
    core of the library.

    The RE2-style hybrid engine: DFA states are priority-ordered sets
    of NFA threads, materialized on demand into bounded transition
    caches, giving O(subject) matching with no backtracking budget on
    the match/no-match path.  [Rx] drives it as the default execution
    tier — a forward pass finds where the leftmost-first match ends, a
    backward pass over the reversed program finds where it starts, and
    the backtracker then extracts capture groups from the confirmed
    span.  See rx_dfa.ml for the determinization invariants that
    preserve leftmost-first semantics.

    The machine layer ({!mach}: state store, interning table, closure,
    acceptance-table stepping, clear-and-restart) is shared with
    {!Rx_fused}, whose catalog-wide existence pass is one more
    machine over a composed program. *)

exception Bail
(** The cache thrashed (repeated flushes within one search) or an
    internal cross-check failed; the caller must re-run the search on
    a slower path — the backtracker, or per-pattern sweeps after a
    fused pass. *)

exception Restart
(** A full store was flushed while interning; the runner re-interns
    its current state and retries the transition. *)

(** {1 Per-pattern searches} *)

type static
(** The immutable, per-pattern half: forward and reverse programs plus
    their shared stepping tables.  Shareable across domains. *)

type cache
(** The mutable half: one machine per direction for one domain's use
    of one pattern.  Not synchronized — callers keep one cache per
    (pattern, domain). *)

val reverse_node : Rx_ast.node -> Rx_ast.node
(** Structural reversal of a pattern: matches exactly the reversed
    strings of the original's matches.  Assertions keep their opcode;
    the backward machine evaluates them with the boundary sides
    swapped. *)

val build : fwd:Rx_pike.inst array -> rev:Rx_pike.inst array -> static
(** [build ~fwd ~rev] derives the stepping tables and packages both
    programs.  [rev] must be the Pike compilation of [reverse_node]
    applied to the AST [fwd] was compiled from. *)

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
  ?until:int ->
  ?first_bytes:Bytes.t ->
  ?first_byte:char ->
  ?prefixes:(string * int) array ->
  bol_only:bool ->
  string ->
  int ->
  (int * int) option
(** [search cache subject pos] is [Some (start, e)] where [start] is
    the start offset of the leftmost-first match beginning at or after
    [pos] and [e] the last boundary where the forward pass flagged that
    match's end.  [e] is the leftmost-first end for every pattern
    without a repetition whose body can match empty; for those ([Rx]'s
    [has_nullable_rep]) the backtracker may rank another end first, so
    the caller re-runs it anchored at [start] for the span.  [first_bytes]
    and [bol_only] have {!Rx_match.search}'s semantics;
    [first_byte], when the FIRST set is a singleton, lets dead
    stretches be skipped with libc memchr; line-anchored patterns jump
    from line to line with memchr ['\n'].
    [prefixes], when every match starts with one of a few literals of
    two or more bytes each, upgrades the skip to memchr-plus-verify —
    one lane per literal, each [(lit, anchor)] hunting the byte at
    [anchor] (the literal's rarest, chosen at compile time) and landing
    on the earliest verified hit: candidate offsets whose surrounding
    bytes don't spell any of the literals never touch the transition
    tables at all.
    [until] (default unbounded) fences the starts: no attempt starts
    past it, so the result is [None] when the leftmost match start at
    or after [pos] lies past [until], and otherwise the unfenced
    result — the scan can stop near [until] instead of walking to the
    end of the subject.
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

(** {1 The machine layer} *)

val fact_boundary : int
val fact_word : int
val fact_newline : int
(** Context facts: the one property of an adjacent byte the zero-width
    assertions inspect (1 is any other byte).  [fact_boundary] is also
    the fact of the end-of-input sentinel class. *)

type tables = {
  classes : string;  (** byte -> input-class id *)
  nclasses : int;  (** real classes; the sentinel is id [nclasses] *)
  class_fact : int array;  (** class id (sentinel included) -> fact *)
  npred : int;  (** distinct consuming predicates *)
  accept : Bytes.t;
      (** [(c * npred) + p] is ['\001'] iff predicate [p] accepts
          class [c]; the sentinel's row is all zero *)
}
(** A program's byte-class compression and acceptance table. *)

val tables : Rx_pike.inst array -> int array * tables
(** [tables prog] is [(pred, tb)]: [pred.(pc)] is the distinct
    predicate id of consuming pc [pc] ([-1] elsewhere), and [tb] the
    classes every predicate of [prog] and the context facts induce. *)

type state = { ctx : int; raw : int array; hash : int }
(** A DFA state: the left-context fact and the pending threads, in
    priority order, not yet closed, with the hash the interning table
    files it under.  Empty [raw] is the dead state. *)

type on_match =
  | Stop  (** stop collecting: leftmost-first forward pass *)
  | Flag  (** note the match and go on: backward pass *)
  | Slots of { owner : int array; nslots : int }
      (** record [owner.(pc)] once per closure: fused pass *)
(** What closure does on reaching an [I_match]. *)

type tally = { mutable misses : int; mutable flushes : int }
(** Cache-pressure counts since the last search's exit ({!metered}). *)

type mach = {
  prog : Rx_pike.inst array;
  pred : int array;  (** pc -> predicate id, as {!tables} returns it *)
  tb : tables;
  on_match : on_match;
  swap : bool;  (** backward: facts swap boundary sides *)
  ncols : int;  (** [tb.nclasses + 1]: one column per class + sentinel *)
  tally : tally;
  unanchored : bool;  (** whether states get [urows] *)
  max_states : int;  (** the store flushes when it holds this many *)
  mutable nstates : int;
  mutable states : state array;
      (** the store; its length is the current capacity, which starts
          small and doubles up to [max_states] *)
  mutable rows : int array array;
      (** anchored rows: [-1] unmaterialized, else
          [(sid lsl 1) lor match_flag] *)
  mutable urows : int array array;  (** unanchored rows; forward pass only *)
  mutable itbl : int array;
      (** interning table: state ids by thread hash, open addressing,
          [-1] empty, at most half full *)
  mutable fgen : int;  (** flush generation *)
  mutable search_flushes : int;  (** reset when a search begins *)
  start_sids : int array;
  stamp : int array;
  mutable gen : int;  (** closure generation, stamped into [stamp] *)
  buf : int array;  (** closure output: consuming pcs in order ... *)
  mutable count : int;  (** ... and their count *)
  mutable stopped : bool;
  pruned : int array;  (** [Slots]: slot stamps of this closure *)
  mbuf : int array;  (** [Slots]: slots matched in this closure ... *)
  mutable nmatched : int;  (** ... and their count; 0/1 otherwise *)
  out : int array;  (** scratch for successor threads *)
}
(** One machine: a program's bounded state store, interning table,
    transition rows and closure scratch.  Mutable and per-domain. *)

val make_mach :
  ?unanchored:bool ->
  max_states:int ->
  swap:bool ->
  on_match:on_match ->
  tally:tally ->
  tables ->
  Rx_pike.inst array ->
  int array ->
  mach
(** [make_mach tb prog pred] is an empty machine over [prog];
    [unanchored] gives its states [urows] too.  Its store starts at a
    few slots and grows as states are interned, so an unused machine
    costs a few small arrays.
    @raise Invalid_argument when [max_states < 2]. *)

val find_or_add : mach -> int -> int array -> int -> int
(** [find_or_add m ctx buf len] is the state id of the threads
    [buf.(0 .. len-1)] at left-context fact [ctx], interning them on
    first sight.  A hit allocates nothing; only a new state copies
    [buf].  A store holding [max_states] states is flushed first,
    which also counts toward the search's flush limit.
    @raise Restart after a flush; @raise Bail past the limit. *)

val intern : mach -> int -> int array -> int -> int
(** {!find_or_add}, retried once past a flush. *)

val start_raw : int array
(** The thread set [[|0|]]: one fresh attempt at the program's entry;
    intern it with length 1. *)

val start : mach -> int -> int
(** The start state for a left-context fact, memoized until a flush. *)

val closure : mach -> int array -> len:int -> lf:int -> rf:int -> int
(** [closure m raw ~len ~lf ~rf] epsilon-closes [raw.(0 .. len-1)] at a
    boundary with subject-left fact [lf] and subject-right fact [rf]:
    consuming pcs land in [m.buf] in priority order, reached matches
    in [m.nmatched] (and [m.mbuf]) as [m.on_match] says.  Returns the
    pc count. *)

val miss : mach -> ('a -> int -> int -> int) -> 'a -> int -> int -> int
(** [miss m materialize arg sid c] handles a transition not cached yet:
    [materialize arg sid c] fills row entry [c] of state [sid].
    Returns the state to go on from — [sid], or its re-interned copy
    when materializing flushed the store ({!Restart}); the caller
    re-reads the row either way. *)

val metered :
  Telemetry.Counter.t * Telemetry.Counter.t * Telemetry.Counter.t ->
  tally ->
  recorder:Telemetry.recorder option ->
  steps_acc:int ref option ->
  (int ref -> 'a) ->
  'a
(** [metered counters tally ~recorder ~steps_acc run] is a search's
    exit path: [run] gets the step accumulator ([steps_acc] or a fresh
    one), and whether it returns or raises, the search's (hits, misses,
    flushes) are recorded under [counters] — hits are the ticked steps
    minus misses — and [tally] is reset. *)

val step_allowance_exceeded : exn
(** The {!Rx_match.Budget_exceeded} a search raises past its [cap]. *)

external memchr :
  string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rx_memchr" "rx_memchr_unboxed"
[@@noalloc]
(** [memchr s c from]: libc memchr (rx_memchr.c), the index of the
    first byte [c] in [s] at or after [from], or [-1] when there is
    none or [from] lies outside [[0, length s)].  The skip lanes hunt
    with it; {!Rx.index_from} exports it. *)
