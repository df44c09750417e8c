(** A small regular-expression engine.

    This is the pattern-matching substrate of the PatchitPy reproduction:
    detection rules, the Semgrep baseline and the standardizer are all
    expressed with it.  The dialect is a practical subset of Python's
    [re] syntax:

    - literals, [.] (any char except newline), escapes
      [\n \t \r \f \v \0 \xHH] and identity escapes ([\.], [\\], ...);
    - classes [[abc]], [[^abc]], ranges [[a-z0-9]], and the shorthand
      sets [\d \D \w \W \s \S] (also inside classes);
    - anchors [^] and [$] with {e multiline} semantics (they match at
      every line boundary — rules are line-oriented), and word boundaries
      [\b] / [\B];
    - alternation [|], capturing groups [( )], non-capturing [(?: )],
      back-references [\1]..[\9];
    - quantifiers [* + ?] and [{m} {m,} {m,n}], each with a lazy variant
      ([*?] etc.).  A [{] that does not parse as a quantifier is a literal
      brace, which keeps patterns over Python dict syntax readable.

    Matching semantics are those of Python's [re] on bytes with
    [re.MULTILINE]: ASCII classes, [$] before every ['\n'] and at the
    end (in CRLF text the ['\r'] therefore belongs to the line), and
    leftmost-first alternation.
    [test/test_pyre.ml] checks {!find_all} spans against [re.finditer]
    for every catalog pattern over the corpus, in LF and CRLF form.

    {2 Execution tiers}

    Most patterns execute on a lazy DFA ({!Rx_dfa}): a linear forward
    pass answers match/no-match and locates the match span, and only
    confirmed spans are re-run through the backtracker to extract
    capture groups — results are byte-identical to the backtracker,
    without its budget exposure on the hot path.  Patterns the DFA
    cannot express (back-references, counted repetitions beyond the
    expansion bound, oversized programs) are detected at {!compile}
    time and run wholly on the backtracking engine; {!backtrack_tier}
    pins a single pattern to that engine (the differential tests'
    reference).  A DFA-tier pattern's byte-class tables are built on
    its first DFA-tier search (or by {!prepare}), not at {!compile}:
    the tier is already decided by then, and compiling a catalog most
    of whose patterns a short process never runs stays cheap.  Each
    build counts in the ["rx_dfa_builds_total"] telemetry counter.  Backtracking execution keeps its step budget;
    exceeding it raises {!Budget_exceeded}.  A trip needs a pattern
    with nested or stacked repetitions, but whether one trips depends
    on the subject too: [(.*a){20}] over ["ab"] repeated 40 times blows
    the budget extracting its captures, and user rule files may carry
    any pattern. *)

type t
(** A compiled pattern. *)

exception Parse_error of string * int
(** [Parse_error (msg, offset)]: the pattern is malformed at [offset]. *)

exception Budget_exceeded of string
(** The backtracking step budget was exhausted. *)

val compile : string -> t
(** [compile pattern] parses and compiles [pattern].
    @raise Parse_error on malformed patterns. *)

val compile_opt : string -> (t, string) result
(** Like {!compile} but returning an error message instead of raising. *)

val once : (unit -> 'a) -> unit -> 'a
(** [once build] is a domain-safe once-cell: the first call runs
    [build], later calls return its value.  Concurrent first calls from
    several domains may each run [build]; all of them return the one
    value that won the publication.  Module-level pattern sets that a
    process may never use are built through it, so a command pays only
    for the patterns it runs.  Unlike [Lazy.force], concurrent first
    forcing from several domains is safe. *)

val compile_cache_stats : unit -> int * int
(** [(hits, entries)] of the process-wide compile memo: {!compile}
    returns the already-compiled [t] when the same source was compiled
    before.  Hits are also counted in the ["rx_compile_cache_hits_total"]
    telemetry counter; this accessor exists because catalog compilation
    happens at module initialisation, before any telemetry sink is
    installed. *)

val tier : t -> [ `Dfa | `Backtrack ]
(** Which engine executes this pattern — decided at {!compile} time,
    never at match time. *)

val prepare : t -> unit
(** Builds [t]'s deferred DFA tables now, so no later search pays for
    them.  A no-op once built, and on the backtracking tier. *)

val backtrack_tier : t -> t
(** A copy of [t] pinned to the backtracking engine.  Matching
    behaviour is identical by construction; differential tests use the
    pinned copy as the reference implementation. *)

val dfa_cache_clear : t -> unit
(** Drops the calling domain's DFA transition cache for [t], forcing
    the next search to re-materialize states.  Benchmarks use it to
    measure cache-cold cost; it is never needed for correctness. *)

val dfa_shrink_cache : t -> max_states:int -> unit
(** Replaces the calling domain's DFA transition cache for [t] with one
    bounded to [max_states] interned states per direction, so tests can
    force the clear-and-restart overflow path on ordinary patterns.
    Matching results are unaffected by construction — that is the
    property the stress tests check.
    @raise Invalid_argument when [t] runs on the backtracker, or when
    [max_states < 2]. *)

val pattern : t -> string
(** The source text the pattern was compiled from. *)

val start_literals : t -> string array
(** The compile-time start-literal analysis: when non-empty, every
    match of the pattern starts with one of these literals (each at
    least two bytes), and the DFA tier's skip loop hunts for them with
    memchr-plus-verify instead of walking transition tables.  Usually a
    singleton (a fixed literal prefix); a leading alternation
    contributes one literal per branch.  [[||]] means the analysis
    found no usable set and matching falls back to FIRST-byte skips.
    Exposed so tests can pin the derivation on known patterns. *)

val is_word_char : char -> bool
(** The [\w] class: ASCII letters, digits and ['_'].  [\b] holds
    exactly where one neighbour is a word character and the other is
    not (or is the subject edge). *)

val is_space_char : char -> bool
(** The [\s] class: [' '], ['\t'], ['\n'], ['\r'], ['\012'] (\f) and
    ['\011'] (\v). *)

val index_from : string -> int -> char -> int
(** [index_from s i c] is the index of the first byte [c] in [s] at or
    after [i], or [-1] when there is none or when [i] lies outside
    [[0, String.length s)].  It is libc [memchr], the primitive the DFA
    tier's skip lanes hunt with: a word or vector at a time, and
    allocation-free, where [String.index_from] tests one byte per
    step. *)

val rarest_byte_offset : string -> int
(** The offset of the byte of a nonempty literal that is rarest in
    Python source, by the frequency table the DFA tier's literal lanes
    use (the first such byte on ties): the byte an {!index_from} hunt
    for the literal should anchor on. *)

val group_count : t -> int
(** Number of capturing groups in the pattern. *)

(** {1 Matching} *)

type m
(** A successful match. *)

val m_start : m -> int
(** Offset of the first matched character. *)

val m_stop : m -> int
(** Offset one past the last matched character. *)

val matched : m -> string
(** The full matched substring (group 0). *)

val group : m -> int -> string option
(** [group m i] is the text captured by group [i] (1-based), or [None] if
    the group did not participate in the match.  [group m 0] is
    [Some (matched m)].
    @raise Invalid_argument if [i] exceeds the pattern's group count. *)

val group_span : m -> int -> (int * int) option
(** Offsets of group [i] in the subject, if it participated.  A DFA-tier
    match extracts its captures on first access with one anchored
    backtracker attempt; {!group_span}, {!group} and the template
    expanders raise {!Budget_exceeded} when that attempt blows its
    budget, exactly as the pinned backtracker's search would. *)

val exec : ?pos:int -> t -> string -> m option
(** [exec t s] finds the leftmost match of [t] in [s] at or after [pos]
    (default 0); anchors and word boundaries still see the whole
    subject. *)

val matches : t -> string -> bool
(** [matches t s] is [true] iff [t] matches somewhere in [s]. *)

val matches_whole : t -> string -> bool
(** [matches_whole t s] is [true] iff [t] matches all of [s]. *)

val find_all : ?until:int -> ?steps:int ref -> t -> string -> m list
(** All non-overlapping matches, left to right.  Empty matches advance the
    scan by one character, as Python's [re.finditer] does.  With
    [until], only the matches starting at or before [until] — exactly
    the leading matches of the unbounded call whose starts are
    [<= until] — and the DFA tier injects no start past it, so the
    sweep stops there instead of walking to the end of the subject.
    A bound no match start exceeds (the one {!Fused.run} returns)
    leaves the result unchanged.

    With [steps], the sweep also adds the matcher steps it consumed to
    [steps] — the scanner's per-rule cost telemetry — even when a
    {!Budget_exceeded} or {!Deadline_exceeded} cuts it short, and
    observes the total once in the ["rx_search_steps"] telemetry
    histogram.  Results do not depend on [steps]. *)

(** {1 Step deadlines}

    A deadline is a cumulative allowance of matcher steps shared by
    every search performed while it is installed — the same
    deterministic cost unit the profile subsystem uses, repurposed as a
    request-level budget.  The server wraps each request in
    {!with_step_deadline} so one pathological payload cannot pin a
    worker: the allowance runs out, the innermost search raises
    {!Deadline_exceeded}, and the worker moves on.  Deadlines are
    per-domain (domain-local storage), so concurrent workers are
    independent; they nest, the innermost winning for its dynamic
    extent.  Enforcement is folded into the existing per-attempt budget
    comparison, so matching under a deadline costs nothing extra per
    step. *)

exception Deadline_exceeded
(** The installed step deadline was exhausted.  Distinct from
    {!Budget_exceeded}: a budget trip blames the pattern (pathological
    backtracking within one attempt), a deadline trip blames the
    request (cumulative work across all its searches). *)

val with_step_deadline : steps:int -> (unit -> 'a) -> 'a
(** [with_step_deadline ~steps f] runs [f] with an allowance of [steps]
    matcher steps shared by every search [f] performs on this domain.
    When the allowance runs out, the active search raises
    {!Deadline_exceeded} (also counted in the
    ["rx_deadline_exceeded_total"] telemetry counter).  The previous
    deadline, if any, is restored when [f] returns or raises.
    @raise Invalid_argument when [steps <= 0]. *)

val deadline_remaining : unit -> int option
(** Steps left in this domain's installed deadline ([None] when no
    deadline is installed).  A timeout responder uses it to report how
    much of the allowance a request burned. *)

(** {1 Rewriting} *)

val replace : ?count:int -> t -> template:string -> string -> string
(** [replace t ~template s] rewrites every match of [t] in [s] (or the
    first [count] matches) with [template] expanded: [$0]..[$9] and
    [${nn}] insert the corresponding captured group (empty if unset) and
    [$$] inserts a literal dollar. *)

val replace_f : ?count:int -> t -> f:(m -> string) -> string -> string
(** Like {!replace} with a computed replacement per match. *)

val split : t -> string -> string list
(** Splits the subject on every match of [t].  Adjacent matches yield
    empty fields; an unmatched subject yields a single field. *)

val expand_template : m -> string -> string
(** [expand_template m template] performs the [$n] expansion of
    {!replace} against a single match. *)

(** {1 Fused multi-pattern matching} *)

type fused
(** A whole catalog of patterns fused into one tagged lazy DFA
    ({!Rx_fused}): a single forward pass over a subject answers, for
    every hosted pattern at once, whether it matches anywhere — an
    exact existence filter the scanner runs in front of its per-rule
    sweeps.  Immutable and shareable across domains; per-domain
    transition caches are managed internally like the per-pattern
    ones. *)

(** Operations on fused catalogs.  [compile] decides hosting per
    pattern: patterns on the backtracking tier (back-references,
    oversized programs, {!backtrack_tier} copies) and patterns
    able to match the empty string are left out and must be scanned
    per-pattern as before; so must every pattern beyond the fused
    program size budget (taken in pattern order).  {!Fused.run}'s
    bounds are exact for hosted patterns in both directions, which is
    what lets a caller skip per-pattern work without changing results,
    and bound every match start, which lets it fence the rest. *)
module Fused : sig
  exception Bail
  (** The fused pass thrashed its transition cache and gave up; the
      caller must fall back to per-pattern scanning for this subject.
      (Alias of [Rx_dfa.Bail], the one bail exception of the lazy-DFA
      core the fused pass shares with the per-pattern tier.) *)

  val compile : t array -> fused option
  (** Fuse the hostable subset of [patterns].  [None] when no pattern
      is hostable (then there is nothing to accelerate).  Hosts each
      pattern's forward program as {!Rx.compile} left it, so fusing
      builds no per-pattern DFA tables. *)

  val run : fused -> string -> int array
  (** [run f subject] executes the fused pass and returns one int per
      pattern of the [compile]-time array: the last boundary where the
      fused pass flagged that pattern, or [-1] iff it matches nowhere
      in [subject].  Every match of the pattern in [subject] starts at
      or before that bound, so [find_all ~until:bound] returns what
      {!find_all} does.  Unhosted patterns are always [-1] —
      "unknown", not "no match"; check {!is_hosted}.  Runs under the
      installed step deadline like any other search.
      @raise Bail on cache thrash (fall back to per-pattern scans).
      @raise Deadline_exceeded / Budget_exceeded as usual. *)

  val is_hosted : fused -> int -> bool
  (** Whether pattern [i] of the compile-time array is hosted. *)

  val pattern_count : fused -> int
  (** Length of the compile-time pattern array (hosted or not). *)

  val program_size : fused -> int
  (** Fused Pike-program length, for introspection and benchmarks. *)

  val state_count : fused -> int
  (** Interned DFA states in the calling domain's cache. *)

  val cache_clear : fused -> unit
  (** Drop the calling domain's transition cache (benchmarks). *)

  val shrink_cache : fused -> max_states:int -> unit
  (** Replace the calling domain's cache with one bounded to
      [max_states] states, to force the flush/restart and {!Bail}
      paths in tests.
      @raise Invalid_argument when [max_states < 2]. *)
end

(** {1 Engine internals, for tests} *)

(** The engine's own modules and the programs its byte classes are
    derived from, so that a test can check an internal table against a
    reference implementation kept beside it.  Not for other callers. *)
module Private : sig
  module Ast = Rx_ast
  module Pike = Rx_pike
  module Dfa = Rx_dfa

  val class_program : t -> Rx_pike.inst array option
  (** The program a DFA-tier pattern's byte classes are derived from:
      its forward Pike program followed by its reverse one.  [None] on
      the backtracking tier. *)

  val fused_program : fused -> Rx_pike.inst array
  (** The composed program of a fused catalog. *)
end
