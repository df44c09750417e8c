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

    {2 Execution tiers}

    Most patterns execute on a lazy DFA ({!Rx_dfa}): a linear forward
    pass answers match/no-match and locates the match span, and only
    confirmed spans are re-run through the backtracker to extract
    capture groups — results are byte-identical to the backtracker,
    without its budget exposure on the hot path.  Patterns the DFA
    cannot express (back-references, counted repetitions beyond the
    expansion bound, oversized programs) are detected at {!compile}
    time and run wholly on the backtracking engine; setting the
    environment variable [PATCHITPY_RX_TIER=backtrack] forces that
    engine for every pattern compiled afterwards (the escape hatch for
    suspected tier bugs).  Backtracking execution keeps its step
    budget; exceeding it raises {!Budget_exceeded} (it indicates a
    pathological rule, never a pathological subject in this
    codebase). *)

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

val compile_cache_stats : unit -> int * int
(** [(hits, entries)] of the process-wide compile memo: {!compile}
    returns the already-compiled [t] when the same source (under the
    same forced-tier setting) was compiled before.  Hits are also
    counted in the ["rx_compile_cache_hits_total"] telemetry counter;
    this accessor exists because catalog compilation happens at module
    initialisation, before any telemetry sink is installed. *)

val tier : t -> [ `Dfa | `Backtrack ]
(** Which engine executes this pattern — decided at {!compile} time,
    never at match time. *)

val backtrack_tier : t -> t
(** A copy of [t] pinned to the backtracking engine.  Matching
    behaviour is identical by construction; differential tests use the
    pinned copy as the reference implementation. *)

val dfa_cache_clear : t -> unit
(** Drops the calling domain's DFA transition cache for [t], forcing
    the next search to re-materialize states.  Benchmarks use it to
    measure cache-cold cost; it is never needed for correctness. *)

val dfa_cache_touch : t -> unit
(** Eagerly creates the calling domain's DFA transition cache for [t]
    (seeding it from the warm registry when a blob is installed), so
    the import cost lands in the load phase instead of the first
    search.  A no-op for backtracker-tier patterns. *)

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

(** {1 Warm transition tables}

    A warmed pattern's lazy-DFA cache — interned states, transition
    rows, start-state memos — can be exported to bytes, carried in a
    rule pack, and used to seed fresh per-domain caches in another
    process, so a loaded pack starts scanning at steady-state speed.
    Blobs are registered process-wide by pattern {e source}: packs
    decode rules lazily and every decode mints a fresh cache identity,
    so source is the only stable key.  Seeding happens once per
    (pattern, domain) cache creation, never on the match path, and a
    blob that fails validation against the pattern's own program
    leaves the cache exactly cold — a stale or foreign registration
    can never change results. *)

val warm_export : t -> string option
(** Snapshot of the calling domain's warmed transition tables for this
    pattern, or [None] when it runs on the backtracker or was never
    searched here.  The blob is opaque; feed it to {!warm_register}. *)

val warm_register : source:string -> string -> unit
(** [warm_register ~source blob] installs [blob] as the seed for every
    subsequently created per-domain cache of the pattern compiled from
    [source]. *)

val warm_registry_clear : unit -> unit
(** Empties the warm registry (benchmarks and tests). *)

val warm_registry_size : unit -> int
(** Number of registered warm blobs. *)

val warm_blob_counts : string -> (int * int) option
(** [(forward, backward)] state counts carried in a warm blob's header
    ([None] for unrecognizable bytes) — [rules inspect] introspection. *)

val start_literals : t -> string array
(** The compile-time start-literal analysis: when non-empty, every
    match of the pattern starts with one of these literals (each at
    least two bytes), and the DFA tier's skip loop hunts for them with
    memchr-plus-verify instead of walking transition tables.  Usually a
    singleton (a fixed literal prefix); a leading alternation
    contributes one literal per branch.  [[||]] means the analysis
    found no usable set and matching falls back to FIRST-byte skips.
    Exposed so tests can pin the derivation on known patterns. *)

val required_literals : t -> string list
(** A prefilter: when non-empty, every match of the pattern contains at
    least one of these literal substrings, so a subject containing none
    of them cannot match.  Scanners use this to skip the full matcher on
    most (rule, file) pairs.  An empty list means no useful literal
    could be derived. *)

val is_word_char : char -> bool
(** The [\w] class: ASCII letters, digits and ['_'].  [\b] holds
    exactly where one neighbour is a word character and the other is
    not (or is the subject edge). *)

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
(** Offsets of group [i] in the subject, if it participated. *)

val exec : ?pos:int -> ?limit:int -> t -> string -> m option
(** [exec t s] finds the leftmost match of [t] in [s] at or after [pos]
    (default 0).  [limit], when given, restricts the {e start offsets}
    attempted to at most [limit] — the match itself may extend beyond
    it, and anchors and word boundaries still see the whole subject. *)

val matches : t -> string -> bool
(** [matches t s] is [true] iff [t] matches somewhere in [s]. *)

exception Unsupported_linear of string

val matches_linear : t -> string -> bool
(** Like {!matches} but executed on a Thompson-NFA Pike VM: time is
    O(pattern size x subject length) regardless of the pattern, so it is
    immune to catastrophic backtracking and suits scanning untrusted
    input.  @raise Unsupported_linear on patterns using back-references
    or counted repetitions beyond the expansion bound (the backtracking
    {!matches} handles those). *)

val compile_linear : t -> int option
(** Compiles the pattern into the Pike-VM program {!matches_linear}
    executes, bypassing its process-wide cache, and returns the
    instruction count — [None] for patterns the linear engine cannot
    express.  Exists so the compile-cost benchmark can measure
    compilation itself; {!matches_linear} callers never need this. *)

val matches_whole : t -> string -> bool
(** [matches_whole t s] is [true] iff [t] matches all of [s]. *)

val find_all : t -> string -> m list
(** All non-overlapping matches, left to right.  Empty matches advance the
    scan by one character, as Python's [re.finditer] does. *)

(** {1 Instrumented matching}

    The scanner's telemetry needs the backtracking cost of each rule.
    The [_counted] variants behave exactly like their plain
    counterparts but additionally accumulate the matcher steps they
    consumed into [steps]; the accumulation is flushed even when the
    step budget is exhausted mid-search, so a {!Budget_exceeded} scan
    still reports the work it burned.  Every search observed this way
    also feeds the ["rx_search_steps"] telemetry histogram. *)

val find_all_counted : t -> string -> steps:int ref -> m list
(** {!find_all}, adding the steps consumed to [steps]. *)

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

(** {1 Binary codec}

    Rule packs store patterns fully compiled — AST, search
    accelerators, DFA-tier programs — so loading one does no parsing,
    analysis or determinization.  {!read_compiled} validates every
    structural invariant the matchers index by and raises
    {!Binio.Corrupt} / {!Binio.Truncated} on malformed input; decoded
    patterns get a fresh cache identity and honour
    [PATCHITPY_RX_TIER=backtrack] like {!compile}. *)

val write_compiled : Buffer.t -> t -> unit
(** Appends the serialized compiled pattern. *)

val read_compiled : Binio.r -> t
(** Decodes a pattern written by {!write_compiled}.
    @raise Binio.Corrupt on structurally invalid input.
    @raise Binio.Truncated if the input ends early. *)

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
    oversized programs, [PATCHITPY_RX_TIER=backtrack]) and patterns
    able to match the empty string are left out and must be scanned
    per-pattern as before; so must every pattern beyond the fused
    program size budget (taken in pattern order).  {!Fused.run}'s mask
    is exact for hosted patterns in both directions, which is what
    lets a caller skip per-pattern work without changing results. *)
module Fused : sig
  exception Bail
  (** The fused pass thrashed its transition cache and gave up; the
      caller must fall back to per-pattern scanning for this subject.
      (Alias of [Rx_fused.Bail].) *)

  val compile : t array -> fused option
  (** Fuse the hostable subset of [patterns].  [None] when no pattern
      is hostable (then there is nothing to accelerate). *)

  val run : fused -> string -> Bytes.t
  (** [run f subject] executes the fused pass and returns one byte per
      pattern of the [compile]-time array: ['\001'] iff that pattern
      matches somewhere in [subject].  Unhosted patterns are always
      ['\000'] — "unknown", not "no match"; check {!is_hosted}.  Runs
      under the installed step deadline like any other search.
      @raise Bail on cache thrash (fall back to per-pattern scans).
      @raise Deadline_exceeded / Budget_exceeded as usual. *)

  val is_hosted : fused -> int -> bool
  (** Whether pattern [i] of the compile-time array is hosted. *)

  val hosted_count : fused -> int

  val pattern_count : fused -> int
  (** Length of the compile-time pattern array (hosted or not). *)

  val program_size : fused -> int
  (** Fused Pike-program length, for introspection and benchmarks. *)

  val state_count : fused -> int
  (** Interned DFA states in the calling domain's cache. *)

  val cache_clear : fused -> unit
  (** Drop the calling domain's transition cache (benchmarks). *)

  val cache_touch : fused -> unit
  (** Eagerly create (and warm-seed, when tables are attached) the
      calling domain's transition cache. *)

  val shrink_cache : fused -> max_states:int -> unit
  (** Replace the calling domain's cache with one bounded to
      [max_states] states, to force the flush/restart and {!Bail}
      paths in tests.
      @raise Invalid_argument when [max_states < 2]. *)

  val warm_export : fused -> string option
  (** Snapshot of the calling domain's warmed fused transition tables,
      or [None] when this domain never ran the machine. *)

  val warm_attach : fused -> string -> unit
  (** Installs warm tables to seed every subsequently created
      per-domain cache of this machine from.  Validation happens at
      seed time; a bad blob leaves caches cold. *)

  val warm_blob_counts : string -> int option
  (** Interned-state count in a fused warm blob's header. *)

  val write : Buffer.t -> fused -> unit
  (** Appends the serialized fused machine and its pattern-index map
      (the rule-pack fused section payload). *)

  val read : npatterns:int -> Binio.r -> fused
  (** Decodes a machine written by {!write} and re-checks it against a
      catalog of [npatterns] patterns — a section disagreeing with the
      catalog it is attached to is rejected.
      @raise Binio.Corrupt / Binio.Truncated on malformed input. *)
end
