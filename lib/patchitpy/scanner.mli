(** Compiled scan plans.

    {!compile} turns a rule list into an immutable scanner value holding
    everything detection needs that does not depend on the scanned
    source: one shared {!Acsearch} automaton over every rule's
    {!Rx.required_literals} (a single pass over the source yields the
    candidate rule set), the literal→rule ownership map, and the set of
    rules that must always run because no prefilter literal could be
    derived for them.

    Scanners are pure values — no global tables, no caches — so one
    scanner can be shared freely across OCaml 5 domains, and distinct
    catalogs (the Python catalog, the JS pack, a stripped ablation set,
    user rule files) each get their own plan instead of colliding in a
    process-wide table keyed by rule id.

    Per scanned source, {!scan} additionally builds a {!Line_index} once
    and resolves every finding position through it, replacing the seed
    engine's from-byte-0 rescan per finding. *)

type finding = {
  rule : Rule.t;
  line : int;  (** 1-based line of the match start *)
  column : int;  (** 0-based column *)
  offset : int;  (** byte offset of the match start *)
  stop : int;  (** byte offset one past the match end *)
  snippet : string;  (** the matched text, single-line-trimmed *)
  m : Rx.m;  (** the underlying match, used by the patcher *)
}

type warning =
  | Budget_exhausted of string
      (** The named rule hit its {!Rx} backtracking budget on this
          source and was skipped.  Formerly a silent drop; now surfaced
          so reports (and telemetry) can show it. *)

type t
(** A compiled scan plan.  Immutable and domain-safe. *)

type rule_meta = {
  literals : string list;  (** {!Rx.required_literals} of the pattern *)
}
(** The per-rule analysis {!compile} needs.  Deriving it walks the
    pattern AST; it is pure per rule, so callers may compute it in
    parallel with {!derive_meta} and pass the results to {!compile} via
    [?meta]. *)

val derive_meta : Rule.t -> rule_meta
(** The analysis of one rule's pattern: its prefilter literals.  Pure
    and domain-safe. *)

val compile : ?meta:rule_meta list -> Rule.t list -> t
(** Derives every rule's prefilter literals and builds the shared
    automaton.  Rule order is preserved and ties in finding order break
    on it, so a compiled scanner reports findings exactly as a
    rule-by-rule scan of the same list would.

    [meta], when given, must be [List.map derive_meta rules] (same
    order, same length — the length is checked); supplying it lets the
    caller parallelize the per-rule analysis across domains while the
    automaton build itself stays sequential and deterministic. *)

val rules : t -> Rule.t list
(** The rule list the scanner was compiled from, in order.  On a
    pack-loaded plan this forces every deferred rule decode; prefer
    {!rule_count} when only the count is needed. *)

val rule_count : t -> int
(** Number of rules in the plan, without forcing any deferred decode. *)

val scan : t -> string -> finding list
(** All findings, sorted by offset then rule id.  Semantics are
    identical to the seed [Engine.scan]: suppress patterns are evaluated
    over the matched lines plus one line of context each side, and a
    rule that exhausts its backtracking budget on a pathological input
    is skipped while the rest of the plan still runs. *)

val scan_with_warnings : t -> string -> finding list * warning list
(** {!scan}, also returning the rules that were skipped because they
    exhausted their backtracking budget (in rule order).  When a
    {!Telemetry} sink is installed, either entry point additionally
    records per-rule wall time, backtracking steps, prefilter
    candidate/match/suppress counts and budget exhaustion. *)

val is_vulnerable : t -> string -> bool

val scan_selection : t -> string -> first_line:int -> last_line:int -> finding list
(** Scans only the selected line range (1-based, inclusive); finding
    positions refer to the whole file. *)

val scan_selection_with_warnings :
  t -> string -> first_line:int -> last_line:int -> finding list * warning list
(** {!scan_selection} with the budget warnings of {!scan_with_warnings}. *)

val telemetry_def : t -> Telemetry.Rules.def
(** The telemetry registration of this plan's rule-id vector — the key
    for picking this scanner's per-rule block out of a
    {!Telemetry.Report}. *)

(** {1 The fused scan tier}

    By default a plan additionally fuses every hostable rule pattern
    into one tagged lazy DFA ({!Rx.Fused}) on first scan.  A scan then
    runs the Aho–Corasick literal gate, ONE fused pass over the source
    (an exact per-rule existence filter), and per-rule sweeps only for
    rules the fused pass flagged (plus unhosted rules) — so per-sample
    cost approaches one traversal of the input regardless of catalog
    size, while results stay byte-identical to the per-rule path by
    construction.

    [PATCHITPY_SCAN_TIER=per-rule] in the environment pins plans built
    afterwards to the per-rule path (the escape hatch, mirroring
    [PATCHITPY_RX_TIER]); [PATCHITPY_RX_TIER=backtrack] implies it.
    When the fused pass's bounded transition cache thrashes on a
    subject it bails and that scan transparently reverts to per-rule
    sweeps ([scanner_fused_fallbacks_total] counts these; the flags it
    did compute are discarded).  Counters
    [scanner_fused_candidates_total] (rules flagged) and
    [scanner_fused_confirms_total] (per-rule sweeps those flags
    triggered) size the filter's win. *)

val fused_machine : t -> Rx.fused option
(** The plan's fused catalog machine, fusing it now if this is the
    first use.  [None] when the tier is pinned off or no rule is
    hostable. *)

val per_rule_tier : t -> t
(** A copy of the plan pinned to the per-rule scan path (no fused
    pass, ever).  Scan results are identical by construction; the
    differential suites use the pinned copy as the reference. *)

val set_fused_thunk : t -> (unit -> Rx.fused option) -> unit
(** Replaces how the plan obtains its fused machine on first use —
    rule packs install a thunk decoding the pack's pre-built fused
    section instead of re-fusing from the rules.  No-op on plans with
    the tier pinned off. *)

(** {1 Scan states}

    The patcher scans a source once ({!scan_state}), then after each
    patch round scans the edited source again in full.  A state keeps
    the per-rule match lists, suppression verdicts included, so findings
    and their line/column positions are materialized only when asked
    for. *)

type state
(** A scanned source with its per-rule raw matches and budget
    warnings. *)

val scan_state : t -> string -> state
(** The full scan of {!scan_with_warnings}, as a state. *)

val state_findings : t -> state -> finding list
(** The findings of a state, sorted by offset then rule id — exactly
    {!scan} of the state's source. *)

val state_source : state -> string
(** The source text the state describes. *)

(** {1 Binary codec}

    Plan serialization for rule packs.  A plan read back performs no
    compilation: rules, prefilter automaton and derived tables travel
    verbatim; only process-local identity (telemetry registration,
    DFA-cache keys) is regenerated.  Scanning with a decoded plan is
    byte-identical to scanning with the [compile]-built one. *)

val write : Buffer.t -> t -> unit

val read : Binio.r -> t
(** @raise Binio.Corrupt on structurally invalid input (indices and
    table lengths are cross-checked against the rule count).
    @raise Binio.Truncated if the input ends early. *)
