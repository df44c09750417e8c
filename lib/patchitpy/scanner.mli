(** Compiled scan plans.

    {!compile} turns a rule list into an immutable scanner value holding
    everything detection needs that does not depend on the scanned
    source: the compiled rules and, built on first scan, one fused
    multi-pattern machine over every hostable rule pattern (see
    {e The fused scan tier} below), the plan's only rule filter.

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

val compile : Rule.t list -> t
(** Builds the plan.  Rule order is preserved and ties in finding order
    break on it, so a compiled scanner reports findings exactly as a
    rule-by-rule scan of the same list would.  Fusing the rule patterns
    is deferred to the first scan. *)

val deferred : ids:string array -> (unit -> Rule.t array) -> t
(** A plan whose rules are built on first use: [ids] (the rules' ids,
    in order) registers the plan's telemetry now, and [build] runs when
    a scan, {!rules} or {!fused_machine} first needs the rules — once,
    domain-safely ({!Rx.once}).  [build] must return rules with exactly
    those ids, in that order; whatever it raises, the first use
    raises.  Rule packs load through it, so a process pays for
    compiling the catalog only when it scans. *)

val rules : t -> Rule.t list
(** The rule list the scanner was compiled from, in order.  On a
    {!deferred} plan this builds the rules. *)

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
    records per-rule wall time, backtracking steps, sweep/match/suppress
    counts and budget exhaustion. *)

val is_vulnerable : t -> string -> bool

val scan_selection : t -> string -> first_line:int -> last_line:int -> finding list
(** Scans only the selected line range (1-based, inclusive).  Finding
    positions ([line], [column], [offset], [stop]) refer to the whole
    file; the match value [m] spans the selected text, so its offsets
    and [Rx.matched] are relative to the selection. *)

val scan_selection_with_warnings :
  t -> string -> first_line:int -> last_line:int -> finding list * warning list
(** {!scan_selection} with the budget warnings of {!scan_with_warnings}. *)

val telemetry_def : t -> Telemetry.Rules.def
(** The telemetry registration of this plan's rule-id vector — the key
    for picking this scanner's per-rule block out of a
    {!Telemetry.Report}. *)

(** {1 The fused scan tier}

    A plan fuses every hostable rule pattern into one tagged lazy DFA
    ({!Rx.Fused}) on first scan.  A scan then runs ONE fused pass over
    the source (an exact per-rule existence filter), and per-rule
    sweeps only for rules the fused pass flagged, each stopped at the
    rule's last flag (no match starts past it), plus unhosted rules —
    so per-sample cost approaches one traversal of the input regardless
    of catalog size, while results stay byte-identical to the per-rule
    path by construction.

    With no fused bounds — a plan pinned by {!per_rule_tier}, a plan in
    which no rule is hostable, or a subject on which the fused pass's
    bounded transition cache thrashed and bailed — the scan sweeps
    every rule ([scanner_fused_fallbacks_total] counts the bails; the
    flags a bailed pass did compute are discarded).  Counters
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
