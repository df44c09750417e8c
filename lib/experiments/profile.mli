(** Corpus profiling: the measurement behind "which of the 85 rules do
    we optimize next".

    {!run} scans the whole 609-sample corpus under a private
    {!Telemetry} sink (optionally patching every sample too) and folds
    the merged per-rule statistics into one table: per rule, how often
    it was swept (the fused pass flagged it), how often it matched,
    what the suppress window dropped, and how much backtracking work it
    burned.

    {b Determinism.}  The default table and JSON are byte-identical at
    any [--jobs] value: every column is a count summed over samples
    (telemetry merge is commutative), and per-rule {e cost} is reported
    in {!Rx} backtracking steps — a machine- and scheduling-independent
    unit of matcher work.  Wall-clock nanoseconds are also collected
    but only rendered on request ([~wall:true]), because no wall-time
    column can be reproducible. *)

type rule_row = {
  id : string;
  candidates : int;  (** scans in which the rule was swept *)
  matched : int;  (** raw pattern matches *)
  suppressed : int;  (** matches dropped by the suppress window *)
  findings : int;  (** findings reported *)
  budget_exhausted : int;  (** scans the rule aborted on its budget *)
  steps : int;  (** backtracking steps consumed (deterministic cost) *)
  time_ns : int;  (** wall time consumed (not reproducible) *)
  skip_ratio : float;  (** share of scans in which the rule was not swept *)
}

type t = {
  samples : int;  (** corpus samples profiled *)
  scans : int;  (** scans recorded (= samples) *)
  rule_count : int;
  rules : rule_row list;  (** sorted by steps descending, then rule id *)
  report : Telemetry.Report.t;  (** the full underlying snapshot *)
}

val run : ?jobs:int -> ?limit:int -> ?patch:bool -> unit -> t
(** Profiles the corpus on [jobs] domains ([Par]'s default when
    omitted).  [limit] profiles only the first [limit] samples (CI
    smoke).  [patch] (default [false]) additionally runs
    {!Patchitpy.Patcher.patch} on every sample so the report includes
    patch-round counters. *)

val render : ?wall:bool -> ?top:int -> t -> string
(** The hot-spot table: one line per rule (or the [top] costliest),
    with candidate counts, fused-pass skip ratio, match/suppress/finding
    counts and the steps share.  [~wall:true] appends the wall-time
    column and per-rule microseconds. *)

val to_json : ?wall:bool -> t -> string
(** Machine-readable profile, schema ["patchitpy-profile/1"]: sample
    and scan counts plus one object per rule.  [timeNs] fields are
    emitted only with [~wall:true], keeping the default document
    byte-identical across job counts. *)

val summary : Telemetry.Report.t -> string
(** Compact human rendering of any telemetry report — the CLI's
    [--stats] output: counters, histogram count/mean, and the costliest
    rules of each recorded scan plan. *)
