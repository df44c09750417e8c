(** Near-zero-overhead metrics and tracing.

    The measurement layer behind the scan/patch hot paths: monotone
    counters, latency histograms with fixed log-spaced buckets,
    monotonic-clock spans, and dense per-rule statistic blocks for
    compiled scan plans.

    {2 Cost model}

    Telemetry is compiled in but off by default.  Every instrument
    checks one process-wide [Atomic] for the installed {!sink}; with no
    sink installed an event is a single load-and-branch, so the
    instrumented fast path is indistinguishable from an uninstrumented
    one.  With a sink installed, events land in a {e per-domain}
    collector (no locks, no contention on the hot path): counters are
    dense [int array] slots, histogram observations are a bucket-index
    computation plus two increments, and per-rule blocks are plain
    array stores indexed by rule position.

    {2 Domain model}

    Each domain that records into a sink gets its own collector,
    created on first use through [Domain.DLS] and registered with the
    sink under a mutex.  Nothing is shared between recording domains,
    so [Experiments.Par.map_samples --jobs N] can fan work out freely;
    {!Report.of_sink} merges every domain's collector by summation.
    Sums are commutative, so every deterministic quantity (counts,
    steps, bucket tallies) merges to the same value at any job count —
    only wall-clock sums vary run to run. *)

type sink
(** A collection target: the set of per-domain collectors events are
    recorded into while the sink is installed. *)

val create : unit -> sink
(** A fresh, empty sink.  Creating a sink does not install it. *)

val install : sink -> unit
(** Makes [sink] the process-wide recording target.  Replaces any
    previously installed sink (which keeps its data). *)

val uninstall : unit -> unit
(** Stops recording; instruments return to the one-branch fast path. *)

val installed : unit -> sink option
(** The currently installed sink, in one atomic load. *)

val enabled : unit -> bool

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f], and restores the previously
    installed sink (or none) even if [f] raises. *)

val now_ns : unit -> int
(** The monotonic clock (CLOCK_MONOTONIC), in nanoseconds.  Never goes
    backwards; unrelated to wall time. *)

val now_ticks : unit -> int
(** The cheapest available time source (raw TSC on x86, the monotonic
    clock elsewhere), for quantities that are only ever {e summed} and
    reported later: readings are raw ticks, converted to ns at report
    time against a lazily calibrated factor.  A read costs a few ns
    where {!now_ns} costs ~30; never goes backwards on one core, not
    comparable across hosts or reboots. *)

val ticks_to_ns : int -> int
(** Converts a {!now_ticks} difference to nanoseconds.  First call
    calibrates (~200 us spin); report paths only. *)

module Trace = Trace
(** Request-lifecycle tracing and the per-domain flight recorder; see
    {!Trace}. *)

type recorder
(** One domain's recording handle for the installed sink: fetch once
    with {!recorder}, then {!Counter.record}/{!Histogram.record}
    through it.  Instrument sites that record several values per event
    pay the sink lookup once instead of per value.  Do not hold one
    across domains or across sink changes. *)

val recorder : unit -> recorder option
(** The calling domain's recorder for the installed sink, or [None]
    when telemetry is off. *)

(** Monotone counters. *)
module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Registers (or looks up) the counter named [name].  Instruments
      are cheap process-wide handles; create them once at module
      initialisation, not per event.  [help] becomes the metric's
      Prometheus [# HELP] line (a generic one is emitted otherwise). *)

  val incr : ?by:int -> t -> unit
  (** Adds [by] (default 1) to the counter in the current domain's
      collector of the installed sink; no-op when no sink is
      installed.  [by] must be non-negative (counters are monotone). *)

  val record : recorder -> t -> int -> unit
  (** [record r c by] adds [by] through an already-fetched recorder. *)
end

(** Latency/size histograms over fixed log-spaced (power-of-two)
    buckets: bucket [i] counts values in [[2{^i}, 2{^i+1})], with
    bucket 0 absorbing values [<= 1] and the last bucket absorbing
    everything beyond. *)
module Histogram : sig
  type t

  val bucket_count : int
  (** Number of buckets (32). *)

  val make : ?help:string -> string -> t
  (** See {!Counter.make} for [help]. *)

  val observe : t -> int -> unit
  (** Records one value (clamped to [0] below).  No-op when no sink is
      installed. *)

  val record : recorder -> t -> int -> unit
  (** [record r h v] observes [v] through an already-fetched recorder. *)
end

(** Monotonic-clock spans: time a region and record the elapsed
    nanoseconds into a histogram. *)
module Span : sig
  val record : Histogram.t -> (unit -> 'a) -> 'a
  (** [record h f] runs [f] and observes its wall duration in [h].
      When no sink is installed, [f] runs untimed — the span costs one
      branch. *)
end

(** Dense per-rule statistic blocks for compiled scan plans.

    A scanner registers its rule-id vector once at compile time
    ({!Rules.define}); each scanning domain then obtains a dense block
    of per-rule arrays ({!Rules.block}) and updates them by rule index
    — no hashing or allocation per rule on the hot path. *)
module Rules : sig
  type def
  (** An immutable registration of a rule-id vector.  Part of the
      compiled scanner value: domain-safe to share. *)

  val define : string array -> def

  val ids : def -> string array

  type block = {
    mutable scans : int;  (** scans recorded through this def *)
    time_ns : int array;  (** per-rule wall time, summed *)
    steps : int array;  (** per-rule backtracking steps, summed *)
    candidates : int array;  (** scans in which the rule was swept *)
    matched : int array;  (** raw pattern matches *)
    suppressed : int array;  (** matches dropped by the suppress pattern *)
    findings : int array;  (** findings actually reported *)
    budget_exhausted : int array;  (** scans aborted by {!Rx.Budget_exceeded} *)
  }

  val block : sink -> def -> block
  (** The current domain's block for [def] under [sink], created on
      first use.  One int-keyed table lookup per call; callers fetch it
      once per scan and then index arrays directly. *)
end

(** Merged, serializable snapshots. *)
module Report : sig
  type histogram = {
    h_name : string;
    h_count : int;
    h_sum : int;
    h_buckets : int array;  (** per-bucket counts, length {!Histogram.bucket_count} *)
  }

  type ruleset = {
    r_ids : string array;
    r_scans : int;
    r_block : Rules.block;  (** merged across domains *)
  }

  type t = {
    counters : (string * int) list;  (** sorted by name *)
    histograms : histogram list;  (** sorted by name *)
    rulesets : ruleset list;  (** in registration order *)
  }

  val escape : string -> string
  (** JSON string-content escaping (quotes, backslashes, control
      characters) — shared with downstream writers that embed report
      fields in their own documents. *)

  val of_sink : sink -> t
  (** Merges every domain collector of [sink].  Deterministic for
      deterministic inputs: entries are sorted, sums are
      order-independent.  Call after recording domains have quiesced
      (e.g. once parallel workers are joined). *)

  val to_json : t -> string
  (** The [--trace] document: ["patchitpy-telemetry/1"] schema with
      counters, histogram buckets and per-rule tables. *)

  val to_prometheus : t -> string
  (** Prometheus text exposition format: counters as [_total] counters,
      histograms with cumulative [_bucket{le=...}] series, per-rule
      statistics as [rule]-labelled counters.  Every metric carries
      [# HELP] and [# TYPE] lines; label values use the exposition
      format's own escaping (backslash, quote, newline). *)
end
