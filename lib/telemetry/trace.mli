(** Request-lifecycle tracing and the flight recorder.

    One {!record} per request: phase-decomposed {!span}s (intake →
    queue wait → dispatch → scan → patch rounds → serialize →
    write) plus point events ({!instant}: DFA cache flushes and bails,
    deadline and budget trips), published on {!finish} into the
    finishing domain's fixed-size, overwrite-oldest ring buffer.  The
    recorder is cheap enough to leave always on in the serve daemon
    (the CI gate holds the scan bench to ≤ 2% with tracing on); the
    last [capacity] requests per domain stay reconstructable after the
    fact.

    {2 Usage shape}

    The component that owns a request creates a builder ({!start} or
    {!with_request}), times its own phases with {!add_span}/{!span},
    and installs the builder as the domain's ambient one
    ({!with_current}) while executing, so deep instrumentation sites —
    scanner, patcher, regex engine — attach spans and instants through
    {!ambient_span}/{!ambient_instant} with no builder in their
    signatures.  With tracing {!disable}d every hook is one atomic load
    and a branch.

    Readers ({!records}, {!last}, {!slowest}) may run concurrently with
    writers from any domain: slots hold immutable records behind
    atomics, so snapshots see whole records or miss them, never torn
    ones. *)

type phase =
  | Intake  (** front-end protocol decode *)
  | Cache_lookup  (** result-cache probe between intake and submit *)
  | Queue_wait  (** submit to worker pop *)
  | Dispatch  (** worker pop to execution start *)
  | Scan  (** full scan ([Scanner.scan_state]) *)
  | Patch_round
      (** one patcher fix round: its full re-scan of the edited source
          nests inside as a [Scan] span *)
  | Serialize  (** response body construction *)
  | Write  (** delivery back to the front-end *)

type instant =
  | Dfa_flush  (** a lazy-DFA transition cache flushed (pressure) *)
  | Dfa_bail  (** the DFA tier gave up; search re-ran on the backtracker *)
  | Deadline_hit  (** [Rx.Deadline_exceeded] raised *)
  | Budget_exhausted  (** [Rx.Budget_exceeded] surfaced *)

val phase_name : phase -> string
(** Stable wire names: ["intake"], ["cache-lookup"], ["queue-wait"],
    ["dispatch"], ["scan"], ["patch-round"], ["serialize"],
    ["write"]. *)

val instant_name : instant -> string
(** ["dfa-flush"], ["dfa-bail"], ["deadline"], ["budget"]. *)

type span = { sp_phase : phase; sp_start : int; sp_stop : int }
(** Monotonic-clock ns ({!Telemetry.now_ns} readings). *)

type record = {
  tr_id : string;  (** request id (protocol id, or file path for the CLI) *)
  tr_kind : string;  (** ["scan"], ["patch"], ... *)
  tr_seq : int;  (** global admission order across domains *)
  tr_domain : int;  (** domain that executed (and recorded) the request *)
  tr_start : int;
  tr_stop : int;
  tr_spans : span list;  (** ascending by [sp_start] *)
  tr_instants : (instant * int) list;  (** ascending by time *)
  tr_dropped : int;  (** instants dropped beyond the per-record cap (128) *)
  tr_minor_words : int;  (** minor-heap words the request allocated *)
}

(** {2 Switches} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turns the recorder on.  [capacity] (default 256) is the per-domain
    ring size in records; passing a different capacity than the current
    one implies {!reset}.  Idempotent and cheap when already on.
    @raise Invalid_argument when [capacity < 1]. *)

val disable : unit -> unit
(** Hooks return to the one-branch fast path.  Recorded rings are kept
    (still readable) until {!reset}. *)

val reset : unit -> unit
(** Drops every ring and restarts the sequence counter.  Safe against
    concurrent writers: their rings are orphaned, not mutated, and they
    rebuild on their next publish. *)

val capacity : unit -> int

val now_ns : unit -> int
(** The tracing clock (same monotonic source as {!Telemetry.now_ns}),
    for callers that stamp span edges themselves ({!add_span}). *)

(** {2 Building one request's record} *)

type t
(** A request's record under construction.  Single-owner: exactly one
    thread appends at a time (the builder follows the request through
    the pipeline; the queue handoff is the synchronization point). *)

val start : ?at:int -> id:string -> kind:string -> unit -> t option
(** A new builder, or [None] when tracing is off.  [at] backdates the
    request start (the front-end reads the clock before decoding, then
    creates the builder after — the id is only known then). *)

val add_span : t -> phase -> start:int -> stop:int -> unit
(** Attach an explicitly-timed span ({!now_ns} readings). *)

val span : t -> phase -> (unit -> 'a) -> 'a
(** Times [f] and attaches the span (also when [f] raises). *)

val instant : t -> instant -> unit
(** Attach a point event at the current time.  At most 128 per record;
    overflow increments [tr_dropped] instead. *)

val mark : t -> unit
(** Stamp the enqueue time: the submitter calls it right before the
    queue push, the worker turns it into the queue-wait span. *)

val marked : t -> int

val finish : t -> unit
(** Seal the record and publish it into the calling domain's ring.
    Call exactly once, from the domain that executed the request. *)

(** {2 The ambient builder} *)

val with_current : t -> (unit -> 'a) -> 'a
(** Runs [f] with [t] installed as this domain's ambient builder
    (restored on exit, also on raise). *)

val current : unit -> t option
(** The ambient builder, or [None] when tracing is off or no request
    is executing on this domain. *)

val ambient_span : phase -> (unit -> 'a) -> 'a
(** {!span} against the ambient builder; just runs [f] when there is
    none.  The deep-instrumentation entry point. *)

val ambient_instant : instant -> unit

val with_request : id:string -> kind:string -> (unit -> 'a) -> 'a
(** [start] + [with_current] + [finish]: wraps one synchronous request
    end to end (the CLI and bench path).  Just runs [f] when tracing
    is off. *)

(** {2 Reading the recorder} *)

val records : unit -> record list
(** Every live record across all domain rings, ascending [tr_seq].
    Safe concurrently with writers. *)

val last : int -> record list
(** The [n] most recent records (by admission order). *)

val slowest : int -> record list
(** The [n] slowest records by total duration, slowest first. *)

val total_ns : record -> int
val phase_ns : record -> phase -> int
(** Summed duration of that phase's spans. *)

val queue_wait_ns : record -> int

val service_ns : record -> int
(** [total - queue-wait - intake]: time attributable to execution. *)

(** {2 Exporters} *)

val json_escape : string -> string
(** JSON string-content escaping: quotes, backslashes and control
    characters.  [Telemetry.Report.escape] is this function. *)

val to_chrome : ?extra:(string * string) list -> record list -> string
(** One single-line Chrome [trace_event] JSON document (loadable in
    Perfetto / [chrome://tracing]): an ["X"] event per record and per
    span, an ["i"] event per instant, [tid] = domain.  Timestamps are
    microseconds relative to the earliest record.  [extra] entries are
    spliced into [otherData] as [(key, raw JSON)] — the CLI embeds the
    aggregate telemetry report there. *)

val to_ndjson : record list -> string
(** One compact JSON object per line (schema [patchitpy-trace/1]):
    record fields, spans and instants with offsets relative to the
    record start.  The machine-analysis format. *)
