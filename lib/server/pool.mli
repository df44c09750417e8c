(** The serve worker pool: OCaml 5 domains sharing one compiled scan
    plan.

    Requests enter through {!submit} into a bounded {!Bqueue}; workers
    pop, execute, and hand the response to the job's own delivery
    callback, so completion order is independent of submission order
    (responses are correlated by id, not position).  Every submission
    eventually produces exactly one callback invocation: queued work is
    executed, a full or closed queue delivers an [overloaded] error
    immediately on the caller's thread.

    Robustness, per request: a {!Rx.Deadline_exceeded} becomes a
    [timeout] error response, any other exception an [error] response;
    the worker survives both and takes the next job.

    Instruments (live in {!Telemetry}, reported by the [stats] request):
    [server_requests_total], [server_overloaded_total],
    [server_timeouts_total], [server_errors_total],
    [server_queue_depth] (occupancy observed at each submission) and
    [server_request_latency_ns] (per-request span). *)

type t

val create :
  ?pack:int * string ->
  ?rcache:Rcache.t ->
  ?warm_boot:(unit -> unit) ->
  jobs:int ->
  queue_capacity:int ->
  scanner:Patchitpy.Scanner.t ->
  unit ->
  t
(** Spawns [jobs] worker domains over a queue of [queue_capacity]
    slots.  The scanner is shared by reference — compiled scan plans
    are immutable and domain-safe.  [pack] is the (format version,
    catalog hash) of the rule pack the plan was loaded from, if any;
    the [health] reply reports it so clients can tell which rules a
    daemon is running.  [rcache] puts a content-hash result cache in
    front of the queue: {!submit} probes it for [scan]/[patch]
    requests and delivers hits synchronously; misses fill it at
    delivery time.  Its salt must be the rule-pack fingerprint of
    [scanner]'s catalog.  [warm_boot] runs once inside every worker
    domain before it takes its first job.  Transition caches are
    per-domain, so heat applied in the spawning domain would not reach
    the workers: {!Rulepack.prewarm} of a warm pack, which replays its
    canaries, must run here. *)

val rcache : t -> Rcache.t option
(** The result cache given to {!create}, for stats. *)

val submit :
  ?trace:Telemetry.Trace.t ->
  t ->
  Protocol.request ->
  deliver:(Protocol.response -> unit) ->
  unit
(** Never blocks.  [deliver] is invoked exactly once per call: from a
    worker domain with the request's response, synchronously with the
    cached response on a result-cache hit, or synchronously with an
    [overloaded] error when the queue is full or the pool draining.
    A cacheable request makes one {!Rcache.claim}: a [Hit] is
    delivered here; a [Joined] repeat of a key already queued or
    executing takes no queue slot and is delivered the leader's
    response, [timeout] and [overloaded] errors included, re-tagged
    with its own id; a [Lead] is enqueued, and its delivery makes one
    {!Rcache.settle} that caches the body and answers the repeats.
    [deliver] must be thread-safe against other deliveries to the same
    destination; exceptions it raises are swallowed.

    When tracing is on ({!Telemetry.Trace.enable}), the request's
    lifecycle is recorded into the executing worker's flight-recorder
    ring: pass [trace] to carry over a builder that already holds an
    intake span, or omit it to have one created here.  The enqueue time
    is stamped at push, so the queue-wait phase is exact.  Overloaded
    submissions, cache hits and coalesced repeats are not recorded
    (they never reach a worker domain); a cache miss contributes a [cache-lookup] span to
    the record. *)

val prometheus_text : unit -> string
(** The raw Prometheus text exposition (the [stats prometheus] reply
    embeds the same text as a JSON string; the HTTP gateway serves it
    verbatim on [GET /metrics]).  Empty when no telemetry sink is
    installed. *)

val execute : t -> Protocol.request -> Protocol.response
(** Executes one request synchronously on the calling domain, with the
    same deadline/exception envelope as a worker.  The differential
    tests and the bench driver use it to exercise request semantics
    without queue scheduling. *)

val pending : t -> int
(** Requests accepted but not yet delivered (queued + executing). *)

val shutdown : ?drain_timeout:float -> t -> bool
(** Closes the queue (subsequent {!submit}s deliver [overloaded]) and
    waits up to [drain_timeout] seconds (default 10) for in-flight work
    to finish.  [true] when fully drained (workers joined); [false]
    when the timeout cut the drain short — the caller is expected to
    exit the process, as stuck workers cannot be joined. *)
