(* The worker pool: OCaml 5 domains executing requests against one
   shared compiled scan plan.

   The plan ([Scanner.t]) is immutable and domain-safe, so workers share
   it without copying or locking — the whole point of the daemon is to
   pay catalog compilation once.  Jobs flow through a [Bqueue]; each job
   carries its own delivery callback so responses go back to whichever
   front-end (stdio, socket connection) submitted the request, in
   completion order, not submission order.

   Robustness contract, per request:
   - an exhausted step deadline is a [Timeout] error response;
   - any other exception is an [Internal] error response;
   in both cases the worker survives and takes the next job. *)

type job = {
  request : Protocol.request;
  deliver : Protocol.response -> unit;
  trace : Telemetry.Trace.t option;
      (* request-lifecycle trace builder, created at submission so the
         queue-wait phase is observable; finished by the worker after
         delivery, on the worker's own flight-recorder ring *)
}

type t = {
  scanner : Patchitpy.Scanner.t;
  pack : (int * string) option;
      (* (format version, catalog hash) when the plan came from a rule
         pack — surfaced by [health] so clients can tell which rules a
         daemon is running without access to its command line *)
  rcache : Rcache.t option;
      (* the content-hash result cache probed at submission; hits are
         delivered synchronously without touching the queue *)
  queue : job Bqueue.t;
  jobs : int;
  queue_capacity : int;
  in_flight : int Atomic.t;  (* queued + executing, across front-ends *)
  mutable workers : unit Domain.t array;
}

(* --- instruments ---------------------------------------------------------- *)

let requests_counter = Telemetry.Counter.make "server_requests_total"
let overloaded_counter = Telemetry.Counter.make "server_overloaded_total"
let timeouts_counter = Telemetry.Counter.make "server_timeouts_total"
let errors_counter = Telemetry.Counter.make "server_errors_total"
let queue_depth_histogram = Telemetry.Histogram.make "server_queue_depth"

let latency_histogram =
  Telemetry.Histogram.make "server_request_latency_ns"

(* --- request execution ---------------------------------------------------- *)

(* Point-in-time cache statistics, surfaced by both [health] and
   [stats]: the process-wide regex compile cache, the DFA cache's
   flush/bail counters, and the fused scan tier's
   candidate/confirm/fallback counters (all 0 when no telemetry sink
   is installed). *)
let result_cache_extras t =
  match t.rcache with
  | None -> "\"resultCache\":{\"enabled\":false}"
  | Some cache ->
    let s = Rcache.stats cache in
    Printf.sprintf
      "\"resultCache\":{\"enabled\":true,\"hits\":%d,\"misses\":%d,\"coalesced\":%d,\"insertions\":%d,\"evictions\":%d,\"entries\":%d,\"bytes\":%d,\"maxBytes\":%d}"
      s.Rcache.hits s.Rcache.misses s.Rcache.coalesced s.Rcache.insertions
      s.Rcache.evictions s.Rcache.entries s.Rcache.bytes s.Rcache.max_bytes

let cache_extras () =
  let hits, entries = Rx.compile_cache_stats () in
  let ( builds,
        flushes,
        bails,
        fused_candidates,
        fused_confirms,
        fused_fallbacks ) =
    match Telemetry.installed () with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some sink ->
      let report = Telemetry.Report.of_sink sink in
      let total name =
        Option.value ~default:0
          (List.assoc_opt name report.Telemetry.Report.counters)
      in
      ( total "rx_dfa_builds_total",
        total "rx_dfa_cache_flushes_total",
        total "rx_dfa_fallback_total",
        total "scanner_fused_candidates_total",
        total "scanner_fused_confirms_total",
        total "scanner_fused_fallbacks_total" )
  in
  Printf.sprintf
    "\"rxCompileCache\":{\"hits\":%d,\"entries\":%d},\"dfaCache\":{\"builds\":%d,\"flushes\":%d,\"bails\":%d},\"fusedScan\":{\"candidates\":%d,\"confirms\":%d,\"fallbacks\":%d}"
    hits entries builds flushes bails fused_candidates fused_confirms fused_fallbacks

let health_body t =
  let pack =
    match t.pack with
    | None -> "null"
    | Some (version, hash) ->
      Printf.sprintf "{\"formatVersion\":%d,\"catalogHash\":\"%s\"}" version
        hash
  in
  Printf.sprintf
    "{\"status\":\"ok\",\"schema\":\"%s\",\"jobs\":%d,\"queueDepth\":%d,\"inFlight\":%d,\"rulePack\":%s,%s,%s}"
    Protocol.schema t.jobs (Bqueue.length t.queue)
    (Atomic.get t.in_flight) pack (cache_extras ()) (result_cache_extras t)

(* Nearest-rank percentile over a sorted array; 0 when empty. *)
let percentile_ns sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Queue-wait vs service-time percentiles from the raw flight-recorder
   samples — unlike [server_request_latency_ns], these are exact (no
   power-of-two bucketing) and decompose per phase.  The p99 exemplars
   carry trace ids so a slow request can be pulled with a [trace]
   request and inspected span by span. *)
let latency_breakdown () =
  let module Tr = Telemetry.Trace in
  let records = Tr.records () in
  let n = List.length records in
  if n = 0 then "\"latencyBreakdown\":{\"samples\":0}"
  else begin
    let sorted_by f =
      let a = Array.of_list (List.map f records) in
      Array.sort compare a;
      a
    in
    let pcts a =
      Printf.sprintf "{\"p50\":%d,\"p90\":%d,\"p99\":%d}" (percentile_ns a 0.50)
        (percentile_ns a 0.90) (percentile_ns a 0.99)
    in
    let exemplars =
      String.concat ","
        (List.map
           (fun (r : Tr.record) ->
             Printf.sprintf
               "{\"id\":\"%s\",\"kind\":\"%s\",\"seq\":%d,\"totalNs\":%d,\"queueWaitNs\":%d}"
               (Telemetry.Report.escape r.Tr.tr_id)
               (Telemetry.Report.escape r.Tr.tr_kind)
               r.Tr.tr_seq (Tr.total_ns r) (Tr.queue_wait_ns r))
           (Tr.slowest 3))
    in
    Printf.sprintf
      "\"latencyBreakdown\":{\"samples\":%d,\"queueWaitNs\":%s,\"serviceNs\":%s,\"totalNs\":%s,\"p99Exemplars\":[%s]}"
      n
      (pcts (sorted_by Tr.queue_wait_ns))
      (pcts (sorted_by Tr.service_ns))
      (pcts (sorted_by Tr.total_ns))
      exemplars
  end

(* The raw Prometheus text exposition — the [stats] request embeds it
   as a JSON string to keep NDJSON framing; the HTTP gateway serves it
   verbatim on [GET /metrics]. *)
let prometheus_text () =
  match Telemetry.installed () with
  | None -> ""
  | Some sink ->
    let report = Telemetry.Report.of_sink sink in
    let hits, entries = Rx.compile_cache_stats () in
    let cache_lines =
      Printf.sprintf
        "# HELP rx_compile_cache_hits_total Hits in the process-wide \
         regex compile cache.\n\
         # TYPE rx_compile_cache_hits_total counter\n\
         rx_compile_cache_hits_total %d\n\
         # HELP rx_compile_cache_entries Entries in the process-wide \
         regex compile cache.\n\
         # TYPE rx_compile_cache_entries gauge\n\
         rx_compile_cache_entries %d\n"
        hits entries
    in
    Telemetry.Report.to_prometheus report ^ cache_lines

let stats_body t fmt =
  match Telemetry.installed () with
  | None -> (
    match fmt with
    | Protocol.Stats_json ->
      Printf.sprintf "{\"enabled\":false,%s,%s,%s}" (cache_extras ())
        (result_cache_extras t) (latency_breakdown ())
    | Protocol.Stats_prometheus -> "\"\"")
  | Some sink -> (
    match fmt with
    | Protocol.Stats_json ->
      (* splice cache stats and the flight-recorder latency breakdown
         into the report document (which always ends in '}') *)
      let json = Telemetry.Report.to_json (Telemetry.Report.of_sink sink) in
      String.sub json 0 (String.length json - 1)
      ^ "," ^ cache_extras () ^ "," ^ result_cache_extras t ^ ","
      ^ latency_breakdown () ^ "}"
    | Protocol.Stats_prometheus ->
      (* multi-line text, embedded as a JSON string to keep framing *)
      "\"" ^ Telemetry.Report.escape (prometheus_text ()) ^ "\"")

let execute t (req : Protocol.request) =
  Telemetry.Counter.incr requests_counter;
  let start = Telemetry.now_ns () in
  let reply body =
    Protocol.Reply { id = req.id; kind = Protocol.kind_name req.kind; body }
  in
  let serialize f = Telemetry.Trace.ambient_span Telemetry.Trace.Serialize f in
  let run () =
    match req.kind with
    | Protocol.Scan { file; source } ->
      let findings, warnings =
        Patchitpy.Scanner.scan_with_warnings t.scanner source
      in
      reply
        (serialize (fun () ->
             Patchitpy.Jsonout.findings_to_json ~warnings ~file findings))
    | Protocol.Patch { file; source } ->
      let result = Patchitpy.Patcher.patch ~scanner:t.scanner source in
      reply
        (serialize (fun () -> Patchitpy.Jsonout.patch_to_json ~file result))
    | Protocol.Health -> reply (serialize (fun () -> health_body t))
    | Protocol.Stats fmt -> reply (serialize (fun () -> stats_body t fmt))
    | Protocol.Trace_dump { count; mode; format } ->
      let records =
        match mode with
        | Protocol.Trace_last -> Telemetry.Trace.last count
        | Protocol.Trace_slow -> Telemetry.Trace.slowest count
      in
      reply
        (serialize (fun () ->
             match format with
             | Protocol.Trace_chrome -> Telemetry.Trace.to_chrome records
             | Protocol.Trace_ndjson ->
               (* multi-line NDJSON, embedded as a JSON string *)
               "\""
               ^ Telemetry.Report.escape (Telemetry.Trace.to_ndjson records)
               ^ "\""))
  in
  let outcome =
    match
      match req.deadline_steps with
      | None -> run ()
      | Some steps -> Rx.with_step_deadline ~steps run
    with
    | resp -> resp
    | exception Rx.Deadline_exceeded ->
      Telemetry.Counter.incr timeouts_counter;
      Protocol.Error_reply
        {
          id = Some req.id;
          error = Protocol.Timeout;
          message =
            Printf.sprintf
              "request exceeded its deadline of %d matcher steps \
               (partial per-rule telemetry was recorded)"
              (Option.value req.deadline_steps ~default:0);
        }
    | exception e ->
      Telemetry.Counter.incr errors_counter;
      Protocol.Error_reply
        {
          id = Some req.id;
          error = Protocol.Internal;
          message = Printexc.to_string e;
        }
  in
  Telemetry.Histogram.observe latency_histogram (Telemetry.now_ns () - start);
  outcome

(* --- lifecycle ------------------------------------------------------------ *)

let rec worker_loop t =
  match Bqueue.pop t.queue with
  | None -> ()
  | Some job ->
    let module Tr = Telemetry.Trace in
    let response =
      match job.trace with
      | None -> execute t job.request
      | Some b ->
        let t_pop = Tr.now_ns () in
        Tr.add_span b Tr.Queue_wait ~start:(Tr.marked b) ~stop:t_pop;
        let t_exec = Tr.now_ns () in
        Tr.add_span b Tr.Dispatch ~start:t_pop ~stop:t_exec;
        Tr.with_current b (fun () -> execute t job.request)
    in
    (* A dead connection must not kill the worker. *)
    (try
       match job.trace with
       | None -> job.deliver response
       | Some b -> Tr.span b Tr.Write (fun () -> job.deliver response)
     with _ -> ());
    (* Publish into this worker domain's ring only after delivery, so
       the write phase is part of the record. *)
    (match job.trace with None -> () | Some b -> Tr.finish b);
    Atomic.decr t.in_flight;
    worker_loop t

let create ?pack ?rcache ?warm_boot ~jobs ~queue_capacity ~scanner () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      scanner;
      pack;
      rcache;
      queue = Bqueue.create ~capacity:queue_capacity;
      jobs;
      queue_capacity;
      in_flight = Atomic.make 0;
      workers = [||];
    }
  in
  (* Each worker heats its own domain before taking work: transition
     caches are per-domain, so warm-boot work (rule-pack canary
     replay) must run inside the domain it is meant to heat —
     running it once in the spawning domain would leave every worker
     cold. *)
  t.workers <-
    Array.init jobs (fun _ ->
        Domain.spawn (fun () ->
            (match warm_boot with Some f -> f () | None -> ());
            worker_loop t));
  t

let rcache t = t.rcache

let enqueue ?trace t request ~deliver =
  Telemetry.Histogram.observe queue_depth_histogram (Bqueue.length t.queue);
  Atomic.incr t.in_flight;
  let trace =
    match trace with
    | Some _ as b -> b
    | None ->
      (* Front-ends that measure intake pass their own builder; direct
         submitters (tests, bench) still get traced from here. *)
      Telemetry.Trace.start ~id:request.Protocol.id
        ~kind:(Protocol.kind_name request.Protocol.kind)
        ()
  in
  (* Stamp the enqueue time last, right before the push. *)
  (match trace with None -> () | Some b -> Telemetry.Trace.mark b);
  match Bqueue.try_push t.queue { request; deliver; trace } with
  | `Ok -> ()
  | (`Full | `Closed) as why ->
    (* An overloaded submission never reaches a worker domain: abandon
       the builder rather than finish it from this front-end thread
       (finish publishes into the calling domain's ring, and rings are
       single-writer per domain). *)
    Atomic.decr t.in_flight;
    Telemetry.Counter.incr overloaded_counter;
    (* [requests_total] counts work executed; a rejected submission only
       shows up in [overloaded_total]. *)
    deliver
      (Protocol.Error_reply
         {
           id = Some request.id;
           error = Protocol.Overloaded;
           message =
             (match why with
             | `Full ->
               Printf.sprintf "submission queue full (capacity %d); retry"
                 t.queue_capacity
             | `Closed -> "server is draining; not accepting requests");
         })

(* Scan and patch results are deterministic functions of (rule
   catalog, file label, source, options), so they are the cacheable
   kinds; everything else reports live state. *)
let cache_plan (req : Protocol.request) =
  match req.kind with
  | Protocol.Scan { file; source } | Protocol.Patch { file; source } ->
    let options =
      match req.deadline_steps with None -> "" | Some n -> string_of_int n
    in
    Some (Protocol.kind_name req.kind, file, source, options)
  | Protocol.Health | Protocol.Stats _ | Protocol.Trace_dump _ -> None

let submit ?trace t request ~deliver =
  match (t.rcache, cache_plan request) with
  | None, _ | _, None -> enqueue ?trace t request ~deliver
  | Some cache, Some (kind, file, source, options) -> (
    let module Tr = Telemetry.Trace in
    let t0 = if Tr.enabled () then Tr.now_ns () else 0 in
    let key = Rcache.key cache ~kind ~file ~options ~body:source in
    match Rcache.claim cache key (request.Protocol.id, deliver) with
    | Rcache.Hit body ->
      (* A hit is delivered synchronously from the submitting thread —
         no queue, no worker domain.  The trace builder (if any) is
         abandoned, like an overloaded submission: finishing it here
         would publish into the calling domain's ring, and rings are
         single-writer per domain. *)
      ignore (trace : Tr.t option);
      (try deliver (Protocol.Reply { id = request.Protocol.id; kind; body })
       with _ -> ())
    | Rcache.Joined ->
      (* A repeat of a key whose first miss is still queued or executing
         waits on the leader's response instead of taking a queue slot;
         it never reaches a worker domain, so its builder is abandoned
         too. *)
      ignore (trace : Tr.t option)
    | Rcache.Lead ->
      (match trace with
      | None -> ()
      | Some b -> Tr.add_span b Tr.Cache_lookup ~start:t0 ~stop:(Tr.now_ns ()));
      (* Settle on the way out: the wrapper runs on the worker domain at
         delivery time, so the insert costs the submitter nothing, and
         the body is cached in the same step that releases the key, so a
         later repeat hits.  Waiters get the leader's response, error
         replies included, under their own ids. *)
      let deliver response =
        let waiters = Rcache.settle cache key response in
        (try deliver response with _ -> ());
        List.iter
          (fun (id, deliver) ->
            let response =
              match response with
              | Protocol.Reply r -> Protocol.Reply { r with id }
              | Protocol.Error_reply e ->
                Protocol.Error_reply { e with id = Some id }
            in
            try deliver response with _ -> ())
          waiters
      in
      enqueue ?trace t request ~deliver)

let pending t = Atomic.get t.in_flight

let shutdown ?(drain_timeout = 10.) t =
  Bqueue.close t.queue;
  let deadline = Unix.gettimeofday () +. drain_timeout in
  let rec wait () =
    if Atomic.get t.in_flight = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  let drained = wait () in
  (* Joining a worker stuck in an over-deadline request would hang past
     the drain budget; the caller exits the process instead. *)
  if drained then Array.iter Domain.join t.workers;
  drained
