(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper (experiments
   E1-E8, see DESIGN.md) over the 609-sample corpus and prints them in
   the paper's layout.

   Part 2 runs Bechamel micro-benchmarks: one per reproduced table —
   the per-sample cost of the work that table aggregates (detection for
   Table II, patching for Table III, complexity measurement for Fig. 3,
   rule derivation for Table I) — plus the engine substrates (regex
   matching, tokenizing, parsing). *)

open Bechamel
open Toolkit

let sample_flask =
  "import os\n\
   from flask import Flask, request\n\n\
   app = Flask(__name__)\n\n\
   @app.route(\"/run\")\n\
   def run_cmd():\n\
  \    cmd = request.args.get(\"cmd\", \"\")\n\
  \    os.system(cmd)\n\
  \    return f\"<p>{cmd}</p>\"\n\n\
   if __name__ == \"__main__\":\n\
  \    app.run(debug=True)\n"

let table1_pair =
  ( "name = request.args.get(\"name\", \"\")\nreturn f\"<p>{name}</p>\"\n",
    "user = request.args.get(\"user\")\nreturn f\"Hello {user}\"\n" )

let table1_safe_pair =
  ( "name = request.args.get(\"name\", \"\")\nreturn f\"<p>{escape(name)}</p>\"\n",
    "user = request.args.get(\"user\")\nreturn f\"Hello {escape(user)}\"\n" )

let shell_rule =
  Rx.compile {|\bsubprocess\.(call|run|Popen)\(([^)\n]*)shell\s*=\s*True([^)\n]*)\)|}

let catalog_scanner = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ())

let catalog_patterns =
  Array.of_list
    (List.map
       (fun (r : Patchitpy.Rule.t) -> r.Patchitpy.Rule.pattern)
       Patchitpy.(Catalog.all ()))

(* The flatness claim behind the fused tier: per-sample scan cost should
   stay roughly constant when the catalog doubles, because the fused
   pass walks the subject once whatever the rule count and only flagged
   rules pay a per-rule sweep.  The double is each rule re-derived under
   a dead literal prefix (["qq(?:...)"]) — real patterns, hosted like
   the originals, but matching nothing in the sample, which is what
   catalog growth looks like to any one file: new rules for APIs the
   file does not use.  (Duplicating rules verbatim would instead double
   the *matching* rules — measuring confirm work every tier must do,
   not scaling.)  Compare this row against scanner-scan-per-sample. *)
let doubled_scanner =
  let rules = Patchitpy.(Catalog.all ()) in
  let dead =
    List.filter_map
      (fun (r : Patchitpy.Rule.t) ->
        match
          Patchitpy.Rule.make ~id:(r.Patchitpy.Rule.id ^ "#2")
            ~title:r.Patchitpy.Rule.title ~cwe:r.Patchitpy.Rule.cwe
            ~severity:r.Patchitpy.Rule.severity
            ~pattern:("qq(?:" ^ Rx.pattern r.Patchitpy.Rule.pattern ^ ")")
            ~note:r.Patchitpy.Rule.note ()
        with
        | rule -> Some rule
        | exception _ -> None)
      rules
  in
  Patchitpy.Scanner.compile (rules @ dead)

(* One long-lived sink for the "(telemetry on)" pairs: the instrumented
   runs measure recording cost, not sink construction.  [with_sink] per
   run adds two atomic stores — noise at this scale — and guarantees the
   uninstrumented benchmarks really run with telemetry off whatever
   order Bechamel picks. *)
let bench_sink = Telemetry.create ()

(* The cold-start story: one pack built once, loaded per run.  A load is
   read + whole-file checksum + decode-to-usable-plan; the row exists to
   be compared against scanner-compile-catalog, the startup cost it
   replaces, and is gated in CI (must come in under 200 us). *)
let bench_pack_path =
  let path = Filename.temp_file "patchitpy-bench" ".pack" in
  Rulepack.save ~path (Rulepack.create ());
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let micro_tests =
  Test.make_grouped ~name:"patchitpy"
    [
      Test.make ~name:"rx-match (substrate)"
        (Staged.stage (fun () ->
             ignore (Rx.matches shell_rule "subprocess.run(cmd, shell=True)")));
      (* The DFA tier against a subject long enough that the cached-
         transition loop, not per-search setup, dominates. *)
      Test.make ~name:"rx-dfa-match (substrate)"
        (Staged.stage (fun () -> ignore (Rx.exec shell_rule sample_flask)));
      (* Same search with the transition cache dropped every run: the
         price of materializing states from the NFA, i.e. the cost the
         warm rows amortize away. *)
      Test.make ~name:"rx-dfa-cache-cold"
        (Staged.stage (fun () ->
             Rx.dfa_cache_clear shell_rule;
             ignore (Rx.exec shell_rule sample_flask)));
      Test.make ~name:"pylex-tokenize (substrate)"
        (Staged.stage (fun () -> ignore (Pylex.tokenize sample_flask)));
      Test.make ~name:"pyast-parse (substrate)"
        (Staged.stage (fun () -> ignore (Pyast.parse sample_flask)));
      Test.make ~name:"rx-pike-compile (substrate)"
        (Staged.stage (fun () ->
             List.iter
               (fun (r : Patchitpy.Rule.t) ->
                 ignore (Rx.compile_linear r.Patchitpy.Rule.pattern))
               Patchitpy.(Catalog.all ())));
      Test.make ~name:"scanner-compile-catalog"
        (Staged.stage (fun () ->
             ignore (Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()))));
      Test.make ~name:"scanner-compile-catalog (parallel)"
        (Staged.stage (fun () ->
             ignore (Experiments.compile_catalog_parallel ())));
      Test.make ~name:"rulepack-load-cold"
        (Staged.stage (fun () ->
             match Rulepack.load ~path:bench_pack_path with
             | Ok pack -> ignore (Sys.opaque_identity pack)
             | Error e -> failwith (Rulepack.error_to_string e)));
      (* Fusing the whole catalog into one multi-pattern machine — the
         extra plan-build step the fused scan tier adds, and the work
         the pack's fused section removes from cold start. *)
      Test.make ~name:"scanner-fused-compile"
        (Staged.stage (fun () -> ignore (Rx.Fused.compile catalog_patterns)));
      (* The fused-section pair: [-lazy] is the load alone — the
         section is carried but never decoded, so the row prices the
         deferral itself (it should track rulepack-load-cold);
         [-forced] additionally forces the fused machine, the full
         cold-start cost a first scan would pay.  CI gates the forced
         row at <= 1 ms — pack load stays sub-millisecond with the
         fused decode included. *)
      Test.make ~name:"rulepack-load-fused-lazy"
        (Staged.stage (fun () ->
             match Rulepack.load ~path:bench_pack_path with
             | Ok pack -> ignore (Sys.opaque_identity pack.Rulepack.fused_section)
             | Error e -> failwith (Rulepack.error_to_string e)));
      Test.make ~name:"rulepack-load-fused-forced"
        (Staged.stage (fun () ->
             match Rulepack.load ~path:bench_pack_path with
             | Ok pack ->
               ignore
                 (Patchitpy.Scanner.fused_machine (Rulepack.scanner pack `Python))
             | Error e -> failwith (Rulepack.error_to_string e)));
      Test.make ~name:"scanner-scan-per-sample"
        (Staged.stage (fun () ->
             ignore (Patchitpy.Scanner.scan catalog_scanner sample_flask)));
      Test.make ~name:"scanner-scan-2x-catalog-per-sample"
        (Staged.stage (fun () ->
             ignore (Patchitpy.Scanner.scan doubled_scanner sample_flask)));
      Test.make ~name:"scanner-scan-per-sample (telemetry on)"
        (Staged.stage (fun () ->
             Telemetry.with_sink bench_sink (fun () ->
                 ignore (Patchitpy.Scanner.scan catalog_scanner sample_flask))));
      (* The flight recorder's whole per-request cost: builder, scan
         span, ring publication, and the GC churn of the retained
         record.  Enable/disable inside the staged function so the
         plain row above really runs with tracing off whatever order
         Bechamel picks; both toggles are one atomic store.  CI gates
         this row at an absolute +4 us over the plain row — the
         recorder cost is a near-constant 1-3 us per request (mostly
         the retained record's GC lifecycle), not a fraction of scan
         time. *)
      Test.make ~name:"scanner-scan-per-sample (tracing on)"
        (Staged.stage (fun () ->
             Telemetry.Trace.enable ();
             Telemetry.Trace.with_request ~id:"bench" ~kind:"scan" (fun () ->
                 ignore (Patchitpy.Scanner.scan catalog_scanner sample_flask));
             Telemetry.Trace.disable ()));
      Test.make ~name:"tableII-detect-per-sample"
        (Staged.stage (fun () -> ignore (Patchitpy.Engine.scan sample_flask)));
      Test.make ~name:"tableIII-patch-per-sample"
        (Staged.stage (fun () -> ignore (Patchitpy.Patcher.patch sample_flask)));
      Test.make ~name:"tableIII-patch-per-sample (telemetry on)"
        (Staged.stage (fun () ->
             Telemetry.with_sink bench_sink (fun () ->
                 ignore (Patchitpy.Patcher.patch sample_flask))));
      Test.make ~name:"fig3-complexity-per-sample"
        (Staged.stage (fun () ->
             ignore (Metrics.Complexity.average_of_source sample_flask)));
      Test.make ~name:"tableI-derive-rule"
        (Staged.stage (fun () ->
             ignore
               (Patchitpy.Derive.derive ~vulnerable:table1_pair
                  ~safe:table1_safe_pair)));
      Test.make ~name:"bandit-sim-per-sample"
        (Staged.stage (fun () -> ignore (Baselines.Bandit_sim.scan sample_flask)));
      Test.make ~name:"codeql-sim-per-sample"
        (Staged.stage (fun () -> ignore (Baselines.Codeql_sim.scan sample_flask)));
    ]

(* serve-throughput: wall-clock over a mixed 200-request workload pushed
   through the server's worker pool, measured outside Bechamel (the pool
   spans domains; per-run staging would measure queue churn, not
   service).  Reported as ns/request plus p50/p99 request latency over
   raw per-request samples: submit-to-deliver time recorded into a slot
   indexed by the response id, then sorted.  The telemetry histogram's
   power-of-two buckets stay what a deployment scrapes, but they are
   useless as a benchmark statistic — every sub-65 us request lands in
   the same bucket, so the reported percentile was a constant 65536 ns
   whatever the actual latency.  The workload is a closed loop keeping
   [jobs] requests in flight: workers stay saturated (so ns/request is
   still the service rate) without the deep queue a one-shot burst
   builds, which would make submit-to-deliver measure queue depth
   rather than the server.  Caveat for the jobs-4 row: domains only
   help with hardware to run on; on a single-CPU container (this repo's
   CI) jobs 4 adds scheduling overhead and cannot beat jobs 1 — compare
   the rows only on a machine with >= 4 hardware threads. *)

let serve_workload () =
  let rec take n = function
    | [] -> []
    | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
  in
  List.mapi
    (fun i (sample : Corpus.Generator.sample) ->
      let source = sample.Corpus.Generator.code in
      let file = Printf.sprintf "bench-%d.py" i in
      let kind =
        (* 3 scans : 1 patch, interleaved *)
        if i mod 4 = 3 then Server.Protocol.Patch { file; source }
        else Server.Protocol.Scan { file; source }
      in
      { Server.Protocol.id = string_of_int i; deadline_steps = None; kind })
    (take 200 (Corpus.Generator.all_samples ()))

(* Nearest-rank percentile over sorted raw samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let measure_serve jobs =
  let workload = Array.of_list (serve_workload ()) in
  let n = Array.length workload in
  (* Fresh flight recorder sized to hold the whole workload: the
     queue-wait rows below come from its per-request records, the same
     samples `serve stats` summarizes on a live daemon. *)
  Telemetry.Trace.reset ();
  Telemetry.Trace.enable ~capacity:256 ();
  let pool =
    Server.Pool.create ~jobs ~queue_capacity:256 ~scanner:catalog_scanner ()
  in
  let completed = Atomic.make 0 in
  (* Raw latency samples, one slot per request: the workload's ids are
     the integers 0..n-1, and a response's echoed id addresses its slot,
     so concurrent deliveries write disjoint cells without locking. *)
  let submitted = Array.make n 0 in
  let latency_ns = Array.make n 0.0 in
  let slot_of = function
    | Server.Protocol.Reply { id; _ } -> int_of_string_opt id
    | Server.Protocol.Error_reply { id; _ } -> Option.bind id int_of_string_opt
  in
  (* Closed loop: [next] is the only cross-thread coordination — each
     delivery claims the next unsent request and submits it, so exactly
     [jobs] requests are in flight until the tail. *)
  let next = Atomic.make 0 in
  let rec submit_next deliver =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      submitted.(i) <- Telemetry.now_ns ();
      Server.Pool.submit pool workload.(i) ~deliver
    end
  and deliver resp =
    let now = Telemetry.now_ns () in
    (match slot_of resp with
    | Some i when i >= 0 && i < n ->
      latency_ns.(i) <- float_of_int (now - submitted.(i))
    | Some _ | None -> ());
    Atomic.incr completed;
    submit_next deliver
  in
  let t0 = Telemetry.now_ns () in
  for _ = 1 to jobs do
    submit_next deliver
  done;
  while Atomic.get completed < n do
    Unix.sleepf 0.0005
  done;
  let elapsed = float_of_int (Telemetry.now_ns () - t0) in
  ignore (Server.Pool.shutdown ~drain_timeout:30. pool);
  (* Workers are quiesced: read the flight recorder for the queue-wait
     decomposition (the external latency above cannot separate waiting
     from service). *)
  let queue_wait_ns =
    Array.of_list
      (List.map
         (fun r -> float_of_int (Telemetry.Trace.queue_wait_ns r))
         (Telemetry.Trace.records ()))
  in
  Telemetry.Trace.disable ();
  Array.sort compare queue_wait_ns;
  Array.sort compare latency_ns;
  ( elapsed /. float_of_int n,
    percentile latency_ns 0.50,
    percentile latency_ns 0.99,
    percentile queue_wait_ns 0.50,
    percentile queue_wait_ns 0.99 )

let measure_serve_rows () =
  List.concat_map
    (fun jobs ->
      let per_req, p50, p99, qw50, qw99 = measure_serve jobs in
      [
        (Printf.sprintf "patchitpy/serve-throughput-jobs%d" jobs, per_req);
        (Printf.sprintf "patchitpy/serve-latency-p50-jobs%d" jobs, p50);
        (Printf.sprintf "patchitpy/serve-latency-p99-jobs%d" jobs, p99);
        (Printf.sprintf "patchitpy/serve-queue-wait-p50-jobs%d" jobs, qw50);
        (Printf.sprintf "patchitpy/serve-queue-wait-p99-jobs%d" jobs, qw99);
      ])
    [ 1; 4 ]

(* serve-cache rows: the result cache's hit path against the scan it
   replaces, both in-process.  The hit path must be measured here, not
   over a socket — loopback TCP alone costs tens of microseconds and
   would drown the ~sub-microsecond probe.  [Pool.submit] delivers a
   hit synchronously from the submitting thread, so timing submit-to-
   delivery on a primed cache measures exactly the production hit path:
   two XXH64 passes, one striped-LRU probe, the delivery callback.  CI
   gates serve-cache-hit-p50 at <= 2 us; the acceptance comparison is
   against serve-cache-scan-p50 (the same request executed for real). *)
let measure_cache_rows () =
  let rcache =
    Server.Rcache.create ~max_bytes:(8 * 1024 * 1024) ~salt:"bench" ()
  in
  let pool =
    Server.Pool.create ~rcache ~jobs:1 ~queue_capacity:64
      ~scanner:catalog_scanner ()
  in
  let req =
    {
      Server.Protocol.id = "cache-bench";
      deadline_steps = None;
      kind = Server.Protocol.Scan { file = "bench.py"; source = sample_flask };
    }
  in
  (* Prime: the first submission misses, runs on a worker, populates. *)
  let primed = Atomic.make false in
  Server.Pool.submit pool req ~deliver:(fun _ -> Atomic.set primed true);
  while not (Atomic.get primed) do
    Unix.sleepf 0.001
  done;
  let hits = 20_000 in
  let hit_ns = Array.make hits 0.0 in
  for i = 0 to hits - 1 do
    let t0 = Telemetry.now_ns () in
    Server.Pool.submit pool req ~deliver:ignore;
    hit_ns.(i) <- float_of_int (Telemetry.now_ns () - t0)
  done;
  let scans = 2_000 in
  let scan_ns = Array.make scans 0.0 in
  for i = 0 to scans - 1 do
    let t0 = Telemetry.now_ns () in
    ignore (Server.Pool.execute pool req);
    scan_ns.(i) <- float_of_int (Telemetry.now_ns () - t0)
  done;
  ignore (Server.Pool.shutdown ~drain_timeout:30. pool);
  Array.sort compare hit_ns;
  Array.sort compare scan_ns;
  [
    ("patchitpy/serve-cache-hit-p50", percentile hit_ns 0.50);
    ("patchitpy/serve-cache-hit-p99", percentile hit_ns 0.99);
    ("patchitpy/serve-cache-scan-p50", percentile scan_ns 0.50);
  ]

(* Warm-start rows: the first scan in freshly created per-domain
   caches, cold (states materialized lazily from the NFA during the
   scan) versus warm (the warm pack's canaries replayed via
   [Rulepack.prewarm] during the load phase).  Per iteration every
   per-pattern and fused cache is dropped and, for the warm rows,
   re-heated *outside* the timed region — the production shape: the
   replay runs at boot, the request only sees what it heated.  The
   replay cost itself is reported as its own row.  The victim of the
   main warm row is one of the canaries, as a warm pack's contract is
   that its canaries are representative of traffic; the "-unseen" row
   times a victim no canary covers, which pays fresh determinization
   of the states it alone reaches — a one-time cost per domain.  CI
   gates scan-first-after-load-warm at <= 1.5x scanner-scan-per-sample;
   the unseen row is reported, not gated. *)
let measure_warm_start_rows () =
  let iters = 300 in
  let clear_all scanner =
    (match Patchitpy.Scanner.fused_machine scanner with
    | Some f -> Rx.Fused.cache_clear f
    | None -> ());
    List.iter
      (fun (r : Patchitpy.Rule.t) ->
        Rx.dfa_cache_clear r.Patchitpy.Rule.pattern;
        Option.iter Rx.dfa_cache_clear r.suppress)
      (Patchitpy.Scanner.rules scanner)
  in
  let first_scan_p50 ~prewarm pack victim =
    let scanner = Rulepack.scanner pack `Python in
    let scan_ns = Array.make iters 0.0 in
    let seed_ns = Array.make iters 0.0 in
    for i = 0 to iters - 1 do
      clear_all scanner;
      if prewarm then begin
        let t0 = Telemetry.now_ns () in
        ignore (Rulepack.prewarm pack : int);
        seed_ns.(i) <- float_of_int (Telemetry.now_ns () - t0)
      end;
      let t0 = Telemetry.now_ns () in
      ignore (Patchitpy.Scanner.scan scanner victim);
      scan_ns.(i) <- float_of_int (Telemetry.now_ns () - t0)
    done;
    Array.sort compare scan_ns;
    Array.sort compare seed_ns;
    (percentile scan_ns 0.50, percentile seed_ns 0.50)
  in
  let load path =
    match Rulepack.load ~path with
    | Ok pack -> pack
    | Error e -> failwith (Rulepack.error_to_string e)
  in
  let cold, _ =
    first_scan_p50 ~prewarm:false (load bench_pack_path) sample_flask
  in
  let corpus =
    List.map
      (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
      (Corpus.Generator.all_samples ())
  in
  (* [sample_flask] heads the corpus, so the even spread picks it *)
  let built =
    Rulepack.with_canaries ~corpus:(sample_flask :: corpus) (Rulepack.create ())
  in
  let warm_path = Filename.temp_file "patchitpy-bench" ".warmpack" in
  Rulepack.save ~path:warm_path built;
  let pack = load warm_path in
  (try Sys.remove warm_path with Sys_error _ -> ());
  let unseen =
    List.find (fun c -> not (List.mem c pack.Rulepack.canaries)) corpus
  in
  let warm, seed = first_scan_p50 ~prewarm:true pack sample_flask in
  let warm_unseen, _ = first_scan_p50 ~prewarm:true pack unseen in
  [
    ("patchitpy/scan-first-after-load-cold", cold);
    ("patchitpy/scan-first-after-load-warm", warm);
    ("patchitpy/scan-first-after-load-warm-unseen", warm_unseen);
    ("patchitpy/rulepack-warm-seed-per-domain", seed);
  ]

(* Sustained-RPS rows: the open-loop loadgen against in-process HTTP
   and NDJSON front-ends — real sockets, real framing, real threads,
   only the process boundary elided.  Each mix climbs a rate ladder;
   the reported rate is the highest rung served within 5% of target,
   error-free, with p99 under 25 ms.  The duplicate-heavy mix cycles 8
   corpus bodies (the fleet-of-AI-generators shape the result cache
   exists for); the unique mix defeats the cache by stamping every
   body.  Single-CPU caveat as above: loadgen threads, front-end
   threads and the worker domain all time-slice one core here, so
   absolute rates undershoot real hardware — the rows exist to track
   the trajectory and catch regressions, not to advertise capacity. *)

let loadgen_rates = [ 250.; 500.; 1000.; 2000.; 4000.; 8000. ]
let loadgen_duration = 1.5
let loadgen_connections = 8
let loadgen_p99_bound_ns = 25e6

let corpus_bodies =
  lazy
    (Array.of_list
       (List.map
          (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
          (Corpus.Generator.all_samples ())))

let loadgen_body = function
  | `Duplicate -> fun i -> (Lazy.force corpus_bodies).(i mod 8)
  | `Unique ->
    fun i ->
      let all = Lazy.force corpus_bodies in
      Printf.sprintf "%s\n# unique-%d\n" all.(i mod Array.length all) i

let with_bench_pool f =
  let rcache =
    Server.Rcache.create ~max_bytes:(64 * 1024 * 1024) ~salt:"bench" ()
  in
  let pool =
    Server.Pool.create ~rcache ~jobs:1 ~queue_capacity:256
      ~scanner:catalog_scanner ()
  in
  let result = f pool in
  ignore (Server.Pool.shutdown ~drain_timeout:30. pool);
  result

let with_http_gateway pool f =
  let lfd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Unix.setsockopt lfd SO_REUSEADDR true;
  Unix.bind lfd (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 64;
  let port =
    match Unix.getsockname lfd with
    | ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let gateway = Server.Gateway.create ~pool () in
  let rec accept_loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      ignore
        (Thread.create
           (fun () -> Server.Gateway.handle_connection gateway ~peer:"bench" fd)
           ());
      accept_loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  ignore (Thread.create accept_loop ());
  let result = f port in
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  result

let with_ndjson_listener pool f =
  let path = Filename.temp_file "patchitpy-bench" ".sock" in
  Sys.remove path;
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX path);
  Unix.listen lfd 64;
  let rec accept_loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      ignore
        (Thread.create
           (fun () ->
             Server.Serve.connection_loop pool
               ~max_request_bytes:Server.Serve.default_max_request_bytes fd)
           ());
      accept_loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  ignore (Thread.create accept_loop ());
  let result = f path in
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  result

let sustained_rows name connect =
  let attempt rate =
    Loadgen.run ~rate ~duration:loadgen_duration
      ~connections:loadgen_connections ~connect
  in
  match
    Loadgen.sustained ~p99_bound_ns:loadgen_p99_bound_ns ~rates:loadgen_rates
      attempt
  with
  | Some (rate, r) ->
    [
      (Printf.sprintf "patchitpy/serve-%s-rps-sustained" name, rate);
      ( Printf.sprintf "patchitpy/serve-%s-p99-at-sustained" name,
        r.Loadgen.p99_ns );
    ]
  | None ->
    [
      (Printf.sprintf "patchitpy/serve-%s-rps-sustained" name, 0.0);
      (Printf.sprintf "patchitpy/serve-%s-p99-at-sustained" name, 0.0);
    ]

let measure_loadgen_rows () =
  let http mix_name mix =
    with_bench_pool (fun pool ->
        with_http_gateway pool (fun port ->
            sustained_rows mix_name (fun () ->
                Loadgen.http_client ~port ~path:"/v1/scan"
                  ~body:(loadgen_body mix))))
  in
  let ndjson =
    with_bench_pool (fun pool ->
        with_ndjson_listener pool (fun path ->
            sustained_rows "ndjson" (fun () ->
                let body = loadgen_body `Duplicate in
                Loadgen.ndjson_client ~socket:path ~request:(fun i ->
                    {
                      Server.Protocol.id = string_of_int i;
                      deadline_steps = None;
                      kind =
                        Server.Protocol.Scan
                          { file = Printf.sprintf "loadgen-%d.py" (i mod 8);
                            source = body i };
                    }))))
  in
  http "http" `Duplicate @ http "http-unique" `Unique @ ndjson

let measure_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:4000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  List.sort compare
    (!rows @ measure_serve_rows () @ measure_cache_rows ()
    @ measure_warm_start_rows () @ measure_loadgen_rows ())

let run_micro () =
  print_string (Experiments.Tables.section "B  Bechamel micro-benchmarks");
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-48s %12.0f ns/run  (%.1f us)\n" name ns (ns /. 1000.0))
    (measure_micro ())

(* `--json`: micro-benchmarks only, as machine-readable JSON on stdout —
   `make bench-json` captures it as BENCH_scan.json so successive PRs
   can track the perf trajectory. *)

(* Frozen pre-scan-plan measurements (commit 9109b08, same harness
   config) — the denominators any speedup claim is made against. *)
let seed_reference =
  [
    ("patchitpy/tableII-detect-per-sample", 465707.0);
    ("patchitpy/tableIII-patch-per-sample", 1742304.0);
  ]

let run_micro_json () =
  let rows = measure_micro () in
  let obj fields =
    print_string "  {\n";
    List.iteri
      (fun i (name, ns) ->
        Printf.printf "    %S: %.0f%s\n" name ns
          (if i = List.length fields - 1 then "" else ","))
      fields;
    print_string "  }"
  in
  print_string "{\n  \"unit\": \"ns/run\",\n  \"seed\":\n";
  obj seed_reference;
  print_string ",\n  \"benchmarks\":\n";
  obj rows;
  print_string "\n}\n"

let () =
  if Array.exists (( = ) "--json") Sys.argv then run_micro_json ()
  else begin
    print_string (Experiments.run_all ());
    print_string (Experiments.run_ablations ());
    run_micro ();
    print_newline ()
  end
