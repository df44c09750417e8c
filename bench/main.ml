(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper (experiments
   E1-E8, see DESIGN.md) over the 609-sample corpus and prints them in
   the paper's layout.

   Part 2 (section B) times micro-benchmark rows: one per reproduced
   table — the per-sample cost of the work that table aggregates
   (detection for Table II, patching for Table III, complexity
   measurement for Fig. 3, rule derivation for Table I) — plus the
   engine substrates (regex matching, tokenizing, parsing), the fused
   pass's layers, cold and warm starts and the serve paths.  Every cost
   row is timed one way, by [measure]: its fastest batch over windows
   spread through the process; the cache-hit percentile rows are the
   lowest of per-window percentiles the same way.  Only the serve
   latency and queue-wait rows are percentiles over one set of raw
   samples. *)

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

(* One long-lived sink for the "(telemetry on)" rows: the instrumented
   runs measure recording cost, not sink construction. *)
let bench_sink = Telemetry.create ()

(* The reference task for CI's ratio gates: a fixed table-driven walk
   over a fixed 2 KiB buffer, the same kind of work as a DFA scan (the
   shape of perfbench's [host_speed] task, scaled to a micro row).  A
   gate on a row's ratio to this one, both timed in the same windows,
   cancels how fast the host happens to be during the run. *)
let reference_table = Array.init (512 * 256) (fun i -> (i * 7919) land 511)
let reference_input = Bytes.init 2048 (fun i -> Char.chr ((i * 31) land 255))

let reference_work () =
  let state = ref 0 in
  Bytes.iter
    (fun c -> state := reference_table.((!state * 256) + Char.code c))
    reference_input;
  !state

(* --- the timer ---------------------------------------------------------- *)

(* ns of [n] back-to-back calls of [f]: one clock interval around them. *)
let time n f =
  let t0 = Telemetry.now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Telemetry.now_ns () - t0

(* A cost row.  [batch ()] runs one batch and returns its timed ns; work
   that must not be timed (a cache clear, a prewarm, a pool's start and
   shutdown) runs in [batch] around its [time] call.  [per] is what one
   batch counts (ops, KB, files or requests), so the row reads ns per
   [per]. *)
type row = { name : string; per : float; batch : unit -> int }

let row ?(batch = 1) name f =
  { name; per = float_of_int batch; batch = (fun () -> time batch f) }

let host_reference = row ~batch:200 "host-reference" reference_work

(* Each row's value is its fastest batch over the whole process.  The
   process makes [windows] passes over the rows; each visit alternates
   one [host_reference] batch with one batch of the row until
   [visit_ns] of wall time is spent (at least one round).  So the
   batches of every row, and the reference batches between them, are
   spread over the seconds the process lives: a burst of host load or a
   GC slice lands on some batches of a row and on none of its best
   ones, and a gate on the ratio of two rows compares batches taken side
   by side.  The spread matters because a row can have slow spells the
   reference walk does not share: on a shared 2-vCPU host the scan read
   0.57-0.60x the reference in most 75 ms spans but 0.75-0.83x in spans
   that recurred about once a second and during noisy periods of a few
   seconds, with the reference moving ~10%.  Each pass starts one row
   later than the one before, so a row's visits fall at a different
   point of each pass and a disturbance that recurs with the pass
   cannot land on all of them.  Each visit starts by finishing the
   major GC cycle, untimed: without that, an allocating row paid in its
   minor collections for the garbage the rows before it left, and the
   scan's batches read ~10 us in the bench process against ~6 us
   alone. *)
let windows = 40
let visit_ns = 8_000_000

let measure rows =
  let rows = Array.of_list (host_reference :: rows) in
  let best = Array.make (Array.length rows) infinity in
  let time_row i =
    let r = rows.(i) in
    best.(i) <- Float.min best.(i) (float_of_int (r.batch ()) /. r.per)
  in
  let n = Array.length rows - 1 in
  for w = 1 to windows do
    for j = 0 to n - 1 do
      let i = 1 + ((j + w) mod n) in
      Gc.major ();
      let stop = Telemetry.now_ns () + visit_ns in
      let rec visit () =
        time_row 0;
        time_row i;
        if Telemetry.now_ns () < stop then visit ()
      in
      visit ()
    done
  done;
  Array.to_list (Array.mapi (fun i r -> (r.name, best.(i))) rows)

(* Nearest-rank percentile over sorted raw samples.  Only the
   per-request serve rows use it: they describe a distribution of
   latencies, not a cost per op.  The cache-hit rows still go through
   [measure], as one percentile per batch (see [cache_hit_row]). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* --- rows --------------------------------------------------------------- *)

let load_pack path =
  match Rulepack.load ~path with
  | Ok pack -> pack
  | Error e -> failwith (Rulepack.error_to_string e)

(* The cold-start story: one pack built once, loaded per op.  A load is
   read + whole-file checksum + decode of the rule declarations into
   plans that compile on first use; CI gates the row as a ratio to
   host-reference. *)
let bench_pack_path =
  let path = Filename.temp_file "patchitpy-bench" ".pack" in
  Rulepack.save ~path (Rulepack.create ());
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let sample_rows () =
  let scan () = Patchitpy.Scanner.scan catalog_scanner sample_flask in
  [
    row ~batch:2000 "rx-match (substrate)" (fun () ->
        Rx.matches shell_rule "subprocess.run(cmd, shell=True)");
    (* The DFA tier against a subject long enough that the cached-
       transition loop, not per-search setup, dominates. *)
    row ~batch:2000 "rx-dfa-match (substrate)" (fun () ->
        Rx.exec shell_rule sample_flask);
    (* Same search with the transition cache dropped before it: the
       price of materializing states from the NFA, i.e. the cost the
       warm rows amortize away. *)
    {
      name = "rx-dfa-cache-cold";
      per = 1.;
      batch =
        (fun () ->
          Rx.dfa_cache_clear shell_rule;
          time 1 (fun () -> Rx.exec shell_rule sample_flask));
    };
    row ~batch:20 "pylex-tokenize (substrate)" (fun () ->
        Pylex.tokenize sample_flask);
    row ~batch:20 "pyast-parse (substrate)" (fun () ->
        Pyast.parse sample_flask);
    row ~batch:20 "rulepack-load-cold" (fun () -> load_pack bench_pack_path);
    (* Fusing the whole catalog into one multi-pattern machine — the
       extra plan-build step the fused scan tier adds to a plan's
       first scan. *)
    row ~batch:2 "scanner-fused-compile" (fun () ->
        Rx.Fused.compile catalog_patterns);
    (* Pack load, compiling the python rules from their sources and
       fusing them: what a pack-loaded process pays before its first
       scan can start.  Repeated loads hit the process-wide
       [Rx.compile] memo, so the row prices decode, rule construction
       and the fuse, not a fresh process's pattern compiles.  CI gates
       it as a ratio to host-reference. *)
    row ~batch:2 "rulepack-load-fused-forced" (fun () ->
        Patchitpy.Scanner.fused_machine
          (Rulepack.scanner (load_pack bench_pack_path) `Python));
    row ~batch:200 "scanner-scan-per-sample" scan;
    row ~batch:200 "scanner-scan-2x-catalog-per-sample" (fun () ->
        Patchitpy.Scanner.scan doubled_scanner sample_flask);
    row ~batch:200 "scanner-scan-per-sample (telemetry on)" (fun () ->
        Telemetry.with_sink bench_sink scan);
    (* The flight recorder's whole per-request cost: builder, scan
       span, ring publication, and the GC churn of the retained
       record.  Enable/disable inside the op so the plain row really
       runs with tracing off; both toggles are one atomic store.  CI
       gates the difference from the plain row, not a ratio: the
       recorder cost is a near-constant few hundred ns per request
       (mostly the retained record's GC lifecycle), not a fraction of
       scan time. *)
    row ~batch:200 "scanner-scan-per-sample (tracing on)" (fun () ->
        Telemetry.Trace.enable ();
        ignore (Telemetry.Trace.with_request ~id:"bench" ~kind:"scan" scan);
        Telemetry.Trace.disable ());
    row ~batch:200 "tableII-detect-per-sample" (fun () ->
        Patchitpy.Engine.scan sample_flask);
    row ~batch:50 "tableIII-patch-per-sample" (fun () ->
        Patchitpy.Patcher.patch sample_flask);
    row ~batch:50 "tableIII-patch-per-sample (telemetry on)" (fun () ->
        Telemetry.with_sink bench_sink (fun () ->
            Patchitpy.Patcher.patch sample_flask));
    row ~batch:20 "fig3-complexity-per-sample" (fun () ->
        Metrics.Complexity.average_of_source sample_flask);
    row ~batch:10 "tableI-derive-rule" (fun () ->
        Patchitpy.Derive.derive ~vulnerable:table1_pair ~safe:table1_safe_pair);
    row ~batch:20 "bandit-sim-per-sample" (fun () ->
        Baselines.Bandit_sim.scan sample_flask);
    row ~batch:20 "codeql-sim-per-sample" (fun () ->
        Baselines.Codeql_sim.scan sample_flask);
  ]

(* serve rows: a mixed workload over the first 200 corpus samples
   pushed through the server's worker pool at jobs 1, a closed loop
   keeping one request in flight: the worker stays saturated (so
   ns/request is the service rate) without the deep queue a one-shot
   burst builds, which would make submit-to-deliver measure queue depth
   rather than the server.  serve-throughput-jobs1 is a [measure] row,
   one 200-request batch per pass; the latency and queue-wait rows are
   percentiles over the raw samples of one more pass of 1000 requests
   (the 200 samples five times), so at least 10 samples lie beyond each
   p99: submit-to-deliver time recorded into a slot indexed by the
   response id, and each request's queue wait from the flight recorder,
   the same samples `serve stats` summarizes on a live daemon.  The
   telemetry histogram's power-of-two buckets stay what a deployment
   scrapes, but every sub-65 us request lands in one bucket, so they
   are no benchmark statistic. *)

let serve_workload requests =
  let samples =
    Array.of_list
      (List.filteri (fun i _ -> i < 200) (Corpus.Generator.all_samples ()))
  in
  Array.init requests (fun i ->
      let source = samples.(i mod Array.length samples).Corpus.Generator.code in
      let file = Printf.sprintf "bench-%d.py" i in
      let kind =
        (* 3 scans : 1 patch, interleaved *)
        if i mod 4 = 3 then Server.Protocol.Patch { file; source }
        else Server.Protocol.Scan { file; source }
      in
      { Server.Protocol.id = string_of_int i; deadline_steps = None; kind })

(* A jobs-1 pool with a fresh flight recorder sized to hold [requests]
   records; the pool is shut down (and the recorder, still readable,
   switched off) before [f]'s result returns. *)
let with_serve_pool requests f =
  Telemetry.Trace.reset ();
  Telemetry.Trace.enable ~capacity:requests ();
  let pool =
    Server.Pool.create ~jobs:1 ~queue_capacity:256 ~scanner:catalog_scanner ()
  in
  let result = f pool in
  ignore (Server.Pool.shutdown ~drain_timeout:30. pool);
  Telemetry.Trace.disable ();
  result

(* One closed-loop pass of [workload] through [pool]; returns each
   request's submit-to-deliver ns. *)
let closed_loop pool workload =
  let n = Array.length workload in
  let completed = Atomic.make 0 in
  (* One slot per request: the workload's ids are the integers 0..n-1,
     and a response's echoed id addresses its slot. *)
  let submitted = Array.make n 0 in
  let latency_ns = Array.make n 0.0 in
  let slot_of = function
    | Server.Protocol.Reply { id; _ } -> int_of_string_opt id
    | Server.Protocol.Error_reply { id; _ } -> Option.bind id int_of_string_opt
  in
  (* [next] is the only cross-thread coordination: each delivery claims
     the next unsent request and submits it. *)
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
  submit_next deliver;
  while Atomic.get completed < n do
    Unix.sleepf 0.0005
  done;
  latency_ns

let serve_throughput_row () =
  let workload = serve_workload 200 in
  {
    name = "serve-throughput-jobs1";
    per = float_of_int (Array.length workload);
    batch =
      (fun () ->
        with_serve_pool 200 (fun pool ->
            time 1 (fun () -> closed_loop pool workload)));
  }

let percentile_requests = 1000

let serve_percentile_rows () =
  let latency_ns =
    with_serve_pool percentile_requests (fun pool ->
        closed_loop pool (serve_workload percentile_requests))
  in
  let queue_wait_ns =
    Array.of_list
      (List.map
         (fun r -> float_of_int (Telemetry.Trace.queue_wait_ns r))
         (Telemetry.Trace.records ()))
  in
  Array.sort compare queue_wait_ns;
  Array.sort compare latency_ns;
  [
    ("serve-latency-p50-jobs1", percentile latency_ns 0.50);
    ("serve-latency-p99-jobs1", percentile latency_ns 0.99);
    ("serve-queue-wait-p50-jobs1", percentile queue_wait_ns 0.50);
    ("serve-queue-wait-p99-jobs1", percentile queue_wait_ns 0.99);
  ]

(* serve-cache rows: the result cache's hit path against the scan it
   replaces, both in-process.  The hit path must be measured here, not
   over a socket — loopback TCP alone costs tens of microseconds and
   would drown the ~sub-microsecond probe.  [Pool.submit] delivers a
   hit synchronously from the submitting thread, so timing submit-to-
   delivery on a primed cache measures exactly the production hit path:
   two XXH64 passes, one striped-LRU probe, the delivery callback.  The
   hit rows are windowed percentiles (see [cache_hit_row]), and CI gates
   the p50 as a ratio to host-reference; serve-cache-scan-p50, the same
   request executed for real, is a [measure] row (its name is kept from
   when it was a median). *)
let cache_req =
  {
    Server.Protocol.id = "cache-bench";
    deadline_steps = None;
    kind = Server.Protocol.Scan { file = "bench.py"; source = sample_flask };
  }

let with_cache_pool f =
  let rcache =
    Server.Rcache.create ~max_bytes:(8 * 1024 * 1024) ~salt:"bench" ()
  in
  let pool =
    Server.Pool.create ~rcache ~jobs:1 ~queue_capacity:64
      ~scanner:catalog_scanner ()
  in
  let result = f pool in
  ignore (Server.Pool.shutdown ~drain_timeout:30. pool);
  result

let cache_scan_row =
  {
    name = "serve-cache-scan-p50";
    per = 100.;
    batch =
      (fun () ->
        with_cache_pool (fun pool ->
            time 100 (fun () -> Server.Pool.execute pool cache_req)));
  }

(* A cache-hit percentile as a [measure] row: each batch primes a fresh
   pool (untimed), times [hits_per_window] raw hits and returns their
   [p] percentile, so the row is the lowest percentile over windows
   spread through the process.  Taken once per process over ~20 ms of
   hits, the p50 read 2x apart from one process to the next: a host
   slow spell covering that one span moved the whole row.  2000 hits
   put 20 beyond the p99. *)
let hits_per_window = 2000

let cache_hit_row name p =
  {
    name;
    per = 1.;
    batch =
      (fun () ->
        let hit_ns =
          with_cache_pool (fun pool ->
              (* Prime: the first submission misses, runs on a worker,
                 populates. *)
              let primed = Atomic.make false in
              Server.Pool.submit pool cache_req ~deliver:(fun _ ->
                  Atomic.set primed true);
              while not (Atomic.get primed) do
                Unix.sleepf 0.001
              done;
              Array.init hits_per_window (fun _ ->
                  float_of_int
                    (time 1 (fun () ->
                         Server.Pool.submit pool cache_req ~deliver:ignore))))
        in
        Array.sort compare hit_ns;
        int_of_float (percentile hit_ns p));
  }

(* Fused-pass layer rows, ns per KB of subject: one fused pass over the
   30 long files (0.5-64 KB, ~1 MB in all) the golden digests use.  The
   cold row drops the calling domain's fused cache before its pass, so
   the pass materializes every state it reaches — the work a one-shot
   CLI command does on its first scan; the warm row repeats the pass on
   the heated cache, one table load per byte.  Reported, not gated. *)
let kb_of files =
  float_of_int (List.fold_left (fun a s -> a + String.length s) 0 files)
  /. 1024.

let fused_pass_rows f files =
  let pass () = List.iter (fun s -> ignore (Rx.Fused.run f s)) files in
  [
    {
      name = "fused-cold-pass-per-kb";
      per = kb_of files;
      batch =
        (fun () ->
          Rx.Fused.cache_clear f;
          time 1 pass);
    };
    {
      name = "fused-warm-pass-per-kb";
      per = kb_of files;
      batch = (fun () -> time 1 pass);
    };
  ]

(* The per-pattern twin of fused-cold-pass-per-kb, ns per KB: over the
   same 30 long files, every rule the fused pass flags on a file (and
   every rule it does not host) runs [Rx.find_all] on it, with every
   catalog pattern's transition cache dropped before each pass — the
   confirm sweeps a one-shot CLI command pays after its first fused
   pass, materializing every state they reach.  The plain row sweeps
   each flagged rule to the end of the file; the fenced row bounds each
   hosted rule's sweep at its [Rx.Fused.run] bound, as the scanner
   does.  Reported, not gated. *)
let dfa_confirm_cold_rows f files =
  (* per file: each swept pattern with its fence ([max_int] unhosted) *)
  let work =
    List.map
      (fun s ->
        let bounds = Rx.Fused.run f s in
        ( s,
          List.filter_map
            (fun (i, p) ->
              if not (Rx.Fused.is_hosted f i) then Some (p, max_int)
              else if bounds.(i) >= 0 then Some (p, bounds.(i))
              else None)
            (List.mapi (fun i p -> (i, p)) (Array.to_list catalog_patterns)) ))
      files
  in
  let row name sweep =
    {
      name;
      per = kb_of (List.map fst work);
      batch =
        (fun () ->
          Array.iter Rx.dfa_cache_clear catalog_patterns;
          time 1 (fun () ->
              List.iter
                (fun (s, flagged) ->
                  List.iter
                    (fun (p, until) ->
                      try ignore (sweep p until s)
                      with Rx.Budget_exceeded _ -> ())
                    flagged)
                work));
    }
  in
  [
    row "dfa-confirm-cold-per-kb" (fun p _ s -> Rx.find_all p s);
    row "dfa-confirm-fenced-cold-per-kb" (fun p until s ->
        Rx.find_all ~until p s);
  ]

(* Bail-path row, ns per long file: the 30 golden long files scanned
   through a plan whose fused pass bails on every one of them, so each
   scan sweeps every rule — the price of the path a scan takes when the
   fused cache thrashes.  No input was found that bails at the default
   4096-state cache (the pass interns a few thousand states even on
   adversarial fragment soups), so the plan's cache is shrunk with
   [Rx.Fused.shrink_cache ~max_states:3], re-applied before every pass
   because a domain may drop its fused caches.  The pass bails after a
   handful of bytes, so the row is essentially the sweep.  Reported,
   not gated. *)
let fused_bail_row files =
  let plan = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()) in
  let f = Option.get (Patchitpy.Scanner.fused_machine plan) in
  let shrink () = Rx.Fused.shrink_cache f ~max_states:3 in
  shrink ();
  List.iter
    (fun s ->
      match Rx.Fused.run f s with
      | _ -> failwith "scan-fused-bail-per-sample: a long file did not bail"
      | exception Rx.Fused.Bail -> ())
    files;
  {
    name = "scan-fused-bail-per-sample";
    per = float_of_int (List.length files);
    batch =
      (fun () ->
        shrink ();
        time 1 (fun () ->
            List.iter (fun s -> ignore (Patchitpy.Scanner.scan plan s)) files));
  }

(* Warm-start rows: the first scan in freshly created per-domain
   caches, cold (states materialized lazily from the NFA during the
   scan) versus warm (the warm pack's canaries replayed via
   [Rulepack.prewarm] during the load phase).  Before each op every
   per-pattern and fused cache is dropped and, for the warm rows,
   re-heated outside the timed region — the production shape: the
   replay runs at boot, the request only sees what it heated.  The
   replay cost itself is its own row.  The victim of the main warm row
   is one of the canaries, as a warm pack's contract is that its
   canaries are representative of traffic; the "-unseen" row times a
   victim no canary covers, which pays fresh determinization of the
   states it alone reaches — a one-time cost per domain.  CI gates
   scan-first-after-load-warm at <= 1.5x scanner-scan-per-sample; the
   unseen row is reported, not gated. *)
let warm_start_rows () =
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
  let pack = load_pack warm_path in
  (try Sys.remove warm_path with Sys_error _ -> ());
  let unseen =
    List.find (fun c -> not (List.mem c pack.Rulepack.canaries)) corpus
  in
  let cold = Rulepack.scanner (load_pack bench_pack_path) `Python in
  let warm = Rulepack.scanner pack `Python in
  let first_scan name ?(prewarm = false) scanner victim =
    {
      name;
      per = 1.;
      batch =
        (fun () ->
          clear_all scanner;
          if prewarm then ignore (Rulepack.prewarm pack : int);
          time 1 (fun () -> Patchitpy.Scanner.scan scanner victim));
    }
  in
  [
    first_scan "scan-first-after-load-cold" cold sample_flask;
    first_scan "scan-first-after-load-warm" ~prewarm:true warm sample_flask;
    first_scan "scan-first-after-load-warm-unseen" ~prewarm:true warm unseen;
    {
      name = "rulepack-warm-seed-per-domain";
      per = 1.;
      batch =
        (fun () ->
          clear_all warm;
          time 1 (fun () -> Rulepack.prewarm pack));
    };
  ]

let measure_micro () =
  let long_files = List.map snd (Corpus.Generator.long_files ()) in
  (* The long-file rows fuse with their own plan, so the states they
     intern do not crowd the fused cache the per-sample rows scan
     through. *)
  let long_fused =
    Option.get
      (Patchitpy.Scanner.fused_machine
         (Patchitpy.Scanner.compile Patchitpy.(Catalog.all ())))
  in
  let costs =
    measure
      (sample_rows ()
      @ [
          serve_throughput_row ();
          cache_scan_row;
          cache_hit_row "serve-cache-hit-p50" 0.50;
          cache_hit_row "serve-cache-hit-p99" 0.99;
        ]
      @ fused_pass_rows long_fused long_files
      @ dfa_confirm_cold_rows long_fused long_files
      @ [ fused_bail_row long_files ]
      @ warm_start_rows ())
  in
  List.sort compare
    (List.map
       (fun (name, ns) -> ("patchitpy/" ^ name, ns))
       (costs @ serve_percentile_rows ()))

let run_micro () =
  print_string
    (Experiments.Tables.section "B  Micro-benchmarks (windowed fastest batch)");
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-48s %12.0f ns/run  (%.1f us)\n" name ns (ns /. 1000.0))
    (measure_micro ())

(* `--json`: micro-benchmarks only, as machine-readable JSON on stdout —
   `make bench-json` captures it as BENCH_scan.json so successive PRs
   can track the perf trajectory. *)

(* Frozen pre-scan-plan measurements (commit 9109b08) — the denominators
   any speedup claim is made against. *)
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
