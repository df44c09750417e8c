(* The end-to-end benchmark of the deployed patchitpy program.

     perfbench.exe --cli PATCHITPY --work-dir DIR --workload NAME
                   --seed N --seconds S --trace 0|1

   [sh perfbench/run.sh] builds both binaries and passes --cli and
   --work-dir.  With --trace 0 the run times the built binary and prints
   the end-to-end metrics; with --trace 1 it makes one untimed run of the
   same workload, scrapes the daemon's counters, replays the same inputs
   through each layer in process (Traced) and prints the per-layer
   metrics.  The last line of stdout is always one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  README.md in this
   directory explains every metric and workload.

     perfbench.exe --reference-task

   runs the batch workload's reference task (see [reference_task]). *)

module W = Workload
module O = Openloop

(* --- frozen parameters ------------------------------------------------------ *)

(* Rates and limits are part of the benchmark's definition: changing them
   changes what every figure means, so they only change together with
   the baseline. *)
type serve_params = {
  proto : O.proto;
  fixed_rps : float;  (** the one rate latency is measured at *)
  depth : int;  (** requests in flight per connection for sustained_rps *)
  chunk : int;  (** requests per sustained_rps chunk *)
}

let serve_params = function
  | "serve-unique" -> { proto = O.Http; fixed_rps = 4000.; depth = 1; chunk = 5000 }
  | "serve-fleet" -> { proto = O.Ndjson; fixed_rps = 10000.; depth = 16; chunk = 12000 }
  | w -> invalid_arg ("not a serve workload: " ^ w)

(* A run whose generator falls further behind schedule than this (p99)
   measured the generator, not the program: the fixed-rate window is then
   invalid. *)
let late_bound_us = 20000.

let setup_boots = 15
let batch_setup_runs = 15

(* The reference task: a fixed table-driven pass over a fixed buffer, the
   same kind of work as a DFA scan, run as its own process before each
   batch command.  [reference_ns] is its time on the host the baseline
   was measured on; batch command times are scaled by it. *)
let reference_work () =
  let table = Array.init (512 * 256) (fun i -> (i * 7919) land 511) in
  let input = Bytes.init (1 lsl 18) (fun i -> Char.chr ((i * 31) land 255)) in
  let state = ref 0 in
  for _ = 1 to 20 do
    Bytes.iter (fun c -> state := table.((!state * 256) + Char.code c)) input
  done;
  !state

let reference_task () = print_int (reference_work ())
let reference_ns = 30e6

(* The host's speed now, relative to the baseline host: reference_ns over
   one in-process run of the reference task.  sustained_rps is scaled by
   the median of these over a run. *)
let host_speed () =
  let t0 = Proc.now_ns () in
  ignore (Sys.opaque_identity (reference_work ()));
  reference_ns /. float_of_int (Proc.now_ns () - t0)

(* --- metric names ----------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("scan_p50_us", "us");
    ("scan_p90_us", "us");
    ("patch_p50_us", "us");
    ("patch_p90_us", "us");
    ("sustained_rps", "1/s");
    ("scan_mb_per_s", "MB/s");
    ("patch_mb_per_s", "MB/s");
    ("rss_mb", "MB");
  ]

let timed_layers =
  [
    "http.parse"; "http.respond"; "protocol.decode"; "protocol.encode";
    "rcache.key"; "rcache.find"; "rcache.add"; "pool.execute"; "scanner.scan";
    "patcher.patch"; "jsonout.scan_json"; "jsonout.patch_json";
  ]

let per_layer =
  List.concat_map
    (fun l -> [ (l ^ "_p50_us", "us"); (l ^ "_p99_us", "us") ])
    timed_layers
  @ [
      ("rcache.hit_ratio", "ratio");
      ("rcache.evictions", "count");
      ("pool.queue_wait_p50_us", "us");
      ("pool.queue_wait_p99_us", "us");
      ("pool.service_p50_us", "us");
      ("pool.service_p99_us", "us");
      ("netio.writes_per_reply", "ratio");
      ("scanner.us_per_kb", "us/KB");
      ("scanner.fused_confirm_ratio", "ratio");
      ("rx.fused_miss_ratio", "ratio");
      ("rx.cache_flushes_per_mb", "1/MB");
      ("patcher.rounds_per_file", "count");
      ("patcher.rescan_fallback_ratio", "ratio");
      ("edit.bytes_moved_per_kb", "B/KB");
      ("rulepack.load_ms", "ms");
      ("rulepack.prewarm_ms", "ms");
      ("ledger.scan.unaccounted_us", "us");
      ("ledger.patch.unaccounted_us", "us");
      ("gen.late_p99_us", "us");
    ]

(* --- run state -------------------------------------------------------------- *)

type run = {
  cli : string;
  dir : string;  (** this run's scratch directory, removed at the end *)
  seconds : float;
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable metrics : (string * float) list;
  mutable notes : string list;  (** human-readable report lines *)
}

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt
let set r name v = r.metrics <- (name, v) :: r.metrics

let wrong r what =
  r.correct <- false;
  note r "INCORRECT: %s" what

exception Invalid_run of string

let make_pack r ~warm =
  let path = Filename.concat r.dir (if warm then "warm.pack" else "plain.pack") in
  let args = [ "rules"; "pack"; "-o"; path ] @ if warm then [ "--warm" ] else [] in
  let res = Proc.run_cli r.cli args in
  if res.Proc.code <> 0 then failwith "rules pack failed";
  path

let load_pack path =
  match Rulepack.load ~path with
  | Ok p -> p
  | Error e -> failwith (Rulepack.error_to_string e)

(* The in-process oracle: the exact bytes the deployed program must
   answer with, and the number of findings (for the input summary). *)
let oracle scanner =
  let memo = Hashtbl.create 4096 in
  fun (q : W.request) ->
    let key = (q.kind, q.file, q.body) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v =
        match q.kind with
        | W.Scan ->
          let findings, warnings =
            Patchitpy.Scanner.scan_with_warnings scanner q.body
          in
          ( Patchitpy.Jsonout.findings_to_json ~warnings ~file:q.file findings,
            List.length findings )
        | W.Patch ->
          let res = Patchitpy.Patcher.patch ~scanner q.body in
          ( Patchitpy.Jsonout.patch_to_json ~file:q.file res,
            List.length res.Patchitpy.Patcher.applications
            + List.length res.Patchitpy.Patcher.remaining )
      in
      (* Bounded: serve-unique never repeats an input. *)
      if Hashtbl.length memo < 4096 then Hashtbl.replace memo key v;
      v

let us_of_ns ns = float_of_int ns /. 1e3

(* --- daemon counters -------------------------------------------------------- *)

let prom_value text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.

(* An integer field following [after] then [key] in the stats document. *)
let json_int doc ~after ~key =
  let find s from =
    let n = String.length doc and m = String.length s in
    let rec go i =
      if i + m > n then None
      else if String.sub doc i m = s then Some (i + m)
      else go (i + 1)
    in
    go from
  in
  match find after 0 with
  | None -> 0.
  | Some i -> (
    match find key i with
    | None -> 0.
    | Some j ->
      let k = ref j in
      while !k < String.length doc && doc.[!k] >= '0' && doc.[!k] <= '9' do
        incr k
      done;
      float_of_string (String.sub doc j (!k - j)))

(* /metrics and /v1/stats, read once after the untimed window. *)
let scrape r (d : Proc.daemon) ~replies =
  let c = Proc.client d.Proc.port in
  Fun.protect
    ~finally:(fun () -> Proc.close_client c)
    (fun () ->
      let _, prom = Proc.call c ~meth:"GET" ~path:"/metrics" "" in
      let _, stats = Proc.call c ~meth:"GET" ~path:"/v1/stats" "" in
      let v = prom_value prom in
      let hits = v "server_cache_hits_total"
      and misses = v "server_cache_misses_total" in
      set r "rcache.hit_ratio" (Stats.ratio hits (hits +. misses));
      set r "rcache.evictions" (v "server_cache_evictions_total");
      set r "netio.writes_per_reply"
        (Stats.ratio (v "server_write_syscalls_total") (float_of_int replies));
      let breakdown key pct =
        json_int stats ~after:("\"" ^ key ^ "\":{") ~key:("\"" ^ pct ^ "\":") /. 1e3
      in
      set r "pool.queue_wait_p50_us" (breakdown "queueWaitNs" "p50");
      set r "pool.queue_wait_p99_us" (breakdown "queueWaitNs" "p99");
      set r "pool.service_p50_us" (breakdown "serviceNs" "p50");
      set r "pool.service_p99_us" (breakdown "serviceNs" "p99"))

(* --- per-layer metrics from the traced replay -------------------------------- *)

let layer_metrics r ~root ~counters ~e2e_mean_us =
  let self = Traced.self_ns () in
  List.iter
    (fun l ->
      let us = Traced.layer_us self l in
      set r (l ^ "_p50_us") (Stats.percentile us 0.5);
      set r (l ^ "_p99_us") (Stats.percentile us 0.99);
      note r "layer %-20s %6d calls  p50 %9.2f us  p99 %9.2f us" l
        (Array.length us) (Stats.percentile us 0.5) (Stats.percentile us 0.99))
    timed_layers;
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  let scan_kb = Traced.layer_bytes "scanner.scan" /. 1024. in
  let patch_kb = Traced.layer_bytes "patcher.patch" /. 1024. in
  set r "scanner.us_per_kb"
    (Stats.ratio (Stats.sum (Traced.layer_us self "scanner.scan")) scan_kb);
  set r "scanner.fused_confirm_ratio"
    (Stats.ratio (c "scanner_fused_confirms_total")
       (c "scanner_fused_candidates_total"));
  let fh = c "rx_fused_cache_hits_total" and fm = c "rx_fused_cache_misses_total" in
  set r "rx.fused_miss_ratio" (Stats.ratio fm (fh +. fm));
  set r "rx.cache_flushes_per_mb"
    (Stats.ratio
       (c "rx_dfa_cache_flushes_total" +. c "rx_fused_cache_flushes_total")
       ((scan_kb +. patch_kb) /. 1024.));
  set r "patcher.rescan_fallback_ratio"
    (Stats.ratio (c "scanner_rescan_full_fallbacks_total") (c "scanner_rescans_total"));
  set r "edit.bytes_moved_per_kb" (Stats.ratio (c "edit_bytes_moved_total") patch_kb);
  let ms name = Stats.median (Traced.layer_us self name) /. 1e3 in
  set r "rulepack.load_ms" (ms "rulepack.load");
  set r "rulepack.prewarm_ms" (ms "rulepack.prewarm");
  List.iter
    (fun (kind, root) ->
      let accounted = Traced.accounted_us self root in
      let e2e = List.assoc kind e2e_mean_us in
      set r ("ledger." ^ kind ^ ".unaccounted_us") (e2e -. accounted);
      note r "ledger %-5s end-to-end mean %9.2f us, layers %9.2f us, unaccounted %9.2f us"
        kind e2e accounted (e2e -. accounted))
    [ ("scan", root ^ ".scan"); ("patch", root ^ ".patch") ]

let rounds_per_file (report : Telemetry.Report.t) =
  match
    List.find_opt
      (fun h -> h.Telemetry.Report.h_name = "patcher_rounds")
      report.Telemetry.Report.histograms
  with
  | Some h -> Stats.ratio (float_of_int h.h_sum) (float_of_int h.h_count)
  | None -> 0.

(* Runs [f] under a fresh telemetry sink and returns the merged counters
   with the patcher's rounds per file. *)
let with_counters f =
  let sink = Telemetry.create () in
  Telemetry.with_sink sink f;
  let report = Telemetry.Report.of_sink sink in
  (report.Telemetry.Report.counters, rounds_per_file report)

(* --- serve workloads ---------------------------------------------------------- *)

type window = { items : O.item array; res : O.result }

(* Consecutive windows as one. *)
let merge_windows ws =
  let cat f = Array.concat (Array.to_list (Array.map f ws)) in
  let sum f = Array.fold_left (fun a w -> a + f w.res) 0 ws in
  {
    items = cat (fun w -> w.items);
    res =
      {
        O.latency_ns = cat (fun w -> w.res.O.latency_ns);
        late_ns = cat (fun w -> w.res.O.late_ns);
        failed = sum (fun r -> r.O.failed);
        wrong = sum (fun r -> r.O.wrong);
        replies = sum (fun r -> r.O.replies);
        span_ns = sum (fun r -> r.O.span_ns);
      };
  }

(* Share of a run's seconds spent at the fixed rate: a discarded warm-up,
   then the latency slices.  The sustained_rps chunks between the slices
   take about as long again as the slices at the baseline's rates. *)
let warmup_share = 0.1
let fixed_share = 0.5

(* Requests per latency slice: about 1000 patches and 3000 scans, so even
   a slice's p99 rests on ten or more samples beyond it. *)
let slice_requests = 2000

(* Requests fed to the off-path layers in a traced run: per-call costs
   need no more. *)
let off_path_requests = 20000

let serve_workload r ~name ~seed ~trace =
  let p = serve_params name in
  let next = if name = "serve-unique" then W.unique ~seed else W.fleet ~seed in
  let pack_path = make_pack r ~warm:true in
  let pack = load_pack pack_path in
  let scanner = Rulepack.scanner pack `Python in
  let expect = oracle scanner in
  let conns = min 2 (Domain.recommended_domain_count ()) in
  let pinned = conns >= 2 && Proc.pin Proc.generator_cpu in
  let connect (d : Proc.daemon) () =
    match p.proto with
    | O.Http -> Proc.connect_tcp d.Proc.port
    | O.Ndjson -> Proc.connect_unix d.Proc.socket
  in
  let replies = ref 1 (* the readiness probe's 200 *) in
  (* Requests and their oracle bytes are made before the window opens.
     [tamper] flips one byte of every expected reply. *)
  let window d ~pacing ~count ?(tamper = false) () =
    let items =
      Array.init (max 1 count) (fun _ ->
          let req = next () in
          let json = fst (expect req) in
          let json =
            if not tamper then json
            else
              String.mapi
                (fun i c ->
                  if i <> String.length json / 2 then c
                  else if c = 'x' then 'y'
                  else 'x')
                json
          in
          { O.req; json })
    in
    (* Closed loop, the drain bound is the whole window's. *)
    let drain_s = match pacing with O.Open _ -> 3. | O.Closed _ -> 30. in
    let res =
      O.run ~proto:p.proto ~connect:(connect d) ~conns ~pacing ~items ~drain_s ()
    in
    replies := !replies + res.O.replies;
    if (not tamper) && res.O.wrong > 0 then
      wrong r (Printf.sprintf "%d replies differ from the oracle" res.O.wrong);
    { items; res }
  in
  (* Set-up: boot the daemon several times and keep the last one. *)
  let boots = if trace then 1 else setup_boots in
  let setups = ref [] and daemon = ref None in
  let stop d =
    match Proc.stop_daemon d with
    | Ok () -> ()
    | Error e -> wrong r ("daemon shutdown: " ^ e)
  in
  for b = 1 to boots do
    let d, ns = Proc.spawn_daemon ~pinned ~cli:r.cli ~pack:pack_path ~dir:r.dir () in
    setups := (float_of_int ns /. 1e9) :: !setups;
    if b < boots then stop d else daemon := Some d
  done;
  let d = Option.get !daemon in
  (* The checker must count a reply one byte off the oracle as failed. *)
  let probe = window d ~pacing:(O.Open 100.) ~count:1 ~tamper:true () in
  if probe.res.O.wrong <> 1 || probe.res.O.failed <> 1 then
    wrong r "a reply one byte off the oracle was not counted as failed";
  let at_fixed count = window d ~pacing:(O.Open p.fixed_rps) ~count () in
  let warm = at_fixed (int_of_float (p.fixed_rps *. warmup_share *. r.seconds)) in
  (* The measured part alternates a fixed-rate latency slice with, in a
     timed run, a closed-loop chunk for sustained_rps, so that both
     figures sample the whole run and not one phase of the host.  A host
     speed sample precedes each chunk, and the daemon's and the
     generator's CPU time are summed over the chunks. *)
  let speeds = ref [] and chunks = ref [] in
  let daemon_cpu = ref 0. and generator_cpu = ref 0. and chunk_wall = ref 0 in
  let chunk () =
    speeds := host_speed () :: !speeds;
    let c0 = Proc.cpu_s d.Proc.pid and g0 = Proc.cpu_s (Unix.getpid ()) in
    let t0 = Proc.now_ns () in
    let w = window d ~pacing:(O.Closed p.depth) ~count:p.chunk () in
    chunk_wall := !chunk_wall + (Proc.now_ns () - t0);
    daemon_cpu := !daemon_cpu +. (Proc.cpu_s d.Proc.pid -. c0);
    generator_cpu := !generator_cpu +. (Proc.cpu_s (Unix.getpid ()) -. g0);
    chunks := w :: !chunks
  in
  let slices =
    Array.init
      (max 3 (int_of_float (p.fixed_rps *. fixed_share *. r.seconds) / slice_requests))
      (fun _ ->
        let s = at_fixed slice_requests in
        if not trace then begin
          chunk ();
          if Sys.getenv_opt "SETTLE" <> None then ignore (at_fixed (slice_requests / 5))
        end;
        s)
  in
  let fixed = merge_windows slices in
  let late_p99 = O.late_p99_us fixed.res in
  if late_p99 > late_bound_us then
    raise
      (Invalid_run
         (Printf.sprintf
            "generator ran %.0f us late at p99 (bound %.0f us) at %.0f rps"
            late_p99 late_bound_us p.fixed_rps));
  let chunks = merge_windows (Array.of_list (List.rev !chunks)) in
  r.attempted <-
    Array.length warm.items + Array.length fixed.items + Array.length chunks.items;
  r.failed <- warm.res.O.failed + fixed.res.O.failed + chunks.res.O.failed;
  let all = Array.append warm.items fixed.items in
  note r "%s"
    (W.summary ~name
       ~requests:(Array.map (fun (it : O.item) -> it.req) all)
       ~findings:(fun q -> snd (expect q)));
  note r "fixed rate %.0f rps over %d connection(s); generator late p99 %.1f us"
    p.fixed_rps conns late_p99;
  (* A latency percentile per slice. *)
  let per_slice kind pct =
    Array.map
      (fun w -> Stats.percentile (O.latencies_us w.res w.items kind) pct)
      slices
  in
  if not trace then begin
    let rss = float_of_int (Proc.vm_hwm_kib d.Proc.pid) /. 1024. in
    stop d;
    (* sustained_rps: the requests the chunks completed over the time
       they took, scaled by the run's median host speed. *)
    let ok = Array.length chunks.items - chunks.res.O.failed in
    let raw = float_of_int ok /. (float_of_int chunks.res.O.span_ns /. 1e9) in
    let speeds = Array.of_list !speeds in
    let speed = Stats.median speeds in
    let sustained = raw /. speed in
    let wall = float_of_int !chunk_wall /. 1e9 in
    note r
      "sustained: %d chunks of %d requests, %d in flight; %.0f rps unscaled; \
       host speed min/p50/max %.3f/%.3f/%.3f; daemon busy %.2f CPU, generator \
       busy %.2f CPU"
      (Array.length speeds) p.chunk (conns * p.depth) raw
      (Stats.percentile speeds 0.) speed (Stats.percentile speeds 1.)
      (!daemon_cpu /. wall) (!generator_cpu /. wall);
    (* Request bytes per second of each kind at the sustained rate, for
       corpus-average bodies: the seed's own body sizes would add their
       spread to the rate's. *)
    let mb_per_s kind =
      sustained *. W.share kind *. Lazy.force W.mean_sample_bytes /. 1e6
    in
    (* The gated latencies are the quietest slice's: noise on a shared
       host only ever adds latency and comes in bursts. *)
    let quietest kind pct = Stats.percentile (per_slice kind pct) 0. in
    set r "setup_s" (Stats.median (Array.of_list !setups));
    set r "scan_p50_us" (quietest W.Scan 0.5);
    set r "scan_p90_us" (quietest W.Scan 0.9);
    set r "patch_p50_us" (quietest W.Patch 0.5);
    set r "patch_p90_us" (quietest W.Patch 0.9);
    set r "sustained_rps" sustained;
    set r "scan_mb_per_s" (mb_per_s W.Scan);
    set r "patch_mb_per_s" (mb_per_s W.Patch);
    set r "rss_mb" rss;
    List.iter
      (fun kind ->
        let all = O.latencies_us fixed.res fixed.items kind in
        note r
          "%s: %d latencies in %d slices; median slice p50 %.1f us, p90 %.1f \
           us; whole window p50 %.1f us, p90 %.1f us, p99 %.1f us"
          (W.kind_name kind) (Array.length all) (Array.length slices)
          (Stats.median (per_slice kind 0.5))
          (Stats.median (per_slice kind 0.9))
          (Stats.percentile all 0.5) (Stats.percentile all 0.9)
          (Stats.percentile all 0.99))
      [ W.Scan; W.Patch ];
    note r "set-up: %d boots, median %.4f s" (List.length !setups)
      (Stats.median (Array.of_list !setups))
  end
  else begin
    scrape r d ~replies:!replies;
    stop d;
    set r "gen.late_p99_us" late_p99;
    (* The traced replay: the same requests in the same order, through
       the layers in the daemon's order, on a pack prewarmed like a
       worker domain. *)
    ignore (Rulepack.prewarm pack);
    let cache =
      Server.Rcache.create ~max_bytes:Server.Serve.default_cache_bytes
        ~salt:pack.Rulepack.catalog_hash ()
    in
    let counters, rounds =
      with_counters (fun () ->
          Array.iteri
            (fun k (it : O.item) ->
              Traced.serve_request ~proto:p.proto ~scanner ~cache k it.req it.json)
            all)
    in
    set r "patcher.rounds_per_file" rounds;
    let pairs =
      Array.map
        (fun (it : O.item) -> (it.req, it.json))
        (Array.sub all 0 (min off_path_requests (Array.length all)))
    in
    (match p.proto with
    | O.Http -> Traced.off_path_protocol pairs
    | O.Ndjson -> Traced.off_path_http pairs);
    Traced.off_path_pool ~scanner pairs;
    Traced.off_path_pack ~pack_path ~rounds:3;
    let mean_latency kind =
      Stats.mean
        (Array.of_list
           (List.filter Float.is_finite
              (Array.to_list (O.latencies_us fixed.res fixed.items kind))))
    in
    layer_metrics r ~root:"request" ~counters
      ~e2e_mean_us:[ ("scan", mean_latency W.Scan); ("patch", mean_latency W.Patch) ];
    Traced.write_tsv
      (Filename.concat (Filename.dirname r.dir) ("spans-" ^ name ^ ".tsv"))
  end

(* --- batch workload ------------------------------------------------------------ *)

let batch_workload r ~seed ~trace =
  let pack_path = make_pack r ~warm:false in
  let pack = load_pack pack_path in
  let scanner = Rulepack.scanner pack `Python in
  let expect = oracle scanner in
  let dir = Filename.concat r.dir "batch" and empty = Filename.concat r.dir "empty" in
  Proc.mkdir_p dir;
  Proc.mkdir_p empty;
  let files =
    List.map
      (fun (name, body) ->
        let path = Filename.concat dir name in
        Proc.write_file path body;
        (path, body))
      (W.batch ~seed)
  in
  let nfiles = List.length files in
  let bytes =
    float_of_int (List.fold_left (fun a (_, b) -> a + String.length b) 0 files)
  in
  let reqs kind = List.map (fun (file, body) -> { W.kind; file; body }) files in
  (* The expected stdout of each command, one JSON line per file, and its
     exit status: scan exits 1 when anything was found. *)
  let expected kind =
    let lines = List.map (fun q -> fst (expect q)) (reqs kind) in
    let code =
      match kind with
      | W.Scan when List.exists (fun q -> snd (expect q) > 0) (reqs kind) -> 1
      | W.Scan | W.Patch -> 0
    in
    (lines, code)
  in
  let scan_expect = expected W.Scan and patch_expect = expected W.Patch in
  let command ?(over = dir) kind =
    [ W.kind_name kind; "--json"; "--rule-pack"; pack_path; over ]
  in
  (* Files a command got wrong: every file when the exit status is off,
     otherwise every output line that differs from the oracle's. *)
  let failures (lines, code) (res : Proc.cli_run) =
    if res.Proc.code <> code then nfiles
    else
      let got = String.split_on_char '\n' res.Proc.out in
      let rec diff a b =
        match (a, b) with
        | [], ([] | [ "" ]) -> 0
        | [], _ :: rest -> 1 + diff [] rest
        | _ :: rest, [] -> 1 + diff rest []
        | x :: xs, y :: ys -> (if String.equal x y then 0 else 1) + diff xs ys
      in
      diff lines got
  in
  let run_command kind =
    let res = Proc.run_cli r.cli (command kind) in
    let f = failures (if kind = W.Scan then scan_expect else patch_expect) res in
    r.attempted <- r.attempted + nfiles;
    r.failed <- r.failed + f;
    if f > 0 then wrong r (Printf.sprintf "%s: %d file(s) differ from the oracle" (W.kind_name kind) f);
    res
  in
  let all = Array.of_list (reqs W.Scan @ reqs W.Patch) in
  note r "%s"
    (W.summary ~name:"batch-long" ~requests:all ~findings:(fun q -> snd (expect q)));
  (* The checker must count output one byte off the oracle as a failure. *)
  (let res = Proc.run_cli r.cli (command W.Scan) in
   let lines, code = scan_expect in
   let tampered =
     List.mapi (fun i l -> if i = 0 then l ^ " " else l) lines
   in
   if failures (tampered, code) res <> 1 || failures scan_expect res <> 0 then
     wrong r "output one byte off the oracle was not counted as failed");
  if not trace then begin
    let setups =
      Array.init batch_setup_runs (fun _ ->
          let res = Proc.run_cli r.cli (command ~over:empty W.Scan) in
          if res.Proc.code <> 0 || res.Proc.out <> "" then
            wrong r "scan over an empty directory";
          float_of_int res.Proc.wall_ns /. 1e9)
    in
    (* Closed loop: one command at a time, scan then patch, for the run's
       seconds.  Each command follows a run of the reference task, and its
       time is scaled by [reference_ns] over that run's time.  This host's
       single-thread speed shifts by half for tens of seconds at a time,
       which a percentile within one run cannot see past; the reference
       task shifts with it. *)
    let stop = Proc.now_ns () + int_of_float (r.seconds *. 1e9) in
    let scans = ref [] and patches = ref [] and rss = ref [] and raw = ref [] in
    let timed kind =
      let c = Proc.run_cli Sys.executable_name [ "--reference-task" ] in
      let res = run_command kind in
      if kind = W.Scan then raw := us_of_ns res.Proc.wall_ns :: !raw;
      ( res,
        us_of_ns res.Proc.wall_ns *. reference_ns /. float_of_int c.Proc.wall_ns )
    in
    while Proc.now_ns () < stop || !patches = [] do
      let _, s = timed W.Scan in
      scans := s :: !scans;
      let p, t = timed W.Patch in
      patches := t :: !patches;
      rss := float_of_int p.Proc.maxrss_kib /. 1024. :: !rss
    done;
    let scans = Array.of_list !scans and patches = Array.of_list !patches in
    let scan_p50 = Stats.median scans and patch_p50 = Stats.median patches in
    let mb_per_s us = bytes /. 1e6 /. (us /. 1e6) in
    set r "setup_s" (Stats.median setups);
    set r "scan_p50_us" scan_p50;
    set r "scan_p90_us" (Stats.percentile scans 0.9);
    set r "patch_p50_us" patch_p50;
    set r "patch_p90_us" (Stats.percentile patches 0.9);
    set r "sustained_rps"
      (float_of_int (2 * nfiles) /. ((scan_p50 +. patch_p50) /. 1e6));
    set r "scan_mb_per_s" (mb_per_s scan_p50);
    set r "patch_mb_per_s" (mb_per_s patch_p50);
    set r "rss_mb" (Stats.median (Array.of_list !rss));
    note r
      "samples: %d scan and %d patch commands over %d files; scaled p99 \
       %.0f us and %.0f us; unscaled scan p50 %.0f us; %d \
       set-ups"
      (Array.length scans) (Array.length patches) nfiles
      (Stats.percentile scans 0.99) (Stats.percentile patches 0.99)
      (Stats.median (Array.of_list !raw)) batch_setup_runs
  end
  else begin
    (* Untimed: a few commands for the ledger's end-to-end means, and the
       gap the closed loop leaves between one command and the next. *)
    let gaps = ref [] and scans = ref [] and patches = ref [] in
    let last = ref (Proc.now_ns ()) in
    for _ = 1 to 3 do
      List.iter
        (fun kind ->
          let t = Proc.now_ns () in
          gaps := us_of_ns (t - !last) :: !gaps;
          let res = run_command kind in
          last := Proc.now_ns ();
          let acc = if kind = W.Scan then scans else patches in
          acc := us_of_ns res.Proc.wall_ns :: !acc)
        [ W.Scan; W.Patch ]
    done;
    set r "gen.late_p99_us" (Stats.percentile (Array.of_list !gaps) 0.99);
    (* The same files through the daemon once, closed loop over HTTP, for
       the daemon-side counters on long inputs. *)
    let d, _ = Proc.spawn_daemon ~cli:r.cli ~pack:pack_path ~dir:r.dir () in
    let c = Proc.client d.Proc.port in
    Array.iter
      (fun (q : W.request) ->
        let status, body =
          Proc.call c ~meth:"POST" ~path:("/v1/" ^ W.kind_name q.kind)
            ~headers:[ ("x-patchitpy-file", q.file) ] q.body
        in
        if status <> 200 || body <> fst (expect q) ^ "\n" then
          wrong r "daemon reply differs from the oracle")
      all;
    Proc.close_client c;
    scrape r d ~replies:(1 + Array.length all);
    (match Proc.stop_daemon d with
    | Ok () -> ()
    | Error e -> wrong r ("daemon shutdown: " ^ e));
    let counters, rounds =
      with_counters (fun () ->
          for k = 1 to 3 do
            Traced.batch_command ~pack_path ~kind:W.Scan k files;
            Traced.batch_command ~pack_path ~kind:W.Patch k files
          done)
    in
    set r "patcher.rounds_per_file" rounds;
    let pairs = Array.map (fun q -> (q, fst (expect q))) all in
    Traced.off_path_http pairs;
    Traced.off_path_protocol pairs;
    Traced.off_path_rcache ~salt:pack.Rulepack.catalog_hash pairs;
    Traced.off_path_pool ~scanner pairs;
    Traced.off_path_pack ~pack_path ~rounds:3;
    let mean l = Stats.mean (Array.of_list l) in
    layer_metrics r ~root:"command" ~counters
      ~e2e_mean_us:[ ("scan", mean !scans); ("patch", mean !patches) ];
    Traced.write_tsv
      (Filename.concat (Filename.dirname r.dir) "spans-batch-long.tsv")
  end

(* --- main ---------------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e12"

let () =
  if Array.mem "--reference-task" Sys.argv then begin
    reference_task ();
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let cli = ref "" and work_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch-long, serve-unique or serve-fleet");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH the built patchitpy binary");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch space for runs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --cli PATH --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1";
  if !cli = "" || !work_dir = "" then begin
    prerr_endline "perfbench: --cli and --work-dir are required (use sh perfbench/run.sh)";
    exit 2
  end;
  let trace = !trace = 1 in
  let dir = Filename.concat !work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let r =
    {
      cli = !cli;
      dir;
      seconds = float_of_int !seconds;
      attempted = 0;
      failed = 0;
      correct = true;
      metrics = [];
      notes = [];
    }
  in
  let outcome =
    try
      (match !workload with
      | "batch-long" -> batch_workload r ~seed:!seed ~trace
      | ("serve-unique" | "serve-fleet") as name ->
        serve_workload r ~name ~seed:!seed ~trace
      | w -> failwith ("unknown workload " ^ w));
      Ok ()
    with
    | Invalid_run msg -> Error (3, "invalid run: " ^ msg)
    | e -> Error (1, Printexc.to_string e)
  in
  Proc.reap_all ();
  (try Proc.rm_rf dir with _ -> ());
  match outcome with
  | Error (code, msg) ->
    List.iter print_endline (List.rev r.notes);
    prerr_endline ("perfbench: " ^ msg);
    exit code
  | Ok () ->
    let names = if trace then per_layer else end_to_end in
    List.iter print_endline (List.rev r.notes);
    let fields =
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name r.metrics with
            | Some v -> v
            | None -> failwith ("metric not measured: " ^ name)
          in
          Printf.printf "%-32s %14.4f %s\n" name v unit;
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
        names
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      r.correct (max 1 r.attempted) r.failed (String.concat ", " fields)
