(* The PatchitPy command-line interface.

   These are exactly the operations the paper's VS Code extension binds
   to its context-menu command (scan the selection, show findings,
   apply patches, insert imports); the extension is an Electron shell
   around this core (DESIGN.md, substitution 5). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Recursively collects source files under a path: a file is returned
   as-is; a directory yields every *.py (or *.js for the JS pack) below
   it, sorted for deterministic output. *)
let collect_sources lang path =
  let ext = match lang with `Python -> ".py" | `Js -> ".js" in
  let rec walk acc p =
    if Sys.is_directory p then
      Array.fold_left
        (fun acc entry -> walk acc (Filename.concat p entry))
        acc (Sys.readdir p)
    else if Filename.check_suffix p ext then p :: acc
    else acc
  in
  if Sys.is_directory path then List.sort compare (walk [] path) else [ path ]

(* --- telemetry options ---------------------------------------------------- *)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Collect telemetry during the run and print a summary \
                 (per-rule hot spots, prefilter effectiveness, patch \
                 rounds) to stderr.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a per-file request trace (phase spans: scan and \
                 patch rounds; DFA cache and deadline events) \
                 and write it as Chrome trace_event JSON to $(docv) — \
                 load it in Perfetto or chrome://tracing.  The aggregate \
                 telemetry report (schema patchitpy-telemetry/1) is \
                 embedded under otherData.telemetry.")

(* Runs [f] under a fresh telemetry sink when --stats or --trace asked
   for one; otherwise telemetry stays off (the one-branch fast path).
   --trace additionally turns on the flight recorder: each scanned or
   patched file becomes one trace record with real phase spans, dumped
   as a Chrome trace_event document with the aggregate report embedded. *)
let with_telemetry ~stats ~trace f =
  if not stats && trace = None then f ()
  else begin
    let sink = Telemetry.create () in
    if trace <> None then Telemetry.Trace.enable ();
    let result = Telemetry.with_sink sink f in
    let report = Telemetry.Report.of_sink sink in
    (match trace with
    | Some path ->
      write_file path
        (Telemetry.Trace.to_chrome
           ~extra:[ ("telemetry", Telemetry.Report.to_json report) ]
           (Telemetry.Trace.records ())
        ^ "\n");
      Telemetry.Trace.disable ()
    | None -> ());
    if stats then begin
      prerr_string (Experiments.Profile.summary report);
      (* The regex compile memo fills at module initialisation, before
         any sink exists, so its counter never reaches the report —
         read it directly. *)
      let hits, entries = Rx.compile_cache_stats () in
      Printf.eprintf "rx compile cache: %d hits, %d entries\n" hits entries
    end;
    result
  end

(* --- scan ---------------------------------------------------------------- *)

let lang_arg =
  let lang_conv = Arg.enum [ ("python", `Python); ("js", `Js) ] in
  Arg.(value & opt lang_conv `Python
       & info [ "lang" ] ~docv:"LANG"
           ~doc:"Rule pack to use: $(b,python) (the 85-rule catalog) or \
                 $(b,js) (the JavaScript pack).")

let rules_for = function
  | `Python -> Patchitpy.(Catalog.all ())
  | `Js -> Patchitpy.(Catalog.javascript ())

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit machine-readable JSON (IDE integration).")

let sarif_arg =
  Arg.(value & flag
       & info [ "sarif" ] ~doc:"Emit a SARIF 2.1.0 report (CI integration).")

let rules_file_arg =
  Arg.(value & opt (some file) None
       & info [ "rules-file" ] ~docv:"FILE"
           ~doc:"Add user-defined rules from a JSON $(docv) (see Rule_file).")

let min_severity_arg =
  let sev =
    Arg.enum
      [ ("low", Patchitpy.Rule.Low); ("medium", Patchitpy.Rule.Medium);
        ("high", Patchitpy.Rule.High); ("critical", Patchitpy.Rule.Critical) ]
  in
  Arg.(value & opt (some sev) None
       & info [ "min-severity" ] ~docv:"SEV"
           ~doc:"Report only findings of $(docv) or above \
                 (low|medium|high|critical).")

let severity_rank = function
  | Patchitpy.Rule.Low -> 0
  | Patchitpy.Rule.Medium -> 1
  | Patchitpy.Rule.High -> 2
  | Patchitpy.Rule.Critical -> 3

let effective_rules lang rules_file =
  let base = rules_for lang in
  match rules_file with
  | None -> base
  | Some path -> (
    match Patchitpy.Rule_file.load_file path with
    | Ok extra -> base @ extra
    | Error msg ->
      prerr_endline ("error loading rules file: " ^ msg);
      exit 2)

let exclude_arg =
  Arg.(value & opt_all string []
       & info [ "exclude" ] ~docv:"RULE"
           ~doc:"Disable a rule by id (repeatable), e.g. --exclude PIT-084.")

let only_arg =
  Arg.(value & opt_all string []
       & info [ "only" ] ~docv:"RULE"
           ~doc:"Run only the listed rule ids (repeatable).")

let filter_rules rules ~only ~exclude =
  let rules =
    match only with
    | [] -> rules
    | only -> List.filter (fun (r : Patchitpy.Rule.t) -> List.mem r.Patchitpy.Rule.id only) rules
  in
  List.filter
    (fun (r : Patchitpy.Rule.t) -> not (List.mem r.Patchitpy.Rule.id exclude))
    rules

(* --- rule packs ----------------------------------------------------------- *)

let rule_pack_arg =
  Arg.(value & opt (some file) None
       & info [ "rule-pack" ] ~docv:"FILE"
           ~doc:"Load the compiled scan plan from a binary rule pack built \
                 by $(b,rules pack), skipping catalog compilation at \
                 startup.  Incompatible with \
                 $(b,--rules-file)/$(b,--only)/$(b,--exclude), which edit \
                 the rule set and therefore need rule sources.")

let load_pack_or_die path =
  match Rulepack.load ~path with
  | Ok pack -> pack
  | Error e ->
    Printf.eprintf "error: %s: %s\n" path (Rulepack.error_to_string e);
    exit 2

(* Resolves the scan plan a command runs with: a loaded pack when
   --rule-pack was given, source-compiled rules otherwise.  A pack
   stores compiled plans, not an editable rule list, so the flags that
   change the rule set conflict with it. *)
let resolve_scanner ?(rules_file = None) ?(only = []) ?(exclude = []) ~lang
    rule_pack =
  match rule_pack with
  | None ->
    let rules = filter_rules (effective_rules lang rules_file) ~only ~exclude in
    (Patchitpy.Scanner.compile rules, None)
  | Some path ->
    if rules_file <> None || only <> [] || exclude <> [] then begin
      prerr_endline
        "error: --rule-pack cannot be combined with \
         --rules-file/--only/--exclude (a pack stores compiled plans, not \
         an editable rule list)";
      exit 2
    end;
    let pack = load_pack_or_die path in
    (Rulepack.scanner pack lang, Some pack)

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      in_channel_length ic)

let lines_arg =
  let range =
    let parse s =
      match String.split_on_char '-' s with
      | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b when a >= 1 && b >= a -> Ok (a, b)
        | _ -> Error (`Msg "expected a range like 5-20"))
      | _ -> Error (`Msg "expected a range like 5-20")
    in
    let print fmt (a, b) = Format.fprintf fmt "%d-%d" a b in
    Arg.conv (parse, print)
  in
  Arg.(value & opt (some range) None
       & info [ "lines" ] ~docv:"A-B"
           ~doc:"Scan only the selected line range — the extension's \
                 scan-the-selection mode.")

let scan_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let run files lang json sarif rules_file min_severity lines only exclude
      rule_pack stats trace =
    (* One scan plan for the whole invocation, shared by every scanned
       file: compiled from the rule set, or decoded from a pack. *)
    let scanner, _pack =
      resolve_scanner ~rules_file ~only ~exclude ~lang rule_pack
    in
    let total = ref 0 in
    let scans =
      with_telemetry ~stats ~trace @@ fun () ->
      List.map
        (fun path ->
          Telemetry.Trace.with_request ~id:path ~kind:"scan" @@ fun () ->
          let source = read_file path in
          let findings, warnings =
            match lines with
            | None -> Patchitpy.Scanner.scan_with_warnings scanner source
            | Some (first_line, last_line) ->
              Patchitpy.Scanner.scan_selection_with_warnings scanner source
                ~first_line ~last_line
          in
          let findings =
            match min_severity with
            | None -> findings
            | Some floor ->
              List.filter
                (fun (f : Patchitpy.Engine.finding) ->
                  severity_rank f.Patchitpy.Engine.rule.Patchitpy.Rule.severity
                  >= severity_rank floor)
                findings
          in
          total := !total + List.length findings;
          (path, source, findings, warnings))
        (List.concat_map (collect_sources lang) files)
    in
    if sarif then
      print_endline
        (Patchitpy.Jsonout.to_sarif ~rules:(Patchitpy.Scanner.rules scanner)
           (List.map (fun (p, _, f, _) -> (p, f)) scans))
    else
      List.iter
        (fun (path, source, findings, warnings) ->
          if json then
            print_endline
              (Patchitpy.Jsonout.findings_to_json ~warnings ~file:path findings)
          else begin
            Printf.printf "%s:\n%s\n" path
              (Patchitpy.Report.render_findings source findings);
            List.iter
              (fun (Patchitpy.Scanner.Budget_exhausted rule) ->
                Printf.printf
                  "warning: rule %s gave up on this file (matcher budget \
                   exhausted); its findings may be incomplete\n"
                  rule)
              warnings
          end)
        scans;
    if !total > 0 then exit 1
  in
  let doc =
    "Detect vulnerable implementation patterns in source files (directories \
     are scanned recursively)."
  in
  Cmd.v (Cmd.info "scan" ~doc)
    Term.(const run $ files $ lang_arg $ json_arg $ sarif_arg $ rules_file_arg
          $ min_severity_arg $ lines_arg $ only_arg $ exclude_arg
          $ rule_pack_arg $ stats_arg $ trace_arg)

(* --- patch --------------------------------------------------------------- *)

let patch_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let in_place =
    Arg.(value & flag & info [ "i"; "in-place" ] ~doc:"Rewrite $(docv) itself.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Write the patched file to $(docv) (single input only).")
  in
  let diff_only =
    Arg.(value & flag & info [ "diff" ] ~doc:"Print the diff, do not write anything.")
  in
  let patch_file_arg =
    Arg.(value & opt (some string) None
         & info [ "patch-file" ] ~docv:"OUT"
             ~doc:"Write a unified diff with ---/+++ headers to $(docv), \
                   consumable by patch(1) or git apply (single input only).")
  in
  let run files in_place output diff_only lang json rules_file only exclude
      patch_file rule_pack stats trace =
    let files = List.concat_map (collect_sources lang) files in
    (* -o and --patch-file name one output; with several inputs the later
       files would silently overwrite the earlier ones' results. *)
    if List.length files > 1 && (output <> None || patch_file <> None) then begin
      prerr_endline
        "error: --output/--patch-file need a single input file; use \
         --in-place for batches";
      exit 2
    end;
    (* One scan plan for the whole batch, like scan: plan compilation
       dominates per-file work on small files. *)
    let scanner, _pack =
      resolve_scanner ~rules_file ~only ~exclude ~lang rule_pack
    in
    with_telemetry ~stats ~trace @@ fun () ->
    List.iter
      (fun file ->
        Telemetry.Trace.with_request ~id:file ~kind:"patch" @@ fun () ->
        let source = read_file file in
        let r = Patchitpy.Patcher.patch ~scanner source in
        (match patch_file with
        | Some out ->
          let body = Textdiff.unified source r.Patchitpy.Patcher.patched in
          if body <> "" then
            write_file out
              (Printf.sprintf "--- %s\n+++ %s\n%s" file file body)
        | None -> ());
        if json then begin
          print_endline (Patchitpy.Jsonout.patch_to_json ~file r);
          match (in_place, output) with
          | true, _ -> write_file file r.Patchitpy.Patcher.patched
          | false, Some out -> write_file out r.Patchitpy.Patcher.patched
          | false, None -> ()
        end
        else if diff_only then print_string (Patchitpy.Report.render_patch r)
        else begin
          print_string (Patchitpy.Report.render_patch r);
          (match (in_place, output) with
          | true, _ -> write_file file r.Patchitpy.Patcher.patched
          | false, Some out -> write_file out r.Patchitpy.Patcher.patched
          | false, None -> ());
          if r.Patchitpy.Patcher.remaining <> [] then begin
            Printf.printf "still unresolved (advice only):\n";
            List.iter
              (fun (f : Patchitpy.Engine.finding) ->
                Printf.printf "  line %d: %s — %s\n" f.Patchitpy.Engine.line
                  f.Patchitpy.Engine.rule.Patchitpy.Rule.id
                  f.Patchitpy.Engine.rule.Patchitpy.Rule.note)
              r.Patchitpy.Patcher.remaining
          end
        end)
      files
  in
  let doc = "Detect and patch vulnerable patterns, inserting needed imports." in
  Cmd.v (Cmd.info "patch" ~doc)
    Term.(const run $ files $ in_place $ output $ diff_only $ lang_arg
          $ json_arg $ rules_file_arg $ only_arg $ exclude_arg $ patch_file_arg
          $ rule_pack_arg $ stats_arg $ trace_arg)

(* --- serve --------------------------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Also listen on a Unix-domain socket at $(docv) (removed \
                   on exit).  Without it the daemon serves stdin/stdout \
                   only and exits once stdin closes and every request is \
                   answered.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains executing requests (default 1).  All \
                   workers share one compiled scan plan.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Submission queue capacity (default 64).  A full queue \
                   answers $(b,overloaded) immediately instead of \
                   buffering without bound.")
  in
  let drain_timeout =
    Arg.(value & opt float 10.
         & info [ "drain-timeout" ] ~docv:"SECONDS"
             ~doc:"On SIGTERM/SIGINT, wait up to $(docv) seconds for \
                   in-flight requests before exiting (default 10).")
  in
  let trace_dir =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"On shutdown, dump the request flight recorder (the \
                   last requests per worker domain, with phase spans: \
                   intake, queue wait, dispatch, scan, serialize, write) \
                   into $(docv): serve-<pid>.trace.json (Chrome \
                   trace_event, Perfetto-loadable) and serve-<pid>.ndjson \
                   (compact patchitpy-trace/1 lines).  The recorder is \
                   always on; this flag only adds the on-exit dump — the \
                   $(b,trace) request kind reads it live.")
  in
  let http =
    Arg.(value & opt (some int) None
         & info [ "http" ] ~docv:"PORT"
             ~doc:"Also serve HTTP/1.1 on loopback port $(docv): POST \
                   /v1/scan, POST /v1/patch, GET /v1/health, GET \
                   /v1/stats, GET /metrics (Prometheus).  Scan and patch \
                   response bodies are byte-identical to one-shot \
                   $(b,scan --json) output.")
  in
  let cache_mb =
    Arg.(value & opt int 64
         & info [ "cache-mb" ] ~docv:"MIB"
             ~doc:"Content-hash result cache budget in MiB (default 64; \
                   0 disables).  Scan/patch responses for byte-identical \
                   request bodies under the same rule catalog are served \
                   from the cache without touching a worker.")
  in
  let cache_file =
    Arg.(value & opt (some string) None
         & info [ "cache-file" ] ~docv:"PATH"
             ~doc:"Persist the result cache to $(docv) on graceful \
                   shutdown and restore it at the next boot, so a \
                   restarted daemon answers repeat traffic from its \
                   first second.  Snapshots bind the rule catalog's \
                   fingerprint; a missing, corrupt or wrong-catalog \
                   file just means a cold cache.")
  in
  let quota_rps =
    Arg.(value & opt (some float) None
         & info [ "quota-rps" ] ~docv:"RATE"
             ~doc:"Per-tenant HTTP admission rate in requests/second \
                   (token bucket; off when absent).  The tenant is the \
                   x-patchitpy-tenant header, else the peer address; \
                   over-quota requests get 429 with Retry-After.")
  in
  let quota_burst =
    Arg.(value & opt (some float) None
         & info [ "quota-burst" ] ~docv:"N"
             ~doc:"Token-bucket burst capacity (default 2x --quota-rps, \
                   at least 1).")
  in
  let max_request_mb =
    Arg.(value & opt int 8
         & info [ "max-request-mb" ] ~docv:"MIB"
             ~doc:"Per-frame request bound in MiB (default 8): an NDJSON \
                   line over it is answered with a typed too_large error, \
                   an HTTP body over it with 413.")
  in
  let run socket http jobs queue drain_timeout trace_dir cache_mb cache_file
      quota_rps quota_burst max_request_mb lang rules_file only exclude
      rule_pack =
    if jobs < 1 then begin
      prerr_endline "error: --jobs must be >= 1";
      exit 2
    end;
    if queue < 1 then begin
      prerr_endline "error: --queue must be >= 1";
      exit 2
    end;
    if cache_mb < 0 then begin
      prerr_endline "error: --cache-mb must be >= 0";
      exit 2
    end;
    if max_request_mb < 1 then begin
      prerr_endline "error: --max-request-mb must be >= 1";
      exit 2
    end;
    (match quota_rps with
    | Some r when r <= 0. ->
      prerr_endline "error: --quota-rps must be > 0";
      exit 2
    | _ -> ());
    (* Oversubscribed domains time-slice one another and every minor GC
       becomes an all-domain barrier — the PR 7 tracing diagnosis.  Not
       an error (CI boxes lie about their core counts), but worth a
       line on stderr. *)
    let recommended = Domain.recommended_domain_count () in
    if jobs > recommended then
      Printf.eprintf
        "warning: --jobs %d exceeds this machine's recommended domain \
         count (%d); oversubscribed workers time-slice each other and \
         typically serve slower than --jobs %d\n\
         %!"
        jobs recommended recommended;
    let scanner, pack =
      resolve_scanner ~rules_file ~only ~exclude ~lang rule_pack
    in
    (* Workers share the one plan; health replies carry the pack's
       identity so clients can tell which rules the daemon runs.  Each
       worker domain prewarms the pack at spawn: canary replay heats
       per-domain transition caches, so the thunk must run inside the
       worker, not here. *)
    let warm_boot =
      Option.map
        (fun (p : Rulepack.t) () -> ignore (Rulepack.prewarm p : int))
        pack
    in
    let pack =
      Option.map
        (fun (p : Rulepack.t) -> (p.Rulepack.version, p.Rulepack.catalog_hash))
        pack
    in
    let quota =
      Option.map
        (fun rate ->
          let burst =
            match quota_burst with
            | Some b when b >= 1. -> b
            | Some _ | None -> Float.max 1. (2. *. rate)
          in
          (rate, burst))
        quota_rps
    in
    exit
      (Server.Serve.run ?pack ?warm_boot ~scanner
         {
           Server.Serve.socket;
           http_port = http;
           jobs;
           queue_capacity = queue;
           drain_timeout;
           trace_dir;
           max_request_bytes = max_request_mb * 1024 * 1024;
           cache_bytes = cache_mb * 1024 * 1024;
           cache_file;
           quota;
         })
  in
  let doc =
    "Run a long-lived scan/patch service: newline-delimited JSON requests \
     (schema patchitpy-serve/1) over stdin/stdout and an optional Unix \
     socket, plus an optional HTTP/1.1 gateway, answered by a pool of \
     worker domains sharing one compiled scan plan behind a content-hash \
     result cache."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket $ http $ jobs $ queue $ drain_timeout
          $ trace_dir $ cache_mb $ cache_file $ quota_rps $ quota_burst
          $ max_request_mb $ lang_arg $ rules_file_arg $ only_arg
          $ exclude_arg $ rule_pack_arg)

(* --- rules --------------------------------------------------------------- *)

let rules_list_term =
  let cwe =
    Arg.(value & opt (some int) None
         & info [ "cwe" ] ~docv:"N" ~doc:"Only rules for CWE-$(docv).")
  in
  let markdown =
    Arg.(value & flag
         & info [ "markdown" ] ~doc:"Render the catalog as Markdown (docs/RULES.md).")
  in
  let run cwe markdown json lang =
    let rules =
      match (lang, cwe) with
      | `Js, _ -> Patchitpy.(Catalog.javascript ())
      | `Python, Some c -> Patchitpy.Catalog.by_cwe c
      | `Python, None -> Patchitpy.(Catalog.all ())
    in
    if json then
      print_endline
        ("["
        ^ String.concat ","
            (List.map
               (fun (r : Patchitpy.Rule.t) ->
                 Printf.sprintf
                   "{\"id\":\"%s\",\"title\":\"%s\",\"cwe\":%d,\"severity\":\"%s\",\"fixable\":%b}"
                   (Patchitpy.Jsonout.escape_string r.Patchitpy.Rule.id)
                   (Patchitpy.Jsonout.escape_string r.title)
                   r.cwe
                   (Patchitpy.Rule.severity_to_string r.severity)
                   (Patchitpy.Rule.fixable r))
               rules)
        ^ "]")
    else if markdown then
      print_string
        (Patchitpy.Report.catalog_markdown
           ~title:(match lang with
                   | `Python -> "PatchitPy rule catalog (Python)"
                   | `Js -> "PatchitPy rule catalog (JavaScript pack)")
           rules)
    else begin
      List.iter (fun r -> print_string (Patchitpy.Report.render_rule r)) rules;
      Printf.printf "%d rules (%d with automatic fixes)\n" (List.length rules)
        (List.length (List.filter Patchitpy.Rule.fixable rules))
    end
  in
  Term.(const run $ cwe $ markdown $ json_arg $ lang_arg)

let canary_bytes (pack : Rulepack.t) =
  List.fold_left (fun a c -> a + String.length c) 0 pack.Rulepack.canaries

let rules_pack_cmd =
  let output =
    Arg.(value & opt string "patchitpy.pack"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the pack (default patchitpy.pack).")
  in
  let warm =
    Arg.(value & flag
         & info [ "warm" ]
             ~doc:"Embed an even spread of up to 16 samples of the \
                   built-in generated corpus as canaries.  A server \
                   started on the pack replays them in every worker \
                   before its first request, so the first scan runs \
                   near steady-state speed.")
  in
  let run output warm =
    (* [create] compiles the catalog and validates every rewrite
       program, so a malformed rule fails here, not at patch time. *)
    let pack = Rulepack.create () in
    let pack =
      if not warm then pack
      else
        Rulepack.with_canaries
          ~corpus:
            (List.map
               (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
               (Corpus.Generator.all_samples ()))
          pack
    in
    Rulepack.save ~path:output pack;
    Printf.printf "wrote %s: %d bytes, format v%d, catalog %s\n" output
      (file_size output) pack.Rulepack.version pack.Rulepack.catalog_hash;
    if warm then
      Printf.printf "warm section: %d canaries (%d bytes)\n"
        (List.length pack.Rulepack.canaries)
        (canary_bytes pack)
  in
  let doc =
    "Compile the full rule catalog (Python and JavaScript) into a \
     versioned binary pack for $(b,--rule-pack) / $(b,PATCHITPY_RULE_PACK), \
     optionally with warm-start canaries ($(b,--warm))."
  in
  Cmd.v (Cmd.info "pack" ~doc) Term.(const run $ output $ warm)

let rules_inspect_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PACK")
  in
  let run file json =
    let pack = load_pack_or_die file in
    let count lang =
      List.length (Patchitpy.Scanner.rules (Rulepack.scanner pack lang))
    in
    let python = count `Python and js = count `Js in
    let catalog_matches =
      match Rulepack.verify_catalog pack with Ok () -> true | Error _ -> false
    in
    if json then begin
      let warm_fields =
        match pack.Rulepack.canaries with
        | [] -> "\"warmSection\":false"
        | cs ->
          Printf.sprintf
            "\"warmSection\":true,\"warmCanaries\":%d,\"warmCanaryBytes\":%d"
            (List.length cs) (canary_bytes pack)
      in
      Printf.printf
        "{\"file\":\"%s\",\"bytes\":%d,\"formatVersion\":%d,\"catalogHash\":\"%s\",\"pythonRules\":%d,\"jsRules\":%d,\"fusedSection\":%b,%s,\"matchesThisBuild\":%b}\n"
        (Patchitpy.Jsonout.escape_string file)
        (file_size file) pack.Rulepack.version pack.Rulepack.catalog_hash
        python js pack.Rulepack.fused_section warm_fields catalog_matches
    end
    else begin
      Printf.printf "%s: %d bytes\n" file (file_size file);
      Printf.printf "format version: %d\n" pack.Rulepack.version;
      Printf.printf "catalog: %s (%s)\n" pack.Rulepack.catalog_hash
        (if catalog_matches then "matches this build"
         else "DOES NOT match this build's catalog");
      Printf.printf "rules: %d python, %d javascript\n" python js;
      Printf.printf "fused section: %s\n"
        (if pack.Rulepack.fused_section then "present"
         else "absent (re-fused from rules on first scan)");
      match pack.Rulepack.canaries with
      | [] -> Printf.printf "warm section: absent (cold first scan)\n"
      | cs ->
        Printf.printf "warm section: %d canaries (%d bytes)\n"
          (List.length cs) (canary_bytes pack)
    end;
    if not catalog_matches then exit 1
  in
  let doc =
    "Validate a rule pack (magic, version, checksum, structure) and print \
     its identity and rule counts.  Exits 1 when the pack was built from \
     a different catalog than this binary's."
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ file $ json_arg)

let rules_cmd =
  let doc = "List, pack or inspect the detection/patching rule catalog." in
  let list_doc = "List the detection/patching rule catalog." in
  Cmd.group ~default:rules_list_term (Cmd.info "rules" ~doc)
    [ Cmd.v (Cmd.info "list" ~doc:list_doc) rules_list_term;
      rules_pack_cmd; rules_inspect_cmd ]

(* --- derive -------------------------------------------------------------- *)

let derive_cmd =
  let pos_file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let run v1 v2 s1 s2 =
    let d =
      Patchitpy.Derive.derive
        ~vulnerable:(read_file v1, read_file v2)
        ~safe:(read_file s1, read_file s2)
    in
    Printf.printf "common vulnerable pattern (LCS):\n  %s\n\n"
      (String.concat " " d.Patchitpy.Derive.lcs_vulnerable);
    Printf.printf "safe-pattern additions:\n";
    List.iter (fun seg -> Printf.printf "  + %s\n" seg) d.Patchitpy.Derive.additions;
    Printf.printf "\nsketched detection pattern:\n  %s\n" d.Patchitpy.Derive.pattern_sketch
  in
  let doc =
    "Derive a rule sketch from a pair of vulnerable samples and their safe \
     alternatives (the offline pipeline of the paper's §II-A)."
  in
  Cmd.v (Cmd.info "derive" ~doc)
    Term.(const run $ pos_file 0 "VULN1" $ pos_file 1 "VULN2"
          $ pos_file 2 "SAFE1" $ pos_file 3 "SAFE2")

(* --- corpus -------------------------------------------------------------- *)

let corpus_cmd =
  let dump =
    Arg.(required & opt (some string) None
         & info [ "dump" ] ~docv:"DIR"
             ~doc:"Write the 609 generated samples, their secure references \
                   and a manifest.csv under $(docv).")
  in
  let run dir =
    let module G = Corpus.Generator in
    let module S = Corpus.Scenario in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let manifest = Buffer.create 4096 in
    Buffer.add_string manifest
      "file,model,scenario,source,cwe,difficulty,vulnerable,prompt_tokens\n";
    List.iter
      (fun (sample : G.sample) ->
        let scn = sample.G.scenario in
        let name =
          Printf.sprintf "%s_%s.py"
            (String.lowercase_ascii (G.model_name sample.G.model))
            scn.S.sid
        in
        write_file (Filename.concat dir name) sample.G.code;
        Buffer.add_string manifest
          (Printf.sprintf "%s,%s,%s,%s,%d,%s,%b,%d\n" name
             (G.model_name sample.G.model) scn.S.sid
             (match scn.S.source with
             | S.Security_eval -> "SecurityEval"
             | S.Llmsec_eval -> "LLMSecEval")
             scn.S.cwe
             (match scn.S.difficulty with
             | S.Plain -> "plain"
             | S.Detect_only -> "detect-only"
             | S.Semantic -> "semantic")
             sample.G.vulnerable (S.prompt_tokens scn)))
      (G.all_samples ());
    let refs = Filename.concat dir "references" in
    if not (Sys.file_exists refs) then Sys.mkdir refs 0o755;
    List.iter
      (fun scn ->
        write_file
          (Filename.concat refs (scn.S.sid ^ ".py"))
          (S.reference scn))
      (Corpus.scenarios ());
    write_file (Filename.concat dir "manifest.csv") (Buffer.contents manifest);
    Printf.printf "wrote 609 samples, 203 references and manifest.csv to %s\n" dir
  in
  let doc =
    "Materialize the evaluation corpus (609 generated samples with ground \
     truth and secure references) to disk."
  in
  Cmd.v (Cmd.info "corpus" ~doc) Term.(const run $ dump)

(* --- eval ---------------------------------------------------------------- *)

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the corpus experiments (default: the \
                 machine's recommended domain count; 1 runs sequentially). \
                 Tables are identical at every $(docv).")

(* --- profile ------------------------------------------------------------- *)

let profile_cmd =
  let wall =
    Arg.(value & flag
         & info [ "wall" ]
             ~doc:"Also report per-rule wall time.  Off by default because \
                   wall-clock columns cannot be byte-identical across runs \
                   or $(b,--jobs) values; the deterministic cost unit is \
                   matcher backtracking steps.")
  in
  let top =
    Arg.(value & opt (some int) None
         & info [ "top" ] ~docv:"N" ~doc:"Show only the $(docv) costliest rules.")
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Profile only the first $(docv) corpus samples (CI smoke).")
  in
  let patch =
    Arg.(value & flag
         & info [ "patch" ]
             ~doc:"Also run the patcher on every sample, adding patch-round \
                   and import counters to the report.")
  in
  (* Unlike scan/patch --trace (per-request phase spans), profile's
     --trace is the aggregate report: the corpus run is one big batch,
     not a stream of requests. *)
  let profile_trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Collect telemetry during the run and write the full \
                   report as JSON (schema patchitpy-telemetry/1) to \
                   $(docv).")
  in
  let run jobs json wall top limit patch trace =
    let p = Experiments.Profile.run ?jobs ?limit ~patch () in
    (match trace with
    | Some path ->
      write_file path
        (Telemetry.Report.to_json p.Experiments.Profile.report)
    | None -> ());
    if json then print_endline (Experiments.Profile.to_json ~wall p)
    else print_string (Experiments.Profile.render ~wall ?top p)
  in
  let doc =
    "Profile the scanner over the 609-sample corpus: per-rule hit counts, \
     prefilter skip ratios and matcher cost, as a hot-spot table or JSON."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ jobs_arg $ json_arg $ wall $ top $ limit $ patch
          $ profile_trace_arg)

let eval_cmd =
  let run jobs =
    (match jobs with
    | Some n -> Experiments.Par.set_default_jobs n
    | None -> ());
    print_string (Experiments.run_all ())
  in
  let doc = "Regenerate every table and figure of the paper's evaluation." in
  Cmd.v (Cmd.info "eval" ~doc) Term.(const run $ jobs_arg)

let () =
  (* PATCHITPY_RULE_PACK: processes that only use the default engine
     entry points (profile, library embedders) get pack-fast startup
     without a flag. *)
  Rulepack.use_env_pack ();
  let doc = "pattern-based vulnerability detection and patching for Python" in
  let info = Cmd.info "patchitpy" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ scan_cmd; patch_cmd; serve_cmd; rules_cmd; derive_cmd; corpus_cmd;
         profile_cmd; eval_cmd ]))
