(* Corpus profiling over the telemetry subsystem.  See profile.mli for
   the determinism contract: counts and steps are scheduling-independent
   and merge commutatively, wall time is collected but opt-in. *)

module G = Corpus.Generator

type rule_row = {
  id : string;
  candidates : int;
  matched : int;
  suppressed : int;
  findings : int;
  budget_exhausted : int;
  steps : int;
  time_ns : int;
  skip_ratio : float;
}

type t = {
  samples : int;
  scans : int;
  rule_count : int;
  rules : rule_row list;
  report : Telemetry.Report.t;
}

let run ?jobs ?limit ?(patch = false) () =
  let samples = G.all_samples () in
  let samples =
    match limit with
    | None -> samples
    | Some n -> List.filteri (fun i _ -> i < n) samples
  in
  let scanner = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()) in
  let sink = Telemetry.create () in
  Telemetry.with_sink sink (fun () ->
      ignore
        (Par.map_samples ?jobs
           (fun (s : G.sample) ->
             let findings = Patchitpy.Scanner.scan scanner s.G.code in
             if patch then ignore (Patchitpy.Patcher.patch s.G.code);
             List.length findings)
           samples));
  let report = Telemetry.Report.of_sink sink in
  let ids = Telemetry.Rules.ids (Patchitpy.Scanner.telemetry_def scanner) in
  (* The profiling scanner's ruleset is recognized by its own id
     vector; [Patcher.patch] (via the default engine plan) may have
     recorded others. *)
  let ruleset =
    List.find
      (fun (r : Telemetry.Report.ruleset) -> r.Telemetry.Report.r_ids == ids)
      report.Telemetry.Report.rulesets
  in
  let b = ruleset.Telemetry.Report.r_block in
  let scans = ruleset.Telemetry.Report.r_scans in
  let module B = Telemetry.Rules in
  let rules =
    Array.to_list
      (Array.mapi
         (fun i id ->
           {
             id;
             candidates = b.B.candidates.(i);
             matched = b.B.matched.(i);
             suppressed = b.B.suppressed.(i);
             findings = b.B.findings.(i);
             budget_exhausted = b.B.budget_exhausted.(i);
             steps = b.B.steps.(i);
             time_ns = b.B.time_ns.(i);
             skip_ratio =
               (if scans = 0 then 0.0
                else
                  float_of_int (scans - b.B.candidates.(i)) /. float_of_int scans);
           })
         ids)
    |> List.sort (fun a b ->
           match compare b.steps a.steps with 0 -> compare a.id b.id | c -> c)
  in
  {
    samples = List.length samples;
    scans;
    rule_count = Array.length ids;
    rules;
    report;
  }

let total f t = List.fold_left (fun acc r -> acc + f r) 0 t.rules

let render ?(wall = false) ?top t =
  let shown =
    match top with
    | None -> t.rules
    | Some n -> List.filteri (fun i _ -> i < n) t.rules
  in
  let total_steps = total (fun r -> r.steps) t in
  let pairs = t.scans * t.rule_count in
  let total_candidates = total (fun r -> r.candidates) t in
  let header =
    [ "rule"; "cand"; "skip%"; "match"; "supp"; "find"; "budget"; "steps"; "steps%" ]
    @ (if wall then [ "time(us)" ] else [])
  in
  let row r =
    [
      r.id;
      string_of_int r.candidates;
      Printf.sprintf "%.1f" (100.0 *. r.skip_ratio);
      string_of_int r.matched;
      string_of_int r.suppressed;
      string_of_int r.findings;
      string_of_int r.budget_exhausted;
      string_of_int r.steps;
      Printf.sprintf "%.1f"
        (if total_steps = 0 then 0.0
         else 100.0 *. float_of_int r.steps /. float_of_int total_steps);
    ]
    @ (if wall then [ Printf.sprintf "%.1f" (float_of_int r.time_ns /. 1e3) ]
       else [])
  in
  Printf.sprintf
    "profile: %d samples, %d scans, %d-rule catalog\n\
     fused pass: %d of %d (rule, sample) pairs skipped without running the \
     matcher (%.1f%%)\n\
     cost unit: rx backtracking steps (deterministic; wall time %s)\n\n"
    t.samples t.scans t.rule_count (pairs - total_candidates) pairs
    (if pairs = 0 then 0.0
     else 100.0 *. float_of_int (pairs - total_candidates) /. float_of_int pairs)
    (if wall then "shown per rule" else "available with --wall")
  ^ Tables.render ~header ~rows:(List.map row shown)

let to_json ?(wall = false) t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"patchitpy-profile/1\",\"samples\":%d,\"scans\":%d,\
        \"ruleCount\":%d,\"totals\":{\"candidates\":%d,\"matched\":%d,\
        \"suppressed\":%d,\"findings\":%d,\"budgetExhausted\":%d,\"steps\":%d},\
        \"rules\":["
       t.samples t.scans t.rule_count
       (total (fun r -> r.candidates) t)
       (total (fun r -> r.matched) t)
       (total (fun r -> r.suppressed) t)
       (total (fun r -> r.findings) t)
       (total (fun r -> r.budget_exhausted) t)
       (total (fun r -> r.steps) t));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":\"%s\",\"candidates\":%d,\"skipRatio\":%.6f,\"matched\":%d,\
            \"suppressed\":%d,\"findings\":%d,\"budgetExhausted\":%d,\"steps\":%d%s}"
           (Telemetry.Report.escape r.id)
           r.candidates r.skip_ratio r.matched r.suppressed r.findings
           r.budget_exhausted r.steps
           (if wall then Printf.sprintf ",\"timeNs\":%d" r.time_ns else "")))
    t.rules;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* --- the CLI's --stats rendering ----------------------------------------- *)

let summary (report : Telemetry.Report.t) =
  let buf = Buffer.create 2048 in
  let module R = Telemetry.Report in
  if report.R.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" name v))
      report.R.counters
  end;
  if report.R.histograms <> [] then begin
    Buffer.add_string buf "histograms (count / mean):\n";
    List.iter
      (fun (h : R.histogram) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %d / %.0f\n" h.R.h_name h.R.h_count
             (if h.R.h_count = 0 then 0.0
              else float_of_int h.R.h_sum /. float_of_int h.R.h_count)))
      report.R.histograms
  end;
  List.iteri
    (fun set (r : R.ruleset) ->
      let module B = Telemetry.Rules in
      let b = r.R.r_block in
      let n = Array.length r.R.r_ids in
      let order = Array.init n (fun i -> i) in
      Array.sort
        (fun i j ->
          match compare b.B.steps.(j) b.B.steps.(i) with
          | 0 -> compare r.R.r_ids.(i) r.R.r_ids.(j)
          | c -> c)
        order;
      let candidates = Array.fold_left ( + ) 0 b.B.candidates in
      let pairs = r.R.r_scans * n in
      Buffer.add_string buf
        (Printf.sprintf
           "scan plan %d: %d rules, %d scans, fused pass skipped %.1f%% of \
            (rule, scan) pairs\n"
           set n r.R.r_scans
           (if pairs = 0 then 0.0
            else 100.0 *. float_of_int (pairs - candidates) /. float_of_int pairs));
      Array.iteri
        (fun rank i ->
          if rank < 5 && b.B.steps.(i) > 0 then
            Buffer.add_string buf
              (Printf.sprintf
                 "  %-12s %8d steps  %5d candidates  %4d findings  %4d \
                  suppressed%s\n"
                 r.R.r_ids.(i) b.B.steps.(i) b.B.candidates.(i) b.B.findings.(i)
                 b.B.suppressed.(i)
                 (if b.B.budget_exhausted.(i) > 0 then
                    Printf.sprintf "  %d budget-exhausted" b.B.budget_exhausted.(i)
                  else "")))
        order)
    report.R.rulesets;
  Buffer.contents buf
