(* Integration tests: the experiment harness must reproduce the paper's
   headline numbers (within shape tolerances) — this is the repository's
   contract. *)

module C = Metrics.Confusion
module G = Corpus.Generator

let check_bool = Alcotest.(check bool)

let near ~tol target actual = Float.abs (target -. actual) <= tol

let detection_rows = lazy (Experiments.Detection.run ())
let patching_rows = lazy (Experiments.Patching.run ())

let row tool = List.find (fun r -> r.Experiments.Detection.tool = tool) (Lazy.force detection_rows)

let test_table2_patchitpy () =
  let r = row "PatchitPy" in
  let o = r.Experiments.Detection.overall in
  (* paper: P 0.97, R 0.88, F1 0.93, Acc 0.89 *)
  check_bool "precision ~0.97" true (near ~tol:0.02 0.97 (C.precision o));
  check_bool "recall ~0.88" true (near ~tol:0.03 0.88 (C.recall o));
  check_bool "f1 ~0.93" true (near ~tol:0.02 0.93 (C.f1 o));
  check_bool "accuracy ~0.89" true (near ~tol:0.03 0.89 (C.accuracy o));
  (* per-model recall ordering: Claude > DeepSeek > Copilot (paper) *)
  match r.Experiments.Detection.per_model with
  | [ (_, cop); (_, cla); (_, dee) ] ->
    check_bool "recall ordering" true
      (C.recall cla > C.recall dee && C.recall dee > C.recall cop)
  | _ -> Alcotest.fail "expected three models"

let test_table2_patchitpy_wins () =
  let rows = Lazy.force detection_rows in
  let pit = row "PatchitPy" in
  List.iter
    (fun r ->
      if r.Experiments.Detection.tool <> "PatchitPy" then begin
        check_bool
          (r.Experiments.Detection.tool ^ " f1 below PatchitPy")
          true
          (C.f1 r.Experiments.Detection.overall
           < C.f1 pit.Experiments.Detection.overall);
        check_bool
          (r.Experiments.Detection.tool ^ " accuracy below PatchitPy")
          true
          (C.accuracy r.Experiments.Detection.overall
           < C.accuracy pit.Experiments.Detection.overall)
      end)
    rows

let test_table2_static_tools_low_recall () =
  (* The paper's motivation: AST tools lose recall on AI-generated code. *)
  List.iter
    (fun tool ->
      let r = row tool in
      check_bool (tool ^ " recall below 0.6") true
        (C.recall r.Experiments.Detection.overall < 0.6);
      check_bool (tool ^ " precision stays high") true
        (C.precision r.Experiments.Detection.overall > 0.85))
    [ "CodeQL"; "Semgrep"; "Bandit" ]

let test_table2_llm_precision_gap () =
  List.iter
    (fun tool ->
      let r = row tool in
      check_bool (tool ^ " precision below PatchitPy") true
        (C.precision r.Experiments.Detection.overall < 0.97))
    [ "ChatGPT-4o"; "Claude-3.7-Sonnet"; "Gemini-2.0-Flash" ]

let patch_row tool =
  List.find
    (fun r -> r.Experiments.Patching.tool = tool)
    (Lazy.force patching_rows)

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let test_table3_patchitpy () =
  let r = patch_row "PatchitPy" in
  let v, d, p = Experiments.Patching.totals r in
  (* paper: 80 % of detected, 70 % of total *)
  check_bool "patched[det] ~0.80" true (near ~tol:0.03 0.80 (rate p d));
  check_bool "patched[tot] ~0.70" true (near ~tol:0.04 0.70 (rate p v));
  (* per-model: Copilot 0.68, Claude 0.89, DeepSeek 0.84 *)
  match r.Experiments.Patching.per_model with
  | [ (_, cop); (_, cla); (_, dee) ] ->
    check_bool "Copilot ~0.68" true
      (near ~tol:0.04 0.68 (rate cop.Experiments.Patching.patched cop.Experiments.Patching.detected));
    check_bool "Claude ~0.89" true
      (near ~tol:0.04 0.89 (rate cla.Experiments.Patching.patched cla.Experiments.Patching.detected));
    check_bool "DeepSeek ~0.84" true
      (near ~tol:0.04 0.84 (rate dee.Experiments.Patching.patched dee.Experiments.Patching.detected))
  | _ -> Alcotest.fail "expected three models"

let test_table3_llms_below () =
  let _, d, p = Experiments.Patching.totals (patch_row "PatchitPy") in
  let pit_rate = rate p d in
  List.iter
    (fun tool ->
      let _, d, p = Experiments.Patching.totals (patch_row tool) in
      check_bool (tool ^ " repair rate below PatchitPy") true
        (rate p d < pit_rate))
    [ "ChatGPT-4o"; "Claude-3.7-Sonnet"; "Gemini-2.0-Flash" ]

let test_suggestion_rates () =
  (* paper: Semgrep 19 %, Bandit 17 %, suggestion comments only *)
  List.iter
    (fun (tool, share) ->
      check_bool (tool ^ " share in the paper's range") true
        (share >= 0.10 && share <= 0.25))
    (Experiments.Patching.suggestion_rates ())

let test_incidence () =
  let counts = Corpus.incidence () in
  let total = List.fold_left (fun acc (_, v, _) -> acc + v) 0 counts in
  Alcotest.(check int) "461 vulnerable of 609 (76 %)" 461 total

let test_cwe_coverage () =
  (* paper: 51 / 41 / 47 distinct CWEs detected *)
  List.iter2
    (fun (m, cwes) target ->
      check_bool
        (Printf.sprintf "%s CWEs near %d" (G.model_name m) target)
        true
        (abs (List.length cwes - target) <= 3))
    (Experiments.Detection.cwes_detected ())
    [ 51; 41; 47 ]

let test_quality () =
  let entries = Experiments.Quality.run () in
  let find label =
    List.find (fun e -> e.Experiments.Quality.label = label) entries
  in
  let gt = find "Ground truth" and pit = find "PatchitPy" in
  check_bool "medians ~9+/10" true
    (gt.Experiments.Quality.median >= 9.0 && pit.Experiments.Quality.median >= 9.0);
  check_bool "PatchitPy equivalent to ground truth (Wilcoxon n.s.)" true
    (pit.Experiments.Quality.vs_reference_p >= 0.05)

let test_fig3 () =
  let series = Experiments.Fig3.run () in
  let find label =
    List.find (fun s -> s.Experiments.Fig3.label = label) series
  in
  let gen = find "Generated" and pit = find "PatchitPy" in
  let chatgpt = find "ChatGPT-4o"
  and claude = find "Claude-3.7-Sonnet"
  and gemini = find "Gemini-2.0-Flash" in
  let mean s = s.Experiments.Fig3.summary.Metrics.Stats.mean in
  (* PatchitPy does not change complexity; LLMs increase it. *)
  check_bool "PatchitPy ~ generated" true
    (Float.abs (mean pit -. mean gen) < 0.1);
  check_bool "PatchitPy n.s. vs generated" true
    (pit.Experiments.Fig3.vs_generated_p >= 0.05);
  List.iter
    (fun s ->
      check_bool (s.Experiments.Fig3.label ^ " mean above generated") true
        (mean s > mean gen +. 0.2);
      check_bool (s.Experiments.Fig3.label ^ " significant") true
        (s.Experiments.Fig3.vs_generated_p < 0.05))
    [ chatgpt; claude; gemini ];
  (* paper: the Claude persona rewrites most aggressively *)
  check_bool "Claude persona highest" true
    (mean claude >= mean gemini && mean claude >= mean chatgpt)

let test_run_all_renders () =
  let out = Experiments.run_all () in
  List.iter
    (fun needle ->
      if not (Rx.matches (Rx.compile needle) out) then
        Alcotest.failf "run_all output is missing %s" needle)
    [
      "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "PatchitPy"; "CodeQL";
      "Gemini-2.0-Flash"; "Patched \\[Det\\.\\]"; "CWE-502";
    ]

let () =
  Alcotest.run "experiments"
    [
      ( "table2",
        [
          Alcotest.test_case "patchitpy headline" `Slow test_table2_patchitpy;
          Alcotest.test_case "patchitpy wins" `Slow test_table2_patchitpy_wins;
          Alcotest.test_case "static tools low recall" `Slow
            test_table2_static_tools_low_recall;
          Alcotest.test_case "llm precision gap" `Slow test_table2_llm_precision_gap;
        ] );
      ( "table3",
        [
          Alcotest.test_case "patchitpy rates" `Slow test_table3_patchitpy;
          Alcotest.test_case "llms below" `Slow test_table3_llms_below;
          Alcotest.test_case "suggestion rates" `Slow test_suggestion_rates;
        ] );
      ( "sections",
        [
          Alcotest.test_case "incidence" `Quick test_incidence;
          Alcotest.test_case "cwe coverage" `Slow test_cwe_coverage;
          Alcotest.test_case "quality" `Slow test_quality;
          Alcotest.test_case "fig3" `Slow test_fig3;
          Alcotest.test_case "run_all renders" `Slow test_run_all_renders;
        ] );
    ]
