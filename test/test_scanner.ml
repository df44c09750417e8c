(* Tests for the compiled scan plan: Scanner.scan must be
   finding-for-finding identical to the seed engine's rule-by-rule
   algorithm, and the line index must agree with a from-byte-0 rescan at
   every offset. *)

open Patchitpy
module G = Corpus.Generator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the seed engine, reimplemented as the reference oracle ------------- *)

let ref_line_of_offset source offset =
  let line = ref 1 in
  let limit = min offset (String.length source) in
  for i = 0 to limit - 1 do
    if source.[i] = '\n' then incr line
  done;
  !line

let ref_column_of_offset source offset =
  let rec back i = if i > 0 && source.[i - 1] <> '\n' then back (i - 1) else i in
  offset - back offset

let ref_context_window source start stop =
  let len = String.length source in
  let line_start i =
    let rec back j = if j > 0 && source.[j - 1] <> '\n' then back (j - 1) else j in
    back (min i len)
  in
  let line_end i =
    let rec fwd j = if j < len && source.[j] <> '\n' then fwd (j + 1) else j in
    fwd (max 0 (min i len))
  in
  let w_start = line_start (max 0 (line_start start - 1)) in
  let w_end = line_end (min len (line_end stop + 1)) in
  String.sub source w_start (w_end - w_start)

(* Seed scan result, minus the snippet/m fields the comparison rebuilds
   from offsets anyway. *)
type ref_finding = { r_id : string; r_line : int; r_col : int; r_off : int; r_stop : int }

let reference_scan rules source =
  let findings = ref [] in
  List.iter
    (fun (rule : Rule.t) ->
      let matches =
        try Rx.find_all rule.Rule.pattern source
        with Rx.Budget_exceeded _ -> []
      in
      List.iter
        (fun m ->
          let offset = Rx.m_start m and stop = Rx.m_stop m in
          let suppressed =
            match rule.Rule.suppress with
            | None -> false
            | Some sup -> Rx.matches sup (ref_context_window source offset stop)
          in
          if not suppressed then
            findings :=
              { r_id = rule.Rule.id;
                r_line = ref_line_of_offset source offset;
                r_col = ref_column_of_offset source offset;
                r_off = offset; r_stop = stop }
              :: !findings)
        matches)
    rules;
  List.sort
    (fun a b ->
      match compare a.r_off b.r_off with 0 -> compare a.r_id b.r_id | c -> c)
    !findings

let same_findings label reference (actual : Scanner.finding list) =
  check_int (label ^ ": finding count") (List.length reference) (List.length actual);
  List.iter2
    (fun r (f : Scanner.finding) ->
      Alcotest.(check string) (label ^ ": rule id") r.r_id f.Scanner.rule.Rule.id;
      check_int (label ^ ": offset") r.r_off f.Scanner.offset;
      check_int (label ^ ": stop") r.r_stop f.Scanner.stop;
      check_int (label ^ ": line") r.r_line f.Scanner.line;
      check_int (label ^ ": column") r.r_col f.Scanner.column)
    reference actual

(* The headline equivalence property: over the whole 609-sample corpus,
   the compiled plan reproduces the seed algorithm byte for byte. *)
let test_corpus_equivalence () =
  let scanner = Scanner.compile (Catalog.all ()) in
  List.iter
    (fun (s : G.sample) ->
      let label = G.model_name s.G.model ^ "/" ^ s.G.scenario.Corpus.Scenario.sid in
      same_findings label
        (reference_scan (Catalog.all ()) s.G.code)
        (Scanner.scan scanner s.G.code))
    (G.all_samples ())

let test_engine_delegates () =
  (* Engine.scan is the scanner behind a compatibility signature. *)
  let src = "import os\nos.system(cmd)\napp.run(debug=True)\n" in
  let via_engine = Engine.scan src in
  let via_scanner = Scanner.scan (Scanner.compile (Catalog.all ())) src in
  check_int "same count" (List.length via_scanner) (List.length via_engine);
  List.iter2
    (fun (a : Scanner.finding) (b : Scanner.finding) ->
      check_bool "same finding" true (a.Scanner.rule.Rule.id = b.Scanner.rule.Rule.id
                                      && a.Scanner.offset = b.Scanner.offset))
    via_scanner via_engine;
  check_bool "found something" true (via_engine <> [])

let test_js_catalog_equivalence () =
  let scanner = Scanner.compile (Catalog.javascript ()) in
  let src = "const q = `SELECT * FROM t WHERE id = ${id}`;\neval(payload);\n" in
  same_findings "js" (reference_scan (Catalog.javascript ()) src) (Scanner.scan scanner src)

(* --- scan_selection ------------------------------------------------------ *)

(* A five-line file with findings on the first and last lines, and one in
   the middle, so range edges are observable. *)
let sel_src =
  "app.run(debug=True)\n\
   x = 1\n\
   os.system(cmd)\n\
   y = 2\n\
   eval(payload)"

let sel_scanner = lazy (Scanner.compile (Catalog.all ()))

let ids findings =
  List.map (fun (f : Scanner.finding) -> f.Scanner.rule.Rule.id) findings

let test_selection_file_start () =
  let scanner = Lazy.force sel_scanner in
  let full = Scanner.scan scanner sel_src in
  let sel = Scanner.scan_selection scanner sel_src ~first_line:1 ~last_line:1 in
  (* only line 1's findings, with whole-file line numbers *)
  let expected =
    List.filter (fun (f : Scanner.finding) -> f.Scanner.line = 1) full
  in
  check_int "first-line finding count" (List.length expected) (List.length sel);
  check_bool "found the debug=True rule" true (sel <> []);
  List.iter2
    (fun (e : Scanner.finding) (s : Scanner.finding) ->
      Alcotest.(check string) "rule" e.Scanner.rule.Rule.id s.Scanner.rule.Rule.id;
      check_int "line stays 1-based" e.Scanner.line s.Scanner.line;
      check_int "column" e.Scanner.column s.Scanner.column)
    expected sel

let test_selection_file_end () =
  let scanner = Lazy.force sel_scanner in
  let full = Scanner.scan scanner sel_src in
  let last = Scanner.scan_selection scanner sel_src ~first_line:5 ~last_line:5 in
  let expected =
    List.filter (fun (f : Scanner.finding) -> f.Scanner.line = 5) full
  in
  check_bool "last line has a finding" true (expected <> []);
  Alcotest.(check (list string)) "last-line rules" (ids expected) (ids last);
  List.iter2
    (fun (e : Scanner.finding) (s : Scanner.finding) ->
      check_int "line remapped to whole file" e.Scanner.line s.Scanner.line)
    expected last;
  (* a last_line past EOF clamps to the end of the file *)
  let beyond = Scanner.scan_selection scanner sel_src ~first_line:5 ~last_line:999 in
  Alcotest.(check (list string)) "beyond EOF clamps" (ids last) (ids beyond)

let test_selection_whole_file () =
  let scanner = Lazy.force sel_scanner in
  let full = Scanner.scan scanner sel_src in
  let sel = Scanner.scan_selection scanner sel_src ~first_line:1 ~last_line:5 in
  Alcotest.(check (list string)) "whole-file selection = scan" (ids full) (ids sel);
  List.iter2
    (fun (e : Scanner.finding) (s : Scanner.finding) ->
      check_int "same line" e.Scanner.line s.Scanner.line)
    full sel

(* Byte positions of a selection that starts mid-file point into the
   whole file, exactly as the whole-file scan reports them. *)
let test_selection_mid_file_offsets () =
  let scanner = Lazy.force sel_scanner in
  let full = Scanner.scan scanner sel_src in
  let sel = Scanner.scan_selection scanner sel_src ~first_line:3 ~last_line:5 in
  let expected =
    List.filter (fun (f : Scanner.finding) -> f.Scanner.line >= 3) full
  in
  check_bool "the selection has findings" true (expected <> []);
  Alcotest.(check (list string)) "selection rules" (ids expected) (ids sel);
  List.iter2
    (fun (e : Scanner.finding) (s : Scanner.finding) ->
      check_int "line" e.Scanner.line s.Scanner.line;
      check_int "column" e.Scanner.column s.Scanner.column;
      check_int "offset" e.Scanner.offset s.Scanner.offset;
      check_int "stop" e.Scanner.stop s.Scanner.stop;
      Alcotest.(check string)
        "offsets index the whole file" e.Scanner.snippet
        (String.sub sel_src s.Scanner.offset (s.Scanner.stop - s.Scanner.offset)))
    expected sel

let test_selection_empty_range () =
  let scanner = Lazy.force sel_scanner in
  (* inverted range selects nothing and must not raise *)
  let sel = Scanner.scan_selection scanner sel_src ~first_line:4 ~last_line:2 in
  check_int "inverted range is empty" 0 (List.length sel);
  let findings, warnings =
    Scanner.scan_selection_with_warnings scanner sel_src ~first_line:4
      ~last_line:2
  in
  check_int "no findings" 0 (List.length findings);
  check_int "no warnings" 0 (List.length warnings);
  (* ...and an empty source is equally fine *)
  check_int "empty source" 0
    (List.length (Scanner.scan_selection scanner "" ~first_line:1 ~last_line:3))

let test_selection_splits_multiline_match () =
  (* \s crosses newlines, so this rule matches across a line break; a
     selection boundary between the two halves must break the match. *)
  let rule =
    Rule.make ~id:"TEST-ML" ~title:"multi-line test pattern" ~cwe:1
      ~severity:Rule.Low ~pattern:{|alpha\s+beta|} ~note:"test only" ()
  in
  let scanner = Scanner.compile [ rule ] in
  let src = "alpha\nbeta\n" in
  check_int "matches across the newline" 1
    (List.length (Scanner.scan scanner src));
  check_int "whole-file selection still matches" 1
    (List.length (Scanner.scan_selection scanner src ~first_line:1 ~last_line:2));
  check_int "selecting only line 1 splits the match" 0
    (List.length (Scanner.scan_selection scanner src ~first_line:1 ~last_line:1));
  check_int "selecting only line 2 splits the match" 0
    (List.length (Scanner.scan_selection scanner src ~first_line:2 ~last_line:2))

(* --- budget warnings ------------------------------------------------------ *)

let test_budget_warning_surfaces () =
  (* Nested quantifiers over a long non-matching tail: classic
     exponential backtracking, guaranteed to blow the step budget.  The
     DFA tier runs this pattern in linear time without tripping any
     budget, so the rule is pinned to the backtracking engine — the
     warning path under test is a backtrack-tier behaviour. *)
  let rule =
    Rule.make ~id:"TEST-BOOM" ~title:"pathological pattern" ~cwe:1
      ~severity:Rule.Low ~pattern:{|(a+)+$|} ~note:"test only" ()
  in
  let rule = { rule with Rule.pattern = Rx.backtrack_tier rule.Rule.pattern } in
  let scanner = Scanner.compile [ rule ] in
  let src = String.make 64 'a' ^ "b" in
  let findings, warnings = Scanner.scan_with_warnings scanner src in
  check_int "no findings" 0 (List.length findings);
  (match warnings with
  | [ Scanner.Budget_exhausted id ] ->
    Alcotest.(check string) "warning names the rule" "TEST-BOOM" id
  | ws -> Alcotest.failf "expected one budget warning, got %d" (List.length ws));
  (* the plain entry point still just skips the rule *)
  check_int "scan skips silently" 0 (List.length (Scanner.scan scanner src))

(* --- line index --------------------------------------------------------- *)

let test_line_index_units () =
  let src = "a\nbb\n\nccc" in
  let idx = Line_index.build src in
  check_int "offset 0" 1 (Line_index.line idx 0);
  check_int "column at 0" 0 (Line_index.column idx 0);
  check_int "mid line 2" 2 (Line_index.line idx 3);
  check_int "column mid line 2" 1 (Line_index.column idx 3);
  check_int "empty line" 3 (Line_index.line idx 5);
  check_int "last line" 4 (Line_index.line idx 8);
  (* past EOF clamps to the last line, like the seed's line_of_offset *)
  check_int "past EOF" 4 (Line_index.line idx 1000);
  check_int "seed agrees past EOF" (ref_line_of_offset src 1000)
    (Line_index.line idx 1000)

let test_line_index_edge_sources () =
  List.iter
    (fun src ->
      let idx = Line_index.build src in
      for offset = 0 to String.length src do
        check_int
          (Printf.sprintf "line at %d of %S" offset src)
          (ref_line_of_offset src offset)
          (Line_index.line idx offset);
        check_int
          (Printf.sprintf "column at %d of %S" offset src)
          (ref_column_of_offset src offset)
          (Line_index.column idx offset)
      done)
    [ ""; "\n"; "x"; "x\n"; "\n\n\n"; "one\ntwo\nthree"; "trailing\n" ]

(* The corpus is LF-only (no CRLF), so index positions must agree with
   the seed rescan at every byte of every sample. *)
let test_line_index_on_corpus () =
  List.iter
    (fun (s : G.sample) ->
      let src = s.G.code in
      check_bool "corpus is CRLF-free" false (String.contains src '\r');
      let idx = Line_index.build src in
      for offset = 0 to String.length src do
        if Line_index.line idx offset <> ref_line_of_offset src offset then
          Alcotest.failf "line mismatch at %d in %s" offset
            s.G.scenario.Corpus.Scenario.sid
      done)
    (List.filteri (fun i _ -> i < 30) (G.all_samples ()))

let () =
  Alcotest.run "scanner"
    [
      ( "equivalence",
        [
          Alcotest.test_case "full corpus vs seed engine" `Quick
            test_corpus_equivalence;
          Alcotest.test_case "engine delegates" `Quick test_engine_delegates;
          Alcotest.test_case "js catalog" `Quick test_js_catalog_equivalence;
        ] );
      ( "scan selection",
        [
          Alcotest.test_case "file start" `Quick test_selection_file_start;
          Alcotest.test_case "file end + past-EOF clamp" `Quick
            test_selection_file_end;
          Alcotest.test_case "whole file" `Quick test_selection_whole_file;
          Alcotest.test_case "mid-file offsets" `Quick
            test_selection_mid_file_offsets;
          Alcotest.test_case "empty range" `Quick test_selection_empty_range;
          Alcotest.test_case "multi-line match split" `Quick
            test_selection_splits_multiline_match;
        ] );
      ( "budget warnings",
        [
          Alcotest.test_case "exhaustion surfaces" `Quick
            test_budget_warning_surfaces;
        ] );
      ( "line index",
        [
          Alcotest.test_case "units" `Quick test_line_index_units;
          Alcotest.test_case "edge sources" `Quick test_line_index_edge_sources;
          Alcotest.test_case "corpus offsets" `Quick test_line_index_on_corpus;
        ] );
    ]
