(* The fused scan tier's contract is byte-equivalence: a scan routed
   through the fused multi-pattern pass (one tagged lazy DFA over the
   whole catalog, flagging which rules can match at all) must be
   indistinguishable from the per-rule path — same findings, same
   warnings, same patch results — because the fused pass is an *exact*
   existence filter and per-rule sweeps still resolve every span.

   Layers: unit checks on hosting decisions and the raw mask; QCheck
   over random pattern sets x random subjects (mask vs the pinned
   backtracker, full-size and deliberately thrashing caches); scanner
   differentials including the patcher's round scans and
   deadline/budget edges; the fused rule-pack section (round-trip and
   forged-section degradation); and the 609-sample corpus under
   --jobs 1 and 4. *)

open Patchitpy
module G = Corpus.Generator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- unit: hosting and the raw mask ------------------------------------ *)

let test_hosting () =
  let pats =
    [|
      "abc+";  (* hosted *)
      {|(a+)\1|};  (* backref: backtracker tier, unhosted *)
      "a*";  (* can match empty: unhosted *)
      {|\bos\.system\(|};  (* hosted *)
    |]
  in
  let ts = Array.map Rx.compile pats in
  match Rx.Fused.compile ts with
  | None -> Alcotest.fail "catalog with hostable patterns fused to None"
  | Some f ->
    check_int "pattern count" 4 (Rx.Fused.pattern_count f);
    check_int "hosted count" 2 (Rx.Fused.hosted_count f);
    check_bool "plain pattern hosted" true (Rx.Fused.is_hosted f 0);
    check_bool "backref unhosted" false (Rx.Fused.is_hosted f 1);
    check_bool "nullable unhosted" false (Rx.Fused.is_hosted f 2);
    check_bool "literal-headed hosted" true (Rx.Fused.is_hosted f 3);
    let mask = Rx.Fused.run f "x = abccc; os.system(cmd)" in
    check_bool "hosted match flagged" true (Bytes.get mask 0 = '\001');
    check_bool "unhosted stays unknown" true (Bytes.get mask 1 = '\000');
    check_bool "other hosted match flagged" true (Bytes.get mask 3 = '\001');
    let mask = Rx.Fused.run f "nothing here" in
    check_bool "no match, no flag" true (Bytes.get mask 0 = '\000');
    check_bool "no match, no flag (2)" true (Bytes.get mask 3 = '\000')

let test_nothing_hostable () =
  check_bool "all-unhosted catalog fuses to None" true
    (Rx.Fused.compile [| Rx.compile {|(a)\1|}; Rx.compile "x*" |] = None)

(* Anchors and boundaries at the subject edges — the sentinel
   transition must catch matches ending exactly at EOF. *)
let test_edge_anchors () =
  let pats = [| "foo$"; "^bar"; {|qux\b|}; "end\\."  |] in
  let ts = Array.map Rx.compile pats in
  let f = Option.get (Rx.Fused.compile ts) in
  List.iter
    (fun subject ->
      let mask = Rx.Fused.run f subject in
      Array.iteri
        (fun i t ->
          if Rx.Fused.is_hosted f i then
            check_bool
              (Printf.sprintf "%S on %S" pats.(i) subject)
              (Rx.matches (Rx.backtrack_tier t) subject)
              (Bytes.get mask i = '\001'))
        ts)
    [ "foo"; "xfoo"; "foo\n"; "foox"; "bar"; "x\nbar"; "xbar"; "qux";
      "quxy"; "qux!"; "end."; "end"; ""; "\n" ]

(* --- QCheck: random pattern sets x random subjects --------------------- *)

(* Pattern generator over the grammar the parser accepts by
   construction (same shape as test_rx_dfa's). *)
let gen_pattern : string QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (String.make 1) (char_range 'a' 'c');
        oneofl [ "."; {|\w|}; {|\s|}; {|\d|}; "[ab]"; "[^a]"; "[b-d]" ];
      ]
  in
  let quant =
    oneofl [ ""; "*"; "+"; "?"; "*?"; "+?"; "??"; "{2}"; "{1,2}"; "{2,}" ]
  in
  let rec node depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map2 (fun a q -> a ^ q) atom quant);
          (2, map2 ( ^ ) (node (depth - 1)) (node (depth - 1)));
          (1, map2 (fun a b -> a ^ "|" ^ b) (node (depth - 1)) (node (depth - 1)));
          (1, map (fun a -> "(" ^ a ^ ")") (node (depth - 1)));
          (1, map (fun a -> "(?:" ^ a ^ ")") (node (depth - 1)));
          (1, map (fun a -> "^" ^ a) (node (depth - 1)));
          (1, map (fun a -> a ^ "$") (node (depth - 1)));
          (1, map (fun a -> {|\b|} ^ a) (node (depth - 1)));
        ]
  in
  node 3

let gen_subject : string QCheck.Gen.t =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd'; ' '; '\n'; '1' ]) (0 -- 24))

let gen_case =
  QCheck.Gen.(pair (list_size (int_range 2 6) gen_pattern) gen_subject)

let case_print (ps, s) =
  Printf.sprintf "patterns [%s] subject %S"
    (String.concat "; " (List.map (Printf.sprintf "%S") ps))
    s

(* The mask against the pinned backtracker, pattern by pattern.  The
   reference is the backtracking engine so the fused pass is not being
   compared against the machinery it was derived from. *)
let check_mask_exact ?(name = "") f ts subject =
  let mask = Rx.Fused.run f subject in
  Array.iteri
    (fun i t ->
      let flagged = Bytes.get mask i = '\001' in
      if Rx.Fused.is_hosted f i then (
        match Rx.matches (Rx.backtrack_tier t) subject with
        | exception Rx.Budget_exceeded _ -> ()
        | want ->
          if want <> flagged then
            QCheck.Test.fail_reportf
              "%s: pattern %S on %S: backtracker says %b, fused flag %b" name
              (Rx.pattern t) subject want flagged)
      else if flagged then
        QCheck.Test.fail_reportf "%s: unhosted pattern %S flagged" name
          (Rx.pattern t))
    ts;
  true

let qcheck_mask =
  QCheck.Test.make ~count:1000
    ~name:"fused existence flags match the backtracker exactly"
    (QCheck.make gen_case ~print:case_print)
    (fun (srcs, subject) ->
      let ts = Array.of_list (List.map Rx.compile srcs) in
      match Rx.Fused.compile ts with
      | None -> true
      | Some f -> check_mask_exact ~name:"full" f ts subject)

(* Same property through the overflow paths: a thrashing cache either
   bails (the scanner's fallback; fine) or must still be exact. *)
let qcheck_tiny_cache =
  QCheck.Test.make ~count:400
    ~name:"thrashing fused caches bail or stay exact"
    (QCheck.make gen_case ~print:case_print)
    (fun (srcs, subject) ->
      let ts = Array.of_list (List.map Rx.compile srcs) in
      match Rx.Fused.compile ts with
      | None -> true
      | Some f ->
        Rx.Fused.shrink_cache f ~max_states:3;
        let ok =
          match check_mask_exact ~name:"tiny" f ts subject with
          | b -> b
          | exception Rx.Fused.Bail -> true
        in
        Rx.Fused.cache_clear f;
        ok)

(* --- codec -------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let ts =
    Array.map Rx.compile
      [| "abc+"; {|(x)\1|}; {|\bos\.system\(|}; "a*"; {|foo(bar|baz)$|} |]
  in
  let f = Option.get (Rx.Fused.compile ts) in
  let buf = Buffer.create 512 in
  Rx.Fused.write buf f;
  let bytes1 = Buffer.contents buf in
  let f2 = Rx.Fused.read ~npatterns:5 (Binio.reader bytes1) in
  (* decode/re-encode is byte-stable (rule packs re-encode packs) *)
  let buf2 = Buffer.create 512 in
  Rx.Fused.write buf2 f2;
  check_bool "re-encode is byte-identical" true
    (String.equal bytes1 (Buffer.contents buf2));
  List.iter
    (fun s ->
      check_bool "decoded machine agrees" true
        (Bytes.equal (Rx.Fused.run f s) (Rx.Fused.run f2 s)))
    [ "abcc"; "os.system(x)"; "foobaz"; "foobaz\n"; "nothing"; "" ];
  (* a machine written for one catalog size must not attach to another *)
  check_bool "pattern-count mismatch rejected" true
    (match Rx.Fused.read ~npatterns:7 (Binio.reader bytes1) with
    | _ -> false
    | exception Binio.Corrupt _ -> true);
  (* truncations surface as typed errors, never out-of-bounds *)
  for cut = 0 to String.length bytes1 - 1 do
    match Rx.Fused.read ~npatterns:5 (Binio.reader (String.sub bytes1 0 cut)) with
    | _ -> ()
    | exception (Binio.Truncated | Binio.Corrupt _) -> ()
  done

(* --- scanner differentials --------------------------------------------- *)

let scanner_fused = lazy (Scanner.compile (Catalog.all ()))
let scanner_per_rule = lazy (Scanner.per_rule_tier (Lazy.force scanner_fused))

let finding_key (f : Scanner.finding) =
  (f.Scanner.rule.Rule.id, f.Scanner.line, f.Scanner.column, f.Scanner.offset,
   f.Scanner.stop, f.Scanner.snippet)

let scan_fp t source =
  let findings, warnings = Scanner.scan_with_warnings t source in
  (List.map finding_key findings, warnings)

let check_scan_equal msg source =
  let fused = scan_fp (Lazy.force scanner_fused) source in
  let per_rule = scan_fp (Lazy.force scanner_per_rule) source in
  check_bool msg true (fused = per_rule)

let test_tier_plumbing () =
  check_bool "default plan has a fused machine" true
    (Scanner.fused_machine (Lazy.force scanner_fused) <> None);
  check_bool "pinned plan has none" true
    (Scanner.fused_machine (Lazy.force scanner_per_rule) = None);
  (* the escape hatch pins plans built afterwards *)
  Unix.putenv "PATCHITPY_SCAN_TIER" "per-rule";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PATCHITPY_SCAN_TIER" "")
    (fun () ->
      let t = Scanner.compile (Catalog.all ()) in
      check_bool "PATCHITPY_SCAN_TIER=per-rule pins the tier off" true
        (Scanner.fused_machine t = None);
      (* and a pack-style thunk cannot turn it back on *)
      Scanner.set_fused_thunk t (fun () ->
          Alcotest.fail "thunk ran on a pinned plan");
      check_bool "set_fused_thunk is a no-op on pinned plans" true
        (Scanner.fused_machine t = None))

(* Sources assembled from python-ish lines that trip catalog rules, so
   the differential sees real candidate routing, not empty scans. *)
let py_lines =
  [|
    "import os"; "import pickle"; "x = 1"; "data = request.get_data()";
    "obj = pickle.loads(data)"; "os.system(cmd)"; "y = eval(expr)";
    "print(x)"; ""; "    pass"; "def f(a):"; "    return a";
    "cfg = yaml.load(f)"; "subprocess.call(cmd, shell=True)";
  |]

let py_source_gen =
  QCheck.Gen.(
    map
      (fun idxs -> String.concat "\n" (List.map (fun i -> py_lines.(i)) idxs))
      (list_size (int_range 0 25) (int_range 0 (Array.length py_lines - 1))))

let prop_scan_differential =
  QCheck.Test.make ~count:300
    ~name:"fused scan = per-rule scan (findings and warnings)"
    (QCheck.make py_source_gen ~print:(Printf.sprintf "%S"))
    (fun src ->
      scan_fp (Lazy.force scanner_fused) src
      = scan_fp (Lazy.force scanner_per_rule) src)

(* Patching on the fused plan vs the per-rule plan: every patch round
   re-scans the edited source, so this routes rewritten text — fixed
   calls, inserted and deleted imports — through the fused pass. *)
let patch_fp t source =
  let r = Patcher.patch ~scanner:t source in
  ( r.Patcher.patched,
    List.map
      (fun (a : Patcher.application) ->
        (a.Patcher.rule.Rule.id, a.Patcher.line, a.Patcher.before,
         a.Patcher.after))
      r.Patcher.applications,
    r.Patcher.imports_added,
    List.map finding_key r.Patcher.remaining,
    r.Patcher.rounds_used,
    r.Patcher.converged )

let prop_patch_differential =
  QCheck.Test.make ~count:200 ~name:"fused patch = per-rule patch"
    (QCheck.make py_source_gen ~print:(Printf.sprintf "%S"))
    (fun src ->
      patch_fp (Lazy.force scanner_fused) src
      = patch_fp (Lazy.force scanner_per_rule) src)

(* --- deadline and budget edges ----------------------------------------- *)

let test_deadline_edges () =
  let src =
    String.concat "\n"
      (List.init 60 (fun i -> Printf.sprintf "os.system(cmd%d)" i))
  in
  let trips t =
    match Rx.with_step_deadline ~steps:1 (fun () -> Scanner.scan t src) with
    | _ -> false
    | exception Rx.Deadline_exceeded -> true
  in
  check_bool "tiny deadline trips the fused tier" true
    (trips (Lazy.force scanner_fused));
  check_bool "tiny deadline trips the per-rule tier" true
    (trips (Lazy.force scanner_per_rule));
  (* a deadline generous enough for the whole scan changes nothing *)
  let under t =
    Rx.with_step_deadline ~steps:50_000_000 (fun () -> scan_fp t src)
  in
  check_bool "generous deadline: tiers agree" true
    (under (Lazy.force scanner_fused) = under (Lazy.force scanner_per_rule));
  (* the tier is healthy again once the deadline scope ends *)
  check_scan_equal "scan after deadline scope" src

(* A backtracker-only rule (backref) with a catastrophic subject: it is
   unhosted, so both tiers sweep it identically and report the same
   budget warning. *)
let test_budget_edges () =
  let rules =
    Rule.make ~id:"T-BOOM" ~title:"catastrophic" ~cwe:400 ~severity:Rule.Low
      ~pattern:{|(a+)(a+)(a+)\1\2\3b|} ~fix:Rule.No_fix ~note:"" ()
    :: Catalog.all ()
  in
  let tf = Scanner.compile rules in
  let tp = Scanner.per_rule_tier tf in
  check_bool "the boom rule is unhosted" true
    (match Scanner.fused_machine tf with
    | None -> false
    | Some f -> not (Rx.Fused.is_hosted f 0));
  let src = "x = eval(s)\n" ^ String.make 400 'a' ^ "\nos.system(c)\n" in
  let fused = scan_fp tf src and per_rule = scan_fp tp src in
  check_bool "budget warning parity" true (fused = per_rule);
  check_bool "the edge actually exercised a warning" true (snd fused <> [])

(* --- telemetry counters ------------------------------------------------- *)

let test_counters () =
  let sink = Telemetry.create () in
  let src = "import pickle\nobj = pickle.loads(data)\nos.system(cmd)\n" in
  let _ = Telemetry.with_sink sink (fun () -> Scanner.scan (Lazy.force scanner_fused) src) in
  let report = Telemetry.Report.of_sink sink in
  let total name =
    Option.value ~default:0
      (List.assoc_opt name report.Telemetry.Report.counters)
  in
  check_bool "fused candidates counted" true
    (total "scanner_fused_candidates_total" > 0);
  check_bool "fused confirms counted" true
    (total "scanner_fused_confirms_total" > 0);
  check_bool "confirms never exceed candidates" true
    (total "scanner_fused_confirms_total"
    <= total "scanner_fused_candidates_total")

(* --- the rule-pack fused section ---------------------------------------- *)

let fix_checksum b =
  let n = Bytes.length b in
  let h = Binio.hash64 ~pos:0 ~len:(n - 8) (Bytes.unsafe_to_string b) in
  Bytes.set_int64_le b (n - 8) h

let pack_scan_fp scanner source = scan_fp scanner source

let test_pack_fused_section () =
  let pack = Rulepack.create () in
  let data = Rulepack.encode pack in
  let loaded =
    match Rulepack.decode data with
    | Ok p -> p
    | Error e -> Alcotest.fail (Rulepack.error_to_string e)
  in
  let scanner = Rulepack.scanner loaded `Python in
  check_bool "loaded pack has a fused machine" true
    (Scanner.fused_machine scanner <> None);
  let probe =
    "import pickle\nobj = pickle.loads(data)\nos.system(cmd)\ny = eval(x)\n"
  in
  let reference = pack_scan_fp (Lazy.force scanner_per_rule) probe in
  check_bool "pack-decoded fused scan agrees" true
    (pack_scan_fp scanner probe = reference);
  (* Forge the fused section (zero its slot count — structurally
     corrupt) and fix the checksum: the pack must still load, and the
     first scan must degrade to re-fusing from the rules with
     identical results. *)
  let b = Bytes.of_string data in
  (* the fused section is written last: [tag][u32 len][payload] right
     before the 8-byte trailer, and the payload starts [opt tag][nslots] *)
  let dlen = Bytes.length b - 8 in
  let plen = ref 0 and at = ref (-1) in
  (* scan backwards for [tag=3][u32 len][len payload] ending at dlen *)
  let i = ref (dlen - 6) in
  while !at < 0 && !i >= 0 do
    if Bytes.get b !i = '\x03' then begin
      let l = Int32.to_int (Bytes.get_int32_le b (!i + 1)) in
      if l >= 0 && !i + 5 + l = dlen then begin
        at := !i + 5;
        plen := l
      end
    end;
    decr i
  done;
  if !at < 0 then Alcotest.fail "fused section not found in pack bytes";
  ignore !plen;
  let pstart = !at in
  (* payload = [opt tag][nslots u16]...: zero the slot count *)
  Bytes.set b (pstart + 1) '\x00';
  Bytes.set b (pstart + 2) '\x00';
  fix_checksum b;
  (match Rulepack.decode (Bytes.to_string b) with
  | Error e ->
    Alcotest.fail ("forged fused section failed the load: "
                   ^ Rulepack.error_to_string e)
  | Ok p ->
    let s = Rulepack.scanner p `Python in
    check_bool "forged section degrades to re-fusing" true
      (Scanner.fused_machine s <> None);
    check_bool "degraded pack still scans identically" true
      (pack_scan_fp s probe = reference));
  (* A pack with the fused section stripped entirely (older writer)
     still loads and fuses from rules. *)
  ()

(* --- corpus differential ------------------------------------------------ *)

let test_corpus_differential () =
  let samples = G.all_samples () in
  check_int "corpus size" 609 (List.length samples);
  let run t jobs =
    Experiments.Par.map_samples ~jobs
      (fun (s : G.sample) -> scan_fp t s.G.code)
      samples
  in
  let reference = run (Lazy.force scanner_per_rule) 1 in
  let total =
    List.fold_left (fun acc (fs, _) -> acc + List.length fs) 0 reference
  in
  check_bool "the differential saw real findings" true (total > 0);
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "fused(jobs=%d) = per-rule" jobs)
        true
        (run (Lazy.force scanner_fused) jobs = reference))
    [ 1; 4 ];
  (* patch leg: every patch round re-scans rewritten text *)
  let patched t =
    List.map (fun (s : G.sample) -> patch_fp t s.G.code) samples
  in
  check_bool "fused patch = per-rule patch" true
    (patched (Lazy.force scanner_fused)
    = patched (Lazy.force scanner_per_rule))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fused"
    [
      ( "unit",
        [
          Alcotest.test_case "hosting decisions" `Quick test_hosting;
          Alcotest.test_case "nothing hostable" `Quick test_nothing_hostable;
          Alcotest.test_case "edge anchors" `Quick test_edge_anchors;
          Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
        ] );
      ("qcheck", qt [ qcheck_mask; qcheck_tiny_cache ]);
      ( "scanner",
        qt [ prop_scan_differential; prop_patch_differential ]
        @ [
            Alcotest.test_case "tier plumbing" `Quick test_tier_plumbing;
            Alcotest.test_case "deadline edges" `Quick test_deadline_edges;
            Alcotest.test_case "budget edges" `Quick test_budget_edges;
            Alcotest.test_case "telemetry counters" `Quick test_counters;
          ] );
      ( "pack",
        [ Alcotest.test_case "fused section" `Quick test_pack_fused_section ] );
      ( "corpus",
        [
          Alcotest.test_case "609-sample differential (jobs 1 and 4)" `Slow
            test_corpus_differential;
        ] );
    ]
