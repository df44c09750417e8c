(* The fused scan tier's contract is byte-equivalence: a scan routed
   through the fused multi-pattern pass (one tagged lazy DFA over the
   whole catalog, flagging which rules can match at all) must be
   indistinguishable from the per-rule path — same findings, same
   warnings, same patch results — because the fused pass is an *exact*
   existence filter and per-rule sweeps still resolve every span.

   Layers: unit checks on hosting decisions and the raw flags; QCheck
   over random pattern sets x random subjects (flags vs the pinned
   backtracker, full-size and deliberately thrashing caches); scanner
   differentials including the patcher's round scans and
   deadline/budget edges; the fused rule-pack section (round-trip and
   forged-section degradation); the 609-sample corpus under --jobs 1
   and 4; and the last-flag fence — every match starts at or before
   its pattern's [Fused.run] bound, so sweeps fenced there return what
   unfenced ones do. *)

open Patchitpy
module G = Corpus.Generator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- unit: hosting and the raw flags ----------------------------------- *)

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
    check_bool "plain pattern hosted" true (Rx.Fused.is_hosted f 0);
    check_bool "backref unhosted" false (Rx.Fused.is_hosted f 1);
    check_bool "nullable unhosted" false (Rx.Fused.is_hosted f 2);
    check_bool "literal-headed hosted" true (Rx.Fused.is_hosted f 3);
    let bounds = Rx.Fused.run f "x = abccc; os.system(cmd)" in
    check_bool "hosted match flagged" true (bounds.(0) >= 0);
    check_bool "unhosted stays unknown" true (bounds.(1) = -1);
    check_bool "other hosted match flagged" true (bounds.(3) >= 0);
    let bounds = Rx.Fused.run f "nothing here" in
    check_bool "no match, no flag" true (bounds.(0) = -1);
    check_bool "no match, no flag (2)" true (bounds.(3) = -1)

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
      let bounds = Rx.Fused.run f subject in
      Array.iteri
        (fun i t ->
          if Rx.Fused.is_hosted f i then
            check_bool
              (Printf.sprintf "%S on %S" pats.(i) subject)
              (Rx.matches (Rx.backtrack_tier t) subject)
              (bounds.(i) >= 0))
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

(* One fused pass checked pattern by pattern against [reference t s]
   ([Some (matches, find_all)], or [None] when it ran out of budget).
   [Fused.run]'s bound for a pattern is the last boundary where the pass
   flagged it, and the argument in [rx_fused.ml] says every match of
   the pattern starts at or before it.  So for every hosted pattern:
   the bound is [>= 0] exactly when the pattern matches, no [find_all]
   match starts past it, and [find_all ~until:bound] equals [find_all]
   — the fenced sweep the scanner runs.  Unhosted patterns stay [-1].
   Returns the bounds. *)
let spans ms = List.map (fun m -> (Rx.m_start m, Rx.m_stop m)) ms

let check_exact ~name ~reference f ts subject =
  let bounds = Rx.Fused.run f subject in
  Array.iteri
    (fun i t ->
      let bound = bounds.(i) in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            QCheck.Test.fail_reportf "%s: pattern %S on %S (bound %d): %s" name
              (Rx.pattern t) subject bound msg)
          fmt
      in
      if not (Rx.Fused.is_hosted f i) then begin
        if bound <> -1 then fail "unhosted pattern flagged"
      end
      else
        match reference t subject with
        | None -> ()
        | Some (matches, all) -> (
          if (bound >= 0) <> matches then
            fail "reference says matches = %b" matches;
          List.iter
            (fun m ->
              if Rx.m_start m > bound then
                fail "a match starts at %d, past the bound" (Rx.m_start m))
            all;
          match Rx.find_all ~until:bound t subject with
          | exception Rx.Budget_exceeded _ -> ()
          | fenced ->
            if spans fenced <> spans all then
              fail "fenced find_all %d matches, unfenced %d"
                (List.length fenced) (List.length all)))
    ts;
  bounds

(* For random patterns the reference is the pinned backtracker, so the
   fused pass is not compared against the machinery it was derived
   from. *)
let backtracker_reference t subject =
  let bt = Rx.backtrack_tier t in
  match (Rx.matches bt subject, Rx.find_all bt subject) with
  | r -> Some r
  | exception Rx.Budget_exceeded _ -> None

(* A cold pass, then a second over the warm cache, whose bounds must
   repeat the first's. *)
let qcheck_mask =
  QCheck.Test.make ~count:1000
    ~name:"fused existence flags match the backtracker exactly"
    (QCheck.make gen_case ~print:case_print)
    (fun (srcs, subject) ->
      let ts = Array.of_list (List.map Rx.compile srcs) in
      match Rx.Fused.compile ts with
      | None -> true
      | Some f ->
        let check () =
          check_exact ~name:"full" ~reference:backtracker_reference f ts
            subject
        in
        let cold = check () in
        cold = check ())

(* Same property through the overflow paths: caches of a few states
   flush in the middle of a pass, so the walk restarts from re-interned
   states, and each pass either bails (the scanner's fallback; fine) or
   must still be exact. *)
let qcheck_tiny_cache =
  QCheck.Test.make ~count:400
    ~name:"thrashing fused caches bail or stay exact"
    (QCheck.make gen_case ~print:case_print)
    (fun (srcs, subject) ->
      let ts = Array.of_list (List.map Rx.compile srcs) in
      match Rx.Fused.compile ts with
      | None -> true
      | Some f ->
        Fun.protect
          ~finally:(fun () -> Rx.Fused.cache_clear f)
          (fun () ->
            List.iter
              (fun max_states ->
                Rx.Fused.shrink_cache f ~max_states;
                for _ = 1 to 2 do
                  match
                    check_exact ~name:"tiny" ~reference:backtracker_reference
                      f ts subject
                  with
                  | _ -> ()
                  | exception Rx.Fused.Bail -> ()
                done)
              [ 3; 5; 8 ]);
        true)

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
  (* [per_rule_tier] is the one way to pin a plan: a pinned copy never
     fuses *)
  let t = Scanner.per_rule_tier (Scanner.compile (Catalog.all ())) in
  check_bool "per_rule_tier pins the tier off" true
    (Scanner.fused_machine t = None)

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

(* --- rule packs ------------------------------------------------------------ *)

(* A loaded pack stores rule sources only; its plan fuses from its own
   rules on first scan and agrees with the per-rule reference. *)
let test_pack_fuses_from_rules () =
  let loaded =
    match Rulepack.decode (Rulepack.encode (Rulepack.create ())) with
    | Ok p -> p
    | Error e -> Alcotest.fail (Rulepack.error_to_string e)
  in
  let scanner = Rulepack.scanner loaded `Python in
  check_bool "loaded pack has a fused machine" true
    (Scanner.fused_machine scanner <> None);
  let probe =
    "import pickle\nobj = pickle.loads(data)\nos.system(cmd)\ny = eval(x)\n"
  in
  check_bool "pack-loaded fused scan agrees" true
    (scan_fp scanner probe = scan_fp (Lazy.force scanner_per_rule) probe)

(* --- catalog scale -------------------------------------------------------

   The whole python catalog fused, against each pattern on the
   backtracking tier, over the 609 corpus samples and the 30 long
   files.  At this scale nearly every fused state carries the re-arm
   fan-out, so a miss's closure is built from the per-(fact, class)
   fan-out table — first with the default cache, then with a 64-state
   cache whose flushes land mid-search while the table is only partly
   built. *)

let catalog_fused =
  lazy
    (let ts =
       Array.of_list
         (List.map (fun (r : Rule.t) -> r.Rule.pattern) (Catalog.all ()))
     in
     (ts, Option.get (Rx.Fused.compile ts)))

let catalog_subjects =
  lazy
    (List.map (fun (s : G.sample) -> s.G.code) (G.all_samples ())
    @ List.map snd (G.long_files ()))

(* Per subject, per pattern: [Some matched] from the backtracker, or
   [None] where it ran out of budget (no reference; skipped). *)
let catalog_reference =
  lazy
    (let ts, _ = Lazy.force catalog_fused in
     List.map
       (fun subject ->
         Array.map
           (fun t ->
             match Rx.matches (Rx.backtrack_tier t) subject with
             | m -> Some m
             | exception Rx.Budget_exceeded _ -> None)
           ts)
       (Lazy.force catalog_subjects))

(* Runs the fused pass over every subject and checks each mask against
   the reference; returns how many searches bailed. *)
let check_catalog_masks ~name f =
  let bails = ref 0 in
  List.iteri
    (fun k (subject, want) ->
      match Rx.Fused.run f subject with
      | exception Rx.Fused.Bail -> incr bails
      | bounds ->
        Array.iteri
          (fun i w ->
            let flagged = bounds.(i) >= 0 in
            match w with
            | Some m when Rx.Fused.is_hosted f i && m <> flagged ->
              Alcotest.failf "%s: subject %d, pattern %d: backtracker %b, fused %b"
                name k i m flagged
            | Some _ | None ->
              if flagged && not (Rx.Fused.is_hosted f i) then
                Alcotest.failf "%s: unhosted pattern %d flagged" name i)
          want)
    (List.combine (Lazy.force catalog_subjects) (Lazy.force catalog_reference));
  !bails

(* The state counts the corpus and the 30 long files drive are recorded
   next to [Rx_fused.default_max_states]; they are also evidence that
   the fan-out table interns exactly the states a full closure of pc 0
   would. *)
let corpus_fused_states = 2552
let long_files_fused_states = 2557

let test_catalog_default_cache () =
  let _, f = Lazy.force catalog_fused in
  List.iter
    (fun (what, subjects, states) ->
      Rx.Fused.cache_clear f;
      List.iter (fun s -> ignore (Rx.Fused.run f s)) subjects;
      check_int ("fused states driven by " ^ what) states
        (Rx.Fused.state_count f))
    [
      ( "the long files",
        List.map snd (G.long_files ()),
        long_files_fused_states );
      ( "the corpus",
        List.map (fun (s : G.sample) -> s.G.code) (G.all_samples ()),
        corpus_fused_states );
    ];
  check_int "no search bails" 0 (check_catalog_masks ~name:"default" f)

let test_catalog_small_cache () =
  let _, f = Lazy.force catalog_fused in
  Rx.Fused.shrink_cache f ~max_states:64;
  let sink = Telemetry.create () in
  let bails =
    Fun.protect
      ~finally:(fun () -> Rx.Fused.cache_clear f)
      (fun () ->
        Telemetry.with_sink sink (fun () ->
            check_catalog_masks ~name:"64 states" f))
  in
  let flushes =
    Option.value ~default:0
      (List.assoc_opt "rx_fused_cache_flushes_total"
         (Telemetry.Report.of_sink sink).Telemetry.Report.counters)
  in
  check_bool "flushes landed mid-search" true (flushes > 0);
  check_bool "most searches completed" true
    (bails * 10 < List.length (Lazy.force catalog_subjects))

(* A store that flushes when it holds [max_states] states, whatever
   capacity it has grown to: for each bound, one pass over the 30 long
   files from an empty cache, pinning (misses, flushes, bails, the
   states left interned).  The bounds straddle the store's initial 16
   slots and are not powers of two, so a store that flushed at its
   doubled capacity instead of at the bound would move them; the pins
   are those of the former store, which preallocated [max_states]
   slots.  After every search the store holds at most the bound. *)
let capacity_pins =
  [
    (3, (452, 150, 30, 0));
    (24, (4493, 150, 30, 0));
    (1000, (167928, 91, 9, 869));
    (2000, (80695, 21, 0, 1919));
  ]

let test_catalog_capacities () =
  let _, f = Lazy.force catalog_fused in
  let files = List.map snd (G.long_files ()) in
  Fun.protect
    ~finally:(fun () -> Rx.Fused.cache_clear f)
    (fun () ->
      List.iter
        (fun (k, want) ->
          let sink = Telemetry.create () in
          let bails = ref 0 in
          Telemetry.with_sink sink (fun () ->
              Rx.Fused.shrink_cache f ~max_states:k;
              List.iter
                (fun s ->
                  (match Rx.Fused.run f s with
                  | _ -> ()
                  | exception Rx.Fused.Bail -> incr bails);
                  if Rx.Fused.state_count f > k then
                    Alcotest.failf "%d states in a %d-state store"
                      (Rx.Fused.state_count f) k)
                files);
          let total name =
            Option.value ~default:0
              (List.assoc_opt name
                 (Telemetry.Report.of_sink sink).Telemetry.Report.counters)
          in
          Alcotest.(check (pair int (pair int (pair int int))))
            (Printf.sprintf "misses, flushes, bails, states at %d" k)
            (let m, fl, b, st = want in
             (m, (fl, (b, st))))
            ( total "rx_fused_cache_misses_total",
              ( total "rx_fused_cache_flushes_total",
                (!bails, Rx.Fused.state_count f) ) ))
        capacity_pins)

(* --- bail differential --------------------------------------------------

   A bailed fused pass leaves the scan with no mask, so it sweeps every
   rule.  A plan whose fused cache is shrunk to 3 states bails on every
   corpus sample and long file; its findings and warnings must equal
   the default plan's and the per-rule reference's over all of them,
   and the fallback counter must show the bails really happened.  The shrink is re-applied before each scan:
   a domain drops its fused caches when it holds too many. *)

let fallbacks_during f =
  let sink = Telemetry.create () in
  let r = Telemetry.with_sink sink f in
  ( r,
    Option.value ~default:0
      (List.assoc_opt "scanner_fused_fallbacks_total"
         (Telemetry.Report.of_sink sink).Telemetry.Report.counters) )

let bailing_scans t subjects =
  let f =
    match Scanner.fused_machine t with
    | Some f -> f
    | None -> Alcotest.fail "the plan hosts nothing"
  in
  fallbacks_during (fun () ->
      List.map
        (fun s ->
          Rx.Fused.shrink_cache f ~max_states:3;
          scan_fp t s)
        subjects)

let test_bail_differential () =
  let subjects = Lazy.force catalog_subjects in
  let bailed, fallbacks =
    bailing_scans (Scanner.compile (Catalog.all ())) subjects
  in
  check_int "every subject bailed" (List.length subjects) fallbacks;
  check_bool "bailed scans = default plan" true
    (bailed = List.map (scan_fp (Lazy.force scanner_fused)) subjects);
  check_bool "bailed scans = per-rule plan" true
    (bailed = List.map (scan_fp (Lazy.force scanner_per_rule)) subjects)

(* A user rule with a back-reference runs on the backtracker, so the
   fused machine cannot host it and every scan sweeps it — with a mask,
   after a bail, and on the pinned reference alike. *)
let test_unhosted_user_rule () =
  let rules =
    Catalog.all ()
    @ [
        Rule.make ~id:"U-SELF-ASSIGN" ~title:"self-assignment" ~cwe:398
          ~severity:Rule.Low ~pattern:{|\b(\w+)\s*=\s*\1\b|}
          ~fix:Rule.No_fix ~note:"" ();
      ]
  in
  let mixed = Scanner.compile rules in
  let user = List.length rules - 1 in
  check_bool "the user rule is unhosted" true
    (match Scanner.fused_machine mixed with
    | None -> false
    | Some f -> not (Rx.Fused.is_hosted f user));
  let subjects = "x = x\nos.system(cmd)\n" :: Lazy.force catalog_subjects in
  let reference =
    List.map (scan_fp (Scanner.per_rule_tier mixed)) subjects
  in
  check_bool "the user rule fired" true
    (List.exists
       (fun (fs, _) ->
         List.exists (fun (id, _, _, _, _, _) -> id = "U-SELF-ASSIGN") fs)
       reference);
  check_bool "mixed plan = per-rule plan" true
    (List.map (scan_fp mixed) subjects = reference);
  let bailed, fallbacks =
    bailing_scans (Scanner.compile rules) subjects
  in
  check_bool "the mixed plan bailed" true (fallbacks > 0);
  check_bool "bailed mixed plan = per-rule plan" true (bailed = reference)

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

(* --- the last-flag fence ------------------------------------------- *)

(* [check_exact] for the catalog over the 609 samples (LF and CRLF)
   and the 30 long files, a cold and a warm pass each; the unfenced DFA
   tier is the reference here (test_rx_dfa holds it to the
   backtracker), and only flagged patterns pay a [find_all]. *)
let fence_subjects =
  lazy
    (let samples = List.map (fun (s : G.sample) -> s.G.code) (G.all_samples ()) in
     let crlf s = String.concat "\r\n" (String.split_on_char '\n' s) in
     samples @ List.map crlf samples @ List.map snd (G.long_files ()))

let dfa_reference t subject =
  match Rx.matches t subject with
  | false -> Some (false, [])
  | true -> (
    match Rx.find_all t subject with
    | all -> Some (true, all)
    | exception Rx.Budget_exceeded _ -> None)
  | exception Rx.Budget_exceeded _ -> None

let catalog_fence ~name f =
  let ts, _ = Lazy.force catalog_fused in
  let bails = ref 0 in
  List.iter
    (fun subject ->
      for _ = 1 to 2 do
        match check_exact ~name ~reference:dfa_reference f ts subject with
        | _ -> ()
        | exception Rx.Fused.Bail -> incr bails
      done)
    (Lazy.force fence_subjects);
  !bails

let test_fence_catalog () =
  let _, f = Lazy.force catalog_fused in
  Rx.Fused.cache_clear f;
  check_int "no search bails" 0 (catalog_fence ~name:"fence" f)

let test_fence_catalog_small_cache () =
  let _, f = Lazy.force catalog_fused in
  Rx.Fused.shrink_cache f ~max_states:64;
  let sink = Telemetry.create () in
  let bails =
    Fun.protect
      ~finally:(fun () -> Rx.Fused.cache_clear f)
      (fun () ->
        Telemetry.with_sink sink (fun () ->
            catalog_fence ~name:"fence, 64 states" f))
  in
  let flushes =
    Option.value ~default:0
      (List.assoc_opt "rx_fused_cache_flushes_total"
         (Telemetry.Report.of_sink sink).Telemetry.Report.counters)
  in
  check_bool "flushes landed mid-search" true (flushes > 0);
  check_bool "most searches completed" true
    (bails * 10 < 2 * List.length (Lazy.force fence_subjects))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fused"
    [
      ( "unit",
        [
          Alcotest.test_case "hosting decisions" `Quick test_hosting;
          Alcotest.test_case "nothing hostable" `Quick test_nothing_hostable;
          Alcotest.test_case "edge anchors" `Quick test_edge_anchors;
        ] );
      ( "qcheck",
qt [ qcheck_mask; qcheck_tiny_cache ]);
      ( "scanner",
        qt [ prop_scan_differential; prop_patch_differential ]
        @ [
            Alcotest.test_case "tier plumbing" `Quick test_tier_plumbing;
            Alcotest.test_case "deadline edges" `Quick test_deadline_edges;
            Alcotest.test_case "budget edges" `Quick test_budget_edges;
            Alcotest.test_case "telemetry counters" `Quick test_counters;
          ] );
      ( "pack",
        [
          Alcotest.test_case "loaded pack fuses from its rules" `Quick
            test_pack_fuses_from_rules;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "609-sample differential (jobs 1 and 4)" `Slow
            test_corpus_differential;
        ] );
      ( "bail",
        [
          Alcotest.test_case "bailed scans = default = per-rule" `Slow
            test_bail_differential;
          Alcotest.test_case "unhosted user rule = per-rule" `Slow
            test_unhosted_user_rule;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "masks = backtracker, default cache" `Slow
            test_catalog_default_cache;
          Alcotest.test_case "masks = backtracker, 64-state cache" `Slow
            test_catalog_small_cache;
          Alcotest.test_case "flushes at non-power-of-two caps" `Slow
            test_catalog_capacities;
        ] );
      ( "fence",
        [
          Alcotest.test_case "bounds fence every match, catalog subjects" `Slow
            test_fence_catalog;
          Alcotest.test_case "bounds fence every match, 64-state cache" `Slow
            test_fence_catalog_small_cache;
        ] );
    ]
