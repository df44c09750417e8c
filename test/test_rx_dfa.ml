(* Differential tests for the lazy-DFA execution tier.

   The contract under test: for every pattern the DFA tier accepts, its
   results are byte-identical to the backtracking engine's — same match
   spans, same capture spans, same find_all segmentation, same answers
   under ~pos.  [Rx.backtrack_tier] gives the reference
   implementation as a pinned copy of the same compiled pattern, so the
   comparison exercises exactly the tier split and nothing else.

   Three layers: hand-picked unit cases for the semantics corners
   (alternation priority, lazy repetition, anchors, word boundaries,
   empty matches), QCheck over a random pattern grammar x random
   subjects, and the full 609-sample corpus scanned with both tiers.
   A tiny-cache stress run forces the clear-and-restart overflow path
   that full-size caches never hit. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let span_pp = Alcotest.(list (pair int int))
let groups_pp = Alcotest.(list (list (option (pair int int))))

(* Every observable of one match: its span plus every group span. *)
let observe pat m =
  let spans = ref [] in
  for i = Rx.group_count pat downto 0 do
    spans := Rx.group_span m i :: !spans
  done;
  !spans

let find_all_obs pat subject =
  let ms = Rx.find_all pat subject in
  ( List.map (fun m -> (Rx.m_start m, Rx.m_stop m)) ms,
    List.map (observe pat) ms )

(* The differential check itself: DFA-tier results against the pinned
   backtracker on one subject.  Budget trips abort the comparison (the
   reference engine gave no answer to differ from). *)
let differential ?(name = "") pat subject =
  let bt = Rx.backtrack_tier pat in
  let label what =
    Printf.sprintf "%s %s on %S" name what
      (if String.length subject > 40 then String.sub subject 0 40 ^ "..."
       else subject)
  in
  match find_all_obs bt subject with
  | exception Rx.Budget_exceeded _ -> ()
  | ref_spans, ref_groups ->
    let spans, groups = find_all_obs pat subject in
    Alcotest.check span_pp (label "find_all spans") ref_spans spans;
    Alcotest.check groups_pp (label "group spans") ref_groups groups;
    check_bool (label "matches") (Rx.matches bt subject) (Rx.matches pat subject);
    (* exec from a later ~pos: context still sees the whole subject. *)
    let len = String.length subject in
    List.iter
      (fun pos ->
        if pos <= len then begin
          let span t =
            match Rx.exec ~pos t subject with
            | None -> None
            | Some m -> Some (Rx.m_start m, Rx.m_stop m)
          in
          Alcotest.(check (option (pair int int)))
            (label (Printf.sprintf "exec pos=%d" pos))
            (span bt) (span pat)
        end)
      [ 0; 1; len / 2; len ]

(* --- unit cases -------------------------------------------------------- *)

let unit_cases =
  [
    (* leftmost-first priority across alternation *)
    ("abc|b", [ "xabcx"; "xbx"; "ababcb" ]);
    ("a|ab", [ "ab"; "xab"; "aab" ]);
    ("ab|abc", [ "abc"; "zabcz" ]);
    (* greedy vs lazy repetition *)
    ("a*", [ ""; "aaa"; "baaab" ]);
    ("a*?", [ "aaa"; "b" ]);
    ("\"[^\"]*\"", [ {|x = "a" + "b"|}; {|""|} ]);
    ("\"[^\"]*?\"", [ {|x = "a" + "b"|} ]);
    ("a+?b", [ "aaab"; "ab" ]);
    (* anchors, multiline *)
    ("^foo", [ "foo\nbar"; "bar\nfoo"; "xfoo" ]);
    ("foo$", [ "foo\nbar"; "bar foo"; "foox" ]);
    ("^$", [ ""; "a\n\nb"; "\n" ]);
    (* word boundaries *)
    ({|\bfoo\b|}, [ "foo"; "xfoo foo!"; "foofoo" ]);
    ({|\Bar\b|}, [ "bar"; "ar"; "car tar" ]);
    (* empty-match segmentation in find_all *)
    ("b*", [ "abba"; "bbb"; "" ]);
    ("x?", [ "axa" ]);
    (* classes and escapes *)
    ({|[a-c]+[0-9]|}, [ "abc1"; "zzz"; "cab9cab" ]);
    ({|\w+@\w+|}, [ "mail me at a@b or c@d"; "@@" ]);
    ({|\s+|}, [ "a \t\nb"; "nospace" ]);
    (* counted repetitions *)
    ("a{2,3}", [ "aaaa"; "a"; "aaa" ]);
    ("(ab){1,2}c", [ "ababc"; "abc"; "ababab" ]);
    (* captures, nesting, optional groups *)
    ("(a(b+))+", [ "abbabbb"; "ab" ]);
    ("(x)?(y)", [ "xy"; "y"; "zy" ]);
    ("(a|(b))c", [ "ac"; "bc" ]);
    (* the catalog's idiom: literal head then bounded tail *)
    ({|return\s+f"[^"\n]*\{[^}"\n]+\}[^"\n]*"|},
     [ "    return f\"<p>{cmd}</p>\"\n"; "return f\"plain\"\n" ]);
    ({|\.run\(([^)\n]*)debug\s*=\s*True([^)\n]*)\)|},
     [ "app.run(debug=True)\n"; "app.run(debug=False)\n" ]);
  ]

let test_unit_differential () =
  List.iter
    (fun (src, subjects) ->
      let pat = Rx.compile src in
      List.iter (fun s -> differential ~name:src pat s) subjects)
    unit_cases

(* --- tier selection ---------------------------------------------------- *)

let test_tier_selection () =
  check_bool "plain pattern runs on the DFA" true
    (Rx.tier (Rx.compile "abc+") = `Dfa);
  check_bool "backreference forces the backtracker" true
    (Rx.tier (Rx.compile {|(a+)\1|}) = `Backtrack);
  check_bool "pinned copy reports the backtracker" true
    (Rx.tier (Rx.backtrack_tier (Rx.compile "abc+")) = `Backtrack);
  check_bool "pinning is idempotent on backtrack-only patterns" true
    (Rx.tier (Rx.backtrack_tier (Rx.compile {|(a)\1|})) = `Backtrack)

(* --- start-literal derivation ------------------------------------------ *)

(* Pins the compile-time skip analysis on known shapes: a fixed literal
   prefix is a singleton, a leading alternation contributes one literal
   per branch, branches sharing a head byte collapse to their common
   prefix, and patterns whose first consumed byte is unconstrained get
   no set at all.  The matcher never depends on these (the differential
   suites prove that); this guards the *speed* contract from silently
   rotting. *)
let test_start_literals () =
  let lits src = Array.to_list (Rx.start_literals (Rx.compile src)) in
  Alcotest.(check (list string))
    "fixed prefix" [ "os.system(" ]
    (lits {|\bos\.system\(([^)\n]*)\)|});
  Alcotest.(check (list string))
    "leading alternation, one lane per branch"
    [ "requests."; "urlopen(" ]
    (lits {|(?:requests\.(?:get|post)|urlopen)\(\s*request\.|});
  Alcotest.(check (list string))
    "same-head branches collapse to their common prefix" [ "subprocess." ]
    (lits {|\bsubprocess\.(call|run|Popen)\(|});
  Alcotest.(check (list string))
    "class-led pattern derives nothing" []
    (lits {|[a-z]+@example\.com|});
  Alcotest.(check (list string))
    "one-byte literal is not a usable lane" []
    (lits {|a[0-9]+|})

(* --- tiny-cache stress ------------------------------------------------- *)

(* A pattern wide enough to intern many DFA states, run with the cache
   clamped to 4 states per direction: every search overflows, flushes
   and restarts, and the results must not change. *)
let test_tiny_cache_stress () =
  let src = {|\b(\w+)@(\w+)\.(com|org|net)\b|} in
  let pat = Rx.compile src in
  check_bool "stress pattern is on the DFA tier" true (Rx.tier pat = `Dfa);
  let subject =
    String.concat " "
      (List.init 40 (fun i ->
           Printf.sprintf "user%d@host%d.%s" i i
             (match i mod 4 with 0 -> "com" | 1 -> "org" | 2 -> "net" | _ -> "xyz")))
  in
  let reference = find_all_obs (Rx.backtrack_tier pat) subject in
  Rx.dfa_cache_clear pat;
  let full = find_all_obs pat subject in
  Alcotest.check span_pp "full-cache spans" (fst reference) (fst full);
  Rx.dfa_shrink_cache pat ~max_states:4;
  let tiny = find_all_obs pat subject in
  Alcotest.check span_pp "tiny-cache spans" (fst reference) (fst tiny);
  Alcotest.check groups_pp "tiny-cache groups" (snd reference) (snd tiny);
  (* repeated searches keep thrashing the same tiny cache *)
  for _ = 1 to 5 do
    let again = find_all_obs pat subject in
    Alcotest.check span_pp "tiny-cache repeat" (fst reference) (fst again)
  done;
  Rx.dfa_cache_clear pat;
  check_bool "shrink rejects backtracker patterns" true
    (match Rx.dfa_shrink_cache (Rx.compile {|(a)\1|}) ~max_states:4 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- QCheck: random patterns x random subjects ------------------------- *)

(* Pattern generator over a grammar of constructs the parser accepts by
   construction — no rejection sampling.  Alternation, groups, classes,
   anchors, boundaries and both quantifier flavours all appear, over a
   tiny alphabet so random subjects actually exercise the patterns. *)
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
          (1, map (fun a -> "(?:" ^ a ^ ")" ) (node (depth - 1)));
          (1, map2 (fun a q -> "(" ^ a ^ ")" ^ q) (node (depth - 1)) quant);
          (1, map (fun a -> "^" ^ a) (node (depth - 1)));
          (1, map (fun a -> a ^ "$") (node (depth - 1)));
          (1, map (fun a -> {|\b|} ^ a) (node (depth - 1)));
        ]
  in
  node 3

let gen_subject : string QCheck.Gen.t =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd'; ' '; '\n'; '1' ]) (0 -- 24))

let qcheck_differential =
  QCheck.Test.make ~count:2000
    ~name:"DFA tier and backtracker agree on random patterns"
    (QCheck.make
       QCheck.Gen.(pair gen_pattern gen_subject)
       ~print:(fun (p, s) -> Printf.sprintf "pattern %S subject %S" p s))
    (fun (src, subject) ->
      match Rx.compile src with
      | exception Rx.Parse_error _ ->
        QCheck.Test.fail_reportf "generator produced unparseable %S" src
      | pat ->
        differential ~name:src pat subject;
        true)

(* Same property, forced through the overflow path with a 4-state cache. *)
let qcheck_tiny_cache =
  QCheck.Test.make ~count:500
    ~name:"tiny transition caches never change results"
    (QCheck.make
       QCheck.Gen.(pair gen_pattern gen_subject)
       ~print:(fun (p, s) -> Printf.sprintf "pattern %S subject %S" p s))
    (fun (src, subject) ->
      let pat = Rx.compile src in
      (match Rx.tier pat with
      | `Backtrack -> ()
      | `Dfa ->
        Rx.dfa_shrink_cache pat ~max_states:4;
        differential ~name:(src ^ " [tiny]") pat subject;
        Rx.dfa_cache_clear pat);
      true)

(* --- corpus differential ----------------------------------------------- *)

(* The whole catalog over the whole corpus, once per tier.  Pinning both
   the detection and the suppression pattern of every rule reproduces
   exactly what `PATCHITPY_RX_TIER=backtrack` does at compile time,
   without needing a subprocess. *)
let finding_key (f : Patchitpy.Scanner.finding) =
  (f.Patchitpy.Scanner.rule.Patchitpy.Rule.id, f.Patchitpy.Scanner.offset,
   f.Patchitpy.Scanner.stop)

let test_corpus_differential () =
  let rules = Patchitpy.(Catalog.all ()) in
  let pinned =
    List.map
      (fun (r : Patchitpy.Rule.t) ->
        {
          r with
          Patchitpy.Rule.pattern = Rx.backtrack_tier r.Patchitpy.Rule.pattern;
          suppress = Option.map Rx.backtrack_tier r.Patchitpy.Rule.suppress;
        })
      rules
  in
  let dfa_scanner = Patchitpy.Scanner.compile rules in
  let bt_scanner = Patchitpy.Scanner.compile pinned in
  let samples = Corpus.Generator.all_samples () in
  check_bool "corpus is non-trivial" true (List.length samples >= 600);
  let total = ref 0 in
  List.iter
    (fun (s : Corpus.Generator.sample) ->
      let code = s.Corpus.Generator.code in
      let dfa = List.map finding_key (Patchitpy.Scanner.scan dfa_scanner code) in
      let bt = List.map finding_key (Patchitpy.Scanner.scan bt_scanner code) in
      Alcotest.(check (list (triple string int int)))
        "findings agree across tiers" bt dfa;
      total := !total + List.length dfa)
    samples;
  check_bool "the differential saw real findings" true (!total > 0)

(* --- compile memo ------------------------------------------------------ *)

let test_compile_memo () =
  let hits0, _ = Rx.compile_cache_stats () in
  let a = Rx.compile "memo-probe-[a-z]{3}" in
  let b = Rx.compile "memo-probe-[a-z]{3}" in
  check_bool "same source yields the cached value" true (a == b);
  let hits1, entries = Rx.compile_cache_stats () in
  check_bool "hit was counted" true (hits1 > hits0);
  check_int "entries are positive" (min 1 entries) 1

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rx-dfa"
    [
      ( "differential",
        [
          Alcotest.test_case "unit corners" `Quick test_unit_differential;
          Alcotest.test_case "tier selection" `Quick test_tier_selection;
          Alcotest.test_case "start literals" `Quick test_start_literals;
          Alcotest.test_case "tiny-cache stress" `Quick test_tiny_cache_stress;
          Alcotest.test_case "compile memo" `Quick test_compile_memo;
        ] );
      ("qcheck", qt [ qcheck_differential; qcheck_tiny_cache ]);
      ( "corpus",
        [ Alcotest.test_case "both tiers, 609 samples" `Slow test_corpus_differential ] );
    ]
