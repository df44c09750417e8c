(* Tests for the Rx regular-expression engine. *)

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_opt_str = Alcotest.(check (option string))
let check_list_str = Alcotest.(check (list string))

let exec_span pat s =
  match Rx.exec (Rx.compile pat) s with
  | None -> None
  | Some m -> Some (Rx.m_start m, Rx.m_stop m)

let test_literal () =
  check_bool "simple" true (Rx.matches (Rx.compile "abc") "xxabcxx");
  check_bool "absent" false (Rx.matches (Rx.compile "abc") "xxabxcx");
  check_bool "empty pattern" true (Rx.matches (Rx.compile "") "anything");
  check_bool "empty subject" false (Rx.matches (Rx.compile "a") "")

let test_any () =
  check_bool "dot" true (Rx.matches (Rx.compile "a.c") "abc");
  check_bool "dot not newline" false (Rx.matches (Rx.compile "a.c") "a\nc");
  check_bool "escaped dot" false (Rx.matches (Rx.compile "a\\.c") "abc");
  check_bool "escaped dot lit" true (Rx.matches (Rx.compile "a\\.c") "a.c")

let test_classes () =
  check_bool "range" true (Rx.matches (Rx.compile "[a-f]+") "feed");
  check_bool "negated" true (Rx.matches (Rx.compile "[^0-9]") "a");
  check_bool "negated miss" false (Rx.matches (Rx.compile "^[^0-9]+$") "a1b");
  check_bool "digit" true (Rx.matches (Rx.compile "\\d\\d") "ab12");
  check_bool "word" true (Rx.matches (Rx.compile "\\w+") "_x9");
  check_bool "space" true (Rx.matches (Rx.compile "a\\sb") "a b");
  check_bool "class set" true (Rx.matches (Rx.compile "[\\d,]+") "1,2");
  check_bool "literal ] first" true (Rx.matches (Rx.compile "[]a]") "]");
  check_bool "dash at end" true (Rx.matches (Rx.compile "[a-]") "-");
  check_bool "nonspace" false (Rx.matches (Rx.compile "^\\S+$") "a b")

let test_quantifiers () =
  Alcotest.(check (option (pair int int))) "star greedy" (Some (0, 4))
    (exec_span "a*" "aaaa");
  Alcotest.(check (option (pair int int))) "lazy star" (Some (0, 0))
    (exec_span "a*?" "aaaa");
  Alcotest.(check (option (pair int int))) "plus" (Some (1, 4))
    (exec_span "b+" "abbb");
  check_bool "opt" true (Rx.matches (Rx.compile "colou?r") "color");
  check_bool "opt2" true (Rx.matches (Rx.compile "colou?r") "colour");
  check_bool "exact" true (Rx.matches (Rx.compile "^a{3}$") "aaa");
  check_bool "exact miss" false (Rx.matches (Rx.compile "^a{3}$") "aa");
  check_bool "range rep" true (Rx.matches (Rx.compile "^a{2,3}$") "aaa");
  check_bool "range rep miss" false (Rx.matches (Rx.compile "^a{2,3}$") "aaaa");
  check_bool "open rep" true (Rx.matches (Rx.compile "^a{2,}$") "aaaaa");
  check_bool "literal brace" true (Rx.matches (Rx.compile "f{x}") "f{x}");
  check_bool "lazy qmark" true (Rx.matches (Rx.compile "^ab??$") "a")

let test_alternation () =
  check_bool "first" true (Rx.matches (Rx.compile "cat|dog") "hotdog");
  check_bool "both" true (Rx.matches (Rx.compile "^(cat|dog)$") "cat");
  check_bool "neither" false (Rx.matches (Rx.compile "^(cat|dog)$") "cow");
  check_bool "empty branch" true (Rx.matches (Rx.compile "^(a|)$") "")

let test_groups () =
  let t = Rx.compile "(\\w+)=(\\w+)" in
  (match Rx.exec t "  debug=True  " with
  | None -> Alcotest.fail "expected a match"
  | Some m ->
    check_str "full" "debug=True" (Rx.matched m);
    check_opt_str "g1" (Some "debug") (Rx.group m 1);
    check_opt_str "g2" (Some "True") (Rx.group m 2));
  let t2 = Rx.compile "(a)|(b)" in
  (match Rx.exec t2 "b" with
  | None -> Alcotest.fail "expected a match"
  | Some m ->
    check_opt_str "unset group" None (Rx.group m 1);
    check_opt_str "set group" (Some "b") (Rx.group m 2));
  check_bool "non-capturing" true (Rx.matches (Rx.compile "(?:ab)+c") "ababc");
  Alcotest.(check int) "group count" 2 (Rx.group_count t)

let test_anchors () =
  check_bool "bol" true (Rx.matches (Rx.compile "^abc") "abc def");
  check_bool "bol miss" false (Rx.matches (Rx.compile "^def") "abc def");
  check_bool "eol" true (Rx.matches (Rx.compile "def$") "abc def");
  check_bool "multiline bol" true (Rx.matches (Rx.compile "^def") "abc\ndef");
  check_bool "multiline eol" true (Rx.matches (Rx.compile "abc$") "abc\ndef");
  check_bool "word boundary" true (Rx.matches (Rx.compile "\\beval\\b") "x = eval(y)");
  check_bool "wb miss" false (Rx.matches (Rx.compile "\\beval\\b") "x = evaluate(y)");
  check_bool "non-boundary" true (Rx.matches (Rx.compile "\\Bval") "evaluate")

let test_backref () =
  check_bool "backref" true (Rx.matches (Rx.compile "(\\w+) \\1") "hey hey");
  check_bool "backref miss" false
    (Rx.matches (Rx.compile "^(\\w+) \\1$") "hey you")

let test_find_all () =
  let t = Rx.compile "\\d+" in
  check_list_str "numbers" [ "12"; "7"; "345" ]
    (List.map Rx.matched (Rx.find_all t "a12 b7 c345"));
  check_list_str "none" [] (List.map Rx.matched (Rx.find_all t "abc"));
  (* Empty matches must not loop. *)
  let e = Rx.compile "x*" in
  let n = List.length (Rx.find_all e "abc") in
  check_bool "empty matches terminate" true (n >= 3)

let test_replace () =
  let t = Rx.compile "yaml\\.load\\(([^)]*)\\)" in
  check_str "template"
    "data = yaml.safe_load(f)"
    (Rx.replace t ~template:"yaml.safe_load($1)" "data = yaml.load(f)");
  check_str "multiple"
    "X-X-X"
    (Rx.replace (Rx.compile "\\d") ~template:"X" "1-2-3");
  check_str "count limited"
    "X-2-3"
    (Rx.replace ~count:1 (Rx.compile "\\d") ~template:"X" "1-2-3");
  check_str "dollar escape"
    "$1"
    (Rx.replace (Rx.compile "a") ~template:"$$1" "a");
  check_str "braced group"
    "<b>"
    (Rx.replace (Rx.compile "(b)") ~template:"<${1}>" "b");
  check_str "replace_f"
    "A-B"
    (Rx.replace_f (Rx.compile "[ab]")
       ~f:(fun m -> String.uppercase_ascii (Rx.matched m))
       "a-b")

let test_split () =
  check_list_str "basic" [ "a"; "b"; "c" ] (Rx.split (Rx.compile ",") "a,b,c");
  check_list_str "ws" [ "a"; "b"; "c" ] (Rx.split (Rx.compile "\\s+") "a b  c");
  check_list_str "no match" [ "abc" ] (Rx.split (Rx.compile ",") "abc");
  check_list_str "leading" [ ""; "a" ] (Rx.split (Rx.compile ",") ",a")

let test_whole () =
  check_bool "whole yes" true (Rx.matches_whole (Rx.compile "[a-z]+") "abc");
  check_bool "whole no" false (Rx.matches_whole (Rx.compile "[a-z]+") "abc1")

let test_parse_errors () =
  let bad p =
    match Rx.compile_opt p with Ok _ -> false | Error _ -> true
  in
  check_bool "unmatched (" true (bad "(ab");
  check_bool "unmatched )" true (bad "ab)");
  check_bool "dangling *" true (bad "*a");
  check_bool "bad class" true (bad "[a-");
  check_bool "bad range" true (bad "[z-a]");
  check_bool "bad flag" true (bad "(?=x)");
  check_bool "invalid group reference" true (bad "\\9");
  check_bool "backref past groups" true (bad "(a)\\2");
  check_bool "ok lit brace" true (not (bad "a{b}"))

let test_python_rule_shapes () =
  (* Shapes representative of actual PatchitPy detection rules. *)
  let rule = Rx.compile "\\bsubprocess\\.(?:call|run|Popen)\\([^)]*shell\\s*=\\s*True" in
  check_bool "shell=True" true
    (Rx.matches rule "subprocess.call(cmd, shell=True)");
  check_bool "shell=False" false
    (Rx.matches rule "subprocess.run(cmd, shell=False)");
  let dbg = Rx.compile "\\.run\\([^)]*debug\\s*=\\s*True" in
  check_bool "flask debug" true (Rx.matches dbg "app.run(debug=True)");
  let md5 = Rx.compile "hashlib\\.(md5|sha1)\\s*\\(" in
  (match Rx.exec md5 "h = hashlib.md5(data)" with
  | Some m -> check_opt_str "algo captured" (Some "md5") (Rx.group m 1)
  | None -> Alcotest.fail "md5 rule should match")

(* --- property-based tests ------------------------------------------- *)

let lower_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 30)
    (QCheck.Gen.char_range 'a' 'e')

let quote_literal s =
  (* Escapes every char so the string is matched literally. *)
  String.concat "" (List.map (fun c -> Printf.sprintf "\\x%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))

let prop_literal_self =
  QCheck.Test.make ~name:"literal pattern matches itself" ~count:200
    lower_string (fun s ->
      s = "" || Rx.matches_whole (Rx.compile (quote_literal s)) s)

let prop_find_all_spans =
  QCheck.Test.make ~name:"find_all spans are disjoint and sorted" ~count:200
    lower_string (fun s ->
      let ms = Rx.find_all (Rx.compile "[ab]+") s in
      let rec ok = function
        | a :: (b :: _ as rest) -> Rx.m_stop a <= Rx.m_start b && ok rest
        | [ _ ] | [] -> true
      in
      ok ms)

let prop_replace_identity =
  QCheck.Test.make ~name:"replacing with $0 is the identity" ~count:200
    lower_string (fun s ->
      Rx.replace (Rx.compile "[a-c]+") ~template:"$0" s = s)

let prop_split_join =
  QCheck.Test.make ~name:"split on comma then join restores input" ~count:200
    (QCheck.string_gen_of_size
       (QCheck.Gen.int_range 0 30)
       (QCheck.Gen.oneofl [ 'a'; 'b'; ',' ]))
    (fun s -> String.concat "," (Rx.split (Rx.compile ",") s) = s)

let prop_star_always_matches =
  QCheck.Test.make ~name:"e* matches every subject" ~count:200 lower_string
    (fun s -> Rx.matches (Rx.compile "e*") s)

(* Differential testing: random small regex ASTs rendered to pattern
   strings, checked against an obviously-correct reference matcher. *)

type mini = Lit of char | Any | Seq of mini * mini | Alt of mini * mini | Star of mini

let rec render = function
  | Lit c -> String.make 1 c
  | Any -> "."
  | Seq (a, b) -> render_atom a ^ render_atom b
  | Alt (a, b) -> "(?:" ^ render a ^ "|" ^ render b ^ ")"
  | Star a -> render_atom a ^ "*"

and render_atom node =
  match node with
  | Lit _ | Any -> render node
  | Seq _ | Alt _ | Star _ -> "(?:" ^ render node ^ ")"

(* Reference semantics: [ref_match node s i k] succeeds iff some prefix of
   s[i..] matches node and k accepts the end position. *)
let rec ref_match node s i k =
  let n = String.length s in
  match node with
  | Lit c -> i < n && s.[i] = c && k (i + 1)
  | Any -> i < n && s.[i] <> '\n' && k (i + 1)
  | Seq (a, b) -> ref_match a s i (fun j -> ref_match b s j k)
  | Alt (a, b) -> ref_match a s i k || ref_match b s i k
  | Star a ->
    let rec go i = k i || ref_match a s i (fun j -> j > i && go j) in
    go i

let ref_whole node s = ref_match node s 0 (fun j -> j = String.length s)

let mini_gen =
  QCheck.Gen.(
    fix (fun self size ->
        if size <= 1 then
          oneof [ map (fun c -> Lit c) (oneofl [ 'a'; 'b'; 'c' ]); return Any ]
        else
          frequency
            [
              (3, map2 (fun a b -> Seq (a, b)) (self (size / 2)) (self (size / 2)));
              (2, map2 (fun a b -> Alt (a, b)) (self (size / 2)) (self (size / 2)));
              (1, map (fun a -> Star a) (self (size - 1)));
            ]))

let subject_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 8))

let prop_differential =
  QCheck.Test.make ~name:"engine agrees with a reference matcher" ~count:2000
    (QCheck.make QCheck.Gen.(pair (mini_gen 6) subject_gen))
    (fun (ast, s) ->
      let pattern = render ast in
      match Rx.compile_opt pattern with
      | Error _ -> false (* rendered patterns must always compile *)
      | Ok rx -> Rx.matches_whole rx s = ref_whole ast s)

(* The DFA tier (a lazy determinization of the pattern's Pike program)
   against the same pattern pinned to the backtracker. *)
let prop_dfa_agrees =
  QCheck.Test.make ~name:"DFA tier agrees with the backtracker" ~count:2000
    (QCheck.make QCheck.Gen.(pair (mini_gen 6) subject_gen))
    (fun (ast, s) ->
      let rx = Rx.compile (render ast) in
      Rx.matches rx s = Rx.matches (Rx.backtrack_tier rx) s)

let test_pike_on_rule_shapes () =
  (* every rule pattern the Pike compiler (hence the DFA tier) supports
     must agree with the backtracker on representative subjects *)
  let subjects =
    [
      "subprocess.call(cmd, shell=True)"; "app.run(debug=True)";
      "h = hashlib.md5(data)"; "x = eval(y)"; "plain code";
      "password = \"secret\""; "tar.extractall(dest)";
    ]
  in
  List.iter
    (fun pat ->
      let rx = Rx.compile pat in
      List.iter
        (fun s ->
          if Rx.matches rx s <> Rx.matches (Rx.backtrack_tier rx) s then
            Alcotest.failf "DFA tier disagrees on %s / %s" pat s)
        subjects)
    [
      {|\bsubprocess\.(call|run|Popen)\(([^)\n]*)shell\s*=\s*True|};
      {|\.run\(([^)\n]*)debug\s*=\s*True([^)\n]*)\)|};
      {|hashlib\.(?:md5|sha1)\(|};
      {|\beval\(([^)\n]*)\)|};
      {|^(\s*)(\w*[Pp]assword\w*)\s*=\s*["'][^"'\n]+["']\s*$|};
      {|\b(\w*tar\w*)\.extractall\(([^)\n]*)\)|};
    ]

let test_pike_linear_on_redos () =
  (* the classic catastrophic case: (a+)+b on a long run of 'a's — the
     DFA tier, built from the Pike program, answers in one linear pass
     (no Budget_exceeded) where naive backtracking explodes *)
  let rx = Rx.compile "(a+)+b" in
  Alcotest.(check bool) "runs on the DFA tier" true (Rx.tier rx = `Dfa);
  let subject = String.make 2000 'a' in
  Alcotest.(check bool) "no match, no blow-up" false (Rx.matches rx subject);
  (* the backtracker on the same input trips its budget instead of hanging *)
  (match Rx.matches (Rx.backtrack_tier rx) subject with
  | (_ : bool) -> ()
  | exception Rx.Budget_exceeded _ -> ())

let test_budget_captures () =
  (* the DFA tier finds the span in linear time, but its captures come
     from an anchored backtracker attempt that blows the budget here —
     the group accessors must raise as the pinned backtracker does, not
     report unset groups *)
  let rx = Rx.compile "(.*a){20}" in
  let subject = String.concat "" (List.init 40 (fun _ -> "ab")) in
  Alcotest.(check bool) "runs on the DFA tier" true (Rx.tier rx = `Dfa);
  let raises label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Budget_exceeded" label
    | exception Rx.Budget_exceeded _ -> ()
  in
  raises "pinned backtracker" (fun () ->
      ignore (Rx.exec (Rx.backtrack_tier rx) subject));
  let sink = Telemetry.create () in
  Telemetry.with_sink sink (fun () ->
      match Rx.exec rx subject with
      | None -> Alcotest.fail "DFA tier found no match"
      | Some m ->
        Alcotest.(check (pair int int)) "span" (0, 79)
          (Rx.m_start m, Rx.m_stop m);
        raises "group_span" (fun () -> Rx.group_span m 1);
        raises "replace" (fun () -> Rx.replace rx ~template:"<$1>" subject));
  let report = Telemetry.Report.of_sink sink in
  Alcotest.(check bool) "counted" true
    (match
       List.assoc_opt "rx_budget_exhausted_total"
         report.Telemetry.Report.counters
     with
    | Some n -> n >= 2
    | None -> false)

let test_pike_unsupported () =
  (* what the Pike compiler cannot express runs on the backtracker *)
  Alcotest.(check bool) "backref backtracks" true
    (Rx.tier (Rx.compile {|(\w+) \1|}) = `Backtrack);
  Alcotest.(check bool) "large counted repetition backtracks" true
    (Rx.tier (Rx.compile "a{100}") = `Backtrack)

let prop_compile_total =
  (* failure injection: arbitrary pattern text either compiles or reports
     a parse error — and a compiled pattern never raises on matching
     (budget exhaustion aside) *)
  QCheck.Test.make ~name:"compile and exec are total" ~count:500
    (QCheck.pair
       (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 20)
          (QCheck.Gen.oneofl
             [ 'a'; 'b'; '('; ')'; '['; ']'; '*'; '+'; '?'; '|'; '\\'; '.';
               '^'; '$'; '{'; '}'; '-'; '0'; '9' ]))
       lower_string)
    (fun (pattern, subject) ->
      match Rx.compile_opt pattern with
      | Error _ -> true
      | Ok rx -> (
        match Rx.matches rx subject with
        | (_ : bool) -> true
        | exception Rx.Budget_exceeded _ -> true))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rx"
    [
      ( "unit",
        [
          Alcotest.test_case "literal" `Quick test_literal;
          Alcotest.test_case "any" `Quick test_any;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "alternation" `Quick test_alternation;
          Alcotest.test_case "groups" `Quick test_groups;
          Alcotest.test_case "anchors" `Quick test_anchors;
          Alcotest.test_case "backref" `Quick test_backref;
          Alcotest.test_case "find_all" `Quick test_find_all;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "whole" `Quick test_whole;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "python rule shapes" `Quick test_python_rule_shapes;
          Alcotest.test_case "pike on rule shapes" `Quick test_pike_on_rule_shapes;
          Alcotest.test_case "pike linear on redos" `Quick test_pike_linear_on_redos;
          Alcotest.test_case "pike unsupported" `Quick test_pike_unsupported;
          Alcotest.test_case "budget-blown captures raise" `Quick
            test_budget_captures;
        ] );
      ( "property",
        qt
          [
            prop_literal_self;
            prop_find_all_spans;
            prop_replace_identity;
            prop_split_join;
            prop_star_always_matches;
            prop_differential;
            prop_dfa_agrees;
            prop_compile_total;
          ] );
    ]
