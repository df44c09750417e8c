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
   that full-size caches never hit, a corpus work pin counts the
   transitions the per-pattern machines materialize, and a step pin
   counts the steps their searches charge.  The byte classes the
   tables are built on are checked against the former refinement over
   the catalogs, the fused programs and random patterns. *)

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
    (* memchr skip lanes at the subject's edges — a hit at offset 0 and
       in the last bytes ([differential] also searches from [pos = len])
       — and over NUL and high bytes, in the subject and as the hunted
       byte: one literal lane, several lanes, a singleton FIRST byte,
       and line jumps for [^] patterns *)
    ({|os\.system\(|},
     [ "os.system("; "x = 1\nos.system("; "\000os.system(\000";
       "\xff\x80os.system(\xc3\xa9"; "os.syste"; "" ]);
    ("(?:foo|bar)baz",
     [ "foobaz"; "xx barbaz"; "\000foobaz\xffbarbaz"; "fooba"; "barba" ]);
    ("x[0-9]+", [ "x1"; "aaax9"; "\000x5\xff"; "\x80\x80x"; "xx"; "abc x7" ]);
    ("\000ab", [ "\000ab"; "zz\000ab"; "\000a"; "ab\000" ]);
    ("\xffab", [ "\xffab"; "\x80\xffab"; "\xffa"; "ab\xff" ]);
    ({|^\s*def |},
     [ "def f"; "x\n  def g"; "x\r\ndef h\r\n"; "\000\ndef "; "nodef " ]);
    ("^a*", [ "b\nb\n"; "a"; "\n\n"; ""; "\xff\na" ]);
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
   prefix, an alternation too wide for lanes keeps the literal fixed
   before it, and patterns whose first consumed byte is unconstrained
   get no set at all.  The matcher never depends on these (the differential
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
    (lits {|a[0-9]+|});
  Alcotest.(check (list string))
    "a wide alternation keeps the literal before it" [ "subprocess." ]
    (lits {|\bsubprocess\.(call|run|Popen|check_call|check_output)\(|});
  (* catalog rules whose lane comes from a literal before a wide
     alternation *)
  let rule_lits id =
    let r =
      List.find
        (fun (r : Patchitpy.Rule.t) -> r.Patchitpy.Rule.id = id)
        Patchitpy.(Catalog.all ())
    in
    Array.to_list (Rx.start_literals r.Patchitpy.Rule.pattern)
  in
  List.iter
    (fun (id, want) ->
      Alcotest.(check (list string)) (id ^ " start literal") want (rule_lits id))
    [
      ("PIT-003", [ "subprocess." ]);
      ("PIT-004", [ "os." ]);
      ("PIT-031", [ "requests." ]);
      ("PIT-036", [ "ssl.PROTOCOL_" ]);
      ("PIT-084", [ "requests." ]);
    ]

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

(* --- byte classes against the former refinement ------------------------ *)

(* The byte-class derivation [Rx_dfa.tables] replaced, kept here as the
   reference: one 256-byte acceptance table per distinct predicate, and
   a refinement that renumbers all 256 bytes once per predicate.  The
   refinement in the library walks only each predicate's bytes; both
   must give the same predicate ids, classes, facts and acceptance
   table for every program. *)
module Reference_classes = struct
  module Ast = Rx.Private.Ast
  module Pike = Rx.Private.Pike
  module Dfa = Rx.Private.Dfa

  let fact_of_char c =
    if c = '\n' then Dfa.fact_newline
    else if Ast.is_word_char c then Dfa.fact_word
    else 1

  let predicates prog =
    let simple = Array.make 257 (-1) in
    let classes : (Ast.cls, int) Hashtbl.t = Hashtbl.create 64 in
    let distinct = ref [] and next = ref 0 in
    let fresh inst =
      let id = !next in
      incr next;
      distinct := inst :: !distinct;
      id
    in
    let simple_id i inst =
      if simple.(i) < 0 then simple.(i) <- fresh inst;
      simple.(i)
    in
    let pred =
      Array.map
        (fun inst ->
          match inst with
          | Pike.I_char c -> simple_id (Char.code c) inst
          | Pike.I_any -> simple_id 256 inst
          | Pike.I_class cls -> (
            match Hashtbl.find_opt classes cls with
            | Some id -> id
            | None ->
              let id = fresh inst in
              Hashtbl.add classes cls id;
              id)
          | _ -> -1)
        prog
    in
    (pred, Array.of_list (List.rev !distinct))

  let accept_table inst =
    let t = Bytes.make 256 '\000' in
    let set b = Bytes.unsafe_set t b '\001' in
    (match inst with
    | Pike.I_char c -> set (Char.code c)
    | Pike.I_any ->
      Bytes.fill t 0 256 '\001';
      Bytes.set t (Char.code '\n') '\000'
    | Pike.I_class { Ast.negated; items } ->
      List.iter
        (function
          | Ast.Cchar c -> set (Char.code c)
          | Ast.Crange (lo, hi) ->
            for b = Char.code lo to Char.code hi do
              set b
            done
          | Ast.Cset kind ->
            for b = 0 to 255 do
              if Ast.set_matches kind (Char.chr b) then set b
            done)
        items;
      if negated then
        for b = 0 to 255 do
          Bytes.unsafe_set t b
            (if Bytes.unsafe_get t b = '\000' then '\001' else '\000')
        done
    | _ -> ());
    t

  let tables prog =
    let pred, preds = predicates prog in
    let per_byte = Array.map accept_table preds in
    let cls = Array.init 256 (fun b -> fact_of_char (Char.chr b)) in
    let remap = Array.make 512 (-1) in
    let renumber key =
      Array.fill remap 0 512 (-1);
      let next = ref 0 in
      for b = 0 to 255 do
        let k = key b in
        if remap.(k) < 0 then begin
          remap.(k) <- !next;
          incr next
        end;
        cls.(b) <- remap.(k)
      done;
      !next
    in
    let nclasses = ref (renumber (fun b -> cls.(b))) in
    Array.iter
      (fun t ->
        nclasses :=
          renumber (fun b -> (2 * cls.(b)) + Char.code (Bytes.unsafe_get t b)))
      per_byte;
    let nclasses = !nclasses in
    let npred = Array.length preds in
    let classes = Bytes.create 256 in
    let repr = Array.make nclasses 0 in
    let class_fact = Array.make (nclasses + 1) Dfa.fact_boundary in
    for b = 255 downto 0 do
      let c = cls.(b) in
      Bytes.set classes b (Char.chr c);
      repr.(c) <- b;
      class_fact.(c) <- fact_of_char (Char.chr b)
    done;
    let accept = Bytes.make ((nclasses + 1) * npred) '\000' in
    Array.iteri
      (fun p t ->
        for c = 0 to nclasses - 1 do
          Bytes.unsafe_set accept ((c * npred) + p)
            (Bytes.unsafe_get t repr.(c))
        done)
      per_byte;
    let classes = Bytes.to_string classes in
    (pred, { Dfa.classes; nclasses; class_fact; npred; accept })
end

let check_classes what prog =
  let want_pred, want = Reference_classes.tables prog in
  let pred, got = Rx.Private.Dfa.tables prog in
  let open Rx.Private.Dfa in
  Alcotest.(check (array int)) (what ^ ": predicate ids") want_pred pred;
  Alcotest.(check string) (what ^ ": classes") want.classes got.classes;
  check_int (what ^ ": class count") want.nclasses got.nclasses;
  Alcotest.(check (array int)) (what ^ ": class facts") want.class_fact
    got.class_fact;
  check_int (what ^ ": predicate count") want.npred got.npred;
  Alcotest.(check string) (what ^ ": acceptance") (Bytes.to_string want.accept)
    (Bytes.to_string got.accept)

(* Set kinds under every polarity, alone and mixed with other items. *)
let class_corners =
  [
    {|\S+\s\W\w\D\d|};
    {|[\Sa-c]+|};
    {|[^\W_]x|};
    {|[^\d\s]|};
    {|[^\S\n]+|};
    {|[\D\s]y|};
    {|.[^"']"|};
    {|\bq[^a-z]?$|};
  ]

(* Every python and JS catalog pattern and suppress pattern (forward
   and reverse programs, as the per-pattern tables see them), the
   fused program of each catalog, and [class_corners]. *)
let test_catalog_classes () =
  let checked = ref 0 in
  List.iter
    (fun src ->
      check_classes src
        (Option.get (Rx.Private.class_program (Rx.compile src))))
    class_corners;
  List.iter
    (fun rules ->
      List.iter
        (fun (r : Patchitpy.Rule.t) ->
          List.iter
            (fun p ->
              Option.iter
                (fun prog ->
                  check_classes (Rx.pattern p) prog;
                  incr checked)
                (Rx.Private.class_program p))
            (r.Patchitpy.Rule.pattern
            :: Option.to_list r.Patchitpy.Rule.suppress))
        rules;
      let scanner = Patchitpy.Scanner.compile rules in
      Option.iter
        (fun f ->
          check_classes "fused catalog" (Rx.Private.fused_program f);
          incr checked)
        (Patchitpy.Scanner.fused_machine scanner))
    Patchitpy.[ Catalog.all (); Catalog.javascript () ];
  check_bool "the catalogs yield over 100 programs" true (!checked > 100)

let qcheck_classes =
  QCheck.Test.make ~count:1000
    ~name:"byte classes equal the former refinement's"
    (QCheck.make gen_pattern ~print:(Printf.sprintf "pattern %S"))
    (fun src ->
      Option.iter (check_classes src)
        (Rx.Private.class_program (Rx.compile src));
      true)

(* --- corpus differential ----------------------------------------------- *)

(* The whole catalog over the whole corpus, once per tier: the reference
   plan pins both the detection and the suppression pattern of every
   rule to the backtracker with [Rx.backtrack_tier]. *)
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

(* --- per-pattern work on the corpus ------------------------------------ *)

(* The per-pattern DFA's work over the 609 samples, pinned the way
   test_fused pins the fused machine's 2552 states: every DFA-tier
   catalog pattern and suppress pattern runs [Rx.find_all] over every
   sample from cleared caches, on a fresh domain (so its cache registry
   holds nothing else), with a sink installed.  Each miss is one
   materialized transition, so an interning or stepping change that
   altered any state set moves these totals.  The 4-state run pins the
   clear-and-restart and bail paths as well. *)
let corpus_dfa_work = (5981, 0, 0)
let corpus_dfa_work_4_states = (207943, 28890, 3424)

(* 20 is past the store's initial 16 slots and not a power of two: the
   store grows once and flushes when it holds 20 states, as the former
   store that preallocated 20 slots did. *)
let corpus_dfa_work_20_states = (34602, 834, 0)

let catalog_dfa_patterns () =
  List.fold_left
    (fun acc (r : Patchitpy.Rule.t) ->
      List.fold_left
        (fun acc p ->
          if Rx.tier p = `Dfa && not (List.memq p acc) then p :: acc else acc)
        acc
        (r.Patchitpy.Rule.pattern :: Option.to_list r.Patchitpy.Rule.suppress))
    []
    Patchitpy.(Catalog.all ())
  |> List.rev

(* (misses, flushes, fallbacks) of one corpus run *)
let dfa_work ?max_states () =
  let patterns = catalog_dfa_patterns () in
  let samples = Corpus.Generator.all_samples () in
  Domain.join
    (Domain.spawn (fun () ->
         let sink = Telemetry.create () in
         Telemetry.with_sink sink (fun () ->
             List.iter
               (fun p ->
                 match max_states with
                 | None -> Rx.dfa_cache_clear p
                 | Some max_states -> Rx.dfa_shrink_cache p ~max_states)
               patterns;
             List.iter
               (fun (s : Corpus.Generator.sample) ->
                 List.iter
                   (fun p ->
                     try ignore (Rx.find_all p s.Corpus.Generator.code)
                     with Rx.Budget_exceeded _ -> ())
                   patterns)
               samples);
         let counters = (Telemetry.Report.of_sink sink).Telemetry.Report.counters in
         let total name = Option.value ~default:0 (List.assoc_opt name counters) in
         ( total "rx_dfa_cache_misses_total",
           total "rx_dfa_cache_flushes_total",
           total "rx_dfa_fallback_total" )))

let work_pp = Alcotest.(triple int int int)

let test_corpus_work () =
  Alcotest.check work_pp "misses, flushes, fallbacks at the default cache"
    corpus_dfa_work (dfa_work ());
  Alcotest.check work_pp "misses, flushes, fallbacks at 4 states"
    corpus_dfa_work_4_states (dfa_work ~max_states:4 ());
  Alcotest.check work_pp "misses, flushes, fallbacks at 20 states"
    corpus_dfa_work_20_states (dfa_work ~max_states:20 ())

(* --- DFA step accounting on the corpus --------------------------------- *)

(* Steps are the deadline's cost unit and the [steps] field of
   [profile]; on the DFA tier one step is one scanned byte.  Pinned
   totals over every DFA-tier catalog pattern and suppress pattern x
   the 609 samples, for three sweeps: a counted [find_all] with no
   fence, a counted [find_all] fenced at the sample's [Rx.Fused.run]
   bound (unhosted patterns unfenced), and [Rx.matches], measured as
   the allowance it consumes under [Rx.with_step_deadline].  A change
   to how the runner charges a step — a segment flushed twice, a
   sentinel step dropped, a skip that no longer lands where it did —
   moves these totals. *)
let corpus_dfa_steps = (1553167, 37573, 1532069)

let dfa_steps () =
  let patterns = catalog_dfa_patterns () in
  let fused = Option.get (Rx.Fused.compile (Array.of_list patterns)) in
  let samples = Corpus.Generator.all_samples () in
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Rx.dfa_cache_clear patterns;
         let unfenced = ref 0 and fenced = ref 0 and boolean = ref 0 in
         let allowance = 1 lsl 40 in
         List.iter
           (fun (s : Corpus.Generator.sample) ->
             let code = s.Corpus.Generator.code in
             let bounds = Rx.Fused.run fused code in
             List.iteri
               (fun i p ->
                 let sweep ?until steps =
                   try ignore (Rx.find_all ?until ~steps p code)
                   with Rx.Budget_exceeded _ -> ()
                 in
                 sweep unfenced;
                 if Rx.Fused.is_hosted fused i then
                   sweep ~until:bounds.(i) fenced
                 else sweep fenced;
                 Rx.with_step_deadline ~steps:allowance (fun () ->
                     (try ignore (Rx.matches p code : bool)
                      with Rx.Budget_exceeded _ -> ());
                     boolean :=
                       !boolean + allowance
                       - Option.get (Rx.deadline_remaining ())))
               patterns)
           samples;
         (!unfenced, !fenced, !boolean)))

let test_corpus_steps () =
  Alcotest.check work_pp "unfenced, fenced and boolean steps" corpus_dfa_steps
    (dfa_steps ())

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
      ( "classes",
        Alcotest.test_case "catalog and fused programs" `Quick
          test_catalog_classes
        :: qt [ qcheck_classes ] );
      ( "corpus",
        [
          Alcotest.test_case "both tiers, 609 samples" `Slow test_corpus_differential;
          Alcotest.test_case "per-pattern work, 609 samples" `Slow test_corpus_work;
        ] );
      ( "steps",
        [
          Alcotest.test_case "DFA step accounting, 609 samples" `Slow
            test_corpus_steps;
        ] );
    ]
