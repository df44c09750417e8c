(* When a fresh process builds per-pattern DFA tables
   ([rx_dfa_builds_total]).  Compiling a rule decides its tier and
   compiles its Pike programs; the tables are built on the pattern's
   first DFA-tier search, or by [Rulepack.prewarm].  So loading a pack
   and fusing its rules builds none, a scan builds those of the
   patterns it runs, and a prewarmed process builds none while it
   scans.  Runs as its own process: no other test has searched with
   any catalog pattern yet. *)

let sink = Telemetry.create ()
let () = Telemetry.install sink

let builds () =
  Option.value ~default:0
    (List.assoc_opt "rx_dfa_builds_total"
       (Telemetry.Report.of_sink sink).Telemetry.Report.counters)

let corpus =
  List.map
    (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
    (Corpus.Generator.all_samples ())

let pack_path =
  let path = Filename.temp_file "patchitpy-builds" ".pack" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Rulepack.save ~path (Rulepack.with_canaries ~corpus (Rulepack.create ()));
  path

let load () =
  match Rulepack.load ~path:pack_path with
  | Ok p -> p
  | Error e -> Alcotest.fail (Rulepack.error_to_string e)

let source =
  "import os\nimport pickle\nos.system(cmd)\nobj = pickle.loads(data)\n"

(* The DFA-tier patterns one scan of [source] runs, by source text (the
   compile memo makes equal sources one pattern): the pattern of every
   rule the fused pass flags or does not host, and the suppress pattern
   of each such rule that matched. *)
let patterns_run scanner =
  let rules = Array.of_list (Patchitpy.Scanner.rules scanner) in
  let fused = Option.get (Patchitpy.Scanner.fused_machine scanner) in
  let bounds = Rx.Fused.run fused source in
  let run = ref [] in
  let add p = if Rx.tier p = `Dfa then run := Rx.pattern p :: !run in
  Array.iteri
    (fun i (r : Patchitpy.Rule.t) ->
      if (not (Rx.Fused.is_hosted fused i)) || bounds.(i) >= 0
      then begin
        add r.Patchitpy.Rule.pattern;
        if Rx.find_all r.Patchitpy.Rule.pattern source <> [] then
          Option.iter add r.Patchitpy.Rule.suppress
      end)
    rules;
  List.sort_uniq compare !run

let test_counts () =
  let b0 = builds () in
  let pack = load () in
  let scanner = Rulepack.scanner pack `Python in
  ignore (Patchitpy.Scanner.fused_machine scanner : Rx.fused option);
  Alcotest.(check int) "load and fuse build no tables" 0 (builds () - b0);
  let b1 = builds () in
  let findings = Patchitpy.Scanner.scan scanner source in
  let built = builds () - b1 in
  Alcotest.(check bool) "the scan flagged rules" true (findings <> []);
  Alcotest.(check int) "a scan builds the tables of the patterns it runs"
    (List.length (patterns_run scanner))
    built;
  let flagged =
    List.sort_uniq compare
      (List.map
         (fun (f : Patchitpy.Scanner.finding) ->
           f.Patchitpy.Scanner.rule.Patchitpy.Rule.id)
         findings)
  in
  Alcotest.(check bool) "no more than the rules it flagged" true
    (built <= List.length flagged);
  ignore (Rulepack.prewarm pack : int);
  let sample =
    List.find
      (fun c -> not (List.mem c pack.Rulepack.canaries))
      (List.rev corpus)
  in
  let b2 = builds () in
  ignore (Patchitpy.Scanner.scan scanner sample : _ list);
  Alcotest.(check int) "a prewarmed process builds no tables" 0 (builds () - b2)

let () =
  Alcotest.run "dfa builds"
    [
      ( "lazy tables",
        [ Alcotest.test_case "pack load, scan, prewarm" `Quick test_counts ] );
    ]
