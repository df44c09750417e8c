(* Work pins: the exact minor-heap words one warm pass of
   [Scanner.scan], one warm pass of [Patcher.patch] and one warm pass
   of the JSON writers allocate over the 609 corpus samples.
   Allocation is a count of work, not a time, so it is the same on
   every run of an unchanged tree and this box's timing noise cannot
   flake it; a change to one of these hot paths that adds or removes an
   allocation moves its pin.  A change that moves a pin must say why in
   CHANGES.md.

   "Warm" means the pass runs once untimed first, so every lazy-DFA
   state and deferred compile it needs already exists; the pinned pass
   is the second.  The pins are measured in the default (dev) build
   profile that [dune runtest] uses, on a fresh domain so nothing else
   the process did is counted. *)

let scan_words = 298_698
let patch_words = 823_666
let json_words = 292_720

let samples () =
  List.map
    (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
    (Corpus.Generator.all_samples ())

(* Minor words of the second of three passes of [f] over [sources],
   and whether the third allocated the same. *)
let warm_words f sources =
  Domain.join
    (Domain.spawn (fun () ->
         let pass () =
           let before = Gc.minor_words () in
           List.iter (fun src -> ignore (Sys.opaque_identity (f src))) sources;
           Gc.minor_words () -. before
         in
         ignore (pass ());
         let second = pass () in
         let third = pass () in
         (int_of_float second, int_of_float third)))

let scanner = lazy (Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()))

let test_scan_words () =
  let scanner = Lazy.force scanner in
  let second, third =
    warm_words (Patchitpy.Scanner.scan scanner) (samples ())
  in
  Alcotest.(check int) "a warm pass repeats exactly" second third;
  Alcotest.(check int) "minor words of one warm scan pass" scan_words second

let test_patch_words () =
  let scanner = Lazy.force scanner in
  let second, third =
    warm_words (Patchitpy.Patcher.patch ~scanner) (samples ())
  in
  Alcotest.(check int) "a warm pass repeats exactly" second third;
  Alcotest.(check int) "minor words of one warm patch pass" patch_words second

(* The JSON writers alone: [findings_to_json] and [patch_to_json] over
   every sample's scan and patch results, computed before the counted
   passes. *)
let test_json_words () =
  let scanner = Lazy.force scanner in
  let results =
    List.map
      (fun src ->
        ( Patchitpy.Scanner.scan_with_warnings scanner src,
          Patchitpy.Patcher.patch ~scanner src ))
      (samples ())
  in
  let json ((findings, warnings), patched) =
    ( Patchitpy.Jsonout.findings_to_json ~warnings ~file:"sample.py" findings,
      Patchitpy.Jsonout.patch_to_json ~file:"sample.py" patched )
  in
  let second, third = warm_words json results in
  Alcotest.(check int) "a warm pass repeats exactly" second third;
  Alcotest.(check int) "minor words of one warm JSON pass" json_words second

let () =
  Alcotest.run "workpins"
    [
      ( "minor words",
        [
          Alcotest.test_case "warm scan pass" `Quick test_scan_words;
          Alcotest.test_case "warm patch pass" `Quick test_patch_words;
          Alcotest.test_case "warm JSON pass" `Quick test_json_words;
        ] );
    ]
