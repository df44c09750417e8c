(* Golden output digests for the scanner and the patcher.

   The JSON the CLI prints for `scan --json` and `patch --json` is
   hashed over two input sets: the 609 corpus samples, and ~30 long
   files (0.5-64 KB) assembled here from corpus samples with a fixed
   random state.  The digests were recorded before the patch-round
   pipeline was last restructured; any change to findings, rewrites,
   import management or JSON rendering moves them.  A deliberate
   behaviour change must re-record them (run with GOLDEN_PRINT=1: the
   fresh values appear in each test's output log) and say why in the
   change log. *)

open Patchitpy
module G = Corpus.Generator

let corpus_scan_digest = "db7caa3c1ee672308ff93b4809dd60ad"
let corpus_patch_digest = "bc2ba692e4557f27925bc1d4a9e9f71a"
let long_scan_digest = "b18278e06a21ab7e1f8a0d3ced23ac7f"
let long_patch_digest = "9452fc263d2e625f6cb0230114341ebc"

let samples = lazy (Array.of_list (G.all_samples ()))

(* Long inputs: each file concatenates uniformly drawn corpus samples
   until it reaches a target size drawn uniformly from 512 B - 64 KB.
   Many samples share imports, so these files carry dozens to hundreds
   of import lines — the shape that stresses stale-import removal and
   multi-round patching. *)
let long_files =
  lazy
    (let samples = Lazy.force samples in
     let st = Random.State.make [| 12 |] in
     List.init 30 (fun i ->
         let target = 512 + Random.State.int st (65536 - 512) in
         let buf = Buffer.create (target + 4096) in
         while Buffer.length buf < target do
           let s = samples.(Random.State.int st (Array.length samples)) in
           Buffer.add_string buf s.G.code;
           Buffer.add_char buf '\n'
         done;
         (Printf.sprintf "long-%02d.py" i, Buffer.contents buf)))

let corpus_inputs () =
  Array.to_list
    (Array.mapi
       (fun i (s : G.sample) -> (Printf.sprintf "sample-%03d.py" i, s.G.code))
       (Lazy.force samples))

let scan_json (file, code) =
  let findings, warnings =
    Scanner.scan_with_warnings (Engine.default_scanner ()) code
  in
  Jsonout.findings_to_json ~warnings ~file findings

let patch_json (file, code) = Jsonout.patch_to_json ~file (Patcher.patch code)
let digest outputs = Digest.to_hex (Digest.string (String.concat "\x00" outputs))

let check_digest ~name expected outputs =
  let got = digest outputs in
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then
    Printf.printf "let %s = %S\n%!" name got;
  Alcotest.(check string) name expected got

let test_corpus_scan () =
  check_digest ~name:"corpus_scan_digest" corpus_scan_digest
    (List.map scan_json (corpus_inputs ()))

let test_long_scan () =
  check_digest ~name:"long_scan_digest" long_scan_digest
    (List.map scan_json (Lazy.force long_files))

let test_long_patch () =
  check_digest ~name:"long_patch_digest" long_patch_digest
    (List.map patch_json (Lazy.force long_files))

(* The corpus patch digest, computed sequentially and on four domains:
   the patcher must be deterministic and domain-safe as well as
   unchanged. *)
let test_corpus_patch_jobs () =
  let inputs = corpus_inputs () in
  Alcotest.(check int) "corpus size" 609 (List.length inputs);
  let run jobs = Experiments.Par.map_samples ~jobs patch_json inputs in
  let sequential = run 1 in
  check_digest ~name:"corpus_patch_digest" corpus_patch_digest sequential;
  Alcotest.(check bool) "jobs 4 = jobs 1" true (run 4 = sequential)

let () =
  Alcotest.run "golden"
    [
      ( "corpus",
        [
          Alcotest.test_case "609-sample differential (jobs 1 and 4)" `Quick
            test_corpus_patch_jobs;
          Alcotest.test_case "609-sample scan digest" `Quick test_corpus_scan;
        ] );
      ( "long files",
        [
          Alcotest.test_case "scan digest" `Quick test_long_scan;
          Alcotest.test_case "patch digest" `Quick test_long_patch;
        ] );
    ]
