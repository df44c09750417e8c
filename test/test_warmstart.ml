(* Warm-start tests: the rule pack's warm section (canary subjects),
   the corpus-wide differential proving scans after [Rulepack.prewarm]
   byte-identical to cold ones, prewarm in a freshly spawned domain,
   version skew, and adversarial sweeps over the warm section bytes
   (typed error or clean load — never a crash, never a changed
   result). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_flask =
  "import os\n\
   from flask import Flask, request\n\n\
   @app.route(\"/run\")\n\
   def run_cmd():\n\
  \    cmd = request.args.get(\"cmd\", \"\")\n\
  \    os.system(cmd)\n\
  \    return f\"<p>{cmd}</p>\"\n"

let corpus () =
  List.map
    (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
    (Corpus.Generator.all_samples ())

(* --- warm pack: build, inspect, version ------------------------------------ *)

let warm_pack_bytes =
  lazy
    (Rulepack.encode
       (Rulepack.with_canaries ~corpus:(corpus ()) (Rulepack.create ())))

let decode_ok bytes =
  match Rulepack.decode bytes with
  | Ok p -> p
  | Error e -> Alcotest.failf "decode: %s" (Rulepack.error_to_string e)

let test_warm_pack_info () =
  let p = decode_ok (Lazy.force warm_pack_bytes) in
  check_int "canaries decoded" 16 (List.length p.Rulepack.canaries);
  check_bool "canary bytes accounted" true
    (List.fold_left (fun a c -> a + String.length c) 0 p.Rulepack.canaries > 0);
  check_int "prewarm replays every canary twice" 32 (Rulepack.prewarm p)

(* A cold pack carries no warm section: prewarm has nothing to
   replay. *)
let test_cold_pack_unaffected () =
  let p = decode_ok (Rulepack.encode (Rulepack.create ())) in
  check_int "no canaries" 0 (List.length p.Rulepack.canaries);
  check_int "prewarm replays nothing" 0 (Rulepack.prewarm p)

let refix_checksum bytes =
  let b = Bytes.of_string bytes in
  let dlen = Bytes.length b - 8 in
  Bytes.set_int64_le b dlen (Binio.hash64 ~len:dlen (Bytes.sub_string b 0 dlen));
  Bytes.to_string b

(* A format-2 pack carried serialized transition tables in its warm
   section, a format-3 pack carried the literal-prefilter automaton in
   its plans, and a format-4 pack stored compiled patterns and a
   pre-built fused machine; this build reads only format 5.  The
   version field sits right after the 8-byte magic. *)
let test_old_versions_refused () =
  check_int "format version" 5 Rulepack.format_version;
  List.iter
    (fun v ->
      let b = Bytes.of_string (Lazy.force warm_pack_bytes) in
      Bytes.set_int32_le b 8 (Int32.of_int v);
      match Rulepack.decode (refix_checksum (Bytes.to_string b)) with
      | Error (Rulepack.Version_skew { found; expected = 5 }) when found = v ->
        ()
      | Error e ->
        Alcotest.failf "v%d: wanted Version_skew, got %s" v
          (Rulepack.error_to_string e)
      | Ok _ -> Alcotest.failf "a v%d pack decoded to Ok" v)
    [ 2; 3; 4 ]

(* --- differentials -------------------------------------------------------- *)

let finding_key (f : Patchitpy.Scanner.finding) =
  Printf.sprintf "%s:%d:%d:%d:%d:%s" f.rule.Patchitpy.Rule.id f.line f.column
    f.offset f.stop f.snippet

let scan_fingerprint scanner code =
  String.concat "\n" (List.map finding_key (Patchitpy.Scanner.scan scanner code))

(* The acceptance differential: scans through a prewarmed warm pack are
   byte-identical to the source-compiled catalog's over the whole
   corpus.  Every domain that scans prewarms once first, as a serve
   worker does at spawn, so at jobs 4 the replay runs in worker domains
   that never scanned before. *)
let warm_differential ~jobs () =
  let catalog = Patchitpy.Engine.default_scanner () in
  let pack = decode_ok (Lazy.force warm_pack_bytes) in
  let packed = Rulepack.scanner pack `Python in
  let prewarmed = Domain.DLS.new_key (fun () -> false) in
  let samples = Corpus.Generator.all_samples () in
  check_bool "corpus is non-trivial" true (List.length samples > 500);
  let pairs =
    Experiments.Par.map_samples ~jobs
      (fun (s : Corpus.Generator.sample) ->
        if not (Domain.DLS.get prewarmed) then begin
          Domain.DLS.set prewarmed true;
          ignore (Rulepack.prewarm pack : int)
        end;
        (scan_fingerprint catalog s.code, scan_fingerprint packed s.code))
      samples
  in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "sample %d diverges between catalog and warm pack:\n%s\n---\n%s"
          i a b)
    pairs

(* [prewarm] in a freshly spawned domain heats that domain's own caches,
   and its first scan renders byte-identical JSON to a cold scan in
   another fresh domain — for a canary and for a subject no canary
   covers. *)
let test_prewarm_fresh_domain () =
  let pack = decode_ok (Lazy.force warm_pack_bytes) in
  let scanner = Rulepack.scanner pack `Python in
  let fused =
    match Patchitpy.Scanner.fused_machine scanner with
    | Some f -> f
    | None -> Alcotest.fail "warm pack has no fused machine"
  in
  let first_scan ~prewarm victim =
    Domain.join
      (Domain.spawn (fun () ->
           if prewarm then ignore (Rulepack.prewarm pack : int);
           let states = Rx.Fused.state_count fused in
           let json =
             Patchitpy.Jsonout.findings_to_json ~file:"victim.py"
               (Patchitpy.Scanner.scan scanner victim)
           in
           (states, json)))
  in
  let canary = List.hd pack.Rulepack.canaries in
  check_bool "sample_flask is not a canary" false
    (List.mem sample_flask pack.Rulepack.canaries);
  check_bool "sample_flask has findings" true
    (Patchitpy.Scanner.scan scanner sample_flask <> []);
  List.iter
    (fun (label, victim) ->
      let cold_states, cold = first_scan ~prewarm:false victim in
      let warm_states, warm = first_scan ~prewarm:true victim in
      check_int (label ^ ": fresh domain starts cold") 0 cold_states;
      check_bool (label ^ ": prewarm heats the domain") true (warm_states > 0);
      Alcotest.(check string) (label ^ ": first scan identical") cold warm)
    [ ("canary", canary); ("unseen", sample_flask) ]

(* --- adversarial warm-section bytes ---------------------------------------

   Truncations and un-fixed bit flips anywhere fail the whole-pack
   checksum: typed [Error].  Flips inside the warm section with the
   trailer re-checksummed either break its structure (typed [Error]) or
   decode to different canary bytes — which only ever feed scans whose
   results are discarded, so no scan result may change. *)

(* Walks the section table to find the warm section's payload window.
   Layout: magic(8) | version u32 | hash str(4+n) | nsections u8 |
   sections (tag u8, len u32, payload). *)
let warm_section_window bytes =
  let u32 p =
    Char.code bytes.[p]
    lor (Char.code bytes.[p + 1] lsl 8)
    lor (Char.code bytes.[p + 2] lsl 16)
    lor (Char.code bytes.[p + 3] lsl 24)
  in
  let p = ref (8 + 4) in
  let hash_len = u32 !p in
  p := !p + 4 + hash_len;
  let nsections = Char.code bytes.[!p] in
  incr p;
  let window = ref None in
  for _ = 1 to nsections do
    let tag = Char.code bytes.[!p] in
    let len = u32 (!p + 1) in
    if tag = 4 then window := Some (!p + 5, len);
    p := !p + 5 + len
  done;
  match !window with
  | Some w -> w
  | None -> Alcotest.fail "warm pack has no warm section"

let test_warm_truncations () =
  let b = Lazy.force warm_pack_bytes in
  let n = String.length b in
  let step = max 1 (n / 97) in
  let k = ref 0 in
  while !k < n do
    (match Rulepack.decode (String.sub b 0 !k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded to Ok" !k);
    k := !k + step
  done

let test_warm_section_flips () =
  let b = Lazy.force warm_pack_bytes in
  let off, len = warm_section_window b in
  let catalog = Patchitpy.Engine.default_scanner () in
  let reference = scan_fingerprint catalog sample_flask in
  check_bool "sample has findings" true (String.length reference > 0);
  let step = max 1 (len / 61) in
  let k = ref 0 in
  while !k < len do
    let flipped = Bytes.of_string b in
    Bytes.set flipped (off + !k)
      (Char.chr (Char.code (Bytes.get flipped (off + !k)) lxor 0x80));
    let forged = refix_checksum (Bytes.to_string flipped) in
    (match Rulepack.decode forged with
    | Error _ -> ()
    | Ok p ->
      let scanner = Rulepack.scanner p `Python in
      ignore (Rulepack.prewarm p : int);
      if scan_fingerprint scanner sample_flask <> reference then
        Alcotest.failf "flip at warm+%d changed scan results" !k);
    k := !k + step
  done

let () =
  Alcotest.run "warmstart"
    [
      ( "pack",
        [
          Alcotest.test_case "warm section info" `Quick test_warm_pack_info;
          Alcotest.test_case "cold pack registers nothing" `Quick
            test_cold_pack_unaffected;
          Alcotest.test_case "v2, v3 and v4 packs refused" `Quick
            test_old_versions_refused;
        ] );
      ( "differential",
        [
          Alcotest.test_case "warm scan, jobs=1" `Slow (warm_differential ~jobs:1);
          Alcotest.test_case "warm scan, jobs=4" `Slow (warm_differential ~jobs:4);
          Alcotest.test_case "prewarm in a fresh domain" `Quick
            test_prewarm_fresh_domain;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "truncations" `Quick test_warm_truncations;
          Alcotest.test_case "warm-section bit flips" `Slow
            test_warm_section_flips;
        ] );
    ]
