(* Tests for the rule-pack codec: round-trips, the corpus-wide scan and
   patch differential between a loaded pack and the source-compiled
   catalog, and the robustness contract on adversarial bytes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* One pack for the whole suite: [Rulepack.create] compiles the full
   catalog, which is the expensive part. *)
let pack = lazy (Rulepack.create ())
let pack_bytes = lazy (Rulepack.encode (Lazy.force pack))

let with_temp_file f =
  let path = Filename.temp_file "patchitpy-test" ".pack" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- encode/decode round-trip -------------------------------------------- *)

let test_roundtrip () =
  match Rulepack.decode (Lazy.force pack_bytes) with
  | Error e -> Alcotest.failf "decode of own encode: %s" (Rulepack.error_to_string e)
  | Ok p ->
    check_int "format version" Rulepack.format_version p.Rulepack.version;
    check_string "catalog hash" (Lazy.force pack).Rulepack.catalog_hash
      p.Rulepack.catalog_hash;
    (match Rulepack.verify_catalog p with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "decoded pack fails catalog check: %s" msg);
    let rules lang s = Patchitpy.Scanner.rules (Rulepack.scanner s lang) in
    check_int "python rule count"
      (List.length (rules `Python (Lazy.force pack)))
      (List.length (rules `Python p));
    (* the javascript section is lazy: forcing it must also work *)
    check_int "js rule count"
      (List.length (rules `Js (Lazy.force pack)))
      (List.length (rules `Js p))

let test_save_load () =
  with_temp_file (fun path ->
      Rulepack.save ~path (Lazy.force pack);
      match Rulepack.load ~path with
      | Error e -> Alcotest.failf "load: %s" (Rulepack.error_to_string e)
      | Ok p ->
        check_string "bytes identical" (Lazy.force pack_bytes) (Rulepack.encode p))

(* A save whose write fails — [path.tmp] pointed at /dev/full, where
   every write reports ENOSPC — must raise, leave the previous pack
   byte-identical and remove the temporary file. *)
let test_failed_save () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  with_temp_file (fun path ->
      let old = "an earlier pack" in
      let oc = open_out_bin path in
      output_string oc old;
      close_out oc;
      let tmp = path ^ ".tmp" in
      Unix.symlink "/dev/full" tmp;
      let tmp_present () =
        match Unix.lstat tmp with
        | _ -> true
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
      in
      Fun.protect
        ~finally:(fun () -> if tmp_present () then Sys.remove tmp)
        (fun () ->
          (match Rulepack.save ~path (Lazy.force pack) with
          | () -> Alcotest.fail "a save to a full device returned normally"
          | exception Sys_error _ -> ());
          let ic = open_in_bin path in
          let now = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check_string "old pack untouched" old now;
          check_bool "temporary file removed" false (tmp_present ())))

(* --- corpus differential --------------------------------------------------

   The pack's whole reason to exist: scanning and patching through a
   decoded pack must be byte-identical to the source-compiled catalog,
   over every sample of the evaluation corpus, at any job count. *)

let finding_key (f : Patchitpy.Scanner.finding) =
  Printf.sprintf "%s:%d:%d:%d:%d:%s" f.rule.Patchitpy.Rule.id f.line f.column
    f.offset f.stop f.snippet

let scan_fingerprint scanner code =
  String.concat "\n" (List.map finding_key (Patchitpy.Scanner.scan scanner code))

let patch_fingerprint scanner code =
  let r = Patchitpy.Patcher.patch ~scanner code in
  Printf.sprintf "%s\x00%s\x00%d\x00%b" r.Patchitpy.Patcher.patched
    (String.concat "," r.Patchitpy.Patcher.imports_added)
    r.Patchitpy.Patcher.rounds_used r.Patchitpy.Patcher.converged

let differential ~jobs fingerprint =
  let catalog = Patchitpy.Engine.default_scanner () in
  let packed =
    match Rulepack.decode (Lazy.force pack_bytes) with
    | Ok p -> Rulepack.scanner p `Python
    | Error e -> Alcotest.failf "decode: %s" (Rulepack.error_to_string e)
  in
  let samples = Corpus.Generator.all_samples () in
  check_bool "corpus is non-trivial" true (List.length samples > 500);
  let pairs =
    Experiments.Par.map_samples ~jobs
      (fun (s : Corpus.Generator.sample) ->
        (fingerprint catalog s.code, fingerprint packed s.code))
      samples
  in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "sample %d diverges between catalog and pack:\n%s\n---\n%s"
          i a b)
    pairs

let test_scan_differential_seq () = differential ~jobs:1 scan_fingerprint
let test_scan_differential_par () = differential ~jobs:4 scan_fingerprint
let test_patch_differential () = differential ~jobs:4 patch_fingerprint

(* --- adversarial bytes ----------------------------------------------------

   [decode] must return a typed [Error] — never raise, never produce a
   scanner that reads out of bounds — whatever the input looks like. *)

let expect_error name bytes =
  match Rulepack.decode bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: adversarial bytes decoded to Ok" name

let test_truncations () =
  let b = Lazy.force pack_bytes in
  let n = String.length b in
  (* every interesting boundary plus a sweep of prefixes *)
  let cuts = [ 0; 1; 4; 7; 8; 11; 12; 15; 16; 32; n / 2; n - 9; n - 1 ] in
  List.iter
    (fun k ->
      if k >= 0 && k < n then
        expect_error (Printf.sprintf "truncated at %d" k) (String.sub b 0 k))
    cuts;
  let step = max 1 (n / 97) in
  let k = ref 0 in
  while !k < n do
    expect_error (Printf.sprintf "truncated at %d" !k) (String.sub b 0 !k);
    k := !k + step
  done

let test_bit_flips () =
  let b = Lazy.force pack_bytes in
  let n = String.length b in
  let flip_at k bit =
    let by = Bytes.of_string b in
    Bytes.set by k (Char.chr (Char.code (Bytes.get by k) lxor (1 lsl bit)));
    Bytes.to_string by
  in
  (* a deterministic sweep: flip one bit every few hundred bytes, plus
     each byte of the header and the trailing checksum *)
  let positions = ref [] in
  for k = 0 to 23 do
    positions := k :: !positions
  done;
  for k = n - 8 to n - 1 do
    positions := k :: !positions
  done;
  let step = max 1 (n / 211) in
  let k = ref 24 in
  while !k < n - 8 do
    positions := !k :: !positions;
    k := !k + step
  done;
  List.iter
    (fun k ->
      let mutated = flip_at k (k mod 8) in
      match Rulepack.decode mutated with
      | Error _ -> ()
      | Ok p ->
        (* A flip the checksum happens to miss is astronomically
           unlikely; a flip inside ignored padding does not exist in
           this format.  If decode accepted it, the result must still
           behave: force both sections so a latent corruption would
           surface here, inside the test. *)
        ignore (Patchitpy.Scanner.rules p.Rulepack.python);
        ignore (Patchitpy.Scanner.rules (p.Rulepack.javascript ()));
        Alcotest.failf "bit flip at %d (bit %d) decoded to Ok" k (k mod 8))
    !positions

let test_version_skew () =
  (* Rewrite the version field and fix up the trailing checksum so the
     only inconsistency left is the version itself: the decoder must
     report [Version_skew], not [Corrupted] — for a future writer, and
     for a version-1 pack, whose plans still carried the per-rule
     newline budgets of the removed incremental rescan. *)
  let with_version v =
    let b = Bytes.of_string (Lazy.force pack_bytes) in
    let n = Bytes.length b in
    Bytes.set_int32_le b 8 (Int32.of_int v);
    let h = Binio.hash64 ~pos:0 ~len:(n - 8) (Bytes.to_string b) in
    Bytes.set_int64_le b (n - 8) h;
    Bytes.to_string b
  in
  check_bool "format version bumped past 1" true (Rulepack.format_version >= 2);
  List.iter
    (fun v ->
      match Rulepack.decode (with_version v) with
      | Error (Rulepack.Version_skew { found; expected }) ->
        check_int "found" v found;
        check_int "expected" Rulepack.format_version expected
      | Error e ->
        Alcotest.failf "version %d: wanted Version_skew, got %s" v
          (Rulepack.error_to_string e)
      | Ok _ -> Alcotest.failf "version-%d pack decoded to Ok" v)
    [ Rulepack.format_version + 1; 1 ];
  (* and garbage that is not a pack at all *)
  match Rulepack.decode "#!/usr/bin/env python3\nprint('hi')\n" with
  | Error Rulepack.Bad_magic -> ()
  | Error e -> Alcotest.failf "wanted Bad_magic, got %s" (Rulepack.error_to_string e)
  | Ok _ -> Alcotest.fail "text file decoded to Ok"

let test_load_io_error () =
  match Rulepack.load ~path:"/nonexistent/patchitpy-no-such-dir/x.pack" with
  | Error (Rulepack.Io _) -> ()
  | Error e -> Alcotest.failf "wanted Io, got %s" (Rulepack.error_to_string e)
  | Ok _ -> Alcotest.fail "load of missing file returned Ok"

(* --- rewrite-IR round-trip (QCheck) -------------------------------------- *)

let string_gen =
  (* short strings biased toward the characters the s-expression codec
     must escape: quotes, backslashes, parens, whitespace, NUL *)
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '"'; '\\'; '('; ')'; ' '; '\n'; '\t'; '\000'; '$'; ';' ]) (0 -- 12))

let src_gen = QCheck.Gen.(oneof [ return Patchitpy.Rewrite.Whole; map (fun i -> Patchitpy.Rewrite.Grp i) (0 -- 9) ])

let xform_gen =
  let open Patchitpy.Rewrite in
  QCheck.Gen.(
    oneof
      [
        return Trim;
        return Uppercase;
        return Lowercase;
        map (fun n -> Drop_last n) (0 -- 5);
        map2 (fun pat with_ -> Subst { pat; with_ }) string_gen string_gen;
      ])

let test_gen =
  let open Patchitpy.Rewrite in
  QCheck.Gen.(
    oneof
      [
        return Is_empty;
        map (fun s -> Starts_with s) string_gen;
        map (fun s -> Ends_with s) string_gen;
        map (fun s -> Contains s) string_gen;
        map2 (fun p n -> Min_matches (p, n)) string_gen (0 -- 4);
      ])

let rec op_gen depth =
  let open Patchitpy.Rewrite in
  let open QCheck.Gen in
  let leaf =
    [
      map (fun s -> Lit s) string_gen;
      map2 (fun src via -> Str (src, via)) src_gen (list_size (0 -- 3) xform_gen);
    ]
  in
  if depth = 0 then oneof leaf
  else
    oneof
      (leaf
      @ [
          (let* subject = src_gen in
           let* via = list_size (0 -- 2) xform_gen in
           let* test = test_gen in
           let* then_ = tmpl_gen (depth - 1) in
           let* else_ = tmpl_gen (depth - 1) in
           return (Cond ({ subject; via; test }, then_, else_)));
          (let* pat = string_gen in
           let* body = tmpl_gen (depth - 1) in
           let* sep = string_gen in
           return
             (Str (Whole, [ Join_each { pat; body; sep } ])));
          (let* pat = string_gen in
           let* body = tmpl_gen (depth - 1) in
           return (Str (Whole, [ Subst_each { pat; body } ])));
        ])

and tmpl_gen depth = QCheck.Gen.(list_size (0 -- 4) (op_gen depth))

let rewrite_arbitrary =
  QCheck.make ~print:Patchitpy.Rewrite.render (tmpl_gen 2)

let prop_rewrite_roundtrip =
  QCheck.Test.make ~name:"rewrite IR: parse (render t) = Ok t" ~count:500
    rewrite_arbitrary (fun t ->
      match Patchitpy.Rewrite.parse (Patchitpy.Rewrite.render t) with
      | Ok t' -> t' = t
      | Error msg ->
        QCheck.Test.fail_reportf "parse failed on %s: %s"
          (Patchitpy.Rewrite.render t) msg)

(* The catalog's own fixes must round-trip too — these are the
   templates the pack actually stores. *)
let test_catalog_fixes_roundtrip () =
  let rules =
    Patchitpy.Catalog.all () @ Patchitpy.Catalog.javascript ()
  in
  let rewrites =
    List.filter_map
      (fun (r : Patchitpy.Rule.t) ->
        match r.Patchitpy.Rule.fix with
        | Patchitpy.Rule.Rewrite t -> Some (r.Patchitpy.Rule.id, t)
        | Patchitpy.Rule.No_fix | Patchitpy.Rule.Replace_template _ -> None)
      rules
  in
  check_bool "catalog has computed rewrites" true (List.length rewrites > 0);
  List.iter
    (fun (id, t) ->
      match Patchitpy.Rewrite.parse (Patchitpy.Rewrite.render t) with
      | Ok t' ->
        if t' <> t then Alcotest.failf "%s: rewrite changed across round-trip" id
      | Error msg -> Alcotest.failf "%s: %s" id msg)
    rewrites

(* --- environment hook ----------------------------------------------------

   [use_env_pack] registers a provider consulted by
   [Engine.default_scanner] on first use.  The default plan may already
   be built by earlier tests in this binary, in which case the
   registration is a no-op — so this test checks the load path and the
   fallback diagnostics directly rather than the engine wiring. *)

let test_env_pack_load () =
  with_temp_file (fun path ->
      Rulepack.save ~path (Lazy.force pack);
      Unix.putenv Rulepack.env_var path;
      Fun.protect
        ~finally:(fun () -> Unix.putenv Rulepack.env_var "")
        (fun () ->
          Rulepack.use_env_pack ();
          (* the hook must not break the default scanner either way *)
          let s = Patchitpy.Engine.default_scanner () in
          check_bool "default scanner scans" true
            (Patchitpy.Scanner.scan s "import os\nos.system(cmd)\n" <> [])))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rulepack"
    [
      ( "codec",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick test_roundtrip;
          Alcotest.test_case "save/load round-trip" `Quick test_save_load;
          Alcotest.test_case "failed save keeps the old file" `Quick
            test_failed_save;
        ] );
      ( "differential",
        [
          Alcotest.test_case "scan, jobs=1" `Slow test_scan_differential_seq;
          Alcotest.test_case "scan, jobs=4" `Slow test_scan_differential_par;
          Alcotest.test_case "patch, jobs=4" `Slow test_patch_differential;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "truncations" `Quick test_truncations;
          Alcotest.test_case "bit flips" `Quick test_bit_flips;
          Alcotest.test_case "version skew and bad magic" `Quick test_version_skew;
          Alcotest.test_case "io error" `Quick test_load_io_error;
        ] );
      ( "rewrite IR",
        qt [ prop_rewrite_roundtrip ]
        @ [
            Alcotest.test_case "catalog fixes round-trip" `Quick
              test_catalog_fixes_roundtrip;
          ] );
      ( "environment",
        [ Alcotest.test_case "PATCHITPY_RULE_PACK" `Quick test_env_pack_load ] );
    ]
