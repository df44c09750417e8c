(* Versioned binary rule packs.

   A pack is the rule catalog's declarations — per rule its id, title,
   CWE, severity, pattern and suppress sources, fix (a template, or a
   rendered rewrite program), imports and note — plus optional canary
   subjects, checksummed.  Loading one decodes strings; the rules are
   compiled from those sources on first use, through [Rule.make] and
   therefore the memoized [Rx.compile], the same path user rule files
   take.  Layout:

     magic (8 bytes) | format version (u32) | catalog hash (hex, str)
     | section count (u8) | sections | XXH64 of everything above (8
     bytes, little-endian)

   Each section is a tag byte plus a length-prefixed payload
   ([Binio.w_str]), so unknown sections can be skipped by readers and a
   truncated file can never send a decoder past a section boundary.
   The trailing checksum is an integrity check against corruption (bit
   rot, torn writes) — it is not an authenticity mechanism.  A forged
   pack that passes it still only holds strings: a pattern that does
   not parse or a rewrite that does not parse is rejected by the same
   parsers that guard user rule files.  Malformed structure surfaces
   as [Error], never an exception.  XXH64 rather than MD5 because loads
   verify the whole file on the cold-start path: MD5 runs at ~550 MB/s,
   an appreciable fraction of the startup budget.  (The catalog
   *fingerprint* stays MD5: it is computed at build time, where
   throughput is irrelevant and a wider digest is worth having for
   identity.)

   The catalog hash fingerprints the rule *sources* the pack was built
   from.  Checking it against the running binary's catalog requires
   compiling the built-in catalog as well — so [load] trusts the
   (checksummed) stored hash, and the entry points that already paid
   for the built-in catalog ([create], the pack/differential CI steps,
   [verify_catalog]) do the comparison. *)

let magic = "PITPACK\x00"
let format_version = 5

let section_python = 1
let section_javascript = 2

(* Canary subjects for [prewarm] to replay: the warm section.  A plain
   list of strings, validated like every other section.  At most
   [max_canaries], which keeps the pack small and the per-domain replay
   at a few milliseconds; the decoder enforces the cap, so a forged
   count cannot inflate boot work. *)
let section_warm = 4
let max_canaries = 16

type t = {
  version : int;
  catalog_hash : string;
  python : Patchitpy.Scanner.t;
  javascript : Patchitpy.Scanner.t;
  canaries : string list;
      (* warm-section canary subjects, replayed by [prewarm]: a handful
         of representative scans heats the calling domain's lazy-DFA
         tables, rule programs and the hardware caches along the whole
         scan path in one go; empty for cold packs *)
}

type error =
  | Bad_magic
  | Version_skew of { found : int; expected : int }
  | Corrupted of string
  | Io of string

let error_to_string = function
  | Bad_magic -> "not a rule pack (bad magic)"
  | Version_skew { found; expected } ->
    Printf.sprintf "rule pack format version %d, this build reads %d" found
      expected
  | Corrupted msg -> "corrupted rule pack: " ^ msg
  | Io msg -> msg

let loads_counter = Telemetry.Counter.make "rulepack_loads_total"

let load_failures_counter =
  Telemetry.Counter.make "rulepack_load_failures_total"

(* Hex MD5 over a canonical dump of the rule declarations: everything a
   rule pack preserves semantically.  Pattern *sources* (not compiled
   forms) keep the fingerprint stable across engine changes that do not
   touch the catalog. *)
let fingerprint rules =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : Patchitpy.Rule.t) ->
      Buffer.add_string buf r.Patchitpy.Rule.id;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf r.title;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (string_of_int r.cwe);
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (Patchitpy.Rule.severity_to_string r.severity);
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (Rx.pattern r.pattern);
      Buffer.add_char buf '\x00';
      Buffer.add_string buf
        (match r.suppress with None -> "" | Some s -> Rx.pattern s);
      Buffer.add_char buf '\x00';
      Buffer.add_string buf
        (match r.fix with
        | Patchitpy.Rule.No_fix -> ""
        | Patchitpy.Rule.Replace_template t -> "T" ^ t
        | Patchitpy.Rule.Rewrite ir -> "R" ^ Patchitpy.Rewrite.render ir);
      Buffer.add_char buf '\x00';
      List.iter
        (fun i ->
          Buffer.add_string buf i;
          Buffer.add_char buf '\x01')
        r.imports;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf r.note;
      Buffer.add_char buf '\x00')
    rules;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let catalog_fingerprint () =
  fingerprint (Patchitpy.Catalog.all () @ Patchitpy.Catalog.javascript ())

(* Builds a pack from the source catalog.  The one place rewrite
   programs are validated: a rule shipping an uncompilable embedded
   pattern is a programming error and must not wait for a fix render
   to surface. *)
let create () =
  let python_rules = Patchitpy.Catalog.all () in
  let js_rules = Patchitpy.Catalog.javascript () in
  List.iter
    (fun (r : Patchitpy.Rule.t) ->
      match r.fix with
      | Patchitpy.Rule.Rewrite ir -> (
        match Patchitpy.Rewrite.validate ir with
        | Ok () -> ()
        | Error msg ->
          invalid_arg
            (Printf.sprintf "rule %s: invalid rewrite program: %s" r.id msg))
      | Patchitpy.Rule.No_fix | Patchitpy.Rule.Replace_template _ -> ())
    (python_rules @ js_rules);
  {
    version = format_version;
    catalog_hash = fingerprint (python_rules @ js_rules);
    python = Patchitpy.Scanner.compile python_rules;
    javascript = Patchitpy.Scanner.compile js_rules;
    canaries = [];
  }

(* An even spread over [corpus], so the canaries cover its variety
   rather than its first few subjects. *)
let with_canaries ~corpus t =
  let arr = Array.of_list corpus in
  let n = Array.length arr in
  let k = min max_canaries n in
  { t with canaries = List.init k (fun i -> arr.(i * n / k)) }

(* Compiles every python rule and builds the DFA tables of each
   pattern and suppress pattern, then replays the canaries through the
   python plan in the calling domain, results discarded.  Compiles and
   tables are process-wide and memoized; without them each rule no
   canary flags builds its tables inside the first request that needs
   it, and a burst of such requests right after boot stalls a worker
   for milliseconds.  Two passes: the first determinizes the states the
   canaries reach, the second runs over the now-materialized rows and
   heats the hardware caches along the steady-state path — one pass
   left the first real scan at ~2x steady state. *)
let prewarm t =
  List.iter
    (fun (r : Patchitpy.Rule.t) ->
      Rx.prepare r.Patchitpy.Rule.pattern;
      Option.iter Rx.prepare r.Patchitpy.Rule.suppress)
    (Patchitpy.Scanner.rules t.python);
  for _ = 1 to 2 do
    List.iter
      (fun c -> ignore (Patchitpy.Scanner.scan t.python c : _ list))
      t.canaries
  done;
  2 * List.length t.canaries

(* --- rule declarations ------------------------------------------------------

   A section payload is the plan's rule declarations in order.  [r_rule]
   decodes one rule's strings and parses its fix (a malformed rewrite
   program is a typed [Corrupted]); the patterns are compiled when the
   plan first needs its rules, and a pattern that does not parse then
   raises [Binio.Corrupt]. *)

let w_rule buf (r : Patchitpy.Rule.t) =
  Binio.w_str buf r.Patchitpy.Rule.id;
  Binio.w_str buf r.title;
  Binio.w_u32 buf r.cwe;
  Binio.w_str buf (Patchitpy.Rule.severity_to_string r.severity);
  Binio.w_str buf (Rx.pattern r.pattern);
  Binio.w_opt (fun buf p -> Binio.w_str buf (Rx.pattern p)) buf r.suppress;
  (match r.fix with
  | Patchitpy.Rule.No_fix -> Binio.w_u8 buf 0
  | Patchitpy.Rule.Replace_template t ->
    Binio.w_u8 buf 1;
    Binio.w_str buf t
  | Patchitpy.Rule.Rewrite ir ->
    Binio.w_u8 buf 2;
    Binio.w_str buf (Patchitpy.Rewrite.render ir));
  Binio.w_list Binio.w_str buf r.imports;
  Binio.w_str buf r.note

let r_rule r =
  let id = Binio.r_str r in
  let title = Binio.r_str r in
  let cwe = Binio.r_u32 r in
  let severity =
    match Patchitpy.Rule.severity_of_string (Binio.r_str r) with
    | Ok s -> s
    | Error msg -> raise (Binio.Corrupt msg)
  in
  let pattern = Binio.r_str r in
  let suppress = Binio.r_opt Binio.r_str r in
  let fix =
    match Binio.r_u8 r with
    | 0 -> Patchitpy.Rule.No_fix
    | 1 -> Patchitpy.Rule.Replace_template (Binio.r_str r)
    | 2 -> (
      match Patchitpy.Rewrite.parse (Binio.r_str r) with
      | Ok ir -> Patchitpy.Rule.Rewrite ir
      | Error msg -> raise (Binio.Corrupt ("bad rewrite program: " ^ msg)))
    | v -> raise (Binio.Corrupt (Printf.sprintf "bad fix tag %d" v))
  in
  let imports = Binio.r_list Binio.r_str r in
  let note = Binio.r_str r in
  let make () =
    match
      Patchitpy.Rule.make ~id ~title ~cwe ~severity ~pattern ?suppress ~fix
        ~imports ~note ()
    with
    | rule -> rule
    | exception Rx.Parse_error (msg, pos) ->
      raise
        (Binio.Corrupt
           (Printf.sprintf "rule %s: pattern does not parse at offset %d: %s"
              id pos msg))
  in
  (id, make)

let r_plan r =
  let decls = Binio.r_array r_rule r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in a plan");
  Patchitpy.Scanner.deferred ~ids:(Array.map fst decls) (fun () ->
      Array.map (fun (_, make) -> make ()) decls)

let encode t =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  Binio.w_u32 buf t.version;
  Binio.w_str buf t.catalog_hash;
  Binio.w_u8 buf (if t.canaries = [] then 2 else 3);
  let section tag write =
    Binio.w_u8 buf tag;
    let payload = Buffer.create (1 lsl 15) in
    write payload;
    Binio.w_str buf (Buffer.contents payload)
  in
  let plan scanner payload =
    Binio.w_list w_rule payload (Patchitpy.Scanner.rules scanner)
  in
  section section_python (plan t.python);
  section section_javascript (plan t.javascript);
  if t.canaries <> [] then
    section section_warm (fun payload ->
        Binio.w_list Binio.w_str payload t.canaries);
  let checksum = Binio.hash64 (Buffer.contents buf) in
  let trailer = Bytes.create 8 in
  Bytes.set_int64_le trailer 0 checksum;
  Buffer.add_bytes buf trailer;
  Buffer.contents buf

let decode data =
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    Error Bad_magic
  else begin
    let dlen = String.length data - 8 in
    if dlen < mlen then Error (Corrupted "truncated")
    else if
      not (Int64.equal (Binio.hash64 ~len:dlen data) (String.get_int64_le data dlen))
    then Error (Corrupted "checksum mismatch")
    else begin
      let r = Binio.reader ~pos:mlen ~stop:dlen data in
      match Binio.r_u32 r with
      | exception Binio.Truncated -> Error (Corrupted "truncated")
      | version when version <> format_version ->
        Error (Version_skew { found = version; expected = format_version })
      | version -> (
        let parse () =
          let catalog_hash = Binio.r_str r in
          let nsections = Binio.r_u8 r in
          let python = ref None and javascript = ref None in
          let canaries = ref [] in
          for _ = 1 to nsections do
            let tag = Binio.r_u8 r in
            let len = Binio.r_u32 r in
            let view = Binio.r_view r len in
            if tag = section_python then python := Some (r_plan view)
            else if tag = section_javascript then
              javascript := Some (r_plan view)
            else if tag = section_warm then begin
              let n = Binio.r_count ~limit:max_canaries view in
              canaries := List.init n (fun _ -> Binio.r_str view);
              if not (Binio.at_end view) then
                raise (Binio.Corrupt "trailing bytes in the warm section")
            end
            (* unknown sections are skipped: the view already advanced
               the cursor past the payload *)
          done;
          if not (Binio.at_end r) then
            raise (Binio.Corrupt "trailing bytes after the last section");
          match (!python, !javascript) with
          | Some python, Some javascript ->
            { version; catalog_hash; python; javascript; canaries = !canaries }
          | None, _ -> raise (Binio.Corrupt "missing python section")
          | _, None -> raise (Binio.Corrupt "missing javascript section")
        in
        match Binio.protect parse with
        | Ok t ->
          Telemetry.Counter.incr loads_counter;
          Ok t
        | Error msg ->
          Telemetry.Counter.incr load_failures_counter;
          Error (Corrupted msg))
    end
  end

let save ~path t =
  let data = encode t in
  Binio.save_atomic ~path (fun oc -> output_string oc data)

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Corrupted "truncated")
  | data ->
    let result = decode data in
    (match result with
    | Error (Corrupted _ | Bad_magic | Version_skew _) ->
      Telemetry.Counter.incr load_failures_counter
    | Error (Io _) | Ok _ -> ());
    result

let verify_catalog t =
  let current = catalog_fingerprint () in
  if String.equal current t.catalog_hash then Ok ()
  else
    Error
      (Printf.sprintf
         "pack was built from catalog %s but this build's catalog is %s"
         t.catalog_hash current)

let scanner t = function `Python -> t.python | `Js -> t.javascript

(* The [PATCHITPY_RULE_PACK] hook: registers a provider so
   [Engine.default_scanner] serves the pack's python plan instead of
   the built-in catalog.  A pack that fails to load is reported once
   on stderr and the engine falls back to the built-in catalog — a
   stale pack must not break a deployment. *)
let env_var = "PATCHITPY_RULE_PACK"

let use_env_pack () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some path ->
    Patchitpy.Engine.set_default_provider (fun () ->
        match load ~path with
        | Ok pack -> Some pack.python
        | Error e ->
          Printf.eprintf
            "patchitpy: ignoring %s=%s (%s); compiling rules from source\n%!"
            env_var path (error_to_string e);
          None)
