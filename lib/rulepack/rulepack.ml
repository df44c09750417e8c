(* Versioned binary rule packs.

   A pack is the fully compiled form of the rule catalog — scan plans
   with their compiled patterns, the fused machine and rewrite IR — so
   a process that loads one starts scanning without parsing a single
   regex.  Layout:

     magic (8 bytes) | format version (u32) | catalog hash (hex, str)
     | section count (u8) | sections | XXH64 of everything above (8
     bytes, little-endian)

   Each section is a tag byte plus a length-prefixed payload
   ([Binio.w_str]), so unknown sections can be skipped by readers and a
   truncated file can never send a decoder past a section boundary.
   The trailing checksum is an integrity check against corruption (bit
   rot, torn writes) — it is not an authenticity mechanism, which is
   why every section decoder also re-validates the structural
   invariants it indexes by.  Malformed input of any kind surfaces as
   [Error], never an exception.  XXH64 rather than MD5 because loads
   verify the whole file on the cold-start path: MD5 runs at ~550 MB/s,
   an appreciable fraction of the startup budget the pack exists to
   eliminate.  (The catalog *fingerprint* stays MD5: it is computed at
   build time, where throughput is irrelevant and a wider digest is
   worth having for identity.)

   The catalog hash fingerprints the rule *sources* the pack was built
   from.  Checking it against the running binary's catalog requires
   compiling that catalog, which is exactly what pack loading exists to
   avoid — so [load] trusts the (checksummed) stored hash, and the
   entry points that already paid for the source catalog ([create],
   the pack/differential CI steps, [verify_catalog]) do the
   comparison. *)

let magic = "PITPACK\x00"
let format_version = 4

let section_python = 1
let section_javascript = 2

(* The python plan's fused multi-pattern machine ([Rx.Fused]),
   pre-built at pack time so a loaded pack's first scan skips the
   catalog-wide fuse.  Optional twice over: the payload is an option
   (a pack built with the fused tier pinned off writes [None]), and
   readers that predate the tag skip the section entirely. *)
let section_fused_python = 3

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
  javascript : unit -> Patchitpy.Scanner.t;
      (* thunked: the scan/patch/serve fast paths only ever touch the
         python plan, so a loaded pack defers the javascript section's
         decode until someone asks for it *)
  fused_section : bool;
      (* whether the pack carries the pre-built fused machine (packs
         from pre-fused-section builds do not; they re-fuse from rules
         on first scan) — surfaced by [rules inspect] *)
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
  let javascript = Patchitpy.Scanner.compile js_rules in
  {
    version = format_version;
    catalog_hash = fingerprint (python_rules @ js_rules);
    python = Patchitpy.Scanner.compile python_rules;
    javascript = (fun () -> javascript);
    fused_section = true;
    canaries = [];
  }

(* An even spread over [corpus], so the canaries cover its variety
   rather than its first few subjects. *)
let with_canaries ~corpus t =
  let arr = Array.of_list corpus in
  let n = Array.length arr in
  let k = min max_canaries n in
  { t with canaries = List.init k (fun i -> arr.(i * n / k)) }

(* Forces the deferred decode of every rule, then replays the canaries
   through the python plan in the calling domain, results discarded.
   The decode is process-wide and memoized; without it each rule no
   canary flags decodes inside the first request that needs it, and a
   burst of such requests right after boot stalls a worker for
   milliseconds.  Two passes: the first determinizes the states the
   canaries reach, the second runs over the now-materialized rows and
   heats the hardware caches along the steady-state path — one pass
   left the first real scan at ~2x steady state. *)
let prewarm t =
  ignore (Patchitpy.Scanner.rules t.python : Patchitpy.Rule.t list);
  for _ = 1 to 2 do
    List.iter
      (fun c -> ignore (Patchitpy.Scanner.scan t.python c : _ list))
      t.canaries
  done;
  2 * List.length t.canaries

let encode t =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf magic;
  Binio.w_u32 buf t.version;
  Binio.w_str buf t.catalog_hash;
  Binio.w_u8 buf (if t.canaries = [] then 3 else 4);
  let section tag scanner =
    Binio.w_u8 buf tag;
    let payload = Buffer.create (1 lsl 19) in
    Patchitpy.Scanner.write payload scanner;
    Binio.w_str buf (Buffer.contents payload)
  in
  section section_python t.python;
  section section_javascript (t.javascript ());
  Binio.w_u8 buf section_fused_python;
  let payload = Buffer.create (1 lsl 16) in
  Binio.w_opt Rx.Fused.write payload
    (Patchitpy.Scanner.fused_machine t.python);
  Binio.w_str buf (Buffer.contents payload);
  if t.canaries <> [] then begin
    Binio.w_u8 buf section_warm;
    let payload = Buffer.create (1 lsl 16) in
    Binio.w_list Binio.w_str payload t.canaries;
    Binio.w_str buf (Buffer.contents payload)
  end;
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
          let fused_view = ref None in
          let canaries = ref [] in
          for _ = 1 to nsections do
            let tag = Binio.r_u8 r in
            let len = Binio.r_u32 r in
            let view = Binio.r_view r len in
            if tag = section_python then begin
              let pr = Binio.sub_reader view in
              let scanner = Patchitpy.Scanner.read pr in
              if not (Binio.at_end pr) then
                raise (Binio.Corrupt "trailing bytes in the python section");
              python := Some scanner
            end
            else if tag = section_javascript then
              (* deferred: decoded on first use, behind the checksum
                 that already ran — see the [t.javascript] comment *)
              javascript :=
                Some
                  (Rx.once (fun () ->
                       let pr = Binio.sub_reader view in
                       let scanner = Patchitpy.Scanner.read pr in
                       if not (Binio.at_end pr) then
                         raise
                           (Binio.Corrupt
                              "trailing bytes in the javascript section");
                       scanner))
            else if tag = section_fused_python then fused_view := Some view
            else if tag = section_warm then begin
              let wr = Binio.sub_reader view in
              let n = Binio.r_count ~limit:max_canaries wr in
              canaries := List.init n (fun _ -> Binio.r_str wr);
              if not (Binio.at_end wr) then
                raise (Binio.Corrupt "trailing bytes in the warm section")
            end
            (* unknown sections are skipped: the view already advanced
               the cursor past the payload *)
          done;
          if not (Binio.at_end r) then
            raise (Binio.Corrupt "trailing bytes after the last section");
          match (!python, !javascript) with
          | Some python, Some javascript ->
            let refuse () =
              Rx.Fused.compile
                (Array.of_list
                   (List.map
                      (fun (r : Patchitpy.Rule.t) -> r.Patchitpy.Rule.pattern)
                      (Patchitpy.Scanner.rules python)))
            in
            (match !fused_view with
            | None -> ()  (* pre-fused-section pack: fuse from rules *)
            | Some view ->
              (* deferred like the javascript section, and additionally
                 fault-tolerant: the fused machine is a pure
                 accelerator, so checksum-forged bytes inside it
                 degrade to re-fusing from the (independently
                 validated) rules rather than failing the scan that
                 first forces it *)
              Patchitpy.Scanner.set_fused_thunk python (fun () ->
                  try
                    let fr = Binio.sub_reader view in
                    let f =
                      Binio.r_opt
                        (Rx.Fused.read
                           ~npatterns:(Patchitpy.Scanner.rule_count python))
                        fr
                    in
                    if not (Binio.at_end fr) then
                      raise
                        (Binio.Corrupt "trailing bytes in the fused section");
                    f
                  with Binio.Truncated | Binio.Corrupt _ -> refuse ()));
            { version; catalog_hash; python; javascript;
              fused_section = !fused_view <> None;
              canaries = !canaries }
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

let scanner t = function
  | `Python -> t.python
  | `Js -> t.javascript ()

(* The [PATCHITPY_RULE_PACK] hook: registers a provider so
   [Engine.default_scanner] serves the pack's python plan instead of
   compiling the catalog.  A pack that fails to load is reported once
   on stderr and the engine falls back to source compilation — a stale
   pack must degrade startup, not correctness. *)
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
