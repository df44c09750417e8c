type persona = Chatgpt | Claude_llm | Gemini

let personas = [ Chatgpt; Claude_llm; Gemini ]

let name = function
  | Chatgpt -> "ChatGPT-4o"
  | Claude_llm -> "Claude-3.7-Sonnet"
  | Gemini -> "Gemini-2.0-Flash"

(* Deterministic "judgement noise" per (persona, code). *)
let noise persona code tag =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3fffffff) (name persona ^ tag ^ code);
  float_of_int !h /. 1073741824.0

(* --- detection ----------------------------------------------------------- *)

(* The signal and replacement sets are compiled on first use through
   [Rx.once], which the parallel corpus runner may force from several
   domains at once; commands that never run a simulated reviewer never
   compile them. *)

(* Overt dangerous-API signals every competent reviewer flags. *)
let strong_signals =
  Rx.once @@ fun () ->
  List.map Rx.compile
    [
      {|\beval\(|}; {|\bexec\(|}; {|pickle\.loads?\(|}; {|marshal\.loads\(|};
      {|jsonpickle\.decode\(|}; {|yaml\.load\(|}; {|hashlib\.(?:md5|sha1)\(|};
      {|shell\s*=\s*True|}; {|os\.system\(|}; {|os\.popen\(|};
      {|verify\s*=\s*False|}; {|debug\s*=\s*True|}; {|tempfile\.mktemp\(|};
      {|telnetlib\.|}; {|ftplib\.FTP\(|}; {|AutoAddPolicy\(\)|};
      {|\.execute\(\s*f?"[^"\n]*(?:\{|%s)|}; {|\.execute\(\s*"[^"\n]*"\s*(?:\+|%)|};
      {|(?:password|passwd|pwd)\s*=\s*["'][^"'\n]+["']|};
      {|SECRET_KEY\w*\s*=\s*["']|}; {|secret_key\s*=\s*["']|};
      {|\.extractall\(|}; {|uuid\.uuid1\(|}; {|PROTOCOL_(?:SSLv|TLSv1)|};
      {|_create_unverified_context|}; {|cert_reqs\s*=\s*ssl\.CERT_NONE|};
      {|check_hostname\s*=\s*False|}; {|resolve_entities\s*=\s*True|};
      {|xml\.(?:etree|dom|sax)|}; {|verify\s*=\s*False|};
      {|redirect\(\s*request\.|}; {|send_file\(\s*request\.|};
      {|\*\*request\.(?:json|form|args)|}; {|os\.chmod\([^)\n]*0o7|};
      {|os\.umask\(\s*0\s*\)|}; {|^DEBUG\s*=\s*True|}; {|str\(time\.time\(\)\)|};
      {|jwt\.decode\([^)\n]*verify\s*=\s*False|}; {|host\s*=\s*["']0\.0\.0\.0|};
      {|RSA\.generate\(\s*(?:512|768|1024)|}; {|MODE_ECB|}; {|DES3?\.new|};
      {|ARC4\.new|}; {|query\s*=\s*f?"[^"\n]*(?:\{|%s)|};
      {|html\s*=\s*f"<|}; {|return\s+f"<[^"\n]*\{|};
      {|make_response\(f"[^"\n]*\{|}; {|logging\.\w+\(f"[^"\n]*[Pp]assword|};
      {|return\s+str\(e|}; {|traceback\.format_exc\(\)|};
      {|open\(\s*request\.|}; {|random\.(?:randint|getrandbits|choice|randrange)\(|};
    ]

(* Semantic weaknesses the LLMs reason about but lexical rules miss. *)
let semantic_signals =
  Rx.once @@ fun () ->
  List.map Rx.compile
    [
      {|int\(request\.args|};
      {|os\.access\(|};
      {|session\.permanent\s*=\s*True|};
      {|"no such user"|};
      {|"wrong password"|};
      {|salt\s*=\s*b"|};
      {|IV\s*=\s*b"|};
      {|string\.split\(|};
      {|session\[["']role["']\]\s*=\s*request\.|};
      {|writer\.writerow\(\[row\.|};
      {|==\s*expected|};
      {|"ssn"|"salary"|"address"|"phone"|};
    ]

(* Benign-looking-but-suspicious signals: these drive the false
   positives.  A cautious human would check the context; the ZS-RO
   prompt's yes/no format encourages flagging. *)
let weak_signals =
  Rx.once @@ fun () ->
  List.map Rx.compile
    [
      {|subprocess\.|}; {|request\.(?:args|form|files|json)|}; {|\bopen\(|};
      {|password|}; {|http://|}; {|random\.|}; {|hashlib\.|}; {|\.set_cookie\(|};
      {|SELECT |}; {|os\.environ|}; {|\.save\(|}; {|assert\s|};
    ]

let count_hits signals code =
  List.length (List.filter (fun rx -> Rx.matches rx code) signals)

let flags persona code =
  let strong = count_hits (strong_signals ()) code > 0 in
  let semantic = count_hits (semantic_signals ()) code > 0 in
  let weak = count_hits (weak_signals ()) code in
  match persona with
  | Chatgpt ->
    (* balanced: overt or semantic issues, plus suspicion-driven guessing
       on code dense with sensitive APIs *)
    strong || semantic || (weak >= 2 && noise persona code "guess" < 0.60)
  | Claude_llm ->
    (* most careful reviewer: still flags benign-dense code at times *)
    strong || semantic || (weak >= 2 && noise persona code "guess" < 0.45)
  | Gemini ->
    (* most trigger-happy: anything touching a sensitive API is "Yes" *)
    strong || semantic
    || (weak >= 1 && noise persona code "guess" < 0.80)

let detector persona =
  {
    Baseline.name = name persona;
    detect =
      (fun code ->
        if flags persona code then
          {
            Baseline.vulnerable = true;
            findings =
              [ { Baseline.check = "llm-review"; line = 1;
                  message = "model judged the code vulnerable";
                  fix = Baseline.Rewrite_offered } ];
            analyzed = true;
          }
        else Baseline.clean);
  }

(* --- patching ------------------------------------------------------------- *)

(* The API-level replacements the models reliably produce. *)
let common_replacements =
  [
    ({|debug\s*=\s*True|}, "debug=False");
    ({|shell\s*=\s*True|}, "shell=False");
    ({|hashlib\.md5\(|}, "hashlib.sha256(");
    ({|hashlib\.sha1\(|}, "hashlib.sha256(");
    ({|yaml\.load\(([^)\n]*)\)|}, "yaml.safe_load($1)");
    ({|pickle\.loads\(([^)\n]*)\)|}, "json.loads($1)");
    ({|pickle\.load\(([^)\n]*)\)|}, "json.load($1)");
    ({|verify\s*=\s*False|}, "verify=True");
    ({|tempfile\.mktemp\(|}, "tempfile.mkstemp(");
    ({|\beval\(|}, "ast.literal_eval(");
    ({|uuid\.uuid1\(\)|}, "uuid.uuid4()");
    ({|_create_unverified_context|}, "create_default_context");
    ({|AutoAddPolicy\(\)|}, "RejectPolicy()");
    ({|httponly\s*=\s*False|}, "httponly=True");
    ({|os\.umask\(\s*0\s*\)|}, "os.umask(0o077)");
    ({|^DEBUG\s*=\s*True|}, "DEBUG = False");
    ({|MODE_ECB|}, "MODE_GCM");
    ({|(\.set_cookie\("[^"\n]*",\s*(?:\w+\(\)|[\w.]+)\s*)\)|},
     "$1, secure=True, httponly=True)");
    ({|host\s*=\s*["']0\.0\.0\.0["']|}, {|host="127.0.0.1"|});
    ({|WTF_CSRF_ENABLED["'\]]*\s*=\s*\)?False|}, {|WTF_CSRF_ENABLED"] = True|});
  ]

(* Extra replacements only the stronger reviewers tend to land. *)
let advanced_replacements =
  [
    ({|os\.system\(([^)\n]*)\)|}, "subprocess.run(shlex.split($1))");
    ({|return\s+f"<p>(?:Hello )?\{(\w+)\}</p>"|},
     {|return f"<p>{escape($1)}</p>"|});
    ({|\.execute\(f"([^"\n]*)\{(\w+)\}'"\)|}, {|.execute("$1?", ($2,))|});
    ({|str\(time\.time\(\)\)|}, "secrets.token_urlsafe(32)");
    ({|ftplib\.FTP\(|}, "ftplib.FTP_TLS(");
    ({|RSA\.generate\(\s*(?:512|768|1024)|}, "RSA.generate(2048");
  ]

let compiled =
  Rx.once @@ fun () ->
  ( List.map (fun (p, t) -> (Rx.compile p, t)) common_replacements,
    List.map (fun (p, t) -> (Rx.compile p, t)) advanced_replacements )

let apply_replacements replacements code =
  List.fold_left (fun acc (rx, template) -> Rx.replace rx ~template acc) code
    replacements

(* Wraps the body of the first function in try/except — the models'
   signature touch.  Preserves validity by reindenting the body. *)
let wrap_try_except code =
  let lines = Array.of_list (String.split_on_char '\n' code) in
  let n = Array.length lines in
  let is_def i =
    let t = String.trim lines.(i) in
    String.length t > 4 && String.sub t 0 4 = "def "
  in
  let indent_of line =
    let rec go i = if i < String.length line && line.[i] = ' ' then go (i + 1) else i in
    go 0
  in
  let rec find_def i = if i >= n then None else if is_def i then Some i else find_def (i + 1) in
  match find_def 0 with
  | None -> code
  | Some d ->
    let def_indent = indent_of lines.(d) in
    let body_start = d + 1 in
    let rec body_end i =
      if i >= n then i
      else if String.trim lines.(i) = "" then body_end (i + 1)
      else if indent_of lines.(i) > def_indent then body_end (i + 1)
      else i
    in
    let e = body_end body_start in
    if e <= body_start then code
    else begin
      let buf = Buffer.create (String.length code + 128) in
      for i = 0 to d do
        Buffer.add_string buf lines.(i);
        Buffer.add_char buf '\n'
      done;
      let pad = String.make (def_indent + 4) ' ' in
      Buffer.add_string buf (pad ^ "try:\n");
      for i = body_start to e - 1 do
        if String.trim lines.(i) = "" then Buffer.add_char buf '\n'
        else begin
          Buffer.add_string buf ("    " ^ lines.(i));
          Buffer.add_char buf '\n'
        end
      done;
      Buffer.add_string buf (pad ^ "except Exception as exc:\n");
      Buffer.add_string buf (pad ^ "    raise RuntimeError(\"operation failed\") from exc\n");
      for i = e to n - 1 do
        Buffer.add_string buf lines.(i);
        if i < n - 1 then Buffer.add_char buf '\n'
      done;
      Buffer.contents buf
    end

(* Adds an input-validation guard at the top of the first function that
   takes parameters. *)
let add_validation code =
  let def_rx = Rx.compile {|^(\s*)def\s+\w+\(\s*([A-Za-z_]\w*)[^)]*\)[^:]*:\s*$|} in
  match Rx.exec def_rx code with
  | None -> code
  | Some m ->
    let indent = Option.value (Rx.group m 1) ~default:"" in
    let param = Option.value (Rx.group m 2) ~default:"value" in
    if param = "self" then code
    else begin
      let insertion =
        Printf.sprintf "%s    if %s is None:\n%s        raise ValueError(\"invalid input\")\n"
          indent param indent
      in
      let stop = Rx.m_stop m in
      String.sub code 0 stop ^ "\n" ^ insertion
      ^ String.sub code (stop + 1) (String.length code - stop - 1)
    end

let helper_function =
  "\n\ndef _validate_input(value):\n    if value is None:\n        raise ValueError(\"missing value\")\n    if isinstance(value, str) and len(value) > 1024:\n        raise ValueError(\"value too large\")\n    return value\n"

let needed_imports code =
  List.filter_map
    (fun (marker, import_line) ->
      if
        Rx.matches (Rx.compile marker) code
        && not (Rx.matches (Rx.compile ("^" ^ import_line ^ "$")) code)
      then Some import_line
      else None)
    [
      ({|ast\.literal_eval|}, "import ast");
      ({|json\.loads?\(|}, "import json");
      ({|shlex\.split|}, "import shlex");
      ({|subprocess\.run|}, "import subprocess");
      ({|secrets\.|}, "import secrets");
      ({|escape\(|}, "from markupsafe import escape");
    ]

let add_imports code =
  match needed_imports code with
  | [] -> code
  | imports -> String.concat "\n" imports ^ "\n" ^ code

let patch persona code =
  let common, advanced = compiled () in
  (* Hallucination: sometimes the model restructures without actually
     removing the dangerous API. *)
  let hallucinate_p =
    match persona with Chatgpt -> 0.12 | Claude_llm -> 0.08 | Gemini -> 0.20
  in
  let skip_fix = noise persona code "halluc" < hallucinate_p in
  let code' =
    if skip_fix then code
    else begin
      let base = apply_replacements common code in
      match persona with
      | Chatgpt | Claude_llm -> apply_replacements advanced base
      | Gemini ->
        if noise persona code "adv" < 0.5 then apply_replacements advanced base
        else base
    end
  in
  (* Structural additions: the Fig. 3 complexity inflation. *)
  let with_structure =
    match persona with
    | Chatgpt ->
      let c = if noise persona code "try" < 0.55 then wrap_try_except code' else code' in
      if noise persona code "val" < 0.30 then add_validation c else c
    | Claude_llm ->
      let c = if noise persona code "try" < 0.60 then wrap_try_except code' else code' in
      let c = if noise persona code "val" < 0.55 then add_validation c else c in
      if noise persona code "helper" < 0.55 then c ^ helper_function else c
    | Gemini ->
      let c = if noise persona code "try" < 0.55 then wrap_try_except code' else code' in
      let c = if noise persona code "val" < 0.35 then add_validation c else c in
      if noise persona code "helper" < 0.20 then c ^ helper_function else c
  in
  add_imports with_structure
