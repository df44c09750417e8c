(* Rules are (id, pattern, message, fix suggestion option), modeled on
   the Semgrep registry's python.lang.security / python.flask rules. *)

let rules_src =
  [
    ("python.lang.security.audit.exec-detected", {|\bexec\(|},
     "Detected use of exec", None);
    ("python.flask.security.audit.directly-returned-format-string",
     {|return\s+f"[^"\n]*\{\s*(?:request\.[^}"\n]+|[A-Za-z_]\w*)\}[^"\n]*"|},
     "data interpolated into returned page", None);
    ("python.flask.security.injection.tainted-sql-string",
     {|\.execute\(\s*f?"[^"\n]*(?:\{|%s)|}, "SQL string building", None);
    ("python.flask.security.injection.tainted-sql-concat",
     {|\.execute\(\s*"[^"\n]*"\s*\+|}, "SQL string concatenation", None);
    ("python.lang.security.audit.insecure-transport-requests",
     {|requests\.\w+\(\s*f?["']http://|}, "cleartext HTTP request",
     Some "use https://");
    ("python.requests.security.disabled-cert-validation",
     {|verify\s*=\s*False|}, "certificate validation disabled",
     Some "remove verify=False");
    ("python.lang.security.audit.paramiko-implicit-trust-host-key",
     {|AutoAddPolicy\(\)|}, "implicit trust of SSH host keys", None);
    ("python.lang.security.audit.telnetlib", {|telnetlib\.|},
     "telnet is insecure", None);
    ("python.lang.security.audit.ftplib", {|ftplib\.FTP\(|},
     "plain FTP is insecure", None);
    ("python.lang.security.audit.weak-random",
     {|random\.(?:random|randint|choice|randrange|getrandbits)\(|},
     "PRNG not for security", None);
    ("python.lang.security.audit.hardcoded-password-default",
     {|\b(?:password|passwd|pwd)\s*=\s*["'][^"'\n]+["']|},
     "hardcoded password", None);
    ("python.flask.security.audit.hardcoded-secret-key",
     {|secret_key\s*=\s*["']|}, "hardcoded Flask secret", None);
    ("python.lang.security.audit.marshal-usage", {|marshal\.loads?\(|},
     "marshal deserialization", None);
    ("python.lang.security.audit.unverified-ssl-context",
     {|ssl\._create_unverified_context|}, "unverified TLS context", None);
    ("python.lang.security.audit.xml-etree", {|xml\.etree\.|},
     "use defusedxml for untrusted XML", Some "import defusedxml.ElementTree");
    ("python.django.security.audit.django-debug",
     {|^DEBUG\s*=\s*True|}, "Django DEBUG enabled", None);
    ("python.flask.security.open-redirect",
     {|redirect\(\s*request\.|}, "open redirect", None);
    ("python.flask.security.audit.avoid-send-file-user-input",
     {|send_file\(\s*request\.|}, "send_file on user input", None);
    ("python.lang.security.audit.chmod-permissive",
     {|os\.chmod\([^)\n]*0o77[0-9]|}, "permissive chmod", None);
  ]

(* AST rules: Semgrep's native matching model (see {!Semgrep_pat}).
   Patterns are the shapes the public registry writes. *)
let ast_rules_src =
  [
    ("python.lang.security.audit.eval-detected", "eval(...)",
     "Detected use of eval", None);
    ("python.lang.security.audit.subprocess-shell-true",
     "subprocess.$FUNC(..., shell=True, ...)",
     "subprocess with shell=True", None);
    ("python.lang.security.audit.os-system-injection", "os.system(...)",
     "os.system may allow injection", None);
    ("python.lang.security.audit.dangerous-pickle-use", "pickle.$LOAD(...)",
     "pickle deserialization", None);
    ("python.lang.security.deserialization.avoid-unsafe-yaml",
     "yaml.load(...)", "yaml.load is unsafe", Some "use yaml.safe_load");
    ("python.lang.security.insecure-hash-algorithms-md5", "hashlib.md5(...)",
     "MD5 is insecure", None);
    ("python.lang.security.insecure-hash-algorithms-sha1", "hashlib.sha1(...)",
     "SHA1 is insecure", None);
    ("python.flask.security.audit.debug-enabled",
     "$APP.run(..., debug=True, ...)", "Flask debug mode", None);
    ("python.lang.security.audit.insecure-tmp-file", "tempfile.mktemp(...)",
     "insecure temp file", Some "use mkstemp");
    ("python.lang.security.audit.weak-random-ast", "random.$FUNC(...)",
     "PRNG not for security", None);
  ]

type rule = { id : string; rx : Rx.t; message : string; suggestion : string option }

type ast_rule = {
  a_id : string;
  pat : Semgrep_pat.t;
  a_message : string;
  a_suggestion : string option;
}

(* Both rule sets are built on first scan ([Rx.once]: the experiment
   runner scans from several domains at once), so processes that never
   run the baseline never compile them. *)
let ast_rules =
  Rx.once @@ fun () ->
  List.map
    (fun (a_id, pattern, a_message, a_suggestion) ->
      { a_id; pat = Semgrep_pat.parse_exn pattern; a_message; a_suggestion })
    ast_rules_src

let rules =
  Rx.once @@ fun () ->
  List.map
    (fun (id, pat, message, suggestion) ->
      { id; rx = Rx.compile pat; message; suggestion })
    rules_src

let rule_count = List.length rules_src + List.length ast_rules_src

let line_of source offset =
  let n = ref 1 in
  for i = 0 to min offset (String.length source) - 1 do
    if source.[i] = '\n' then incr n
  done;
  !n

let scan_unchecked source =
  let regex_findings =
    List.concat_map
      (fun rule ->
        Rx.find_all rule.rx source
        |> List.map (fun m ->
               {
                 Baseline.check = rule.id;
                 line = line_of source (Rx.m_start m);
                 message = rule.message;
                 fix =
                   (match rule.suggestion with
                   | Some s -> Baseline.Suggestion s
                   | None -> Baseline.No_fix_support);
               }))
      (rules ())
  in
  let ast_findings =
    match Pyast.parse source with
    | Error _ -> []
    | Ok m ->
      List.concat_map
        (fun rule ->
          Semgrep_pat.find_in_module rule.pat m
          |> List.map (fun (line, _bindings) ->
                 {
                   Baseline.check = rule.a_id;
                   line;
                   message = rule.a_message;
                   fix =
                     (match rule.a_suggestion with
                     | Some s -> Baseline.Suggestion s
                     | None -> Baseline.No_fix_support);
                 }))
        (ast_rules ())
  in
  regex_findings @ ast_findings

let scan source =
  if Pyast.parses source then scan_unchecked source else []

let detector =
  {
    Baseline.name = "Semgrep";
    detect =
      (fun source ->
        if not (Pyast.parses source) then Baseline.not_analyzed
        else
          let findings = scan_unchecked source in
          { Baseline.vulnerable = findings <> []; findings; analyzed = true });
  }

let annotate source =
  let findings = scan source in
  let by_line = Hashtbl.create 16 in
  List.iter
    (fun (f : Baseline.finding) ->
      match f.Baseline.fix with
      | Baseline.Suggestion s ->
        Hashtbl.replace by_line f.Baseline.line
          (Printf.sprintf "# semgrep: %s — %s" f.Baseline.check s)
      | Baseline.No_fix_support | Baseline.Rewrite_offered -> ())
    findings;
  String.split_on_char '\n' source
  |> List.mapi (fun i line ->
         match Hashtbl.find_opt by_line (i + 1) with
         | Some comment -> comment ^ "\n" ^ line
         | None -> line)
  |> String.concat "\n"
