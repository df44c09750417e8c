(* Security-misconfiguration rules (OWASP A05): debug modes, bind
   addresses, cookie flags, CSRF, unsafe loaders, XXE, archive
   extraction, temp files and permissions.  PIT-045 .. PIT-060. *)

let r = Rule.make

open Rewrite

(* Strips an explicit Loader=... argument when rewriting yaml.load to
   yaml.safe_load (safe_load chooses the loader itself). *)
let safe_load_rewrite =
  [ Lit "yaml.safe_load(";
    Str (Grp 1, [ Subst { pat = {|\s*,\s*Loader\s*=\s*[\w.]+|}; with_ = "" } ]);
    Lit ")" ]

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-045" ~title:"Flask running in debug mode"
      ~cwe:489 ~severity:Rule.High
      ~pattern:{|\.run\(([^)\n]*)debug\s*=\s*True([^)\n]*)\)|}
      ~fix:
        (Rule.Replace_template
           ".run($1debug=False, use_debugger=False, use_reloader=False$2)")
      ~note:
        "Debug mode exposes an interactive debugger and stack traces \
         (CWE-209); disable it outside development." ();
    r ~id:"PIT-046" ~title:"Service bound to all interfaces"
      ~cwe:605 ~severity:Rule.Medium
      ~pattern:{|host\s*=\s*["']0\.0\.0\.0["']|}
      ~fix:(Rule.Replace_template {|host="127.0.0.1"|})
      ~note:"Bind to localhost unless external exposure is intended." ();
    r ~id:"PIT-047" ~title:"Cookie set without Secure/HttpOnly"
      ~cwe:614 ~severity:Rule.Medium
      ~pattern:{|(\.set_cookie\((?:[^()\n]|\([^()\n]*\))*)\)|}
      ~suppress:{|secure\s*=\s*True|}
      ~fix:(Rule.Replace_template {|$1, secure=True, httponly=True, samesite="Lax")|})
      ~note:"Mark session cookies Secure, HttpOnly and SameSite." ();
    r ~id:"PIT-048" ~title:"Cookie explicitly marked httponly=False"
      ~cwe:1004 ~severity:Rule.Medium
      ~pattern:{|httponly\s*=\s*False|}
      ~fix:(Rule.Replace_template "httponly=True")
      ~note:"HttpOnly keeps scripts away from session cookies." ();
    r ~id:"PIT-049" ~title:"CSRF protection disabled"
      ~cwe:352 ~severity:Rule.High
      ~pattern:{|(WTF_CSRF_ENABLED["'\]]*\s*=\s*)False|}
      ~fix:(Rule.Replace_template "$1True")
      ~note:"Keep CSRF protection enabled for state-changing routes." ();
    r ~id:"PIT-050" ~title:"yaml.load without a safe loader"
      ~cwe:502 ~severity:Rule.High
      ~pattern:{|yaml\.load\(([^)\n]*)\)|}
      ~suppress:{|SafeLoader|}
      ~fix:(Rule.Rewrite safe_load_rewrite)
      ~note:"yaml.safe_load refuses arbitrary object construction." ();
    r ~id:"PIT-051" ~title:"xml.etree parses untrusted XML (XXE)"
      ~cwe:611 ~severity:Rule.High
      ~pattern:{|xml\.etree\.ElementTree|}
      ~fix:(Rule.Replace_template "defusedxml.ElementTree")
      ~imports:[ "import defusedxml.ElementTree" ]
      ~note:"defusedxml disables entity expansion and DTD retrieval." ();
    r ~id:"PIT-052" ~title:"lxml parser resolves external entities"
      ~cwe:611 ~severity:Rule.High
      ~pattern:{|XMLParser\(([^)\n]*)resolve_entities\s*=\s*True([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "XMLParser($1resolve_entities=False$2)")
      ~note:"Disable entity resolution when parsing untrusted XML." ();
    r ~id:"PIT-053" ~title:"minidom/sax parse untrusted XML"
      ~cwe:776 ~severity:Rule.Medium
      ~pattern:{|xml\.(?:dom\.minidom|sax)\b|}
      ~note:"Use the defusedxml equivalents for untrusted input." ();
    r ~id:"PIT-054" ~title:"tarfile.extractall without a member filter"
      ~cwe:22 ~severity:Rule.High
      ~pattern:{|\b(\w*tar\w*)\.extractall\(([^)\n]*)\)|}
      ~suppress:{|filter\s*=|}
      ~fix:
        (Rule.Rewrite
           [ Str (Grp 1, []);
             Lit ".extractall(";
             Cond
               ( { subject = Grp 2; via = []; test = Is_empty },
                 [ Lit {|filter="data")|} ],
                 [ Str (Grp 2, []); Lit {|, filter="data")|} ] ) ])
      ~note:
        "extractall follows '..' members; pass filter=\"data\" (or validate \
         each member)." ();
    r ~id:"PIT-055" ~title:"zipfile.extractall on untrusted archives"
      ~cwe:22 ~severity:Rule.Medium
      ~pattern:{|\b\w*zip\w*\.extractall\(|}
      ~note:"Validate member names before extraction (Zip Slip)." ();
    r ~id:"PIT-056" ~title:"tempfile.mktemp is race-prone"
      ~cwe:377 ~severity:Rule.Medium
      ~pattern:{|tempfile\.mktemp\(|}
      ~fix:(Rule.Replace_template "tempfile.mkstemp(")
      ~note:"mkstemp creates the file atomically with safe permissions." ();
    r ~id:"PIT-057" ~title:"Hard-coded path under /tmp"
      ~cwe:377 ~severity:Rule.Low
      ~pattern:{|open\(\s*["']/tmp/|}
      ~note:"Use the tempfile module instead of fixed /tmp paths." ();
    r ~id:"PIT-058" ~title:"World-writable permissions"
      ~cwe:732 ~severity:Rule.High
      ~pattern:{|os\.chmod\(([^,\n]+),\s*(?:0o777|0o776|0o766|0o666|511|438)\s*\)|}
      ~fix:(Rule.Replace_template "os.chmod($1, 0o600)")
      ~note:"Grant the minimum file mode the task needs." ();
    r ~id:"PIT-059" ~title:"umask(0) removes default protections"
      ~cwe:276 ~severity:Rule.Medium
      ~pattern:{|os\.umask\(\s*0\s*\)|}
      ~fix:(Rule.Replace_template "os.umask(0o077)")
      ~note:"A permissive umask makes every created file world-accessible." ();
    r ~id:"PIT-060" ~title:"Django DEBUG enabled"
      ~cwe:215 ~severity:Rule.High
      ~pattern:{|^(\s*)DEBUG\s*=\s*True\s*$|}
      ~fix:(Rule.Replace_template "$1DEBUG = False")
      ~note:"DEBUG leaks settings and stack traces in production." ();
  ]
