(* Injection rules (OWASP A03): OS command, code, SQL, XSS, LDAP, XPath,
   template and header injection.  PIT-001 .. PIT-020. *)

let r = Rule.make

open Rewrite

(* Rewrites every "{ident}" interpolation in the matched f-string so the
   value is escaped before rendering (CWE-79); already-escaped
   interpolations pass through unchanged. *)
let escape_interpolations =
  [ Str
      ( Whole,
        [ Subst_each
            { pat = {|\{\s*([A-Za-z_][A-Za-z0-9_.()\[\]'"]*)\s*\}|};
              body =
                [ Cond
                    ( { subject = Grp 1; via = [];
                        test = Starts_with "escape(" },
                      [ Str (Whole, []) ],
                      [ Lit "{escape("; Str (Grp 1, []); Lit ")}" ] ) ] } ] )
  ]

(* Turns `.execute("... %s ..." % args)` into a parameterized query:
   placeholders become '?', args become a tuple second argument. *)
let parameterize_percent =
  [ Lit ".execute(";
    Str (Grp 1, [ Subst { pat = {|'?%s'?|}; with_ = "?" } ]);
    Lit ", ";
    Cond
      ( { subject = Grp 2; via = [ Trim ]; test = Starts_with "(" },
        [ Str (Grp 2, [ Trim ]) ],
        [ Lit "("; Str (Grp 2, [ Trim ]); Lit ",)" ] );
    Lit ")" ]

(* Turns `.execute(f"... {x} ...")` into `.execute("... ? ...", (x,))`:
   each interpolation becomes '?' (a quoted placeholder like '...{x}...'
   drops its quotes) and the interpolated expressions become the
   parameter tuple, with the 1-element form keeping its trailing comma. *)
let fstring_interp = {|\{\s*([^}]+?)\s*\}|}

let parameterize_fstring =
  let args_join =
    Str
      ( Grp 1,
        [ Join_each
            { pat = fstring_interp; body = [ Str (Grp 1, []) ]; sep = ", " }
        ] )
  in
  [ Lit {|.execute("|};
    Str
      ( Grp 1,
        [ Subst_each { pat = fstring_interp; body = [ Lit "?" ] };
          Subst { pat = {|'\?'|}; with_ = "?" } ] );
    Lit {|", |};
    Cond
      ( { subject = Grp 1; via = []; test = Min_matches (fstring_interp, 1) },
        [ Cond
            ( { subject = Grp 1; via = [];
                test = Min_matches (fstring_interp, 2) },
              [ Lit "("; args_join; Lit ")" ],
              [ Lit "("; args_join; Lit ",)" ] ) ],
        [ Lit "()" ] );
    Lit ")" ]

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-001" ~title:"os.system() enables shell command injection"
      ~cwe:78 ~severity:Rule.High
      ~pattern:{|\bos\.system\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "subprocess.run(shlex.split($1))")
      ~imports:[ "import subprocess"; "import shlex" ]
      ~note:
        "Run the command without a shell: subprocess.run(shlex.split(cmd))."
      ();
    r ~id:"PIT-002" ~title:"os.popen() enables shell command injection"
      ~cwe:78 ~severity:Rule.High
      ~pattern:{|\bos\.popen\(([^)\n]*)\)|}
      ~fix:
        (Rule.Replace_template
           "subprocess.run(shlex.split($1), capture_output=True, text=True).stdout")
      ~imports:[ "import subprocess"; "import shlex" ]
      ~note:"Capture output through subprocess.run without a shell." ();
    r ~id:"PIT-003" ~title:"subprocess invoked with shell=True"
      ~cwe:78 ~severity:Rule.High
      ~pattern:
        {|\bsubprocess\.(call|run|Popen|check_output|check_call)\(([^)\n]*)shell\s*=\s*True([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "subprocess.$1($2shell=False$3)")
      ~note:"Pass an argument list and shell=False." ();
    r ~id:"PIT-004" ~title:"os.exec*/os.spawn* family with dynamic arguments"
      ~cwe:78 ~severity:Rule.Medium
      ~pattern:{|\bos\.(?:execl|execle|execlp|execv|execve|execvp|spawnl|spawnv)\(|}
      ~note:
        "Validate the executable path and arguments; prefer subprocess with a \
         fixed argv." ();
    r ~id:"PIT-005" ~title:"eval() on dynamic input is code injection"
      ~cwe:95 ~severity:Rule.Critical
      ~pattern:{|\beval\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "ast.literal_eval($1)")
      ~imports:[ "import ast" ]
      ~note:"ast.literal_eval only evaluates literal structures." ();
    r ~id:"PIT-006" ~title:"exec() on dynamic input is code injection"
      ~cwe:95 ~severity:Rule.Critical
      ~pattern:{|\bexec\(|}
      ~note:
        "No drop-in safe replacement exists; redesign to avoid executing \
         dynamically assembled code." ();
    r ~id:"PIT-007" ~title:"SQL built with %-formatting"
      ~cwe:89 ~severity:Rule.Critical
      ~pattern:{|\.execute\(\s*(f?"[^"\n]*%s[^"\n]*")\s*%\s*([^)\n]+)\)|}
      ~fix:(Rule.Rewrite parameterize_percent)
      ~note:"Use parameterized queries: execute(sql, params)." ();
    r ~id:"PIT-008" ~title:"SQL built with an f-string"
      ~cwe:89 ~severity:Rule.Critical
      ~pattern:{|\.execute\(\s*f"([^"\n]*\{[^"\n]+\}[^"\n]*)"\s*\)|}
      ~fix:(Rule.Rewrite parameterize_fstring)
      ~note:"Use parameterized queries: execute(sql, params)." ();
    r ~id:"PIT-009" ~title:"SQL built with string concatenation"
      ~cwe:89 ~severity:Rule.Critical
      ~pattern:{|\.execute\(\s*"([^"\n]*)"\s*\+\s*([A-Za-z_][\w.\[\]'"()]*)\s*\)|}
      ~fix:
        (* Drops a trailing opening quote left in the literal ("... = '"). *)
        (Rule.Rewrite
           [ Lit {|.execute("|};
             Str (Grp 1, [ Subst { pat = {|'\s*$|}; with_ = "" } ]);
             Lit {|?", (|};
             Str (Grp 2, []);
             Lit ",))" ])
      ~note:"Use parameterized queries: execute(sql, params)." ();
    r ~id:"PIT-010" ~title:"SQL built with str.format()"
      ~cwe:89 ~severity:Rule.Critical
      ~pattern:{|\.execute\(\s*"([^"\n]*)\{\}([^"\n]*)"\s*\.format\(([^)\n]+)\)\s*\)|}
      ~fix:(Rule.Replace_template {|.execute("$1?$2", ($3,))|})
      ~note:"Use parameterized queries: execute(sql, params)." ();
    r ~id:"PIT-011" ~title:"Unescaped interpolation returned as HTML"
      ~cwe:79 ~severity:Rule.High
      ~pattern:{|return\s+f"[^"\n]*\{[^}"\n]+\}[^"\n]*"|}
      ~suppress:{|escape\(|}
      ~fix:(Rule.Rewrite escape_interpolations)
      ~imports:[ "from markupsafe import escape" ]
      ~note:"Escape user-controlled values before rendering them as HTML." ();
    r ~id:"PIT-012" ~title:"Unescaped interpolation in make_response()"
      ~cwe:79 ~severity:Rule.High
      ~pattern:{|make_response\(\s*f"[^"\n]*\{[^}"\n]+\}[^"\n]*"|}
      ~suppress:{|escape\(|}
      ~fix:(Rule.Rewrite escape_interpolations)
      ~imports:[ "from markupsafe import escape" ]
      ~note:"Escape user-controlled values before rendering them as HTML." ();
    r ~id:"PIT-013" ~title:"HTML assembled by concatenating user input"
      ~cwe:79 ~severity:Rule.High
      ~pattern:{|return\s+("<[^"\n]*")\s*\+\s*([A-Za-z_][\w.\[\]'"()]*)|}
      ~suppress:{|escape\(|}
      ~fix:(Rule.Replace_template "return $1 + escape($2)")
      ~imports:[ "from markupsafe import escape" ]
      ~note:"Escape user-controlled values before rendering them as HTML." ();
    r ~id:"PIT-014" ~title:"render_template_string with dynamic template"
      ~cwe:79 ~severity:Rule.High
      ~pattern:{|render_template_string\(\s*(?:f"|[^)\n]*\+|[^)\n]*%\s)|}
      ~note:
        "Never build templates from user input; render static templates and \
         pass values as context." ();
    r ~id:"PIT-015" ~title:"Jinja2 environment with autoescape disabled"
      ~cwe:94 ~severity:Rule.High
      ~pattern:{|Environment\(([^)\n]*)autoescape\s*=\s*False([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "Environment($1autoescape=True$2)")
      ~note:"Enable autoescape to neutralize markup in template values." ();
    r ~id:"PIT-016" ~title:"Jinja2 environment without autoescape"
      ~cwe:94 ~severity:Rule.Medium
      ~pattern:{|jinja2\.Environment\(([^)\n]*)\)|}
      ~suppress:{|autoescape\s*=|}
      ~fix:
        (Rule.Rewrite
           [ Cond
               ( { subject = Grp 1; via = []; test = Is_empty },
                 [ Lit "jinja2.Environment(autoescape=True)" ],
                 [ Lit "jinja2.Environment(";
                   Str (Grp 1, []);
                   Lit ", autoescape=True)" ] ) ])
      ~note:"Autoescape defaults to off in Jinja2; turn it on explicitly." ();
    r ~id:"PIT-017" ~title:"LDAP filter assembled from dynamic values"
      ~cwe:90 ~severity:Rule.High
      ~pattern:{|\.search(?:_s)?\([^)\n]*(?:f"[^"\n]*\{|%\s*\(|%s)|}
      ~note:
        "Escape filter values with ldap.filter.escape_filter_chars before \
         building search filters." ();
    r ~id:"PIT-018" ~title:"XPath query assembled from dynamic values"
      ~cwe:643 ~severity:Rule.High
      ~pattern:{|\.xpath\(\s*(?:f"[^"\n]*\{|"[^"\n]*"\s*(?:%|\+))|}
      ~note:"Use parameterized XPath variables instead of string building." ();
    r ~id:"PIT-019" ~title:"Template() constructed from user input (SSTI)"
      ~cwe:1336 ~severity:Rule.High
      ~pattern:{|\bTemplate\(\s*(?:f"[^"\n]*\{|[^)\n]*request\.)|}
      ~note:"Treat template source as code: never derive it from requests." ();
    r ~id:"PIT-020" ~title:"HTTP header set from raw request data"
      ~cwe:113 ~severity:Rule.Medium
      ~pattern:{|\.headers\[([^\]\n]+)\]\s*=\s*(request\.[^\n#]+?)\s*$|}
      ~suppress:{|\.replace\(|}
      ~fix:
        (Rule.Replace_template
           {|.headers[$1] = $2.replace("\r", "").replace("\n", "")|})
      ~note:"Strip CR/LF from values placed into response headers." ();
  ]
