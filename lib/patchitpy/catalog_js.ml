(* JavaScript rule pack — the paper's stated future work ("support other
   programming languages").  The engine is language-agnostic: rules are
   lexical patterns with attached remediation, so a second language is a
   second catalog.  Ids are namespaced PIT-JS-0xx and the pack is kept
   out of {!(Catalog.all ())} (the Python tool of the paper runs exactly 85
   rules); select it with [Engine.scan ~rules:(Catalog.javascript ())]. *)

let r = Rule.make

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-JS-001" ~title:"eval() on dynamic input"
      ~cwe:95 ~severity:Rule.Critical
      ~pattern:{|\beval\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "JSON.parse($1)")
      ~note:"If the input is data, parse it; never execute it." ();
    r ~id:"PIT-JS-002" ~title:"new Function() compiles strings to code"
      ~cwe:95 ~severity:Rule.Critical
      ~pattern:{|new\s+Function\(|}
      ~note:"Equivalent to eval; redesign to avoid runtime code creation." ();
    r ~id:"PIT-JS-003" ~title:"Shell command built from template or concat"
      ~cwe:78 ~severity:Rule.High
      ~pattern:{|\bexec\(\s*(?:`[^`\n]*\$\{|["'][^"'\n]*["']\s*\+)|}
      ~note:"Use execFile with an argument array instead of a shell string." ();
    r ~id:"PIT-JS-004" ~title:"innerHTML assignment renders unescaped markup"
      ~cwe:79 ~severity:Rule.High
      ~pattern:{|\.innerHTML\s*=|}
      ~suppress:{|DOMPurify|sanitize|}
      ~fix:(Rule.Replace_template ".textContent =")
      ~note:"textContent cannot inject markup; sanitize if HTML is needed." ();
    r ~id:"PIT-JS-005" ~title:"document.write of dynamic content"
      ~cwe:79 ~severity:Rule.Medium
      ~pattern:{|document\.write\(|}
      ~note:"Build DOM nodes instead; document.write enables injection." ();
    r ~id:"PIT-JS-006" ~title:"Weak hash algorithm"
      ~cwe:327 ~severity:Rule.High
      ~pattern:{|createHash\(\s*["'](?:md5|sha1)["']\s*\)|}
      ~fix:(Rule.Replace_template {|createHash("sha256")|})
      ~note:"Use SHA-256 or stronger." ();
    r ~id:"PIT-JS-007" ~title:"Math.random() used for a security value"
      ~cwe:330 ~severity:Rule.High
      ~pattern:
        {|(\w*(?:token|secret|key|otp|nonce)\w*)\s*=\s*[^;\n]*Math\.random\(\)[^;\n]*|}
      ~fix:(Rule.Replace_template {|$1 = crypto.randomBytes(32).toString("hex")|})
      ~imports:[ {|const crypto = require("crypto");|} ]
      ~note:"Math.random is predictable; use crypto.randomBytes." ();
    r ~id:"PIT-JS-008" ~title:"TLS certificate rejection disabled"
      ~cwe:295 ~severity:Rule.High
      ~pattern:{|rejectUnauthorized\s*:\s*false|}
      ~fix:(Rule.Replace_template "rejectUnauthorized: true")
      ~note:"Never accept unverified certificates in production." ();
    r ~id:"PIT-JS-009" ~title:"TLS verification disabled process-wide"
      ~cwe:295 ~severity:Rule.High
      ~pattern:{|NODE_TLS_REJECT_UNAUTHORIZED["'\]]*\s*=\s*["']0["']|}
      ~note:"Remove the override; it disables TLS verification globally." ();
    r ~id:"PIT-JS-010" ~title:"Redirect target taken from the request"
      ~cwe:601 ~severity:Rule.Medium
      ~pattern:{|res\.redirect\(\s*req\.(?:query|params|body)|}
      ~note:"Validate redirect targets against an allowlist." ();
    r ~id:"PIT-JS-011" ~title:"SQL built from template or concatenation"
      ~cwe:89 ~severity:Rule.Critical
      ~pattern:{|\.query\(\s*(?:`[^`\n]*\$\{|["'][^"'\n]*["']\s*\+)|}
      ~note:"Use parameterized queries: query(sql, [params])." ();
    r ~id:"PIT-JS-012" ~title:"Hard-coded credential"
      ~cwe:798 ~severity:Rule.Critical
      ~pattern:{|\b(password|secret|apiKey|api_key)\s*[:=]\s*["'][^"'\n]+["']|}
      ~suppress:{|process\.env|}
      ~fix:
        (Rule.Rewrite
           Rewrite.
             [ Str (Grp 1, []);
               Cond
                 ( { subject = Whole; via = []; test = Contains ":" },
                   [ Lit ": " ],
                   [ Lit " = " ] );
               Lit "process.env.";
               Str (Grp 1, [ Uppercase ]) ])
      ~note:"Read credentials from the environment or a secret store." ();
    r ~id:"PIT-JS-013" ~title:"Deprecated unsafe Buffer constructor"
      ~cwe:20 ~severity:Rule.Medium
      ~pattern:{|new\s+Buffer\(|}
      ~fix:(Rule.Replace_template "Buffer.from(")
      ~note:"new Buffer(number) leaks uninitialized memory." ();
    r ~id:"PIT-JS-014" ~title:"World-writable permissions"
      ~cwe:732 ~severity:Rule.High
      ~pattern:{|chmod(?:Sync)?\(([^,\n]+),\s*(?:0o777|511|"777")\s*\)|}
      ~fix:
        (Rule.Rewrite
           Rewrite.[ Lit "chmod("; Str (Grp 1, []); Lit ", 0o600)" ])
      ~note:"Grant the minimum file mode the task needs." ();
    r ~id:"PIT-JS-015" ~title:"Cleartext HTTP endpoint"
      ~cwe:319 ~severity:Rule.Medium
      ~pattern:{|(fetch\(\s*["']|axios\.\w+\(\s*["'])http://|}
      ~suppress:{|localhost|127\.0\.0\.1|}
      ~fix:(Rule.Replace_template "$1https://")
      ~note:"Use HTTPS endpoints." ();
    r ~id:"PIT-JS-016" ~title:"JWT accepted with the 'none' algorithm"
      ~cwe:347 ~severity:Rule.High
      ~pattern:{|algorithms\s*:\s*\[\s*["']none["']|}
      ~note:"Never accept unsigned tokens; pin a real algorithm list." ();
  ]
