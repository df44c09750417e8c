(* Disclosure, authentication, availability and SSRF rules (OWASP A04,
   A07, A09, A10).  PIT-077 .. PIT-085. *)

let r = Rule.make

open Rewrite

(* Redacts any {..password..} interpolation inside a logged f-string. *)
let redact_password =
  [ Str
      (Whole, [ Subst { pat = {|\{\s*\w*[Pp]assword\w*\s*\}|}; with_ = "***" } ])
  ]

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-077" ~title:"Timing-unsafe comparison of a secret"
      ~cwe:287 ~severity:Rule.Medium
      ~pattern:
        {|if\s+(\w*(?:hash|token|password|digest|hmac|signature)\w*(?:\.hexdigest\(\))?)\s*==\s*([^:\n]+):|}
      ~suppress:{|compare_digest|}
      ~fix:(Rule.Replace_template "if hmac.compare_digest($1, $2):")
      ~imports:[ "import hmac" ]
      ~note:"String == leaks timing; use hmac.compare_digest." ();
    r ~id:"PIT-078" ~title:"Password-reset token derived from the clock"
      ~cwe:640 ~severity:Rule.High
      ~pattern:{|(\w*(?:reset|token)\w*)\s*=\s*str\(\s*time\.time\(\)\s*\)|}
      ~fix:(Rule.Replace_template "$1 = secrets.token_urlsafe(32)")
      ~imports:[ "import secrets" ]
      ~note:"Reset tokens must be unguessable; use the secrets module." ();
    r ~id:"PIT-079" ~title:"Trivial password length policy"
      ~cwe:521 ~severity:Rule.Low
      ~pattern:{|len\(\s*\w*password\w*\s*\)\s*[<>=!]+\s*[0-5]\b|}
      ~note:"Enforce a meaningful minimum password length (>= 8)." ();
    r ~id:"PIT-080" ~title:"Password written to a log"
      ~cwe:532 ~severity:Rule.High
      ~pattern:{|logging\.(?:info|warning|error|debug)\(\s*f"[^"\n]*\{\s*\w*[Pp]assword\w*\s*\}[^"\n]*"|}
      ~fix:(Rule.Rewrite redact_password)
      ~note:"Never log credentials, even at debug level." ();
    r ~id:"PIT-081" ~title:"Secret printed to stdout"
      ~cwe:532 ~severity:Rule.Medium
      ~pattern:{|print\(\s*f?"[^"\n]*(?:\{\s*)?\w*[Pp]assword|}
      ~note:"Remove credential output from the program." ();
    r ~id:"PIT-082" ~title:"Exception detail returned to the client"
      ~cwe:209 ~severity:Rule.Medium
      ~pattern:{|return\s+str\(\s*(?:e|err|error|exc|exception)\w*\s*\)(\s*,\s*\d+)?|}
      ~fix:(Rule.Replace_template {|return "Internal Server Error", 500|})
      ~note:"Log the exception server-side; answer with a generic message." ();
    r ~id:"PIT-083" ~title:"Traceback returned to the client"
      ~cwe:209 ~severity:Rule.Medium
      ~pattern:{|return\s+traceback\.format_exc\(\)|}
      ~fix:(Rule.Replace_template {|return "Internal Server Error", 500|})
      ~note:"Log the traceback server-side; answer with a generic message." ();
    r ~id:"PIT-084" ~title:"Outbound request without a timeout"
      ~cwe:400 ~severity:Rule.Low
      ~pattern:{|requests\.(?:get|post|put|delete|head)\(([^)\n]*)\)|}
      ~suppress:{|timeout\s*=|}
      ~fix:
        (Rule.Rewrite
           [ Str (Whole, [ Drop_last 1 ]);
             Cond
               ( { subject = Grp 1; via = []; test = Is_empty },
                 [ Lit "timeout=10)" ],
                 [ Lit ", timeout=10)" ] ) ])
      ~note:"A hung endpoint otherwise blocks the worker forever." ();
    r ~id:"PIT-085" ~title:"Outbound request URL taken from the request"
      ~cwe:918 ~severity:Rule.High
      ~pattern:{|(?:requests\.(?:get|post)|urlopen)\(\s*request\.|}
      ~note:
        "Server-side request forgery: resolve the target against an \
         allowlist of hosts." ();
  ]
