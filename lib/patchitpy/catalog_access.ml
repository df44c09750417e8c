(* Broken-access-control rules (OWASP A01): path traversal, unrestricted
   upload, open redirect, mass assignment, missing authentication.
   PIT-061 .. PIT-069. *)

let r = Rule.make

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-061" ~title:"File opened from raw request data"
      ~cwe:22 ~severity:Rule.High
      ~pattern:{|open\(\s*(request\.[\w.\[\]'"()]+)\s*[,)]|}
      ~suppress:{|secure_filename|basename|}
      ~fix:
        (Rule.Rewrite
           Rewrite.
             [ Lit "open(secure_filename(";
               Str (Grp 1, []);
               Lit ")";
               Cond
                 ( { subject = Whole; via = []; test = Ends_with ")" },
                   [ Lit ")" ],
                   [ Lit "," ] ) ])
      ~imports:[ "from werkzeug.utils import secure_filename" ]
      ~note:"Sanitize request-supplied file names before filesystem use." ();
    r ~id:"PIT-062" ~title:"Path joined with raw request data"
      ~cwe:22 ~severity:Rule.High
      ~pattern:{|os\.path\.join\(([^,\n]+),\s*(request\.[\w.\[\]'"()]+)\s*\)|}
      ~suppress:{|secure_filename|}
      ~fix:(Rule.Replace_template "os.path.join($1, secure_filename($2))")
      ~imports:[ "from werkzeug.utils import secure_filename" ]
      ~note:"Sanitize request-supplied path segments (directory traversal)." ();
    r ~id:"PIT-063" ~title:"Upload saved under its client-chosen name (joined)"
      ~cwe:434 ~severity:Rule.High
      ~pattern:{|(\.save\(\s*os\.path\.join\([^,\n]+,\s*)(\w+\.filename)(\s*\)\s*\))|}
      ~suppress:{|secure_filename|}
      ~fix:(Rule.Replace_template "$1secure_filename($2)$3")
      ~imports:[ "from werkzeug.utils import secure_filename" ]
      ~note:"Never trust the client's filename; sanitize and restrict type." ();
    r ~id:"PIT-064" ~title:"Upload saved under its client-chosen name"
      ~cwe:434 ~severity:Rule.High
      ~pattern:{|\.save\(\s*(\w+\.filename)\s*\)|}
      ~suppress:{|secure_filename|}
      ~fix:(Rule.Replace_template ".save(secure_filename($1))")
      ~imports:[ "from werkzeug.utils import secure_filename" ]
      ~note:"Never trust the client's filename; sanitize and restrict type." ();
    r ~id:"PIT-065" ~title:"Redirect target taken from the request"
      ~cwe:601 ~severity:Rule.Medium
      ~pattern:{|redirect\(\s*request\.(?:args|form|values)|}
      ~note:
        "Validate redirect targets against an allowlist of local paths." ();
    r ~id:"PIT-066" ~title:"send_file path taken from the request"
      ~cwe:22 ~severity:Rule.High
      ~pattern:{|send_file\(\s*request\.|}
      ~note:"Use send_from_directory with a fixed base directory." ();
    r ~id:"PIT-067" ~title:"Mass assignment from request payload"
      ~cwe:915 ~severity:Rule.Medium
      ~pattern:{|\(\s*\*\*request\.(?:form|json|args)\b|}
      ~note:"Copy only an explicit allowlist of fields from the request." ();
    r ~id:"PIT-068" ~title:"Admin route without authentication decorator"
      ~cwe:306 ~severity:Rule.High
      ~pattern:{|(@app\.route\(["']/admin[^)\n]*\)\s*\n)(def\s+\w+)|}
      ~suppress:{|login_required|}
      ~fix:(Rule.Replace_template "$1@login_required\n$2")
      ~imports:[ "from flask_login import login_required" ]
      ~note:"Protect administrative routes with an authentication check." ();
    r ~id:"PIT-069" ~title:"Authorization enforced with assert"
      ~cwe:703 ~severity:Rule.Medium
      ~pattern:{|assert\s+[\w.]*(?:user|auth|admin|logged|permission)|}
      ~note:
        "Asserts vanish under python -O; raise an explicit error instead." ();
  ]
