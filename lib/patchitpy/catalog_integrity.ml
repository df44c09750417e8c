(* Software/data-integrity rules (OWASP A08): unsafe deserialization and
   untrusted code inclusion.  PIT-070 .. PIT-076. *)

let r = Rule.make

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-070" ~title:"pickle.loads on untrusted bytes executes code"
      ~cwe:502 ~severity:Rule.Critical
      ~pattern:{|pickle\.loads\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "json.loads($1)")
      ~imports:[ "import json" ]
      ~note:
        "Deserialize untrusted data with a data-only format such as JSON." ();
    r ~id:"PIT-071" ~title:"pickle.load on untrusted files executes code"
      ~cwe:502 ~severity:Rule.Critical
      ~pattern:{|pickle\.load\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "json.load($1)")
      ~imports:[ "import json" ]
      ~note:
        "Deserialize untrusted data with a data-only format such as JSON." ();
    r ~id:"PIT-072" ~title:"marshal deserialization of untrusted data"
      ~cwe:502 ~severity:Rule.High
      ~pattern:{|marshal\.loads\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "json.loads($1)")
      ~imports:[ "import json" ]
      ~note:"marshal is not safe against malicious input; use JSON." ();
    r ~id:"PIT-073" ~title:"jsonpickle.decode reconstructs arbitrary objects"
      ~cwe:502 ~severity:Rule.High
      ~pattern:{|jsonpickle\.decode\(([^)\n]*)\)|}
      ~fix:(Rule.Replace_template "json.loads($1)")
      ~imports:[ "import json" ]
      ~note:"Use plain json for untrusted payloads." ();
    r ~id:"PIT-074" ~title:"torch.load without weights_only"
      ~cwe:502 ~severity:Rule.High
      ~pattern:{|torch\.load\(([^)\n]*)\)|}
      ~suppress:{|weights_only\s*=\s*True|}
      ~fix:
        (Rule.Rewrite
           Rewrite.
             [ Cond
                 ( { subject = Grp 1; via = []; test = Is_empty },
                   [ Lit "torch.load(weights_only=True)" ],
                   [ Lit "torch.load(";
                     Str (Grp 1, []);
                     Lit ", weights_only=True)" ] ) ])
      ~note:"torch.load unpickles; restrict it to tensor data." ();
    r ~id:"PIT-075" ~title:"Downloaded content executed directly"
      ~cwe:494 ~severity:Rule.Critical
      ~pattern:{|exec\(\s*(?:urllib|requests)\.|}
      ~note:"Never execute downloaded code without integrity verification." ();
    r ~id:"PIT-076" ~title:"Module imported from request data"
      ~cwe:829 ~severity:Rule.High
      ~pattern:{|(?:__import__|importlib\.import_module)\(\s*request\.|}
      ~note:"Import targets must come from a fixed allowlist." ();
  ]
