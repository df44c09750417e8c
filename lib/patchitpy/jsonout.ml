(* Every document is written into one [Buffer]: each writer below
   appends its piece in place, so no intermediate string is built per
   value, member or array.  Strings are escaped by runs: the bytes
   between two escapable ones go in with one [Buffer.add_substring]. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20
let hex = "0123456789abcdef"

let add_escaped b s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      if i > !run then Buffer.add_substring b s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
        (* the other control bytes, as \u00XX *)
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex.[Char.code c lsr 4];
        Buffer.add_char b hex.[Char.code c land 15]);
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring b s !run (n - !run)

let escape_string s =
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 16) in
    add_escaped b s;
    Buffer.contents b
  end

let add_str b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let add_int b n = Buffer.add_string b (string_of_int n)
let add_bool b v = Buffer.add_string b (if v then "true" else "false")

(* Object members.  [first b k] opens an object with member [k];
   [next b k] starts each further member; [close b] ends the object.
   Keys are constants that need no escaping. *)
let first b k =
  Buffer.add_string b "{\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":"

let next b k =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":"

let close b = Buffer.add_char b '}'

let add_list b add items =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    items;
  Buffer.add_char b ']'

let add_finding b (f : Engine.finding) =
  let r = f.Engine.rule in
  first b "rule";
  add_str b r.Rule.id;
  next b "title";
  add_str b r.Rule.title;
  next b "cwe";
  add_int b r.Rule.cwe;
  next b "cweLabel";
  add_str b (Cwe.label r.Rule.cwe);
  next b "owasp";
  (match Rule.owasp r with
  | Some c -> add_str b (Owasp.short c)
  | None -> Buffer.add_string b "null");
  next b "severity";
  add_str b (Rule.severity_to_string r.Rule.severity);
  next b "line";
  add_int b f.Engine.line;
  next b "column";
  add_int b f.Engine.column;
  next b "snippet";
  add_str b f.Engine.snippet;
  next b "fixable";
  add_bool b (Rule.fixable r);
  next b "advice";
  add_str b r.Rule.note;
  close b

let add_warning b = function
  | Scanner.Budget_exhausted rule ->
    first b "type";
    add_str b "budgetExhausted";
    next b "rule";
    add_str b rule;
    close b

let findings_to_json ?(warnings = []) ~file findings =
  let b = Buffer.create 1024 in
  first b "file";
  add_str b file;
  next b "findings";
  add_list b add_finding findings;
  next b "warnings";
  add_list b add_warning warnings;
  next b "summary";
  first b "total";
  add_int b (List.length findings);
  next b "fixable";
  add_int b
    (List.length
       (List.filter
          (fun (f : Engine.finding) -> Rule.fixable f.Engine.rule)
          findings));
  next b "cwes";
  add_list b add_int (Engine.distinct_cwes findings);
  close b;
  close b;
  Buffer.contents b

let add_application b (a : Patcher.application) =
  first b "rule";
  add_str b a.Patcher.rule.Rule.id;
  next b "line";
  add_int b a.Patcher.line;
  next b "before";
  add_str b a.Patcher.before;
  next b "after";
  add_str b a.Patcher.after;
  close b

let patch_to_json ~file (r : Patcher.result) =
  let b = Buffer.create (String.length r.Patcher.patched + 1024) in
  first b "file";
  add_str b file;
  next b "changed";
  add_bool b (Patcher.changed r);
  next b "patched";
  add_str b r.Patcher.patched;
  next b "edits";
  add_list b add_application r.Patcher.applications;
  next b "importsAdded";
  add_list b add_str r.Patcher.imports_added;
  next b "remaining";
  add_list b add_finding r.Patcher.remaining;
  close b;
  Buffer.contents b

(* --- SARIF 2.1.0 ---------------------------------------------------------- *)

let sarif_level (severity : Rule.severity) =
  match severity with
  | Rule.Low -> "note"
  | Rule.Medium -> "warning"
  | Rule.High | Rule.Critical -> "error"

(* [{"text": s}], the SARIF message shape *)
let add_text b s =
  first b "text";
  add_str b s;
  close b

let add_sarif_rule b (r : Rule.t) =
  first b "id";
  add_str b r.Rule.id;
  next b "name";
  add_str b r.Rule.title;
  next b "shortDescription";
  add_text b r.Rule.title;
  next b "fullDescription";
  add_text b r.Rule.note;
  next b "properties";
  first b "cwe";
  add_str b (Cwe.label r.Rule.cwe);
  next b "owasp";
  (match Rule.owasp r with
  | Some c -> add_str b (Owasp.name c)
  | None -> Buffer.add_string b "null");
  next b "fixable";
  add_bool b (Rule.fixable r);
  close b;
  next b "defaultConfiguration";
  first b "level";
  add_str b (sarif_level r.Rule.severity);
  close b;
  close b

let add_sarif_result b (file, (f : Engine.finding)) =
  let r = f.Engine.rule in
  first b "ruleId";
  add_str b r.Rule.id;
  next b "level";
  add_str b (sarif_level r.Rule.severity);
  next b "message";
  add_text b (Printf.sprintf "%s (%s)" r.Rule.title (Cwe.label r.Rule.cwe));
  next b "locations";
  Buffer.add_char b '[';
  first b "physicalLocation";
  first b "artifactLocation";
  first b "uri";
  add_str b file;
  close b;
  next b "region";
  first b "startLine";
  add_int b f.Engine.line;
  next b "startColumn";
  add_int b (f.Engine.column + 1);
  next b "snippet";
  add_text b f.Engine.snippet;
  close b;
  close b;
  close b;
  Buffer.add_char b ']';
  close b

let to_sarif ?(rules = Catalog.all ()) scans =
  let results =
    List.concat_map
      (fun (file, findings) -> List.map (fun f -> (file, f)) findings)
      scans
  in
  let b = Buffer.create 4096 in
  first b "version";
  add_str b "2.1.0";
  next b "$schema";
  add_str b "https://json.schemastore.org/sarif-2.1.0.json";
  next b "runs";
  Buffer.add_char b '[';
  first b "tool";
  first b "driver";
  first b "name";
  add_str b "PatchitPy";
  next b "version";
  add_str b "1.0.0";
  next b "informationUri";
  add_str b "https://github.com/dessertlab/PatchitPy";
  next b "rules";
  add_list b add_sarif_rule rules;
  close b;
  close b;
  next b "results";
  add_list b add_sarif_result results;
  close b;
  Buffer.add_char b ']';
  close b;
  Buffer.contents b
