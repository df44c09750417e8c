type severity = Low | Medium | High | Critical

type fix =
  | No_fix
  | Replace_template of string
  | Rewrite of Rewrite.t

type t = {
  id : string;
  title : string;
  cwe : int;
  severity : severity;
  pattern : Rx.t;
  suppress : Rx.t option;
  fix : fix;
  imports : string list;
  note : string;
}

let make ~id ~title ~cwe ~severity ~pattern ?suppress ?(fix = No_fix)
    ?(imports = []) ~note () =
  {
    id;
    title;
    cwe;
    severity;
    pattern = Rx.compile pattern;
    suppress = Option.map Rx.compile suppress;
    fix;
    imports;
    note;
  }

let owasp t = Owasp.of_cwe t.cwe

let severity_to_string = function
  | Low -> "LOW"
  | Medium -> "MEDIUM"
  | High -> "HIGH"
  | Critical -> "CRITICAL"

let severity_of_string = function
  | "LOW" -> Ok Low
  | "MEDIUM" -> Ok Medium
  | "HIGH" -> Ok High
  | "CRITICAL" -> Ok Critical
  | other -> Error (Printf.sprintf "unknown severity %S" other)

let fixable t = match t.fix with No_fix -> false | Replace_template _ | Rewrite _ -> true
