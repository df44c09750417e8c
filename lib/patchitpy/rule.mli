(** Detection/patching rules.

    A rule couples a vulnerable implementation pattern (an {!Rx} regex
    derived from the LCS pipeline of §II-A) with the remediation that
    turns the match into its safe alternative, plus the imports the safe
    alternative needs. *)

type severity = Low | Medium | High | Critical

type fix =
  | No_fix
      (** Detection-only: the weakness needs human judgement to repair
          (these rules are why the paper's repair rate trails its
          detection rate). *)
  | Replace_template of string
      (** The matched span is rewritten with an {!Rx.replace} template
          ([$1] etc. refer to the rule pattern's groups). *)
  | Rewrite of Rewrite.t
      (** Computed rewrite for fixes a template cannot express (e.g.
          turning ['%s'] placeholders into parameterized-query [?]s),
          as a declarative {!Rewrite} template so it renders to text
          that rule packs store. *)

type t = {
  id : string;  (** stable identifier, ["PIT-042"] *)
  title : string;  (** short human summary *)
  cwe : int;  (** primary CWE *)
  severity : severity;
  pattern : Rx.t;  (** the vulnerable pattern *)
  suppress : Rx.t option;
      (** when set and matching the same line, the finding is dropped —
          used to recognize already-safe variants (e.g. [shell=False]). *)
  fix : fix;
  imports : string list;
      (** import statements the fix requires, e.g.
          ["from markupsafe import escape"]. *)
  note : string;  (** remediation advice shown to the user *)
}

val make :
  id:string ->
  title:string ->
  cwe:int ->
  severity:severity ->
  pattern:string ->
  ?suppress:string ->
  ?fix:fix ->
  ?imports:string list ->
  note:string ->
  unit ->
  t
(** Compiles the patterns.  @raise Rx.Parse_error on a malformed
    pattern — rules are static data, so this is a programming error. *)

val owasp : t -> Owasp.category option
(** Category of the rule's primary CWE. *)

val severity_to_string : severity -> string

val severity_of_string : string -> (severity, string) result
(** Inverse of {!severity_to_string}. *)

val fixable : t -> bool
(** Whether the rule carries an automatic fix. *)
