(** Phase 2: automated remediation.

    Applies each triggered rule's safe alternative in place, then inserts
    any imports the patches require at the top of the file — the
    behaviour the VS Code extension binds to its "patch" action (the
    paper uses the TextEdit/Position APIs for the same two steps). *)

type application = { rule : Rule.t; line : int; before : string; after : string }

type result = {
  original : string;
  patched : string;  (** the rewritten source *)
  applications : application list;  (** in application order *)
  imports_added : string list;
  remaining : Engine.finding list;
      (** findings still present after patching: detection-only rules and
          fixes whose replacement did not eliminate the pattern *)
  rounds_used : int;  (** fix rounds that applied at least one rewrite *)
  converged : bool;
      (** [true] when patching reached a fixpoint (a round found nothing
          fixable left); [false] when the round cap cut it off.  The
          distinction — with round counts, per-round application counts
          and import add/remove tallies — is also recorded in
          {!Telemetry} when a sink is installed. *)
}

val patch :
  ?scanner:Scanner.t ->
  ?rules:Rule.t list ->
  ?rounds:int ->
  ?manage_imports:bool ->
  string ->
  result
(** Detects and patches until no fixable finding remains (bounded number
    of [rounds], default 4, since a fix can expose or displace another
    pattern).  [scanner], when given, is the compiled plan to use and
    takes precedence over [rules] — batch callers compile once and reuse
    it across files; otherwise [rules] is compiled, or the process-wide
    default plan is used.  [manage_imports] (default [true]) controls the
    insert-required/drop-stale import pass; disabling it exists for the
    ablation study. *)

val insert_imports : string -> string list -> string * string list
(** [insert_imports src imports] adds the import lines that are not
    already present, after the shebang/docstring/import prologue.
    Returns the new source and the imports actually added. *)

val mentions : string list -> string -> bool
(** [mentions lines] indexes the words of [lines] (maximal runs of
    {!Rx.is_word_char} bytes); the returned predicate tells whether a
    name occurs as a whole word in any of them.  For names matching
    [[A-Za-z_]\w*] — every import root — this is exactly whether the
    regex [\bname\b] matches some line.  The stale-import pass uses it
    to decide which imports the rewritten code still references. *)

val changed : result -> bool
(** Whether patching modified the source at all. *)
