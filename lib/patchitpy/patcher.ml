type application = { rule : Rule.t; line : int; before : string; after : string }

type result = {
  original : string;
  patched : string;
  applications : application list;
  imports_added : string list;
  remaining : Engine.finding list;
  rounds_used : int;
  converged : bool;
}

(* Patch-round telemetry: how patching terminates (fixpoint vs the
   round cap), how much work each round does, and what the import
   manager adds and removes — the counters behind the paper's
   convergence discussion.  All no-ops unless a sink is installed. *)
let rounds_histogram = Telemetry.Histogram.make "patcher_rounds"

let applications_per_round_histogram =
  Telemetry.Histogram.make "patcher_applications_per_round"

let patch_span = Telemetry.Histogram.make "patcher_patch_ns"
let applications_counter = Telemetry.Counter.make "patcher_applications_total"
let imports_added_counter = Telemetry.Counter.make "patcher_imports_added_total"

let imports_removed_counter =
  Telemetry.Counter.make "patcher_imports_removed_total"

let fixpoint_counter = Telemetry.Counter.make "patcher_fixpoint_total"
let round_cap_counter = Telemetry.Counter.make "patcher_round_cap_total"

(* A fix whose captures blow the matcher budget is no fix: the finding
   stays in [remaining] rather than killing the CLI or a serve worker. *)
let render_fix (rule : Rule.t) (m : Rx.m) =
  try
    match rule.Rule.fix with
    | Rule.No_fix -> None
    | Rule.Replace_template template -> Some (Rx.expand_template m template)
    | Rule.Rewrite ir -> Some (Rewrite.eval ir m)
  with Rx.Budget_exceeded _ -> None

(* One round of fixes as an edit list: every fixable, non-overlapping
   finding whose replacement differs from the matched text becomes one
   {!Edit.t}.  The whole round then materializes in a single pass
   through an edit buffer instead of one string splice per application.
   Returned edits ascend by offset; applications descend, matching the
   order the splicing patcher reported them in. *)
let apply_round_edits source findings =
  let fixable =
    List.filter (fun (f : Engine.finding) -> Rule.fixable f.Engine.rule) findings
  in
  (* Keep the first of any overlapping pair (scan order = offset order). *)
  let non_overlapping =
    List.rev
      (List.fold_left
         (fun acc (f : Engine.finding) ->
           match acc with
           | prev :: _ when f.Engine.offset < prev.Engine.stop -> acc
           | _ -> f :: acc)
         [] fixable)
  in
  let apps = ref [] and edits = ref [] in
  List.iter
    (fun (f : Engine.finding) ->
      match render_fix f.Engine.rule f.Engine.m with
      | None -> ()
      | Some replacement ->
        let before =
          String.sub source f.Engine.offset (f.Engine.stop - f.Engine.offset)
        in
        if replacement <> before then begin
          apps :=
            { rule = f.Engine.rule; line = f.Engine.line; before;
              after = replacement }
            :: !apps;
          edits :=
            { Edit.start = f.Engine.offset; stop = f.Engine.stop;
              repl = replacement }
            :: !edits
        end)
    non_overlapping;
  (List.rev !edits, !apps)

(* --- import passes --------------------------------------------------------

   Both passes see a source as lines cut at every ['\n'] — a line ends
   at its ['\n'] or at the end of the string, so a trailing newline
   leaves one empty last line — without splitting it: where a pass walks
   lines, a cursor jumps between line starts with {!Rx.index_from}
   (libc memchr), and every test reads the line's bytes in place. *)

(* The end of the line that starts at [a]: the offset of its ['\n'], or
   [String.length s] for the last line. *)
let line_end s a =
  let e = Rx.index_from s a '\n' in
  if e < 0 then String.length s else e

(* [String.trim]'s whitespace.  It is not [\s]: ['\011'] (\v) is [\s]
   but [String.trim] keeps it. *)
let is_trim_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* The bounds of [String.trim] applied to [s.[a..b)]: the first byte
   not stripped from the front, and one past the last byte not stripped
   from the back ([trim_start = trim_stop] for a blank line). *)
let trim_start s a b =
  let a = ref a in
  while !a < b && is_trim_space (String.unsafe_get s !a) do
    incr a
  done;
  !a

let trim_stop s a b =
  let b = ref b in
  while !b > a && is_trim_space (String.unsafe_get s (!b - 1)) do
    decr b
  done;
  !b

(* Whether [p] occurs in [s] at [i] and ends at or before [stop]. *)
let has_at s i ~stop p =
  let n = String.length p in
  i + n <= stop
  &&
  let j = ref 0 in
  while !j < n && String.unsafe_get s (i + !j) = String.unsafe_get p !j do
    incr j
  done;
  !j = n

(* The first offset [>= from] where the nonempty [p] occurs in [s]
   ending at or before [stop], or [-1]: memchr hunts [p]'s byte at
   [anchor] (its rarest, {!Rx.rarest_byte_offset}, for a hunt through
   code), then each candidate is verified in place. *)
let rec find_from s p ~anchor ~from ~stop =
  let n = String.length p in
  if from + n > stop then -1
  else
    let h = Rx.index_from s (from + anchor) (String.unsafe_get p anchor) in
    let i = h - anchor in
    if h < 0 || i + n > stop then -1
    else if has_at s i ~stop p then i
    else find_from s p ~anchor ~from:(i + 1) ~stop

(* Whether the trimmed line [s.[ts..te)] opens with [import] or [from]
   and a [\s] byte: the regex [^(?:import\s|from\s)], which is how the
   prologue walk tells an import-block line. *)
let opens_import s ts te =
  let keyword k =
    let i = ts + String.length k in
    has_at s ts ~stop:te k && i < te && Rx.is_space_char (String.unsafe_get s i)
  in
  keyword "import" || keyword "from"

(* Whether some line of [source] is exactly [imp] once [String.trim]
   strips it.  A trimmed line neither starts nor ends with trim
   whitespace and holds no ['\n'], so an [imp] that does is never
   present, and the empty [imp] is present when a line is blank.
   Otherwise the line [[a, e)] trims to [imp] exactly when [imp] occurs
   in it at some [p] with only trim whitespace in [[a, p)] and in
   [[p + length imp, e)]: memchr hunts [imp]'s rarest byte, and each
   occurrence walks out to its line's ends. *)
let line_trims_to source imp =
  let len = String.length source and n = String.length imp in
  let rec blank_line a =
    a <= len
    &&
    let e = line_end source a in
    trim_start source a e = e || blank_line (e + 1)
  in
  (* only trim whitespace between [i] and the line's start / end *)
  let rec blank_back i =
    i < 0
    ||
    let c = String.unsafe_get source i in
    c = '\n' || (is_trim_space c && blank_back (i - 1))
  in
  let rec blank_forward i =
    i >= len
    ||
    let c = String.unsafe_get source i in
    c = '\n' || (is_trim_space c && blank_forward (i + 1))
  in
  if n = 0 then blank_line 0
  else if
    is_trim_space imp.[0] || is_trim_space imp.[n - 1] || String.contains imp '\n'
  then false
  else begin
    let anchor = Rx.rarest_byte_offset imp in
    let rec hunt from =
      let p = find_from source imp ~anchor ~from ~stop:len in
      p >= 0 && ((blank_back (p - 1) && blank_forward (p + n)) || hunt (p + 1))
    in
    hunt 0
  end

(* The import-insertion edit: the missing import lines as one insertion
   after the shebang, module docstring and leading import block.  [None]
   when every needed import is already present. *)
let insert_import_edit source imports =
  let len = String.length source in
  let to_add =
    List.filter
      (fun imp -> not (line_trims_to source imp))
      (List.sort_uniq compare imports)
  in
  if to_add = [] then None
  else begin
    (* Insertion point: after shebang, module docstring and the leading
       import block.  [a] is the start of the line the walk is at;
       [a > len] means it walked past the last line. *)
    let a = ref 0 in
    if has_at source 0 ~stop:(line_end source 0) "#!" then
      a := line_end source 0 + 1;
    (* docstring: a line whose trimmed text opens with triple quotes.
       It closes on that line when the quotes recur after the opening
       ones; otherwise on the first later line holding them. *)
    (if !a <= len then begin
       let e = line_end source !a in
       let ts = trim_start source !a e in
       let te = trim_stop source ts e in
       let quote =
         if has_at source ts ~stop:te {|"""|} then Some {|"""|}
         else if has_at source ts ~stop:te "'''" then Some "'''"
         else None
       in
       match quote with
       | None -> ()
       | Some q ->
         if find_from source q ~anchor:0 ~from:(ts + 3) ~stop:te >= 0 then
           a := e + 1
         else begin
           let close = find_from source q ~anchor:0 ~from:(e + 1) ~stop:len in
           a := if close < 0 then len + 1 else line_end source close + 1
         end
     end);
    (* comment/blank prologue and import block *)
    let rec advance () =
      if !a <= len then begin
        let e = line_end source !a in
        let ts = trim_start source !a e in
        let te = trim_stop source ts e in
        if ts = te
           || String.unsafe_get source ts = '#'
           || opens_import source ts te
        then begin
          a := e + 1;
          advance ()
        end
      end
    in
    advance ();
    let block = String.concat "\n" to_add in
    let edit =
      if !a > len then
        (* append after the last line *)
        { Edit.start = len; stop = len; repl = "\n" ^ block }
      else { Edit.start = !a; stop = !a; repl = block ^ "\n" }
    in
    Some (edit, to_add)
  end

let insert_imports source imports =
  match insert_import_edit source imports with
  | None -> (source, [])
  | Some (edit, added) -> (Edit.apply source [ edit ], added)

(* The binding rule {|^import\s+([A-Za-z_][\w.]*)\s*$|} on the trimmed
   line [s.[ts..te)]: the root of the bound name (the part before its
   first ['.']), or [None] when the line is no binding line.  The
   rule's parts are disjoint byte classes, so it parses one way only:
   [import], a maximal run of [\s] bytes, a name that starts with a
   letter or ['_'] and is a maximal run of [\w] and ['.'] bytes, and
   nothing but [\s] bytes after it — a loop reads it in place. *)
let binding_root s ts te =
  let skip_while p i =
    let i = ref i in
    while !i < te && p (String.unsafe_get s !i) do
      incr i
    done;
    !i
  in
  if not (has_at s ts ~stop:te "import") then None
  else begin
    let name = skip_while Rx.is_space_char (ts + 6) in
    if name = ts + 6 || name = te then None
    else
      let c = String.unsafe_get s name in
      if not (Rx.is_word_char c && (c < '0' || c > '9')) then None
      else
        let stop = skip_while (fun c -> Rx.is_word_char c || c = '.') name in
        if skip_while Rx.is_space_char stop < te then None
        else
          let root = skip_while Rx.is_word_char name in
          Some (String.sub s name (root - name))
  end

(* Whether [name] — an import root, so [[A-Za-z_]\w*] — occurs as a
   whole word of [source] outside the binding lines, whose starts and
   ends ascend in [starts] and [stops].  A hit is a [name] whose
   neighbours are not {!Rx.is_word_char} bytes (or the subject edge):
   exactly a maximal run of word bytes equal to [name], which is what
   [\bname\b] finds.  An occurrence on a binding line jumps the hunt
   to that line's end. *)
let mentioned source ~starts ~stops name =
  let len = String.length source and n = String.length name in
  let anchor = Rx.rarest_byte_offset name in
  let nb = Array.length starts in
  (* [k]: the first binding line that does not end before [from] *)
  let rec hunt k from =
    let p = find_from source name ~anchor ~from ~stop:len in
    p >= 0
    &&
    let k = ref k in
    while !k < nb && stops.(!k) <= p do
      incr k
    done;
    if !k < nb && starts.(!k) <= p then hunt (!k + 1) stops.(!k)
    else
      ((p = 0 || not (Rx.is_word_char (String.unsafe_get source (p - 1))))
      && (p + n = len || not (Rx.is_word_char (String.unsafe_get source (p + n)))))
      || hunt !k (p + 1)
  in
  hunt 0 0

(* After rewriting, imports whose module the code no longer references
   are stale (e.g. "import pickle" after pickle.loads became json.loads);
   they are dropped so the patch leaves clean code behind.  Each run of
   consecutive stale lines becomes one deletion edit spanning the lines
   and their newlines (the trailing run also consumes the newline before
   it, so no dangling separator survives). *)
let stale_import_edits source =
  let len = String.length source in
  (* Binding lines, newest first: (start, end, root).  Only a line whose
     trimmed text opens with "import" can be one, so only those are
     trimmed at the back and parsed. *)
  let bindings = ref [] in
  let a = ref 0 in
  while !a <= len do
    let e = line_end source !a in
    let ts = trim_start source !a e in
    (if has_at source ts ~stop:e "import" then
       match binding_root source ts (trim_stop source ts e) with
       | Some root -> bindings := (!a, e, root) :: !bindings
       | None -> ());
    a := e + 1
  done;
  if !bindings = [] then ([], 0)
  else begin
    let bindings = Array.of_list (List.rev !bindings) in
    let starts = Array.map (fun (s, _, _) -> s) bindings in
    let stops = Array.map (fun (_, e, _) -> e) bindings in
    (* one search per distinct root *)
    let verdicts = Hashtbl.create 8 in
    let stale k =
      let _, _, root = bindings.(k) in
      match Hashtbl.find_opt verdicts root with
      | Some v -> v
      | None ->
        let v = not (mentioned source ~starts ~stops root) in
        Hashtbl.add verdicts root v;
        v
    in
    (* A run of stale lines goes on while the next binding line is stale
       and starts one past the end of this one. *)
    let n = Array.length bindings in
    let edits = ref [] and removed = ref 0 and first = ref (-1) in
    for k = 0 to n - 1 do
      if stale k then begin
        incr removed;
        if !first < 0 then first := k;
        if not (k + 1 < n && stops.(k) + 1 = starts.(k + 1) && stale (k + 1))
        then begin
          edits :=
            (if stops.(k) < len then
               { Edit.start = starts.(!first); stop = stops.(k) + 1; repl = "" }
             else if starts.(!first) > 0 then
               { Edit.start = starts.(!first) - 1; stop = len; repl = "" }
             else { Edit.start = 0; stop = len; repl = "" })
            :: !edits;
          first := -1
        end
      end
    done;
    (List.rev !edits, !removed)
  end

let default_rounds = 4

let patch ?scanner ?rules ?(rounds = default_rounds) ?(manage_imports = true)
    source =
  Telemetry.Span.record patch_span @@ fun () ->
  (* One scan plan for every fix round and the final residue scan.  An
     explicit [scanner] wins: batch callers (multi-file CLI, the serve
     worker pool) compile once and thread the plan through every file. *)
  let scanner =
    match (scanner, rules) with
    | Some scanner, _ -> scanner
    | None, None -> Engine.default_scanner ()
    | None, Some rules -> Scanner.compile rules
  in
  (* Each advance is one fix round: apply its edits, then scan the
     edited source in full (the import pass reuses it as its own closing
     round) — traced as a [Patch_round] span with the [Scan] span nested
     inside.  Rounds do not track dirty regions: a full fused scan costs
     a few microseconds per sample, less than the region bookkeeping
     (see DESIGN.md, "Patch rounds"). *)
  let advance source edits =
    Telemetry.Trace.ambient_span Telemetry.Trace.Patch_round @@ fun () ->
    Scanner.scan_state scanner (Edit.apply source edits)
  in
  (* [rev_acc] holds the applications newest-first; a single reverse at
     the end replaces the seed's quadratic [acc @ apps] per round.
     [used] counts rounds that applied at least one fix; [converged]
     tells a reached fixpoint (a round found nothing left to fix) from
     a run cut off by the round cap with fixable findings possibly
     remaining.  The final state's findings are the residue — no
     separate closing scan. *)
  let rec run st rev_acc used n =
    if n = 0 then (st, List.rev rev_acc, used, false)
    else begin
      let findings = Scanner.state_findings scanner st in
      let edits, apps = apply_round_edits (Scanner.state_source st) findings in
      if apps = [] then (st, List.rev rev_acc, used, true)
      else begin
        Telemetry.Histogram.observe applications_per_round_histogram
          (List.length apps);
        run
          (advance (Scanner.state_source st) edits)
          (List.rev_append apps rev_acc) (used + 1) (n - 1)
      end
    end
  in
  let st, applications, rounds_used, converged =
    run (Scanner.scan_state scanner source) [] 0 rounds
  in
  Telemetry.Histogram.observe rounds_histogram rounds_used;
  Telemetry.Counter.incr applications_counter ~by:(List.length applications);
  Telemetry.Counter.incr (if converged then fixpoint_counter else round_cap_counter);
  let needed_imports =
    List.concat_map (fun a -> a.rule.Rule.imports) applications
  in
  let st, imports_added =
    if applications = [] || not manage_imports then (st, [])
    else begin
      (* Both import passes share ONE scan advance: the stale deletions
         are applied first, so the insertion's prologue walk sees the
         source without them, as a sequential pipeline would. *)
      let src = Scanner.state_source st in
      let stale_edits, removed = stale_import_edits src in
      Telemetry.Counter.incr imports_removed_counter ~by:removed;
      let text, added =
        insert_imports (Edit.apply src stale_edits) needed_imports
      in
      ((if stale_edits = [] && added = [] then st
        else advance text []),
       added)
    end
  in
  Telemetry.Counter.incr imports_added_counter ~by:(List.length imports_added);
  {
    original = source;
    patched = Scanner.state_source st;
    applications;
    imports_added;
    remaining = Scanner.state_findings scanner st;
    rounds_used;
    converged;
  }

let changed r = r.patched <> r.original
