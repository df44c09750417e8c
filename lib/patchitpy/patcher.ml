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

let render_fix (rule : Rule.t) (m : Rx.m) =
  match rule.Rule.fix with
  | Rule.No_fix -> None
  | Rule.Replace_template template -> Some (Rx.expand_template m template)
  | Rule.Rewrite ir -> Some (Rewrite.eval ir m)

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

(* Offsets of each line of [lines] in the string they were split from:
   [starts.(i)] is where 0-based line [i] begins. *)
let line_starts_of lines =
  let n = Array.length lines in
  let starts = Array.make (max n 1) 0 in
  for i = 1 to n - 1 do
    starts.(i) <- starts.(i - 1) + String.length lines.(i - 1) + 1
  done;
  starts

let import_line_rx = Rx.compile {|^(?:import\s|from\s)|}

(* The import-insertion edit: the missing import lines as one insertion
   after the shebang, module docstring and leading import block.  [None]
   when every needed import is already present. *)
let insert_import_edit source imports =
  let lines = String.split_on_char '\n' source in
  let existing line = List.exists (fun l -> String.trim l = line) lines in
  (* dedupe first: [imports] holds one entry per application, and each
     [existing] probe walks every line *)
  let to_add =
    List.filter (fun imp -> not (existing imp)) (List.sort_uniq compare imports)
  in
  if to_add = [] then None
  else begin
    (* Insertion point: after shebang, module docstring and the leading
       import block. *)
    let arr = Array.of_list lines in
    let n = Array.length arr in
    let i = ref 0 in
    let peek j = if j < n then Some arr.(j) else None in
    (match peek !i with
    | Some l when String.length l >= 2 && String.sub l 0 2 = "#!" -> incr i
    | Some _ | None -> ());
    (* docstring: a line starting with triple quotes; skip to its end *)
    (match peek !i with
    | Some l ->
      let t = String.trim l in
      let quote =
        if String.length t >= 3 && String.sub t 0 3 = "\"\"\"" then Some "\"\"\""
        else if String.length t >= 3 && String.sub t 0 3 = "'''" then Some "'''"
        else None
      in
      (match quote with
      | None -> ()
      | Some q ->
        let count_q s =
          let rec go from acc =
            match
              if from + 3 <= String.length s then
                Some (String.sub s from 3 = q)
              else None
            with
            | None -> acc
            | Some true -> go (from + 3) (acc + 1)
            | Some false -> go (from + 1) acc
          in
          go 0 0
        in
        if count_q t >= 2 then incr i (* one-line docstring *)
        else begin
          let rec fwd j =
            if j >= n then i := n
            else if count_q arr.(j) >= 1 then i := j + 1
            else fwd (j + 1)
          in
          fwd (!i + 1)
        end)
    | None -> ());
    (* comment/blank prologue and import block *)
    let rec advance () =
      match peek !i with
      | Some l ->
        let t = String.trim l in
        if t = "" || (String.length t > 0 && t.[0] = '#')
           || Rx.matches import_line_rx t
        then begin
          incr i;
          advance ()
        end
      | None -> ()
    in
    advance ();
    let block = String.concat "\n" to_add in
    let edit =
      if !i >= n then
        (* append after the last line *)
        let len = String.length source in
        { Edit.start = len; stop = len; repl = "\n" ^ block }
      else
        let off = (line_starts_of arr).(!i) in
        { Edit.start = off; stop = off; repl = block ^ "\n" }
    in
    Some (edit, to_add)
  end

let insert_imports source imports =
  match insert_import_edit source imports with
  | None -> (source, [])
  | Some (edit, added) -> (Edit.apply source [ edit ], added)

(* After rewriting, imports whose module the code no longer references
   are stale (e.g. "import pickle" after pickle.loads became json.loads);
   they are dropped so the patch leaves clean code behind.  Each run of
   consecutive stale lines becomes one deletion edit spanning the lines
   and their newlines (the trailing run also consumes the newline before
   it, so no dangling separator survives). *)
let import_binding_rx = Rx.compile {|^import\s+([A-Za-z_][\w.]*)\s*$|}

(* The whole-word index of [lines]: every maximal run of
   [A-Za-z0-9_] bytes.  For a name matching [A-Za-z_]\w*, an occurrence
   with a word boundary on both sides is exactly such a run (\w and \b
   are ASCII-only in [Rx]), so one membership test per name replaces a
   \bname\b regex sweep over every line. *)
let mentions lines =
  let words = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let n = String.length line in
      let i = ref 0 in
      while !i < n do
        if Rx.is_word_char (String.unsafe_get line !i) then begin
          let start = !i in
          while !i < n && Rx.is_word_char (String.unsafe_get line !i) do
            incr i
          done;
          Hashtbl.replace words (String.sub line start (!i - start)) ()
        end
        else incr i
      done)
    lines;
  fun name -> Hashtbl.mem words name

let stale_import_edits source =
  let lines = String.split_on_char '\n' source in
  let binding_of line =
    let t = String.trim line in
    match Rx.exec import_binding_rx t with
    | Some m ->
      let full = Option.value (Rx.group m 1) ~default:"" in
      let root =
        match String.index_opt full '.' with
        | Some i -> String.sub full 0 i
        | None -> full
      in
      Some root
    | None -> None
  in
  (* Classify each line once; the word index then covers the non-import
     lines only, and is built only when some line binds an import. *)
  let bindings = List.map (fun line -> (line, binding_of line)) lines in
  let used =
    lazy
      (mentions
         (List.filter_map
            (fun (line, binding) -> if binding = None then Some line else None)
            bindings))
  in
  let stale =
    Array.of_list
      (List.map
         (fun (_, binding) ->
           match binding with
           | Some name -> not (Lazy.force used name)
           | None -> false)
         bindings)
  in
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let starts = line_starts_of arr in
  let len = String.length source in
  let edits = ref [] and removed = ref 0 in
  let j = ref 0 in
  while !j < n do
    if stale.(!j) then begin
      let a = !j in
      while !j < n && stale.(!j) do
        incr j;
        incr removed
      done;
      let b = !j - 1 in
      let e =
        if b < n - 1 then
          { Edit.start = starts.(a); stop = starts.(b + 1); repl = "" }
        else if a > 0 then
          { Edit.start = starts.(a) - 1; stop = len; repl = "" }
        else { Edit.start = 0; stop = len; repl = "" }
      in
      edits := e :: !edits
    end
    else incr j
  done;
  (List.rev !edits, !removed)

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
  let advance st edits =
    Telemetry.Trace.ambient_span Telemetry.Trace.Patch_round @@ fun () ->
    Scanner.scan_state scanner (Edit.apply (Scanner.state_source st) edits)
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
        run (advance st edits) (List.rev_append apps rev_acc) (used + 1) (n - 1)
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
      (* Both import passes fold into ONE scan advance: the stale
         deletions are computed on the current source, the insertion
         point on the string with deletions applied (so the prologue
         walk sees what the sequential pipeline saw), and the insert
         edit is then mapped back through the deletions so all edits
         share the current state's coordinates.  Byte-identical to
         applying the two passes sequentially, at half the re-scans. *)
      let src = Scanner.state_source st in
      let stale_edits, removed = stale_import_edits src in
      Telemetry.Counter.incr imports_removed_counter ~by:removed;
      let deleted =
        if stale_edits = [] then src else Edit.apply src stale_edits
      in
      let insert, added =
        match insert_import_edit deleted needed_imports with
        | None -> ([], [])
        | Some (edit, added) ->
          (* preimage of the insertion offset through the deletions: the
             offset in [src] that lands where [edit.start] is in
             [deleted] (at a collapsed deletion, its start — the insert
             then sorts before the deletion and yields the same bytes) *)
          let rec back shift = function
            | [] -> edit.Edit.start - shift
            | (e : Edit.t) :: rest ->
              if e.Edit.start + shift < edit.Edit.start then
                back (shift + Edit.delta e) rest
              else edit.Edit.start - shift
          in
          let p = back 0 stale_edits in
          ([ { edit with Edit.start = p; stop = p } ], added)
      in
      let combined =
        List.sort
          (fun (a : Edit.t) (b : Edit.t) ->
            compare (a.Edit.start, a.Edit.stop) (b.Edit.start, b.Edit.stop))
          (stale_edits @ insert)
      in
      ((if combined = [] then st else advance st combined), added)
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
