(* Backtracking matcher over the Rx_ast tree.

   The matcher is written in continuation-passing style: [run node pos k]
   attempts to match [node] starting at offset [pos] and calls [k pos']
   for every way the node can match; [k] returns [true] to accept.  Group
   spans are recorded in a mutable array and restored on backtrack.  A step
   budget guards against catastrophic backtracking and raises
   [Budget_exceeded].  A trip takes a pattern with nested or stacked
   repetitions and a subject that drives them: [(.*a){20}] over ["ab"]
   repeated 40 times trips it, and user rule files may carry any
   pattern. *)

exception Budget_exceeded of string

type result = { m_start : int; m_stop : int; m_groups : (int * int) option array }

let default_budget = 2_000_000

let at_word_boundary subject pos =
  let len = String.length subject in
  let before = pos > 0 && Rx_ast.is_word_char subject.[pos - 1] in
  let after = pos < len && Rx_ast.is_word_char subject.[pos] in
  before <> after

(* Attempts a match of [node] anchored at [start].  Returns the end offset
   of the leftmost match found under the usual greedy/lazy preferences.
   [steps_acc], when given, accumulates the steps this attempt consumed
   (including attempts cut short by the budget) — the telemetry hook
   behind per-rule backtracking cost.  The budget itself stays
   per-attempt, so accounting never changes matching semantics.

   [cap], when given, is an absolute ceiling on the accumulator itself:
   the attempt raises [Budget_exceeded] once [!steps] passes [cap],
   whatever the per-attempt budget allows.  It is folded into the
   per-attempt bound below, so enforcing it costs nothing on the tick
   path; [Rx.with_step_deadline] uses it to spread one cumulative step
   allowance across every attempt of every search of a request. *)
let match_at ?(budget = default_budget) ?(cap = max_int) ?steps_acc node
    ngroups subject start =
  let len = String.length subject in
  let groups = Array.make (ngroups + 1) None in
  (* With an accumulator the attempt ticks it directly — no per-attempt
     flush on the search loop's hot path — and the budget is enforced
     relative to the attempt's starting value, so accounting never
     changes matching semantics (the budget stays per attempt). *)
  let steps = match steps_acc with Some acc -> acc | None -> ref 0 in
  let base = !steps in
  (* steps - base > budget' triggers exactly at min (base + budget) cap:
     both the per-attempt budget and the absolute cap in the one
     existing comparison. *)
  let budget = if cap - base < budget then cap - base else budget in
  let tick () =
    incr steps;
    if !steps - base > budget then
      raise (Budget_exceeded "regex step budget exceeded")
  in
  let rec run node pos k =
    tick ();
    match node with
    | Rx_ast.Empty -> k pos
    | Rx_ast.Char c -> pos < len && subject.[pos] = c && k (pos + 1)
    | Rx_ast.Any -> pos < len && subject.[pos] <> '\n' && k (pos + 1)
    | Rx_ast.Class cls -> pos < len && Rx_ast.class_matches cls subject.[pos] && k (pos + 1)
    | Rx_ast.Seq nodes ->
      let rec seq nodes pos k =
        match nodes with
        | [] -> k pos
        | n :: rest -> run n pos (fun pos' -> seq rest pos' k)
      in
      seq nodes pos k
    | Rx_ast.Alt branches ->
      List.exists (fun branch -> run branch pos k) branches
    | Rx_ast.Group (idx, inner) ->
      let saved = groups.(idx) in
      let ok =
        run inner pos (fun pos' ->
            groups.(idx) <- Some (pos, pos');
            k pos')
      in
      if not ok then groups.(idx) <- saved;
      ok
    | Rx_ast.Rep (inner, min, max, greed) -> rep inner min max greed pos k
    | Rx_ast.Bol -> (pos = 0 || subject.[pos - 1] = '\n') && k pos
    | Rx_ast.Eol -> (pos = len || subject.[pos] = '\n') && k pos
    | Rx_ast.Eos -> pos = len && k pos
    | Rx_ast.Wordb -> at_word_boundary subject pos && k pos
    | Rx_ast.Nwordb -> (not (at_word_boundary subject pos)) && k pos
    | Rx_ast.Backref idx -> (
      match groups.(idx) with
      | None -> k pos (* unset group matches the empty string, as in Python *)
      | Some (gs, ge) ->
        let glen = ge - gs in
        pos + glen <= len
        && String.sub subject pos glen = String.sub subject gs glen
        && k (pos + glen))
  and rep inner min max greed pos k =
    let within count = match max with None -> true | Some m -> count < m in
    (* [go count pos] has already matched [count] copies ending at [pos]. *)
    let rec go count pos k =
      tick ();
      match greed with
      | Rx_ast.Greedy ->
        (within count
        && run inner pos (fun pos' ->
               (* Zero-width progress guard: stop expanding when the body
                  matched the empty string, which would loop forever.  An
                  empty iteration also satisfies any outstanding [min]:
                  the body just matched empty here, so every remaining
                  mandatory copy can too — Python's "attempt an empty
                  repetition once" rule. *)
               if pos' = pos then k pos'
               else go (count + 1) pos' k))
        || (count >= min && k pos)
      | Rx_ast.Lazy ->
        (count >= min && k pos)
        || within count
           && run inner pos (fun pos' ->
                  if pos' = pos then k pos' else go (count + 1) pos' k)
    in
    go 0 pos k
  in
  let stop = ref (-1) in
  let accepted =
    run node start (fun pos ->
        stop := pos;
        true)
  in
  if accepted then Some { m_start = start; m_stop = !stop; m_groups = Array.copy groups }
  else None

(* Anchored full match: accepts only when the whole subject is consumed
   (Python's fullmatch) — the matcher backtracks into other alternatives
   if the preferred one stops short. *)
let match_whole ?(budget = default_budget) ?cap ?steps_acc node ngroups
    subject =
  let len = String.length subject in
  match
    match_at ~budget ?cap ?steps_acc
      (Rx_ast.Seq [ node; Rx_ast.Eos ])
      ngroups subject 0
  with
  | Some r -> r.m_stop = len
  | None -> false

(* Leftmost search: tries every start offset from [pos].

   [first_bytes], when given, is a 256-slot table of the bytes a match
   can start with — derived by the caller from the pattern, and only
   passed for patterns that cannot match the empty string.  [bol_only]
   asserts every match starts at a line start.  Both let the loop skip
   start offsets without paying a [match_at] attempt (and its groups
   allocation); soundness of the derivation makes the skip invisible. *)
let search ?budget ?cap ?steps_acc ?first_bytes ?(bol_only = false) node
    ngroups subject pos =
  let len = String.length subject in
  let can_try s =
    (not bol_only || s = 0 || String.unsafe_get subject (s - 1) = '\n')
    && (match first_bytes with
       | None -> true
       | Some fb ->
         (* a non-empty match cannot start at end-of-subject *)
         s < len
         && Bytes.unsafe_get fb (Char.code (String.unsafe_get subject s))
            <> '\000')
  in
  let rec loop start =
    if start > len then None
    else if not (can_try start) then loop (start + 1)
    else
      match match_at ?budget ?cap ?steps_acc node ngroups subject start with
      | Some _ as r -> r
      | None -> loop (start + 1)
  in
  if pos < 0 then invalid_arg "Rx: negative position" else loop pos
