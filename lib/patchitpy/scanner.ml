type finding = {
  rule : Rule.t;
  line : int;
  column : int;
  offset : int;
  stop : int;
  snippet : string;
  m : Rx.m;
}

type warning = Budget_exhausted of string

(* The fused-tier slot of a plan.  It defers the expensive step —
   fusing the whole catalog into one tagged DFA — to first use,
   because plans are compiled (and packs loaded) in processes that may
   never scan; and it is an [Atomic] because serve workers share one
   plan across domains.  [F_off] pins the plan to the per-rule path
   and is never overwritten — it is how [per_rule_tier] copies (the
   differential tests' reference plans) stay fused-free. *)
type fused_tier =
  | F_off  (* per-rule path forced; never upgraded *)
  | F_pending  (* fuse the plan's rules on first scan *)
  | F_ready of Rx.fused
  | F_none  (* fusing ran and hosted nothing *)

(* [rules] is the plan's rule array in compilation order (the
   reporting tie-break).  Compile-built plans hold it directly;
   [deferred] plans build it on first use through an [Rx.once] cell —
   one plan is shared across serve worker domains, and concurrent
   forcing of a [lazy] is unsafe.  Nothing short of a scan forces it,
   and a scan's fuse needs every rule anyway. *)
type t = {
  rules : unit -> Rule.t array;
  tele : Telemetry.Rules.def;  (* per-rule telemetry registration *)
  fused : fused_tier Atomic.t;
}

(* Plan compilation is the expensive setup step callers are expected to
   amortize (one plan across a batch, or one per daemon).  The counter
   lets a test assert the amortization actually happens. *)
let compiles_counter = Telemetry.Counter.make "scanner_compiles_total"

let compile rule_list =
  Telemetry.Counter.incr compiles_counter;
  let rules = Array.of_list rule_list in
  {
    rules = (fun () -> rules);
    tele =
      Telemetry.Rules.define (Array.map (fun (r : Rule.t) -> r.Rule.id) rules);
    fused = Atomic.make F_pending;
  }

let deferred ~ids build =
  {
    rules = Rx.once build;
    tele = Telemetry.Rules.define ids;
    fused = Atomic.make F_pending;
  }

let telemetry_def t = t.tele

let rules t = Array.to_list (t.rules ())

(* Forces the fused tier.  Concurrent first scans may both fuse; the
   CAS winner is served from then on. *)
let rec fused_machine t =
  match Atomic.get t.fused with
  | F_off | F_none -> None
  | F_ready f -> Some f
  | F_pending ->
    let patterns = Array.map (fun (r : Rule.t) -> r.Rule.pattern) (t.rules ()) in
    let next =
      match Rx.Fused.compile patterns with Some f -> F_ready f | None -> F_none
    in
    if Atomic.compare_and_set t.fused F_pending next then
      match next with F_ready f -> Some f | _ -> None
    else fused_machine t

let per_rule_tier t = { t with fused = Atomic.make F_off }

(* The text window a suppress pattern is evaluated over: the lines the
   match spans, extended by one line on each side. *)
let context_window source start stop =
  let len = String.length source in
  let line_start i =
    let rec back j = if j > 0 && source.[j - 1] <> '\n' then back (j - 1) else j in
    back (min i len)
  in
  let line_end i =
    let rec fwd j = if j < len && source.[j] <> '\n' then fwd (j + 1) else j in
    fwd (max 0 (min i len))
  in
  let w_start = line_start (max 0 (line_start start - 1)) in
  let w_end = line_end (min len (line_end stop + 1)) in
  String.sub source w_start (w_end - w_start)

let one_line s =
  let s = String.trim s in
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i ^ " ..."
  | None -> s

module B = Telemetry.Rules

(* --- fused-tier dispatch ---------------------------------------------- *)

(* The fused pass answers "does the full pattern match somewhere" for
   every hosted rule in one traversal of the source; it is the plan's
   only rule filter.  Counters: [candidates] counts rules the fused
   pass flagged, [confirms] counts the per-rule sweeps those flags
   triggered, [fallbacks] counts subjects where the fused cache
   thrashed and the scan swept every rule instead. *)
let fused_candidates_counter =
  Telemetry.Counter.make "scanner_fused_candidates_total"

let fused_confirms_counter =
  Telemetry.Counter.make "scanner_fused_confirms_total"

let fused_fallbacks_counter =
  Telemetry.Counter.make "scanner_fused_fallbacks_total"

(* One fused pass over [source]: each rule's last-flag bound, or
   [None] when the tier is off, hosts nothing, or bailed on this
   subject (cache thrash).  Never affects results — [None] simply means
   "sweep every rule in full". *)
let fused_bounds t source =
  match fused_machine t with
  | None -> None
  | Some f -> (
    match Rx.Fused.run f source with
    | bounds ->
      if Telemetry.enabled () then begin
        let flagged = ref 0 in
        Array.iter (fun b -> if b >= 0 then incr flagged) bounds;
        if !flagged > 0 then
          Telemetry.Counter.incr fused_candidates_counter ~by:!flagged
      end;
      Some (f, bounds)
    | exception Rx.Fused.Bail ->
      Telemetry.Counter.incr fused_fallbacks_counter;
      None)

(* How far rule [i]'s per-rule sweep must look given the fused verdict:
   [max_int] (the whole source) for unhosted rules and after a bail,
   [-1] (no sweep: the rule provably has no match) for an unflagged
   hosted rule, and otherwise the rule's last flag, which no match
   start exceeds — so fencing the sweep there cannot change results. *)
let fused_until fbounds i =
  match fbounds with
  | None -> max_int
  | Some (f, bounds) -> if Rx.Fused.is_hosted f i then bounds.(i) else max_int

(* --- scan states ------------------------------------------------------ *)

(* A raw match: one [Rx.find_all] result with its suppression verdict. *)
type raw = { raw_suppressed : bool; raw_m : Rx.m }

type state = {
  st_source : string;
  st_index : Line_index.t Lazy.t;
  st_raw : raw list array;  (* per rule, ascending by match start *)
  st_warnings : warning list;
}

let state_source st = st.st_source

(* The full scan, producing a [state].  Semantics are the seed engine's:
   suppress windows are the matched lines ±1, a rule that exhausts its
   backtracking budget is skipped with a warning, and per-rule telemetry
   is recorded when a sink is installed. *)
let scan_state t source =
  Telemetry.Trace.ambient_span Telemetry.Trace.Scan @@ fun () ->
  let fbounds = fused_bounds t source in
  let confirms = ref 0 in
  let rules = t.rules () in
  let nrules = Array.length rules in
  let raws = Array.make nrules [] in
  (* One branch when telemetry is off; with a sink installed, the block
     is fetched once per scan and every per-rule statistic is a dense
     array store by rule index. *)
  let block =
    match Telemetry.installed () with
    | None -> None
    | Some sink ->
      let b = B.block sink t.tele in
      b.B.scans <- b.B.scans + 1;
      Some b
  in
  let warnings = ref [] in
  (* Chained timestamps: one clock read per swept rule — each rule's
     end time is the next one's start, since nothing happens between
     swept rules.  Raw ticks, not ns: the block is reported through
     [Telemetry.Report], which converts at collection time, and a tick
     read is several times cheaper than the monotonic clock. *)
  let t_prev =
    ref (match block with Some _ -> Telemetry.now_ticks () | None -> 0)
  in
  Array.iteri
    (fun i (rule : Rule.t) ->
      let until = fused_until fbounds i in
      if until >= 0 then begin
        if until < max_int then incr confirms;
        let steps = ref 0 in
        let exhausted = ref false in
        (* A pathological input must never take the scanner down: a rule
           that exhausts its backtracking budget is skipped, the rest of
           the plan still runs — but the skip is not silent: it is
           reported as a warning and counted in telemetry. *)
        let matches =
          let steps = match block with None -> None | Some _ -> Some steps in
          try Rx.find_all ~until ?steps rule.Rule.pattern source
          with Rx.Budget_exceeded _ ->
            exhausted := true;
            []
        in
        let nraw = ref 0 and dropped = ref 0 in
        let rule_raws =
          List.map
            (fun m ->
              incr nraw;
              let suppressed =
                match rule.Rule.suppress with
                | None -> false
                | Some sup ->
                  Rx.matches sup
                    (context_window source (Rx.m_start m) (Rx.m_stop m))
              in
              if suppressed then incr dropped;
              { raw_suppressed = suppressed; raw_m = m })
            matches
        in
        raws.(i) <- rule_raws;
        if !exhausted then warnings := Budget_exhausted rule.Rule.id :: !warnings;
        match block with
        | None -> ()
        | Some b ->
          b.B.candidates.(i) <- b.B.candidates.(i) + 1;
          b.B.matched.(i) <- b.B.matched.(i) + !nraw;
          b.B.suppressed.(i) <- b.B.suppressed.(i) + !dropped;
          b.B.findings.(i) <- b.B.findings.(i) + (!nraw - !dropped);
          b.B.steps.(i) <- b.B.steps.(i) + !steps;
          if !exhausted then
            b.B.budget_exhausted.(i) <- b.B.budget_exhausted.(i) + 1;
          let t = Telemetry.now_ticks () in
          b.B.time_ns.(i) <- b.B.time_ns.(i) + (t - !t_prev);
          t_prev := t
      end)
    rules;
  if !confirms > 0 then
    Telemetry.Counter.incr fused_confirms_counter ~by:!confirms;
  {
    st_source = source;
    st_index = lazy (Line_index.build source);
    st_raw = raws;
    st_warnings = List.rev !warnings;
  }

let state_findings t st =
  let out = ref [] in
  let rules = t.rules () in
  Array.iteri
    (fun i rule_raws ->
      (* empty for almost every rule *)
      if rule_raws <> [] then begin
        let rule = rules.(i) in
        List.iter
          (fun r ->
            if not r.raw_suppressed then begin
              let index = Lazy.force st.st_index in
              let start = Rx.m_start r.raw_m in
              out :=
                {
                  rule;
                  line = Line_index.line index start;
                  column = Line_index.column index start;
                  offset = start;
                  stop = Rx.m_stop r.raw_m;
                  snippet = one_line (Rx.matched r.raw_m);
                  m = r.raw_m;
                }
                :: !out
            end)
          rule_raws
      end)
    st.st_raw;
  List.sort
    (fun a b ->
      match compare a.offset b.offset with
      | 0 -> compare a.rule.Rule.id b.rule.Rule.id
      | c -> c)
    !out

let scan_with_warnings t source =
  let st = scan_state t source in
  (state_findings t st, st.st_warnings)

let scan t source = fst (scan_with_warnings t source)

let is_vulnerable t source = scan t source <> []

let scan_selection_with_warnings t source ~first_line ~last_line =
  let lines = String.split_on_char '\n' source in
  let selected =
    List.filteri (fun i _ -> i + 1 >= first_line && i + 1 <= last_line) lines
    |> String.concat "\n"
  in
  let findings, warnings = scan_with_warnings t selected in
  (* byte offset of the selection's first line in [source] *)
  let rec base i line =
    if line >= first_line then i
    else
      match String.index_from_opt source i '\n' with
      | Some j -> base (j + 1) (line + 1)
      | None -> String.length source
  in
  let base = base 0 1 in
  ( List.map
      (fun f ->
        {
          f with
          line = f.line + first_line - 1;
          offset = f.offset + base;
          stop = f.stop + base;
        })
      findings,
    warnings )

let scan_selection t source ~first_line ~last_line =
  fst (scan_selection_with_warnings t source ~first_line ~last_line)
