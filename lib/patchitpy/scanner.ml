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

type rule_meta = { literals : string list }

let derive_meta (rule : Rule.t) =
  { literals = Rx.required_literals rule.Rule.pattern }

(* A rule slot.  Compile-built plans hold their rules directly;
   pack-loaded plans hold a decode thunk and materialize a rule the
   first time a scan needs it — [candidates] prunes most rules for any
   one source, so a short-lived process decodes only the rules it
   actually runs, and pack cold start stays free of the per-rule decode
   cost.  The slot is an [Atomic] rather than a [lazy] because one plan
   is shared across serve worker domains (concurrent forcing of a lazy
   is unsafe): concurrent first uses at worst decode twice, and
   whichever value wins the CAS is served from then on. *)
type cell = { filled : Rule.t option Atomic.t; decode : unit -> Rule.t }

let cell_of_rule rule =
  { filled = Atomic.make (Some rule); decode = (fun () -> rule) }

let cell_rule cell =
  match Atomic.get cell.filled with
  | Some rule -> rule
  | None ->
    let rule = cell.decode () in
    if Atomic.compare_and_set cell.filled None (Some rule) then rule
    else (
      match Atomic.get cell.filled with Some winner -> winner | None -> rule)

(* The fused-tier slot of a plan.  Like rule [cell]s it defers the
   expensive step — fusing the whole catalog into one tagged DFA — to
   first use, because plans are compiled (and packs loaded) in
   processes that may never scan; and like them it is an [Atomic]
   because serve workers share one plan across domains.  [F_off] pins
   the plan to the per-rule path and is never overwritten — it is how
   [PATCHITPY_SCAN_TIER=per-rule] and the differential tests' reference
   plans stay fused-free even when a pack tries to install a thunk. *)
type fused_tier =
  | F_off  (* per-rule path forced; never upgraded *)
  | F_pending of (unit -> Rx.fused option)  (* fuse on first scan *)
  | F_ready of Rx.fused
  | F_none  (* fusing ran and hosted nothing *)

type t = {
  rule_arr : cell array;  (* compilation order = reporting tie-break *)
  prefilter : Acsearch.t;  (* one automaton over every rule's literals *)
  owner : int array;  (* automaton pattern index -> rule index *)
  unconditional : int list;  (* rules with no derivable literal *)
  tele : Telemetry.Rules.def;  (* per-rule telemetry registration *)
  fused : fused_tier Atomic.t;
}

(* The scan-tier escape hatch, mirroring [PATCHITPY_RX_TIER]: checked
   when a plan is built, so it governs plans compiled or loaded
   afterwards.  [PATCHITPY_RX_TIER=backtrack] also lands here — with
   every pattern pinned to the backtracker nothing is hostable, so
   fusing could only waste a compile. *)
let scan_tier_forced () =
  (match Sys.getenv_opt "PATCHITPY_SCAN_TIER" with
  | Some "per-rule" -> true
  | Some _ | None -> false)
  ||
  match Sys.getenv_opt "PATCHITPY_RX_TIER" with
  | Some "backtrack" -> true
  | Some _ | None -> false

let fused_of_cells rule_arr =
  if scan_tier_forced () then Atomic.make F_off
  else
    Atomic.make
      (F_pending
         (fun () ->
           Rx.Fused.compile
             (Array.map (fun c -> (cell_rule c).Rule.pattern) rule_arr)))

(* Plan compilation is the expensive setup step callers are expected to
   amortize (one plan across a batch, or one per daemon).  The counter
   lets a test assert the amortization actually happens. *)
let compiles_counter = Telemetry.Counter.make "scanner_compiles_total"

let compile ?meta rule_list =
  Telemetry.Counter.incr compiles_counter;
  let rules_vec = Array.of_list rule_list in
  let rule_arr = Array.map cell_of_rule rules_vec in
  let metas =
    match meta with
    | None -> Array.map derive_meta rules_vec
    | Some ms ->
      let arr = Array.of_list ms in
      if Array.length arr <> Array.length rules_vec then
        invalid_arg "Scanner.compile: meta list does not match the rules";
      arr
  in
  let literals = ref [] and owners = ref [] and unconditional = ref [] in
  Array.iteri
    (fun i m ->
      match m.literals with
      | [] -> unconditional := i :: !unconditional
      | lits ->
        List.iter
          (fun lit ->
            literals := lit :: !literals;
            owners := i :: !owners)
          lits)
    metas;
  {
    rule_arr;
    prefilter = Acsearch.build (List.rev !literals);
    owner = Array.of_list (List.rev !owners);
    unconditional = List.rev !unconditional;
    tele =
      Telemetry.Rules.define
        (Array.map (fun (r : Rule.t) -> r.Rule.id) rules_vec);
    fused = fused_of_cells rule_arr;
  }

let telemetry_def t = t.tele

let rules t = List.map cell_rule (Array.to_list t.rule_arr)
let rule_count t = Array.length t.rule_arr

(* Forces the fused tier.  Concurrent first scans may both fuse; the
   CAS winner is served from then on (same discipline as rule cells). *)
let rec fused_machine t =
  match Atomic.get t.fused with
  | F_off | F_none -> None
  | F_ready f -> Some f
  | F_pending thunk as prev ->
    let next =
      match thunk () with Some f -> F_ready f | None -> F_none
    in
    if Atomic.compare_and_set t.fused prev next then
      match next with F_ready f -> Some f | _ -> None
    else fused_machine t

let set_fused_thunk t thunk =
  match Atomic.get t.fused with
  | F_off -> ()  (* the tier is pinned off; nothing may turn it on *)
  | F_pending _ | F_ready _ | F_none -> Atomic.set t.fused (F_pending thunk)

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

(* Candidate rule set: the unconditional rules plus every rule owning a
   literal the automaton saw — one pass over the source total. *)
let candidates t source =
  let wanted = Array.make (Array.length t.rule_arr) false in
  List.iter (fun i -> wanted.(i) <- true) t.unconditional;
  let hits = Acsearch.search_mask t.prefilter source in
  Array.iteri (fun j hit -> if hit then wanted.(t.owner.(j)) <- true) hits;
  wanted

module B = Telemetry.Rules

(* --- fused-tier dispatch ---------------------------------------------- *)

(* [candidates]' literal gate says "a required literal occurs"; the
   fused pass sharpens that to "the full pattern matches somewhere" in
   one more traversal of the source.  Counters: [candidates] counts
   rules the fused pass flagged, [confirms] counts the per-rule sweeps
   those flags triggered (the gap between the two is rules flagged but
   already excluded by the literal gate), [fallbacks] counts subjects
   where the fused cache thrashed and the scan reverted to per-rule. *)
let fused_candidates_counter =
  Telemetry.Counter.make "scanner_fused_candidates_total"

let fused_confirms_counter =
  Telemetry.Counter.make "scanner_fused_confirms_total"

let fused_fallbacks_counter =
  Telemetry.Counter.make "scanner_fused_fallbacks_total"

(* One fused pass over [source], or [None] when the tier is off, hosts
   nothing, or bailed on this subject (cache thrash).  Never affects
   results — [None] simply means "sweep every candidate per-rule". *)
let fused_mask t source =
  match fused_machine t with
  | None -> None
  | Some f -> (
    match Rx.Fused.run f source with
    | mask ->
      if Telemetry.enabled () then begin
        let flagged = ref 0 in
        Bytes.iter (fun c -> if c <> '\000' then incr flagged) mask;
        if !flagged > 0 then
          Telemetry.Counter.incr fused_candidates_counter ~by:!flagged
      end;
      Some (f, mask)
    | exception Rx.Fused.Bail ->
      Telemetry.Counter.incr fused_fallbacks_counter;
      None)

(* Whether rule [i] still needs its per-rule sweep given the fused
   verdict: unhosted rules always do; hosted rules only when flagged
   (an unflagged hosted rule provably has no match — skipping its
   sweep cannot change results). *)
let fused_wants fmask i =
  match fmask with
  | None -> true
  | Some (f, mask) ->
    (not (Rx.Fused.is_hosted f i)) || Bytes.get mask i <> '\000'

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
  let fmask = fused_mask t source in
  (* When the fused machine hosts every rule its mask is strictly
     sharper than the literal gate (a matching rule's required literal
     necessarily occurs, so flagged ⊆ literal-wanted): the automaton
     pass would change nothing and is skipped.  Any unhosted rule —
     or a bailed/disabled fused pass — brings the literal gate back. *)
  let wanted =
    match fmask with
    | Some (f, _) when Rx.Fused.hosted_count f = Array.length t.rule_arr ->
      None
    | _ -> Some (candidates t source)
  in
  let confirms = ref 0 in
  let nrules = Array.length t.rule_arr in
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
  (* Chained timestamps: one clock read per candidate rule — each rule's
     end time is the next one's start, since nothing happens between
     candidate rules.  Raw ticks, not ns: the block is reported through
     [Telemetry.Report], which converts at collection time, and a tick
     read is several times cheaper than the monotonic clock. *)
  let t_prev =
    ref (match block with Some _ -> Telemetry.now_ticks () | None -> 0)
  in
  Array.iteri
    (fun i cell ->
      if (match wanted with None -> true | Some w -> w.(i))
         && fused_wants fmask i
      then begin
        (match fmask with
        | Some (f, _) when Rx.Fused.is_hosted f i -> incr confirms
        | _ -> ());
        let rule = cell_rule cell in
        let steps = ref 0 in
        let exhausted = ref false in
        (* A pathological input must never take the scanner down: a rule
           that exhausts its backtracking budget is skipped, the rest of
           the plan still runs — but the skip is not silent: it is
           reported as a warning and counted in telemetry. *)
        let matches =
          try
            match block with
            | None -> Rx.find_all rule.Rule.pattern source
            | Some _ -> Rx.find_all_counted rule.Rule.pattern source ~steps
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
    t.rule_arr;
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
  Array.iteri
    (fun i rule_raws ->
      (* empty for almost every rule — and only a rule that actually
         has raw matches forces its cell's decode *)
      if rule_raws <> [] then begin
        let rule = cell_rule t.rule_arr.(i) in
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
  ( List.map
      (fun f ->
        let line = f.line + first_line - 1 in
        { f with line })
      findings,
    warnings )

let scan_selection t source ~first_line ~last_line =
  fst (scan_selection_with_warnings t source ~first_line ~last_line)

(* --- binary codec ----------------------------------------------------------

   Plan serialization for rule packs: the rules (fully compiled), the
   prefilter automaton, and the derived tables travel verbatim, so
   loading a plan does none of the work [compile] does.  Two pieces of
   process-local identity are regenerated on read: the telemetry
   registration (stamps are per-process) and each pattern's DFA-cache
   uid (fresh inside [Rx.read_compiled]).  [read] cross-checks every
   table length and index against the rule count, so adversarial bytes
   fail with [Binio.Corrupt] instead of corrupting a scan.

   Rules travel in two parts: their ids eagerly (the telemetry
   registration needs every id before any rule runs), then one
   length-prefixed blob per rule.  [read] does not decode the blobs —
   it stores views into the payload and each [cell] decodes on first
   use, so load time is independent of the rule count.  The deferral is
   sound because the containing pack checksums the whole payload before
   [read] runs: a blob that fails to decode later means the checksum
   itself was forged, and the decode error (a [Binio] exception at
   first use of that rule) is memory-safe, just no longer typed. *)

let write buf t =
  let rules_vec = Array.map cell_rule t.rule_arr in
  Binio.w_array
    (fun buf (r : Rule.t) -> Binio.w_str buf r.Rule.id)
    buf rules_vec;
  Binio.w_array
    (fun buf rule ->
      let blob = Buffer.create 512 in
      Rule.write blob rule;
      Binio.w_str buf (Buffer.contents blob))
    buf rules_vec;
  Acsearch.write buf t.prefilter;
  Binio.w_array (fun buf i -> Binio.w_u32 buf i) buf t.owner;
  Binio.w_list (fun buf i -> Binio.w_u32 buf i) buf t.unconditional

let read r =
  let ids = Binio.r_array Binio.r_str r in
  let nrules = Array.length ids in
  let nblobs = Binio.r_count r in
  if nblobs <> nrules then
    raise (Binio.Corrupt "rule blob count does not match the id count");
  let rule_arr =
    Array.init nrules (fun i ->
        let len = Binio.r_u32 r in
        let view = Binio.r_view r len in
        let id = ids.(i) in
        {
          filled = Atomic.make None;
          decode =
            (fun () ->
              let r = Binio.sub_reader view in
              let rule = Rule.read r in
              if not (Binio.at_end r) then
                raise (Binio.Corrupt "trailing bytes in rule blob");
              if not (String.equal rule.Rule.id id) then
                raise (Binio.Corrupt "rule blob id mismatch");
              rule);
        })
  in
  let check_rule i =
    if i < 0 || i >= nrules then
      raise (Binio.Corrupt (Printf.sprintf "rule index %d out of range" i));
    i
  in
  let prefilter = Acsearch.read r in
  let owner = Binio.r_array (fun r -> check_rule (Binio.r_u32 r)) r in
  if Array.length owner <> Acsearch.pattern_count prefilter then
    raise (Binio.Corrupt "owner table does not match the prefilter");
  let unconditional = Binio.r_list (fun r -> check_rule (Binio.r_u32 r)) r in
  {
    rule_arr;
    prefilter;
    owner;
    unconditional;
    tele = Telemetry.Rules.define ids;
    (* default thunk fuses from the decoded rules on first scan;
       rule packs carrying a pre-built fused section replace it via
       [set_fused_thunk], keeping load time free of the fuse cost *)
    fused = fused_of_cells rule_arr;
  }
