(* A tagged lazy DFA over a whole catalog of patterns at once.

   [Rx_dfa] answers "where does THE match of this one pattern end";
   this machine answers a different, weaker question for many patterns
   simultaneously: "which of these N patterns match ANYWHERE in the
   subject, and where is the last boundary each one flagged at" — one
   forward pass over the input, whatever N is.  The scanner uses it as
   an exact existence filter in front of the per-rule sweeps: rules the
   fused pass did not flag are skipped entirely (their [find_all] would
   have returned []), and flagged rules run the unchanged per-rule
   machinery to resolve exact spans, fenced at the slot's last flag (see
   "Why the last flag bounds every match start" below), so results stay
   byte-identical to the per-rule path by construction.

   Existence — not leftmost-first spans — is the strongest per-rule
   answer one fused pass can give: deriving each rule's leftmost-first
   segmentation would need per-rule phase switches (stop injecting
   starts, extend, resume) that conflict across rules sharing the one
   thread set.  Existence, by contrast, determinizes cleanly:

   - Every pattern's Pike program is rebased into one instruction
     array, preceded by a split fan-out at pc 0 whose closure yields
     every pattern's entry point.  [owner.(pc)] tags each instruction
     with its pattern's slot, so a thread always knows which pattern it
     is running for.
   - DFA states are thread sets exactly as in [Rx_dfa]; the injected
     fresh-start thread is pc 0, which re-arms every pattern at every
     boundary (the machine is permanently unanchored).  A miss closes
     the state's own threads and takes pc 0's share of the closure from
     a per-(fact, class) fan-out table ([fan_entry]) instead of
     re-closing the whole fan-out.
   - Reaching a slot's [I_match] during a closure records that slot on
     the transition being materialized, and prunes ALL of that slot's
     threads from the successor: for an existence query a matched
     slot's surviving threads can only rediscover what is already
     known.  The pruning is a pure function of the thread set, so
     states stay run-independent and cacheable; the slot's fresh
     attempts keep being injected via pc 0, which costs a few
     redundant threads but keeps one transition table serving every
     run.
   - The runner records, per slot, the last boundary a flagged
     transition named it at ([-1] when it never flagged), so it walks
     the whole subject even once every slot has flagged: stopping there
     would leave the bounds short.

   Exactness of the flag (both directions) is what makes the scanner
   integration sound: a flag is raised only by a genuine NFA thread of
   that slot (no false positives), and no thread of an unmatched slot
   is ever dropped (no false negatives) — the differential suites
   check this against [Rx.matches] pattern by pattern.

   Why the last flag bounds every match start.  The machine prunes slot
   [s]'s threads only at a boundary where [s] flags, and it re-arms a
   fresh start of every slot at every boundary.  Take any match of [s]
   starting at [q]: the fresh thread injected at [q] follows it, so
   either [s] flags at [q] itself (the thread is pruned before it
   steps), or it is pruned later at some boundary [p >= q] where [s]
   flags, or it survives to reach [I_match] at the match's own end,
   which is [>= q] and flags there too.  Interning merges threads with
   the same pc into one, but merged threads have equal futures, so the
   survivor flags or is pruned exactly where the dropped one would
   have.  Hence every match start of [s] is [<= last.(s)].  A per-rule
   search that injects no start past [until >= last.(s)]
   ([Rx_dfa.search ?until]) returns the same leftmost-first match as an
   unfenced one: the leftmost start's threads outrank every thread the
   fence drops, and leftmost-first priority never lets a lower-ranked
   thread change a higher-ranked one's end.

   The machine is an [Rx_dfa.mach]: the same state store, interning
   table, closure, acceptance-table stepping and clear-and-restart
   discipline as a single pattern's, with [Rx_dfa.Bail] after too many
   flushes in one search — the caller then falls back to the plain
   per-rule path, so correctness never depends on cache capacity.
   What is fused-specific lives here: composing the tagged program,
   the fan-out table, the per-slot prune and the flagged-slot side
   table.  There are no skip lanes: with a whole catalog fused, the
   union of FIRST sets covers nearly every byte, so the pass is a
   straight table walk — one load per input byte. *)

(* Immutable, per-catalog, shared across domains. *)
type static = {
  prog : Rx_pike.inst array; (* fan-out preamble + rebased programs *)
  owner : int array; (* pc -> slot; -1 for the preamble *)
  nslots : int;
  pred : int array; (* pc -> distinct-predicate id; -1 if non-consuming *)
  tb : Rx_dfa.tables;
}

let nslots st = st.nslots
let program_size st = Array.length st.prog
let program st = st.prog

(* Hard bound on a fused program; the composer in [Rx.Fused] caps
   total size well below this. *)
let max_program = 65535

(* Compose one tagged program from per-slot Pike programs: a chain of
   [nslots - 1] splits at the front fans pc 0 out to every slot's entry
   (in slot order — priority order is irrelevant to existence queries
   but keeping it deterministic keeps states canonical), each program
   is copied with its jump targets rebased, and [owner] tags every pc. *)
let compose progs =
  let k = Array.length progs in
  if k = 0 then invalid_arg "Rx_fused.build: no programs";
  let preamble = k - 1 in
  let entries = Array.make k 0 in
  let total = ref preamble in
  Array.iteri
    (fun i p ->
      entries.(i) <- !total;
      total := !total + Array.length p)
    progs;
  if !total > max_program then invalid_arg "Rx_fused.build: program too large";
  let prog = Array.make !total Rx_pike.I_match in
  let owner = Array.make !total (-1) in
  for i = 0 to preamble - 1 do
    let cont = if i < preamble - 1 then i + 1 else entries.(k - 1) in
    prog.(i) <- Rx_pike.I_split (entries.(i), cont)
  done;
  Array.iteri
    (fun s p ->
      let base = entries.(s) in
      Array.iteri
        (fun j inst ->
          owner.(base + j) <- s;
          prog.(base + j) <-
            (match inst with
            | Rx_pike.I_jmp t -> Rx_pike.I_jmp (t + base)
            | Rx_pike.I_split (a, b) -> Rx_pike.I_split (a + base, b + base)
            | other -> other))
        p)
    progs;
  let pred, tb = Rx_dfa.tables prog in
  { prog; owner; nslots = k; pred; tb }

(* The mutable, per-domain half.  The machine is forward-only and
   permanently unanchored, so a state has one row:
   [m.rows.(sid).(c)] is [-1] unmaterialized, else
   [(sid' lsl 1) lor flag] where [flag] marks that the transition's
   closure reached at least one slot's [I_match]; the flagged slots
   themselves live in [mrows] keyed by [(sid * ncols) + c] — a side
   table rather than a second row array because flagged transitions are
   a small minority and the hot loop only consults it behind the flag
   bit. *)
type cache = {
  st : static;
  m : Rx_dfa.mach;
  mrows : (int, int array) Hashtbl.t;
  mutable mgen : int; (* the flush generation [mrows] belongs to *)
  (* the re-arm thread's accepted fan-out by [(lf * ncols) + c], built
     on first use (see [fan_entry]); a function of the program alone,
     so it survives flushes *)
  fan : int array array;
}

(* A fused state holds threads of every rule at once, so it is an order
   of magnitude larger than a single pattern's; the default store is
   sized up accordingly (the store grows as states are interned, so an
   idle cache costs a few small arrays).  The ceiling must also
   hold the catalog's whole steady-state working set: the 609-sample
   corpus demands 2552 distinct states, and a ceiling under that
   flushes mid-traffic, rebuilding tables forever. *)
let default_max_states = 4096

(* Marks a [fan] entry not built yet; compared physically, so an entry
   that is legitimately empty stays distinct from it. *)
let unbuilt : int array = [| -1 |]

let make_cache ?(max_states = default_max_states) st =
  let m =
    Rx_dfa.make_mach ~max_states ~swap:false
      ~on_match:(Rx_dfa.Slots { owner = st.owner; nslots = st.nslots })
      ~tally:{ Rx_dfa.misses = 0; flushes = 0 }
      st.tb st.prog st.pred
  in
  {
    st;
    m;
    mrows = Hashtbl.create 64;
    mgen = 0;
    fan = Array.make (4 * m.Rx_dfa.ncols) unbuilt;
  }

(* Whether pc 0's closure reaches an [I_match] under some pair of
   context facts — a hosted pattern that matches the empty string,
   which the fan-out table cannot represent.  Asked of the machine's
   own closure, once per (left, right) fact pair. *)
let fanout_matches_empty st =
  let m = (make_cache ~max_states:2 st).m in
  let found = ref false in
  for lf = 0 to 3 do
    for rf = 0 to 3 do
      ignore (Rx_dfa.closure m Rx_dfa.start_raw ~len:1 ~lf ~rf : int);
      if m.Rx_dfa.nmatched > 0 then found := true
    done
  done;
  !found

let build progs =
  let st = compose progs in
  if fanout_matches_empty st then
    invalid_arg "Rx_fused.build: a program matches the empty string";
  st

let state_count cache = cache.m.Rx_dfa.nstates

let counters =
  ( Telemetry.Counter.make "rx_fused_cache_hits_total",
    Telemetry.Counter.make "rx_fused_cache_misses_total",
    Telemetry.Counter.make "rx_fused_cache_flushes_total" )

(* The re-arm thread's fan-out, per (left fact [lf], input class [c]):
   the consuming pcs of pc 0's closure under [lf] and [c]'s fact that
   accept [c], in closure order.  Without it every miss re-closes the
   whole fan-out (one entry point per slot) and class-tests every
   consuming pc it reaches, to keep the few that step.

   Substituting the entry for pc 0's closure inside a state's closure is
   exact.  A closure is a DFS pre-order with visit stamps, and the whole
   sub-tree of a stamped node is stamped in the same closure, so after
   the state's other threads are closed the stamped set is closed under
   successors.  The DFS from pc 0 therefore skips exactly the stamped
   nodes of pc 0's own closure and visits the rest in that closure's
   order — so the entry, filtered by the stamps, holds exactly the
   consuming pcs the full DFS would have appended, in the same order.
   Pc 0's closure reaches no [I_match] ([build] checks it), so it adds
   nothing to the matched-slot set either.  Successor arrays, interned
   states and state counts are identical to closing pc 0 in full.

   Entries are built on first use, not for every (fact, class) pair up
   front: a short-lived process touches a small fraction of the pairs,
   and building them all made a one-sample cold scan 2-3x slower.  The
   build runs its own closure, so it must precede the state's. *)
let fan_entry cache ~lf c =
  let m = cache.m in
  let open Rx_dfa in
  let i = (lf * m.ncols) + c in
  let e = Array.unsafe_get cache.fan i in
  if e != unbuilt then e
  else begin
    let n = closure m start_raw ~len:1 ~lf ~rf:m.tb.class_fact.(c) in
    let row = c * m.tb.npred in
    let kept = ref [] in
    for j = n - 1 downto 0 do
      let pc = m.buf.(j) in
      if Bytes.unsafe_get m.tb.accept (row + m.pred.(pc)) <> '\000' then
        kept := pc :: !kept
    done;
    let e = Array.of_list !kept in
    cache.fan.(i) <- e;
    e
  end

(* Materialize the transition out of [sid] on class [c]: close the
   state's threads but the trailing re-arm, step survivors on [c] while
   dropping every thread of a slot that matched (the per-slot prune — a
   pure function of the thread set, so the cached transition is valid
   for every run), append the re-arm thread's fan-out entries that
   closure did not reach, re-arm with pc 0, intern the successor.
   @raise Restart when interning flushed the table. *)
let materialize cache sid c =
  let m = cache.m in
  let open Rx_dfa in
  m.tally.misses <- m.tally.misses + 1;
  let s = Array.unsafe_get m.states sid in
  let tb = m.tb in
  let cf = tb.class_fact.(c) in
  let fan = fan_entry cache ~lf:s.ctx c in
  let n = closure m s.raw ~len:(Array.length s.raw - 1) ~lf:s.ctx ~rf:cf in
  let nmatched = m.nmatched in
  let gen = m.gen in
  let pruned = m.pruned
  and owner = cache.st.owner
  and pred = m.pred
  and accept = tb.accept
  and buf = m.buf
  and stamp = m.stamp
  and out = m.out in
  let row = c * tb.npred in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let pc = Array.unsafe_get buf i in
    if
      Bytes.unsafe_get accept (row + Array.unsafe_get pred pc) <> '\000'
      && pruned.(Array.unsafe_get owner pc) <> gen
    then begin
      Array.unsafe_set out !k (pc + 1);
      incr k
    end
  done;
  for i = 0 to Array.length fan - 1 do
    let pc = Array.unsafe_get fan i in
    if
      Array.unsafe_get stamp pc <> gen
      && pruned.(Array.unsafe_get owner pc) <> gen
    then begin
      Array.unsafe_set out !k (pc + 1);
      incr k
    end
  done;
  (* always re-arm every pattern: the machine never leaves its
     unanchored phase *)
  out.(!k) <- 0;
  let sid' = find_or_add m cf out (!k + 1) in
  let v = (sid' lsl 1) lor (if nmatched > 0 then 1 else 0) in
  (Array.unsafe_get m.rows sid).(c) <- v;
  if nmatched > 0 then begin
    (* [mrows] keys embed state ids: entries from before a flush go *)
    if cache.mgen <> m.fgen then begin
      Hashtbl.reset cache.mrows;
      cache.mgen <- m.fgen
    end;
    Hashtbl.replace cache.mrows
      ((sid * m.ncols) + c)
      (Array.sub m.mbuf 0 nmatched)
  end;
  v

(* The one-pass search: walks every boundary 0..len (the end-of-input
   sentinel included, so [$]-anchored matches ending at EOF flag too),
   recording in [last.(slot)] the last boundary each flagged
   transition names the slot at.  [last] is in slot space and must
   arrive all [-1].  Step accounting is segment-based like
   [Rx_dfa]'s hot loop: one flush of [p - seg] into [steps] per
   segment, no per-byte tick.
   @raise Rx_dfa.Bail when the cache thrashes. *)
let search cache ?recorder ?(cap = max_int) ?steps_acc ~last subject =
  let m = cache.m in
  let open Rx_dfa in
  let tb = m.tb in
  if Array.length last <> cache.st.nslots then
    invalid_arg "Rx_fused.search: bounds length does not match the slot count";
  let len = String.length subject in
  let classes = tb.classes in
  let sentinel = tb.nclasses in
  metered counters m.tally ~recorder ~steps_acc (fun steps ->
      m.search_flushes <- 0;
      let absorb sid c p =
        match Hashtbl.find_opt cache.mrows ((sid * m.ncols) + c) with
        | None ->
          (* unreachable: [materialize] writes a flagged row and its
             [mrows] entry together, and a flush drops both — never drop
             a flag silently *)
          raise Bail
        | Some slots ->
          for i = 0 to Array.length slots - 1 do
            Array.unsafe_set last (Array.unsafe_get slots i) p
          done
      in
      let sid = ref (start m fact_boundary) in
      let p = ref 0 in
      while !p < len do
        (* [stop] fences this segment at the step allowance; the sentinel
           boundary counts as one more step past [len] *)
        let stop =
          if cap = max_int then len
          else begin
            let allowed = cap - !steps in
            if allowed <= 0 then raise step_allowance_exceeded
            else if allowed >= len - !p then len
            else !p + allowed
          end
        in
        let seg = ref !p in
        match
          while !p < stop do
            let row = Array.unsafe_get m.rows !sid in
            let c =
              Char.code
                (String.unsafe_get classes
                   (Char.code (String.unsafe_get subject !p)))
            in
            let v = Array.unsafe_get row c in
            if v >= 0 then begin
              if v land 1 = 1 then absorb !sid c !p;
              sid := v lsr 1;
              incr p
            end
            else sid := miss m materialize cache !sid c
          done
        with
        | () -> steps := !steps + (!p - !seg)
        | exception ex ->
          steps := !steps + (!p - !seg);
          raise ex
      done;
      (* the end-of-input boundary: one sentinel transition *)
      incr steps;
      if !steps > cap then raise step_allowance_exceeded;
      let taken = ref false in
      while not !taken do
        let v = Array.unsafe_get (Array.unsafe_get m.rows !sid) sentinel in
        if v >= 0 then begin
          if v land 1 = 1 then absorb !sid sentinel len;
          taken := true
        end
        else sid := miss m materialize cache !sid sentinel
      done)
