(* A tagged lazy DFA over a whole catalog of patterns at once.

   [Rx_dfa] answers "where does THE match of this one pattern end";
   this machine answers a different, weaker question for many patterns
   simultaneously: "which of these N patterns match ANYWHERE in the
   subject" — one forward pass over the input, whatever N is.  The
   scanner uses it as an exact existence filter in front of the
   per-rule sweeps: rules the fused pass did not flag are skipped
   entirely (their [find_all] would have returned []), and flagged
   rules run the unchanged per-rule machinery to resolve exact spans,
   so results stay byte-identical to the per-rule path by construction.

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
   - The runner accumulates flagged slots into a per-run mask and
     stops early once every slot has matched.

   Exactness of the flag (both directions) is what makes the scanner
   integration sound: a flag is raised only by a genuine NFA thread of
   that slot (no false positives), and no thread of an unmatched slot
   is ever dropped (no false negatives) — the differential suites
   check this against [Rx.matches] pattern by pattern.

   Cache discipline is [Rx_dfa]'s: bounded interned-state store,
   clear-and-restart on overflow ([Restart]), [Bail] after too many
   flushes in one search — the caller then falls back to the plain
   per-rule path, so correctness never depends on cache capacity.
   There are no skip lanes: with a whole catalog fused, the union of
   FIRST sets covers nearly every byte, so the pass is a straight
   table walk — one load per input byte. *)

exception Bail
(* The cache thrashed ([max_search_flushes] flushes in one search); the
   caller must fall back to the per-rule scan path. *)

exception Restart
(* Internal: the state table was flushed mid-search; the runner
   re-interns its current state and retries the transition. *)

(* Left/right context facts, [Rx_dfa]'s encoding verbatim (its byte
   classes, which this machine shares, carry them): 0 subject boundary,
   1 other byte, 2 word byte, 3 newline. *)
let fact_boundary = 0
let fact_word = 2
let fact_newline = 3

(* Immutable, per-catalog, shared across domains. *)
type static = {
  prog : Rx_pike.inst array; (* fan-out preamble + rebased programs *)
  owner : int array; (* pc -> slot; -1 for the preamble *)
  nslots : int;
  classes : string; (* byte -> input-class id *)
  nclasses : int; (* real classes; the EOI sentinel is id [nclasses] *)
  class_fact : int array; (* class id (sentinel included) -> fact *)
  class_repr : string; (* class id -> representative byte *)
  (* Derived on build and on load, never serialized: *)
  pred : int array; (* consuming pc -> distinct-predicate id; -1 otherwise *)
  npred : int;
  accept : Bytes.t;
      (* [(c * npred) + p] is ['\001'] iff predicate [p] accepts input
         class [c]; the sentinel's row is all zero *)
}

let nslots st = st.nslots
let program_size st = Array.length st.prog

(* Hard bound on a fused program; the composer in [Rx.Fused] caps
   total size well below this. *)
let max_program = 65535

(* The step loop's acceptance table: one row per input class, one byte
   per distinct predicate.  A class answers for all its bytes (they
   share one signature), so a predicate is evaluated on each class's
   representative — except a single-byte predicate, whose byte is a
   class of its own and the only one it accepts.  The end-of-input
   sentinel's row stays zero: no thread consumes past the end. *)
let derive_accept preds ~classes ~nclasses ~class_repr =
  let npred = Array.length preds in
  let accept = Bytes.make ((nclasses + 1) * npred) '\000' in
  Array.iteri
    (fun p inst ->
      match inst with
      | Rx_pike.I_char ch ->
        let c = Char.code classes.[Char.code ch] in
        Bytes.set accept ((c * npred) + p) '\001'
      | _ ->
        for c = 0 to nclasses - 1 do
          if Rx_dfa.inst_accepts inst class_repr.[c] then
            Bytes.set accept ((c * npred) + p) '\001'
        done)
    preds;
  accept

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
  let pred, preds = Rx_dfa.predicates prog in
  let classes, nclasses, class_fact, class_repr = Rx_dfa.derive_classes preds in
  {
    prog;
    owner;
    nslots = k;
    classes;
    nclasses;
    class_fact;
    class_repr;
    pred;
    npred = Array.length preds;
    accept = derive_accept preds ~classes ~nclasses ~class_repr;
  }

(* Whether pc 0's closure reaches an [I_match] under some pair of
   context facts — a hosted pattern that matches the empty string,
   which the fan-out table cannot represent.  One propagation covers
   all sixteen (left, right) fact pairs: [live.(pc)] is the set of pairs
   (bit [4 * lf + rf]) under which [closure] would reach [pc], and a pc
   is re-explored only for pairs it newly gains. *)
let fanout_matches_empty prog =
  let pairs ok =
    let m = ref 0 in
    for lf = 0 to 3 do
      for rf = 0 to 3 do
        if ok lf rf then m := !m lor (1 lsl ((4 * lf) + rf))
      done
    done;
    !m
  in
  let line_edge f = f = fact_boundary || f = fact_newline in
  let bol = pairs (fun lf _ -> line_edge lf)
  and eol = pairs (fun _ rf -> line_edge rf)
  and eos = pairs (fun _ rf -> rf = fact_boundary)
  and wordb = pairs (fun lf rf -> (lf = fact_word) <> (rf = fact_word))
  and nwordb = pairs (fun lf rf -> (lf = fact_word) = (rf = fact_word)) in
  let live = Array.make (Array.length prog) 0 in
  let found = ref false in
  let rec add pc m =
    let m = m land lnot live.(pc) in
    if m <> 0 then begin
      live.(pc) <- live.(pc) lor m;
      match prog.(pc) with
      | Rx_pike.I_jmp t -> add t m
      | Rx_pike.I_split (a, b) ->
        add a m;
        add b m
      | Rx_pike.I_bol -> add (pc + 1) (m land bol)
      | Rx_pike.I_eol -> add (pc + 1) (m land eol)
      | Rx_pike.I_eos -> add (pc + 1) (m land eos)
      | Rx_pike.I_wordb -> add (pc + 1) (m land wordb)
      | Rx_pike.I_nwordb -> add (pc + 1) (m land nwordb)
      | Rx_pike.I_match -> found := true
      | Rx_pike.I_char _ | Rx_pike.I_any | Rx_pike.I_class _ -> ()
    end
  in
  add 0 (pairs (fun _ _ -> true));
  !found

let build progs =
  let st = compose progs in
  if fanout_matches_empty st.prog then
    invalid_arg "Rx_fused.build: a program matches the empty string";
  st

(* A DFA state, exactly [Rx_dfa]'s shape: left-context fact plus the
   pending thread set, stepped into this boundary and not yet closed.
   Every thread array ends with the re-arm thread, pc 0. *)
type state = { st_ctx : int; st_raw : int array }

let dummy_state = { st_ctx = 0; st_raw = [||] }
let no_row : int array = [||]

(* States intern by hashing the thread array itself: the table compares
   the context fact and the pcs directly, so a lookup builds no key. *)
module Itbl = Hashtbl.Make (struct
  type t = state

  let equal a b =
    a.st_ctx = b.st_ctx
    &&
    let ra = a.st_raw and rb = b.st_raw in
    let n = Array.length ra in
    n = Array.length rb
    &&
    let rec go i =
      i = n || (Array.unsafe_get ra i = Array.unsafe_get rb i && go (i + 1))
    in
    go 0

  let hash s =
    let h = ref (s.st_ctx + 1) in
    let raw = s.st_raw in
    for i = 0 to Array.length raw - 1 do
      h := (!h * 0x01000193) lxor Array.unsafe_get raw i
    done;
    let h = !h in
    (h lxor (h lsr 23) lxor (h lsr 41)) land max_int
end)

(* The mutable, per-domain half.  One direction only (the machine is
   forward-only and permanently unanchored), so one row array:
   [rows.(sid).(c)] is [-1] unmaterialized, else
   [(sid' lsl 1) lor flag] where [flag] marks that the transition's
   closure reached at least one slot's [I_match]; the flagged slots
   themselves live in [mrows] keyed by [(sid * ncols) + c] — a side
   table rather than a third row array because flagged transitions are
   a small minority and the hot loop only consults it behind the flag
   bit. *)
type cache = {
  st : static;
  ncols : int;
  max_states : int;
  mutable nstates : int;
  states : state array;
  rows : int array array;
  mrows : (int, int array) Hashtbl.t;
  itbl : int Itbl.t;
  mutable fgen : int; (* flush generation; start-state memos key on it *)
  (* interned start-state ids by left-context fact, valid while
     [start_gen = fgen]: start states depend only on the program, so
     the memo survives across searches until a flush drops the
     interned states *)
  start_sids : int array;
  mutable start_gen : int;
  (* the re-arm thread's accepted fan-out by [(lf * ncols) + c], built
     on first use (see [fan_entry]); a function of the program alone,
     so it survives flushes *)
  fan : int array array;
  stamp : int array; (* per-pc visit stamps for closure dedup *)
  mutable gen : int;
  buf : int array; (* closure output: consuming pcs, in order *)
  mutable count : int; (* ... and its length *)
  out : int array; (* successor threads under construction *)
  pruned : int array; (* per-slot stamps: slot matched in this closure *)
  mbuf : int array; (* slots matched in this closure *)
  mutable nmatched : int; (* ... and their count *)
  mutable c_misses : int;
  mutable c_flushes : int;
}

(* A fused state holds threads of every rule at once, so it is an order
   of magnitude larger than a single pattern's; the default store is
   sized up accordingly (rows are only allocated for states actually
   interned, so an idle cache costs little).  The ceiling must also
   hold the catalog's whole steady-state working set: the 609-sample
   corpus demands 2552 distinct states, and a ceiling under that
   flushes mid-traffic, rebuilding tables forever. *)
let default_max_states = 4096
let max_search_flushes = 4

(* Marks a [fan] entry not built yet; compared physically, so an entry
   that is legitimately empty stays distinct from it. *)
let unbuilt : int array = [| -1 |]

let make_cache ?(max_states = default_max_states) st =
  if max_states < 2 then invalid_arg "Rx_fused.make_cache: max_states < 2";
  let n = Array.length st.prog in
  let ncols = st.nclasses + 1 in
  {
    st;
    ncols;
    max_states;
    nstates = 0;
    states = Array.make max_states dummy_state;
    rows = Array.make max_states no_row;
    mrows = Hashtbl.create 64;
    itbl = Itbl.create 256;
    fgen = 0;
    start_sids = Array.make 4 (-1);
    start_gen = -1;
    fan = Array.make (4 * ncols) unbuilt;
    stamp = Array.make n 0;
    gen = 0;
    buf = Array.make (n + 1) 0;
    count = 0;
    out = Array.make (n + 1) 0;
    pruned = Array.make st.nslots 0;
    mbuf = Array.make st.nslots 0;
    nmatched = 0;
    c_misses = 0;
    c_flushes = 0;
  }

let state_count cache = cache.nstates

let hits_counter = Telemetry.Counter.make "rx_fused_cache_hits_total"
let misses_counter = Telemetry.Counter.make "rx_fused_cache_misses_total"
let flushes_counter = Telemetry.Counter.make "rx_fused_cache_flushes_total"

let publish cache ~recorder ~ticks =
  (match
     (match recorder with Some _ as r -> r | None -> Telemetry.recorder ())
   with
  | None -> ()
  | Some r ->
    let hits = ticks - cache.c_misses in
    if hits > 0 then Telemetry.Counter.record r hits_counter hits;
    if cache.c_misses > 0 then
      Telemetry.Counter.record r misses_counter cache.c_misses;
    if cache.c_flushes > 0 then
      Telemetry.Counter.record r flushes_counter cache.c_flushes);
  cache.c_misses <- 0;
  cache.c_flushes <- 0

let flush cache =
  Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_flush;
  Itbl.reset cache.itbl;
  (* [mrows] keys embed state ids: stale entries must go with them *)
  Hashtbl.reset cache.mrows;
  Array.fill cache.states 0 cache.nstates dummy_state;
  Array.fill cache.rows 0 cache.nstates no_row;
  cache.nstates <- 0;
  cache.fgen <- cache.fgen + 1;
  cache.c_flushes <- cache.c_flushes + 1

let find_or_add cache ctx raw =
  let s = { st_ctx = ctx; st_raw = raw } in
  match Itbl.find_opt cache.itbl s with
  | Some sid -> sid
  | None ->
    if cache.nstates >= cache.max_states then begin
      flush cache;
      raise Restart
    end;
    let sid = cache.nstates in
    cache.states.(sid) <- s;
    cache.rows.(sid) <- Array.make cache.ncols (-1);
    Itbl.add cache.itbl s sid;
    cache.nstates <- sid + 1;
    sid

(* One step of [closure]'s DFS: a top-level function over the cache's
   counters rather than a local closure, so a miss allocates nothing to
   close over. *)
let rec close_pc cache ~gen ~lf ~rf pc =
  let stamp = cache.stamp in
  if stamp.(pc) <> gen then begin
    stamp.(pc) <- gen;
    match cache.st.prog.(pc) with
    | Rx_pike.I_jmp t -> close_pc cache ~gen ~lf ~rf t
    | Rx_pike.I_split (a, b) ->
      close_pc cache ~gen ~lf ~rf a;
      close_pc cache ~gen ~lf ~rf b
    | Rx_pike.I_bol ->
      if lf = fact_boundary || lf = fact_newline then
        close_pc cache ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_eol ->
      if rf = fact_boundary || rf = fact_newline then
        close_pc cache ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_eos ->
      if rf = fact_boundary then close_pc cache ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_wordb ->
      if (lf = fact_word) <> (rf = fact_word) then
        close_pc cache ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_nwordb ->
      if (lf = fact_word) = (rf = fact_word) then
        close_pc cache ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_match ->
      let s = cache.st.owner.(pc) in
      if s >= 0 && cache.pruned.(s) <> gen then begin
        cache.pruned.(s) <- gen;
        cache.mbuf.(cache.nmatched) <- s;
        cache.nmatched <- cache.nmatched + 1
      end
    | Rx_pike.I_char _ | Rx_pike.I_any | Rx_pike.I_class _ ->
      cache.buf.(cache.count) <- pc;
      cache.count <- cache.count + 1
  end

(* Epsilon closure of [raw.(0 .. len-1)] at a boundary with
   subject-left fact [lf] and subject-right fact [rf].  Consuming pcs
   land in [cache.buf] in priority order; slots whose [I_match] was
   reached land in [cache.mbuf] (deduplicated through [cache.pruned]
   stamps).  Unlike [Rx_dfa]'s closure nothing stops at a match — other
   slots' threads must keep collecting — and the per-slot pruning
   happens in the caller's step loop, where [pruned] stamps are still
   valid. *)
let closure cache raw ~len ~lf ~rf =
  cache.gen <- cache.gen + 1;
  let gen = cache.gen in
  cache.count <- 0;
  cache.nmatched <- 0;
  for i = 0 to len - 1 do
    close_pc cache ~gen ~lf ~rf (Array.unsafe_get raw i)
  done;
  (cache.count, cache.nmatched)

let start_raw = [| 0 |]

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
   Pc 0's closure reaches no [I_match] ([build] and [read_static] check
   it), so it adds nothing to the matched-slot set either.  Successor
   arrays, interned states and state counts are identical to closing
   pc 0 in full.

   Entries are built on first use, not for every (fact, class) pair up
   front: a short-lived process touches a small fraction of the pairs,
   and building them all made a one-sample cold scan 2-3x slower.  The
   build runs its own closure, so it must precede the state's. *)
let fan_entry cache ~lf c =
  let i = (lf * cache.ncols) + c in
  let e = Array.unsafe_get cache.fan i in
  if e != unbuilt then e
  else begin
    let stc = cache.st in
    let n, _ = closure cache start_raw ~len:1 ~lf ~rf:stc.class_fact.(c) in
    let row = c * stc.npred in
    let kept = ref [] in
    for j = n - 1 downto 0 do
      let pc = cache.buf.(j) in
      if Bytes.unsafe_get stc.accept (row + stc.pred.(pc)) <> '\000' then
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
  cache.c_misses <- cache.c_misses + 1;
  let s = Array.unsafe_get cache.states sid in
  let stc = cache.st in
  let lf = s.st_ctx in
  let cf = stc.class_fact.(c) in
  let fan = fan_entry cache ~lf c in
  let raw = s.st_raw in
  let n, nmatched = closure cache raw ~len:(Array.length raw - 1) ~lf ~rf:cf in
  let matched =
    if nmatched = 0 then no_row else Array.sub cache.mbuf 0 nmatched
  in
  let gen = cache.gen in
  let pruned = cache.pruned
  and owner = stc.owner
  and pred = stc.pred
  and accept = stc.accept
  and buf = cache.buf
  and out = cache.out in
  let row = c * stc.npred in
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
  let stamp = cache.stamp in
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
  let raw' = Array.sub out 0 (!k + 1) in
  let sid' = find_or_add cache cf raw' in
  let v = (sid' lsl 1) lor (if nmatched > 0 then 1 else 0) in
  (Array.unsafe_get cache.rows sid).(c) <- v;
  if nmatched > 0 then
    Hashtbl.replace cache.mrows ((sid * cache.ncols) + c) matched;
  v

let step_allowance_exceeded =
  Rx_match.Budget_exceeded "rx fused: step cap exceeded"

(* The one-pass existence search: walks every boundary 0..len (the
   end-of-input sentinel included, so [$]-anchored matches ending at
   EOF flag too), absorbing each flagged transition's slot list into
   [mask], and stops early once every slot has matched.  [mask] is in
   slot space, one byte per slot, and must arrive all-zero.  Step
   accounting is segment-based like [Rx_dfa]'s hot loop: one flush of
   [p - seg] into [steps] per segment, no per-byte tick.
   @raise Bail when the cache thrashes. *)
let search cache ?recorder ?(cap = max_int) ?steps_acc ~mask subject =
  let stc = cache.st in
  if Bytes.length mask <> stc.nslots then
    invalid_arg "Rx_fused.search: mask length does not match the slot count";
  let len = String.length subject in
  let classes = stc.classes in
  let sentinel = stc.nclasses in
  let steps = match steps_acc with Some r -> r | None -> ref 0 in
  let t0 = !steps in
  let run () =
    let flushes = ref 0 in
    let intern_sid ctx raw =
      try find_or_add cache ctx raw
      with Restart ->
        incr flushes;
        if !flushes > max_search_flushes then raise Bail;
        find_or_add cache ctx raw
    in
    (* start states differ only by left-context fact; the memo lives in
       the cache (keyed on [fgen]) so it persists across searches *)
    let get_start ctx =
      if cache.start_gen <> cache.fgen then begin
        Array.fill cache.start_sids 0 4 (-1);
        cache.start_gen <- cache.fgen
      end;
      let s = Array.unsafe_get cache.start_sids ctx in
      if s >= 0 then s
      else begin
        let s = intern_sid ctx start_raw in
        if cache.start_gen <> cache.fgen then begin
          Array.fill cache.start_sids 0 4 (-1);
          cache.start_gen <- cache.fgen
        end;
        cache.start_sids.(ctx) <- s;
        s
      end
    in
    let nmatched = ref 0 in
    let absorb sid c =
      match Hashtbl.find_opt cache.mrows ((sid * cache.ncols) + c) with
      | None -> () (* flushed since; rematerializing will restore it *)
      | Some slots ->
        Array.iter
          (fun s ->
            if Bytes.unsafe_get mask s = '\000' then begin
              Bytes.unsafe_set mask s '\001';
              incr nmatched
            end)
          slots
    in
    let sid = ref (get_start fact_boundary) in
    let p = ref 0 in
    let finished = ref false in
    while not !finished do
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
      (match
         while (not !finished) && !p < stop do
           let row = Array.unsafe_get cache.rows !sid in
           let c =
             Char.code
               (String.unsafe_get classes
                  (Char.code (String.unsafe_get subject !p)))
           in
           let v = Array.unsafe_get row c in
           if v >= 0 then begin
             if v land 1 = 1 then begin
               absorb !sid c;
               if !nmatched = stc.nslots then finished := true
             end;
             sid := v lsr 1;
             incr p
           end
           else begin
             (* capture the state record first — it survives a flush
                even though its table slot does not *)
             let scur = Array.unsafe_get cache.states !sid in
             match materialize cache !sid c with
             | _ -> ()
             | exception Restart ->
               incr flushes;
               if !flushes > max_search_flushes then raise Bail;
               sid := intern_sid scur.st_ctx scur.st_raw
           end
         done
       with
      | () -> steps := !steps + (!p - !seg)
      | exception ex ->
        steps := !steps + (!p - !seg);
        raise ex);
      if not !finished then
        if !p < len then () (* allowance-fenced segment: loop re-checks *)
        else begin
          (* the end-of-input boundary: one sentinel transition *)
          incr steps;
          if !steps > cap then raise step_allowance_exceeded;
          let taken = ref false in
          while not !taken do
            let v = Array.unsafe_get (Array.unsafe_get cache.rows !sid) sentinel in
            if v >= 0 then begin
              if v land 1 = 1 then absorb !sid sentinel;
              taken := true
            end
            else begin
              let scur = Array.unsafe_get cache.states !sid in
              match materialize cache !sid sentinel with
              | _ -> ()
              | exception Restart ->
                incr flushes;
                if !flushes > max_search_flushes then raise Bail;
                sid := intern_sid scur.st_ctx scur.st_raw
            end
          done;
          finished := true
        end
    done
  in
  match run () with
  | () -> publish cache ~recorder ~ticks:(!steps - t0)
  | exception ex ->
    publish cache ~recorder ~ticks:(!steps - t0);
    raise ex
