(* A lazy DFA executed over the Pike-NFA program from [Rx_pike].

   This is the RE2-style hybrid design: DFA states are canonicalized
   sets of NFA threads, materialized on demand the first time a (state,
   input-class) transition is taken and cached in per-state rows so the
   steady-state match loop is one table lookup per byte.  Determinizing
   lazily keeps construction proportional to the states a subject
   actually drives the machine through, never to the exponential
   worst case of ahead-of-time subset construction.

   Leftmost-first (Python/Perl) semantics survive determinization
   because thread sets are kept in priority order — the order the
   backtracker would try them — and closure stops collecting at the
   first [I_match] it reaches: threads with lower priority than a match
   can never influence the result ("prune after match").  A match flag
   on a transition therefore means "the leftmost-first match ends at
   this boundary"; the runner records the last flagged boundary, which
   is the end of a match starting at the leftmost possible start (once
   the leftmost surviving attempt matches, everything below it is
   pruned, so every later flag belongs to that same attempt).

   Finding that start takes a second, backward pass: the same machinery
   run over a program compiled from the structurally reversed AST, from
   the match end down to the search origin, anchored, without pruning;
   the smallest flagged boundary is the leftmost start.  Capture groups
   are not tracked at all — the caller re-runs the backtracker anchored
   at the discovered start, which also guarantees byte-identical spans
   and group semantics.

   The alphabet is compressed at build time into equivalence classes:
   two bytes that no instruction of either program distinguishes (and
   that agree on the word/newline facts the anchors inspect) share a
   column in every transition row.  Rule patterns typically induce a
   few dozen classes, shrinking rows from 257 to tens of slots.

   Caches are bounded: when a machine would exceed [max_states] the
   whole table is flushed and the in-flight state re-interned
   ("clear and restart", raising the internal [Restart]); a search that
   keeps flushing raises [Bail] and the caller falls back to the
   backtracker.  Correctness therefore never depends on cache capacity. *)

exception Bail
(* The cache thrashed ([max_search_flushes] flushes in one search) or an
   internal invariant failed; the caller must re-run the search on the
   backtracking engine.  Raised instead of silently degrading so the
   fallback is observable in telemetry. *)

exception Restart
(* Internal: the state table was flushed mid-search; the runner
   re-interns its current state and retries the transition. *)

(* Context "facts" describe the one property of an adjacent byte the
   zero-width assertions inspect.  0 is the subject boundary (start or
   end), and doubles as the input class of the end-of-input sentinel. *)
let fact_boundary = 0
let fact_word = 2
let fact_newline = 3

let fact_of_char c =
  if c = '\n' then fact_newline
  else if Rx_ast.is_word_char c then fact_word
  else 1

(* Immutable, per-pattern, shared across domains. *)
type static = {
  fwd_prog : Rx_pike.inst array;
  rev_prog : Rx_pike.inst array;
  classes : string; (* byte -> input-class id *)
  nclasses : int; (* real classes; the EOI sentinel is id [nclasses] *)
  class_fact : int array; (* class id (sentinel included) -> fact *)
  class_repr : string; (* class id -> representative byte *)
}

let rec reverse_node (n : Rx_ast.node) : Rx_ast.node =
  match n with
  | Rx_ast.Empty | Rx_ast.Char _ | Rx_ast.Any | Rx_ast.Class _ | Rx_ast.Bol
  | Rx_ast.Eol | Rx_ast.Eos | Rx_ast.Wordb | Rx_ast.Nwordb ->
    (* Assertions keep their opcode: the backward machine swaps which
       side of the boundary each fact describes, so [I_bol] still means
       "a line starts here" in subject terms. *)
    n
  | Rx_ast.Seq nodes -> Rx_ast.Seq (List.rev_map reverse_node nodes)
  | Rx_ast.Alt branches -> Rx_ast.Alt (List.map reverse_node branches)
  | Rx_ast.Rep (inner, mn, mx, g) -> Rx_ast.Rep (reverse_node inner, mn, mx, g)
  | Rx_ast.Group (i, inner) -> Rx_ast.Group (i, reverse_node inner)
  | Rx_ast.Backref _ as n -> n (* tier selection rejects these earlier *)

let inst_accepts inst c =
  match inst with
  | Rx_pike.I_char c' -> c = c'
  | Rx_pike.I_any -> c <> '\n'
  | Rx_pike.I_class cls -> Rx_ast.class_matches cls c
  | _ -> false

(* Consuming instructions deduplicated structurally: [pred.(pc)] is the
   id of [prog.(pc)]'s predicate (-1 for non-consuming pcs), and the
   distinct predicates come in first-appearance order.  The same [\s],
   [\w] and quote classes recur all over a pattern (and, fused, over a
   whole catalog), so the distinct count is a small fraction of the
   consuming count. *)
let predicates prog =
  (* chars by code, [I_any] at 256; only classes need structural keys *)
  let simple = Array.make 257 (-1) in
  let classes : (Rx_ast.cls, int) Hashtbl.t = Hashtbl.create 64 in
  let distinct = ref [] and next = ref 0 in
  let fresh inst =
    let id = !next in
    incr next;
    distinct := inst :: !distinct;
    id
  in
  let simple_id i inst =
    if simple.(i) < 0 then simple.(i) <- fresh inst;
    simple.(i)
  in
  let pred =
    Array.map
      (fun inst ->
        match inst with
        | Rx_pike.I_char c -> simple_id (Char.code c) inst
        | Rx_pike.I_any -> simple_id 256 inst
        | Rx_pike.I_class cls -> (
          match Hashtbl.find_opt classes cls with
          | Some id -> id
          | None ->
            let id = fresh inst in
            Hashtbl.add classes cls id;
            id)
        | _ -> -1)
      prog
  in
  (pred, Array.of_list (List.rev !distinct))

(* [inst]'s acceptance over the whole byte alphabet, one byte per
   value — filled item by item, with no per-byte walk of a class's
   item list. *)
let accept_table inst =
  let t = Bytes.make 256 '\000' in
  let set b = Bytes.unsafe_set t b '\001' in
  (match inst with
  | Rx_pike.I_char c -> set (Char.code c)
  | Rx_pike.I_any ->
    Bytes.fill t 0 256 '\001';
    Bytes.set t (Char.code '\n') '\000'
  | Rx_pike.I_class { Rx_ast.negated; items } ->
    List.iter
      (function
        | Rx_ast.Cchar c -> set (Char.code c)
        | Rx_ast.Crange (lo, hi) ->
          for b = Char.code lo to Char.code hi do
            set b
          done
        | Rx_ast.Cset kind ->
          for b = 0 to 255 do
            if Rx_ast.set_matches kind (Char.chr b) then set b
          done)
      items;
    if negated then
      for b = 0 to 255 do
        Bytes.unsafe_set t b
          (if Bytes.unsafe_get t b = '\000' then '\001' else '\000')
      done
  | _ -> ());
  t

(* Byte-class derivation: bytes are equivalent when every predicate
   treats them alike and they agree on the assertion facts.  Partition
   refinement: start from the four fact blocks and split every block by
   each predicate in turn, numbering blocks in the order bytes 0..255
   first reach them.  The final numbering is therefore the order in
   which bytes first show a new (fact, acceptance) signature — it does
   not depend on how the predicates are listed or how often each
   recurs — and each class's representative is its lowest byte. *)
let derive_classes preds =
  let cls = Array.init 256 (fun b -> fact_of_char (Char.chr b)) in
  let remap = Array.make 512 (-1) in
  let renumber key =
    Array.fill remap 0 512 (-1);
    let next = ref 0 in
    for b = 0 to 255 do
      let k = key b in
      if remap.(k) < 0 then begin
        remap.(k) <- !next;
        incr next
      end;
      cls.(b) <- remap.(k)
    done;
    !next
  in
  let nclasses = ref (renumber (fun b -> cls.(b))) in
  Array.iter
    (fun inst ->
      let t = accept_table inst in
      nclasses :=
        renumber (fun b -> (2 * cls.(b)) + Char.code (Bytes.unsafe_get t b)))
    preds;
  let nclasses = !nclasses in
  let classes = Bytes.create 256 in
  let reprs = Bytes.make nclasses '\000' in
  let class_fact = Array.make (nclasses + 1) fact_boundary in
  for b = 255 downto 0 do
    let c = cls.(b) in
    Bytes.set classes b (Char.chr c);
    Bytes.set reprs c (Char.chr b);
    class_fact.(c) <- fact_of_char (Char.chr b)
  done;
  (Bytes.to_string classes, nclasses, class_fact, Bytes.to_string reprs)

let build ~fwd ~rev =
  (* one class table serves both programs *)
  let _, preds = predicates (Array.append fwd rev) in
  let classes, nclasses, class_fact, class_repr = derive_classes preds in
  { fwd_prog = fwd; rev_prog = rev; classes; nclasses; class_fact; class_repr }

(* A DFA state: the left-context fact plus the pending NFA threads (the
   program counters stepped into this boundary, in priority order, not
   yet epsilon-closed — closure needs the next byte, so it happens when
   a transition out of the state is first taken). *)
type state = {
  st_ctx : int;
  st_raw : int array;
  st_dead : bool; (* no threads at all (anchored successors only) *)
}

let dead_or_dummy = { st_ctx = 0; st_raw = [||]; st_dead = true }
let no_row : int array = [||]

(* One direction's mutable machine: interning table, bounded state
   store, transition rows, and closure scratch.  Rows live in arrays
   parallel to [states] so the match loop reaches a row in one load.

   Row encodings (chosen so the hot loop's common case is one sign
   test):

   - [urows] (unanchored, forward phase 1): [-1] not materialized,
     [-2] a match ends at this boundary (the successor is not even
     interned — the anchored rerun recomputes it); otherwise
     [(sid lsl 1) lor bare] where [bare] marks a successor holding only
     the injected fresh-start thread, i.e. a point where the skip
     analysis may jump.  Unanchored successors always contain that
     injected thread, so they are never dead — the loop needs no dead
     check.

   - [arows] (anchored): [-1] not materialized; otherwise
     [(sid lsl 1) lor flag] where [flag] marks a match ending at this
     boundary.  Dead successors are real interned states
     ([st_dead = true]). *)
type mach = {
  prog : Rx_pike.inst array;
  prune : bool; (* stop closure at I_match (forward only) *)
  swap : bool; (* backward: facts swap boundary sides *)
  ncols : int;
  max_states : int;
  mutable nstates : int;
  states : state array;
  urows : int array array;
  arows : int array array;
  itbl : (string, int) Hashtbl.t;
  mutable fgen : int; (* flush generation; start-state memos key on it *)
  stamp : int array; (* per-pc visit stamps for closure dedup *)
  mutable gen : int;
  buf : int array; (* closure output: consuming pcs, in order *)
  (* Interned start-state ids by left-context fact, valid while
     [start_gen = fgen]: start states depend only on the program, so
     the memo survives across searches (and subjects) until a flush
     drops the interned states. *)
  start_sids : int array;
  mutable start_gen : int;
}

(* Cache-pressure counters, maintained on the slow (materialization)
   path only so the per-byte loop carries no accounting stores; hit
   counts are recovered at publish time from the byte ticks. *)
type cache = {
  st : static;
  fw : mach;
  rv : mach;
  mutable c_misses : int;
  mutable c_flushes : int;
}

let default_max_states = 512
let max_search_flushes = 4

let make_mach st prog ~prune ~swap ~max_states =
  let n = Array.length prog in
  {
    prog;
    prune;
    swap;
    ncols = st.nclasses + 1;
    max_states;
    nstates = 0;
    states = Array.make max_states dead_or_dummy;
    urows = Array.make max_states no_row;
    arows = Array.make max_states no_row;
    itbl = Hashtbl.create 64;
    fgen = 0;
    stamp = Array.make n 0;
    gen = 0;
    buf = Array.make (n + 1) 0;
    start_sids = Array.make 4 (-1);
    start_gen = -1;
  }

let make_cache ?(max_states = default_max_states) st =
  if max_states < 2 then invalid_arg "Rx_dfa.make_cache: max_states < 2";
  {
    st;
    fw = make_mach st st.fwd_prog ~prune:true ~swap:false ~max_states;
    rv = make_mach st st.rev_prog ~prune:false ~swap:true ~max_states;
    c_misses = 0;
    c_flushes = 0;
  }

let hits_counter = Telemetry.Counter.make "rx_dfa_cache_hits_total"
let misses_counter = Telemetry.Counter.make "rx_dfa_cache_misses_total"
let flushes_counter = Telemetry.Counter.make "rx_dfa_cache_flushes_total"

(* [ticks] is the number of bytes the search scanned through live
   states; each one took a cached or freshly materialized transition,
   so hits = ticks - misses up to the skip jumps and mode switches.
   [recorder] is the caller's pre-fetched recording handle — the search
   entry points accept one so a whole scan sweep pays the sink lookup
   once; callers that did not thread one through still get recorded via
   a local fetch. *)
let publish cache ~recorder ~ticks =
  (match
     (match recorder with Some _ as r -> r | None -> Telemetry.recorder ())
   with
  | None -> ()
  | Some r ->
    (* one write batch for the whole search, squarely on the
       instrumented scan hot path *)
    let hits = ticks - cache.c_misses in
    if hits > 0 then Telemetry.Counter.record r hits_counter hits;
    if cache.c_misses > 0 then
      Telemetry.Counter.record r misses_counter cache.c_misses;
    if cache.c_flushes > 0 then
      Telemetry.Counter.record r flushes_counter cache.c_flushes);
  cache.c_misses <- 0;
  cache.c_flushes <- 0

(* State keys pack (ctx, raw) into a string for the interning table;
   pcs fit 16 bits (tier selection caps programs far below that). *)
let key_of ctx raw =
  let n = Array.length raw in
  let b = Bytes.create (1 + (2 * n)) in
  Bytes.unsafe_set b 0 (Char.unsafe_chr ctx);
  for i = 0 to n - 1 do
    let pc = Array.unsafe_get raw i in
    Bytes.unsafe_set b (1 + (2 * i)) (Char.unsafe_chr (pc land 0xff));
    Bytes.unsafe_set b (2 + (2 * i)) (Char.unsafe_chr (pc lsr 8))
  done;
  Bytes.unsafe_to_string b

let flush cache m =
  Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_flush;
  Hashtbl.reset m.itbl;
  (* drop the states and rows so stale successor ids can never be
     reached again *)
  Array.fill m.states 0 m.nstates dead_or_dummy;
  Array.fill m.urows 0 m.nstates no_row;
  Array.fill m.arows 0 m.nstates no_row;
  m.nstates <- 0;
  m.fgen <- m.fgen + 1;
  cache.c_flushes <- cache.c_flushes + 1

let find_or_add cache m ctx raw =
  let key = key_of ctx raw in
  match Hashtbl.find_opt m.itbl key with
  | Some sid -> sid
  | None ->
    if m.nstates >= m.max_states then begin
      flush cache m;
      raise Restart
    end;
    let sid = m.nstates in
    m.states.(sid) <-
      { st_ctx = ctx; st_raw = raw; st_dead = Array.length raw = 0 };
    m.urows.(sid) <- Array.make m.ncols (-1);
    m.arows.(sid) <- Array.make m.ncols (-1);
    Hashtbl.add m.itbl key sid;
    m.nstates <- sid + 1;
    sid

(* Epsilon closure of [raw] at a boundary whose subject-left fact is
   [lf] and subject-right fact is [rf].  Collects the consuming pcs
   reachable through zero-width instructions into [m.buf] in priority
   order; returns [(count, matched)].  With [m.prune], collection stops
   at the first [I_match]: in leftmost-first semantics no lower-priority
   thread can beat a match already found. *)
let closure m raw ~lf ~rf =
  m.gen <- m.gen + 1;
  let gen = m.gen in
  let stamp = m.stamp and prog = m.prog and buf = m.buf in
  let count = ref 0 in
  let matched = ref false in
  let stop = ref false in
  let rec add pc =
    if (not !stop) && stamp.(pc) <> gen then begin
      stamp.(pc) <- gen;
      match prog.(pc) with
      | Rx_pike.I_jmp t -> add t
      | Rx_pike.I_split (a, b) ->
        add a;
        add b
      | Rx_pike.I_bol ->
        if lf = fact_boundary || lf = fact_newline then add (pc + 1)
      | Rx_pike.I_eol ->
        if rf = fact_boundary || rf = fact_newline then add (pc + 1)
      | Rx_pike.I_eos -> if rf = fact_boundary then add (pc + 1)
      | Rx_pike.I_wordb ->
        if (lf = fact_word) <> (rf = fact_word) then add (pc + 1)
      | Rx_pike.I_nwordb ->
        if (lf = fact_word) = (rf = fact_word) then add (pc + 1)
      | Rx_pike.I_match ->
        matched := true;
        if m.prune then stop := true
      | Rx_pike.I_char _ | Rx_pike.I_any | Rx_pike.I_class _ ->
        buf.(!count) <- pc;
        incr count
    end
  in
  Array.iter add raw;
  (!count, !matched)

(* The shared half of transition materialization: close [s] over the
   boundary before class [c], step every collected thread on the class
   representative, and return the successor's raw set (injection not
   yet applied) plus the match flag. *)
let successors cache m s c =
  cache.c_misses <- cache.c_misses + 1;
  let stc = cache.st in
  let cf = stc.class_fact.(c) in
  let lf, rf = if m.swap then (cf, s.st_ctx) else (s.st_ctx, cf) in
  let n, matched = closure m s.st_raw ~lf ~rf in
  let tmp = Array.make (n + 1) 0 in
  let k = ref 0 in
  if c < stc.nclasses then begin
    let repr = stc.class_repr.[c] in
    for i = 0 to n - 1 do
      let pc = m.buf.(i) in
      let ok =
        match m.prog.(pc) with
        | Rx_pike.I_char c' -> repr = c'
        | Rx_pike.I_any -> repr <> '\n'
        | Rx_pike.I_class cls -> Rx_ast.class_matches cls repr
        | _ -> false
      in
      if ok then begin
        tmp.(!k) <- pc + 1;
        incr k
      end
    done
  end;
  (cf, tmp, k, matched)

(* Materialize the unanchored transition out of state [sid] on class
   [c].  A match flag short-circuits to [-2] without interning the
   successor (phase 2 reruns the boundary anchored anyway).
   @raise Restart when interning the successor flushed the table. *)
let materialize_u cache m sid c =
  let s = Array.unsafe_get m.states sid in
  let cf, tmp, k, matched = successors cache m s c in
  if matched then begin
    (Array.unsafe_get m.urows sid).(c) <- -2;
    -2
  end
  else begin
    let bare = !k = 0 in
    (* inject the fresh start attempt at lowest priority — the DFA form
       of the backtracker's start loop *)
    tmp.(!k) <- 0;
    incr k;
    let raw' = Array.sub tmp 0 !k in
    let sid' = find_or_add cache m cf raw' in
    let v = (sid' lsl 1) lor (if bare then 1 else 0) in
    (Array.unsafe_get m.urows sid).(c) <- v;
    v
  end

(* Materialize the anchored transition out of [sid] on class [c]. *)
let materialize_a cache m sid c =
  let s = Array.unsafe_get m.states sid in
  let cf, tmp, k, matched = successors cache m s c in
  let raw' = Array.sub tmp 0 !k in
  let sid' = find_or_add cache m cf raw' in
  let v = (sid' lsl 1) lor (if matched then 1 else 0) in
  (Array.unsafe_get m.arows sid).(c) <- v;
  v

let step_allowance_exceeded =
  Rx_match.Budget_exceeded "rx dfa: step cap exceeded"

let start_raw = [| 0 |]

(* Start-skip shape, selected once per search from the compile-time
   start analysis.  A plain tag plus the top-level hunt helpers below
   (rather than a closure pair built per search) keeps the skip path
   allocation-free. *)
type skip_shape =
  | Skip_prefix1
  | Skip_prefixes
  | Skip_memchr1 of char
  | Skip_table of bytes
  | Skip_bol_table of bytes
  | Skip_bol

(* [s] is a candidate match start for a required literal [prefix]
   anchored on its rarest byte [prefix.[anchor]]; the memchr hunts the
   anchor byte, so occurrences map back to starts at [- anchor] —
   monotone in [s], hence the early stops.  False anchor hits never
   wake the state machine up: the in-place verify loop rejects them
   cheaper than DFA steps would. *)
let rec hunt_prefix subject ~len ~prefix ~anchor s =
  let plen = String.length prefix in
  if s + plen > len then len + 1
  else
    match String.index_from subject (s + anchor) prefix.[anchor] with
    | exception Not_found -> len + 1
    | ia ->
      let i = ia - anchor in
      if i + plen > len then len + 1
      else begin
        let j = ref 0 in
        while
          !j < plen
          && String.unsafe_get subject (i + !j) = String.unsafe_get prefix !j
        do
          incr j
        done;
        if !j = plen then i
        else hunt_prefix subject ~len ~prefix ~anchor (i + 1)
      end

(* One lane of the multi-prefix shape: like [hunt_prefix] but records
   the earliest verified hit in [best] and stops as soon as the lane
   passes the best hit so far. *)
let rec hunt_lane subject ~len ~prefix ~anchor ~best s =
  let plen = String.length prefix in
  if s < !best && s + plen <= len then
    match String.index_from subject (s + anchor) prefix.[anchor] with
    | exception Not_found -> ()
    | ia ->
      let i = ia - anchor in
      if i < !best && i + plen <= len then begin
        let j = ref 0 in
        while
          !j < plen
          && String.unsafe_get subject (i + !j) = String.unsafe_get prefix !j
        do
          incr j
        done;
        if !j = plen then best := i
        else hunt_lane subject ~len ~prefix ~anchor ~best (i + 1)
      end

(* Forward pass: returns the boundary where the leftmost-first match
   ends, or -1 when there is no match with a start at or after [pos].
   [stop_at_first] short-circuits at the first flag (boolean queries
   need no exact span). *)
let forward_end cache ~stop_at_first ~cap ~steps ~first_bytes ~first_byte
    ~prefixes ~bol_only subject pos =
  let stc = cache.st in
  let m = cache.fw in
  let len = String.length subject in
  let classes = stc.classes in
  let sentinel = stc.nclasses in
  let fact_left p =
    if p = 0 then fact_boundary
    else
      stc.class_fact.(Char.code
                        (String.unsafe_get classes
                           (Char.code (String.unsafe_get subject (p - 1)))))
  in
  let skippable =
    bol_only || first_bytes <> None || first_byte <> None
    || Array.length prefixes > 0
  in
  (* [next_feasible s] is the first start offset >= s that the
     compile-time start analysis allows, or [len + 1] when none
     remains — the FIRST-byte / line-start skip of the backtracking
     search, kept on this tier.  The shape is selected once per search
     as a plain tag (the hunt helpers are top-level, so a detour
     allocates nothing): a singleton FIRST set delegates to memchr,
     required literals get memchr-plus-verify lanes, the general table
     case is one tight byte loop. *)
  let shape =
    if Array.length prefixes = 1 && not bol_only then Skip_prefix1
    else if Array.length prefixes >= 2 && not bol_only then Skip_prefixes
    else
      match (first_byte, first_bytes) with
      | Some fb1, _ when not bol_only -> Skip_memchr1 fb1
      | _, Some fb when not bol_only -> Skip_table fb
      | _, Some fb -> Skip_bol_table fb
      | _ -> Skip_bol
  in
  let next_feasible s =
    match shape with
    | Skip_prefix1 ->
      let prefix, anchor = prefixes.(0) in
      hunt_prefix subject ~len ~prefix ~anchor s
    | Skip_prefixes ->
      (* several required-literal alternatives (a leading alternation):
         one memchr lane per branch — each anchored on its literal's
         rarest byte and verified in place — and the skip lands on the
         earliest surviving hit.  Later lanes stop as soon as they pass
         the best hit so far, so the per-detour cost stays close to the
         single-prefix shape. *)
      let best = ref (len + 1) in
      for b = 0 to Array.length prefixes - 1 do
        let p, anchor = Array.unsafe_get prefixes b in
        hunt_lane subject ~len ~prefix:p ~anchor ~best s
      done;
      !best
    | Skip_memchr1 fb1 -> (
      match String.index_from_opt subject s fb1 with
      | Some i -> i
      | None -> len + 1)
    | Skip_table fb ->
      let s = ref s in
      while
        !s < len
        && Bytes.unsafe_get fb (Char.code (String.unsafe_get subject !s))
           = '\000'
      do
        incr s
      done;
      if !s < len then !s else len + 1
    | Skip_bol_table fb ->
      let s = ref s in
      while
        !s <= len
        && not
             ((!s = 0 || String.unsafe_get subject (!s - 1) = '\n')
             && !s < len
             && Bytes.unsafe_get fb (Char.code (String.unsafe_get subject !s))
                <> '\000')
      do
        incr s
      done;
      if !s <= len then !s else len + 1
    | Skip_bol ->
      (* [skippable] implies [bol_only] here *)
      let s = ref s in
      while
        !s <= len
        && not (!s = 0 || String.unsafe_get subject (!s - 1) = '\n')
      do
        incr s
      done;
      if !s <= len then !s else len + 1
  in
  let stay ch =
    (* whether the hot loop should keep stepping in place on a dead
       start rather than take the skip detour: always for the table
       shape (cached bare-state transitions cost about what the skip
       loop does, minus the detour overhead — code text rarely has
       long infeasible gaps), only on an immediate first-byte hit for
       the memchr shape (long gaps are where memchr wins), never for
       the line-anchored and prefix shapes (a verify loop or line jump
       beats DFA steps on false hits). *)
    match shape with
    | Skip_table _ -> true
    | Skip_memchr1 fb1 -> ch = fb1
    | _ -> false
  in
  let p0 = if skippable then next_feasible pos else pos in
  if p0 > len then -1
  else begin
    let flushes = ref 0 in
    let intern_sid ctx raw =
      try find_or_add cache m ctx raw
      with Restart ->
        incr flushes;
        if !flushes > max_search_flushes then raise Bail;
        find_or_add cache m ctx raw
    in
    (* Start states differ only by left-context fact; memoized in the
       machine record per flush generation so skip jumps — and whole
       subsequent searches — re-enter in O(1) with no per-call
       scratch. *)
    let get_start ctx =
      if m.start_gen <> m.fgen then begin
        Array.fill m.start_sids 0 4 (-1);
        m.start_gen <- m.fgen
      end;
      let s = Array.unsafe_get m.start_sids ctx in
      if s >= 0 then s
      else begin
        let s = intern_sid ctx start_raw in
        (* intern_sid may have flushed: re-sync the memo generation *)
        if m.start_gen <> m.fgen then begin
          Array.fill m.start_sids 0 4 (-1);
          m.start_gen <- m.fgen
        end;
        m.start_sids.(ctx) <- s;
        s
      end
    in
    let sid = ref (get_start (fact_left p0)) in
    let p = ref p0 in
    let e = ref (-1) in
    (* 0 = hunting, 1 = flag seen at [!p] (recorded in [e]), 2 = no
       match possible *)
    let verdict = ref 0 in
    (* Phase 1a, the hot loop: the unanchored stretch over start
       offsets < [len].  Step accounting is segment-based — [p - seg]
       bytes are flushed into [steps] at every exit — which folds the
       deadline check into the loop bound instead of paying a tick per
       byte. *)
    while !verdict = 0 && !p < len do
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
         while !verdict = 0 && !p < stop do
           let row = Array.unsafe_get m.urows !sid in
           let c =
             Char.code
               (String.unsafe_get classes
                  (Char.code (String.unsafe_get subject !p)))
           in
           let v = Array.unsafe_get row c in
           if v >= 0 then
             if v land 1 = 0 then begin
               sid := v lsr 1;
               incr p
             end
             else begin
               (* bare successor: every live attempt died *)
               incr p;
               if
                 (not skippable)
                 || (!p < stop && stay (String.unsafe_get subject !p))
               then
                 (* keep stepping: the bare successor [v lsr 1] is
                    already the start state for this context *)
                 sid := v lsr 1
               else begin
                 (* jump to the next offset the start analysis allows *)
                 steps := !steps + (!p - !seg);
                 let q = next_feasible !p in
                 if q > len then verdict := 2
                 else begin
                   p := q;
                   seg := q;
                   sid := get_start (fact_left q)
                 end
               end
             end
           else if v = -2 then begin
             (* a match ends at this boundary *)
             steps := !steps + 1 + (!p - !seg);
             seg := !p;
             e := !p;
             verdict := 1
           end
           else begin
             (* not materialized; capture the state record first — it
                survives a flush even though its table slot does not *)
             let scur = Array.unsafe_get m.states !sid in
             match materialize_u cache m !sid c with
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
        raise ex)
    done;
    (* Phase 1b: the end-of-subject boundary, stepped on the anchored
       table with the sentinel class — no fresh attempt starts there. *)
    while !verdict = 0 do
      incr steps;
      if !steps > cap then raise step_allowance_exceeded;
      let c =
        if !p < len then
          Char.code
            (String.unsafe_get classes
               (Char.code (String.unsafe_get subject !p)))
        else sentinel
      in
      let v =
        let v = Array.unsafe_get (Array.unsafe_get m.arows !sid) c in
        if v >= 0 then v
        else begin
          let scur = Array.unsafe_get m.states !sid in
          match materialize_a cache m !sid c with
          | v -> v
          | exception Restart ->
            incr flushes;
            if !flushes > max_search_flushes then raise Bail;
            sid := intern_sid scur.st_ctx scur.st_raw;
            -1
        end
      in
      if v >= 0 then
        if v land 1 = 1 then begin
          e := !p;
          verdict := 1
        end
        else if !p >= len then verdict := 2
        else begin
          let nsid = v lsr 1 in
          if (Array.unsafe_get m.states nsid).st_dead then verdict := 2
          else begin
            sid := nsid;
            incr p
          end
        end
    done;
    (* Phase 2: a match is known to end at [e]; keep running anchored —
       no new starts — until the threads die, recording the last flag.
       Every flag now belongs to the leftmost attempt (prune-after-match
       removed everything below it), so the final [e] is the end of a
       match starting at the leftmost start. *)
    if !verdict = 1 && not stop_at_first then begin
      let extending = ref true in
      while !extending do
        incr steps;
        if !steps > cap then raise step_allowance_exceeded;
        let c =
          if !p < len then
            Char.code
              (String.unsafe_get classes
                 (Char.code (String.unsafe_get subject !p)))
          else sentinel
        in
        let v =
          let v = Array.unsafe_get (Array.unsafe_get m.arows !sid) c in
          if v >= 0 then v
          else begin
            let scur = Array.unsafe_get m.states !sid in
            match materialize_a cache m !sid c with
            | v -> v
            | exception Restart ->
              incr flushes;
              if !flushes > max_search_flushes then raise Bail;
              sid := intern_sid scur.st_ctx scur.st_raw;
              -1
          end
        in
        if v >= 0 then begin
          if v land 1 = 1 then e := !p;
          if !p >= len then extending := false
          else begin
            let nsid = v lsr 1 in
            if (Array.unsafe_get m.states nsid).st_dead then
              extending := false
            else begin
              sid := nsid;
              incr p
            end
          end
        end
      done
    end;
    !e
  end

(* Backward pass: the smallest boundary in [low..e] where a match
   starting there ends exactly at [e].  Runs the reversed program from
   [e] leftward, anchored, without pruning (all thread priorities must
   survive — the query is a minimum over positions, not a preference).
   Returns -1 only if no flag fires, which the forward pass's success
   makes an internal failure (the caller bails to the backtracker). *)
let backward_start cache ~cap ~steps ~low ~e subject =
  let stc = cache.st in
  let m = cache.rv in
  let len = String.length subject in
  let classes = stc.classes in
  let sentinel = stc.nclasses in
  let ctx0 =
    if e = len then fact_boundary
    else
      stc.class_fact.(Char.code
                        (String.unsafe_get classes
                           (Char.code (String.unsafe_get subject e))))
  in
  let flushes = ref 0 in
  let intern_sid ctx raw =
    try find_or_add cache m ctx raw
    with Restart ->
      incr flushes;
      if !flushes > max_search_flushes then raise Bail;
      find_or_add cache m ctx raw
  in
  let best = ref (-1) in
  let p = ref e in
  let sid = ref (intern_sid ctx0 start_raw) in
  let running = ref true in
  while !running do
    incr steps;
    if !steps > cap then raise step_allowance_exceeded;
    let c =
      if !p > 0 then
        Char.code
          (String.unsafe_get classes
             (Char.code (String.unsafe_get subject (!p - 1))))
      else sentinel
    in
    let v =
      let v = Array.unsafe_get (Array.unsafe_get m.arows !sid) c in
      if v >= 0 then v
      else begin
        let scur = Array.unsafe_get m.states !sid in
        match materialize_a cache m !sid c with
        | v -> v
        | exception Restart ->
          incr flushes;
          if !flushes > max_search_flushes then raise Bail;
          sid := intern_sid scur.st_ctx scur.st_raw;
          -1
      end
    in
    if v >= 0 then begin
      if v land 1 = 1 then best := !p;
      if !p <= low || !p = 0 then running := false
      else begin
        let nsid = v lsr 1 in
        if (Array.unsafe_get m.states nsid).st_dead then running := false
        else begin
          sid := nsid;
          decr p
        end
      end
    end
  done;
  !best

let search cache ?recorder ?(cap = max_int) ?steps_acc ?first_bytes
    ?first_byte ?(prefixes = [||]) ~bol_only subject pos =
  if pos < 0 then invalid_arg "Rx: negative position";
  let steps = match steps_acc with Some r -> r | None -> ref 0 in
  let t0 = !steps in
  match
    let e =
      forward_end cache ~stop_at_first:false ~cap ~steps ~first_bytes
        ~first_byte ~prefixes ~bol_only subject pos
    in
    if e < 0 then None
    else begin
      let s = backward_start cache ~cap ~steps ~low:pos ~e subject in
      if s < 0 then raise Bail (* forward/backward disagreement *)
      else Some (s, e)
    end
  with
  | result ->
    publish cache ~recorder ~ticks:(!steps - t0);
    result
  | exception ex ->
    publish cache ~recorder ~ticks:(!steps - t0);
    raise ex

let is_match cache ?recorder ?(cap = max_int) ?steps_acc ?first_bytes
    ?first_byte ?(prefixes = [||]) ~bol_only subject pos =
  if pos < 0 then invalid_arg "Rx: negative position";
  let steps = match steps_acc with Some r -> r | None -> ref 0 in
  let t0 = !steps in
  match
    forward_end cache ~stop_at_first:true ~cap ~steps ~first_bytes
      ~first_byte ~prefixes ~bol_only subject pos
  with
  | e ->
    publish cache ~recorder ~ticks:(!steps - t0);
    e >= 0
  | exception ex ->
    publish cache ~recorder ~ticks:(!steps - t0);
    raise ex

(* Introspection for benchmarks and tests. *)
let state_count cache = (cache.fw.nstates, cache.rv.nstates)
