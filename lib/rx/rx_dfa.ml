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
   at the discovered start when a group is read (and for the span
   itself when a repetition's body can match empty, where the two
   engines may rank ends differently).

   The forward pass's anchored tail and extension and the whole
   backward pass go through one runner ([anchored]): one step per
   boundary, a miss materializes the row ([miss]), and the run stops
   when the threads die or it reaches the edge.

   The alphabet is compressed at build time into equivalence classes:
   two bytes that no instruction of either program distinguishes (and
   that agree on the word/newline facts the anchors inspect) share a
   column in every transition row.  Rule patterns typically induce a
   few dozen classes, shrinking rows from 257 to tens of slots.

   Caches are bounded: when a machine would exceed [max_states] the
   whole table is flushed and the in-flight state re-interned
   ("clear and restart", raising the internal [Restart]); a search that
   keeps flushing raises [Bail] and the caller falls back to the
   backtracker.  Correctness therefore never depends on cache capacity.

   The machine layer — [tables], [state], [mach], interning, closure,
   stepping and the bounded store — is the library's one lazy-DFA core:
   [Rx_fused] runs its catalog-wide existence pass as one more [mach],
   differing only in what closure does at an [I_match] ([on_match]). *)

exception Bail
(* The cache thrashed ([max_search_flushes] flushes in one search) or an
   internal invariant failed; the caller must re-run the search on a
   slower path (the backtracker, or the per-rule sweeps for the fused
   machine).  Raised instead of silently degrading so the fallback is
   observable in telemetry. *)

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

(* Consuming instructions deduplicated structurally: [pred.(pc)] is the
   id of [prog.(pc)]'s predicate (-1 for non-consuming pcs), and the
   distinct predicates come in first-appearance order.  The same [\s],
   [\w] and quote classes recur all over a pattern (and, fused, over a
   whole catalog), so the distinct count is a small fraction of the
   consuming count. *)
let predicates prog =
  (* chars by code; only classes need structural keys *)
  let chars = Array.make 256 (-1) and any = ref (-1) in
  let classes : (Rx_ast.cls, int) Hashtbl.t = Hashtbl.create 64 in
  let distinct = ref [] and next = ref 0 in
  let fresh inst =
    let id = !next in
    incr next;
    distinct := inst :: !distinct;
    id
  in
  let pred =
    Array.map
      (fun inst ->
        match inst with
        | Rx_pike.I_char c ->
          let i = Char.code c in
          if chars.(i) < 0 then chars.(i) <- fresh inst;
          chars.(i)
        | Rx_pike.I_any ->
          if !any < 0 then any := fresh inst;
          !any
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

let digit_bytes = "0123456789"
let word_bytes =
  "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"
let space_bytes = "\t\n\011\012\r "

(* A set kind's bytes, and whether the kind is their complement. *)
let kind_bytes = function
  | Rx_ast.Digit -> (digit_bytes, false)
  | Rx_ast.Nondigit -> (digit_bytes, true)
  | Rx_ast.Word -> (word_bytes, false)
  | Rx_ast.Nonword -> (word_bytes, true)
  | Rx_ast.Space -> (space_bytes, false)
  | Rx_ast.Nonspace -> (space_bytes, true)

let complement_item = function
  | Rx_ast.Cset kind -> snd (kind_bytes kind)
  | Rx_ast.Cchar _ | Rx_ast.Crange _ -> false

(* A consuming instruction's acceptance as a byte set [S] walked in
   place: [split_set inst f] calls [f] on every byte of [S], some
   possibly twice, and [complemented inst] tells whether [inst] accepts
   the bytes outside [S] rather than [S] itself.  A set and its
   complement split a partition alike, so [.], [\S] and negated
   classes walk only the bytes they reject.  A class that mixes a
   complemented set kind with other items walks the bytes it
   accepts. *)
let complemented = function
  | Rx_pike.I_any -> true
  | Rx_pike.I_class { Rx_ast.negated; items = [ Rx_ast.Cset kind ] } ->
    negated <> snd (kind_bytes kind)
  | Rx_pike.I_class { Rx_ast.negated; items } ->
    negated && not (List.exists complement_item items)
  | _ -> false

let split_set inst f =
  let walk s = String.iter (fun c -> f (Char.code c)) s in
  match inst with
  | Rx_pike.I_char c -> f (Char.code c)
  | Rx_pike.I_any -> f (Char.code '\n')
  | Rx_pike.I_class { Rx_ast.items = [ Rx_ast.Cset kind ]; _ } ->
    walk (fst (kind_bytes kind))
  | Rx_pike.I_class ({ Rx_ast.items; _ } as cls) ->
    if List.exists complement_item items then begin
      for b = 0 to 255 do
        if Rx_ast.class_matches cls (Char.chr b) then f b
      done
    end
    else
      List.iter
        (function
          | Rx_ast.Cchar c -> f (Char.code c)
          | Rx_ast.Crange (lo, hi) ->
            for b = Char.code lo to Char.code hi do
              f b
            done
          | Rx_ast.Cset kind -> walk (fst (kind_bytes kind)))
        items
  | _ -> ()

(* The two splits that separate the assertion facts: word bytes, then
   the newline. *)
let fact_splits =
  [|
    Rx_pike.I_class
      { Rx_ast.negated = false; items = [ Rx_ast.Cset Rx_ast.Word ] };
    Rx_pike.I_char '\n';
  |]

(* A program's stepping tables, immutable and shared across domains. *)
type tables = {
  classes : string; (* byte -> input-class id *)
  nclasses : int; (* real classes; the EOI sentinel is id [nclasses] *)
  class_fact : int array; (* class id (sentinel included) -> fact *)
  npred : int;
  accept : Bytes.t;
      (* [(c * npred) + p] is ['\001'] iff predicate [p] accepts input
         class [c]; the sentinel's row is all zero, as no thread
         consumes past the end *)
}

(* Byte-class derivation: bytes are equivalent when every predicate
   treats them alike and they agree on the assertion facts.  Partition
   refinement over one array of the 256 bytes in which every block is
   a contiguous run: a split walks only its set's bytes, moving each to
   the front of its block, and then cuts every block it touched but did
   not fill — so a single-char predicate costs O(1), not a pass over
   the alphabet.  Classes are numbered in the order bytes 0..255 first
   reach them, so the numbering depends neither on the order nor on the
   multiplicity of the predicates.  A predicate accepts whole classes,
   so its acceptance row is written through its set's bytes.  Returns
   [prog]'s predicate ids with the tables.  Every scratch array holds
   at most 256 words, so all of them are minor-heap allocations. *)
let tables prog =
  let pred, preds = predicates prog in
  let elems = Array.init 256 Fun.id and pos = Array.init 256 Fun.id in
  let blk = Array.make 256 0 in
  (* block [k] is [elems.(lo.(k) .. hi.(k) - 1)]; its first
     [marked.(k)] bytes are the ones the current split walked *)
  let lo = Array.make 256 0 and hi = Array.make 256 256 in
  let marked = Array.make 256 0 in
  let touched = Array.make 256 0 and ntouched = ref 0 in
  let seen = Array.make 256 (-1) in
  let nblocks = ref 1 in
  let mark round b =
    if Array.unsafe_get seen b <> round then begin
      seen.(b) <- round;
      let k = blk.(b) in
      let m = marked.(k) in
      if m = 0 then begin
        touched.(!ntouched) <- k;
        incr ntouched
      end;
      let j = lo.(k) + m and i = pos.(b) in
      let b' = elems.(j) in
      elems.(j) <- b;
      pos.(b) <- j;
      elems.(i) <- b';
      pos.(b') <- i;
      marked.(k) <- m + 1
    end
  in
  let split round inst =
    split_set inst (mark round);
    for t = 0 to !ntouched - 1 do
      let k = touched.(t) in
      let m = marked.(k) in
      marked.(k) <- 0;
      if m < hi.(k) - lo.(k) then begin
        let k' = !nblocks in
        incr nblocks;
        lo.(k') <- lo.(k);
        hi.(k') <- lo.(k) + m;
        lo.(k) <- lo.(k) + m;
        for j = lo.(k') to hi.(k') - 1 do
          blk.(elems.(j)) <- k'
        done
      end
    done;
    ntouched := 0
  in
  Array.iteri split fact_splits;
  Array.iteri (fun p inst -> split (p + Array.length fact_splits) inst) preds;
  (* number the blocks by first appearance; [touched] is free again *)
  let remap = touched in
  Array.fill remap 0 256 (-1);
  let classes = Bytes.create 256 in
  let nclasses = ref 0 in
  for b = 0 to 255 do
    let k = blk.(b) in
    if remap.(k) < 0 then begin
      remap.(k) <- !nclasses;
      incr nclasses
    end;
    Bytes.unsafe_set classes b (Char.unsafe_chr remap.(k))
  done;
  let nclasses = !nclasses in
  let npred = Array.length preds in
  let class_fact = Array.make (nclasses + 1) fact_boundary in
  for b = 0 to 255 do
    class_fact.(Char.code (Bytes.unsafe_get classes b)) <-
      fact_of_char (Char.unsafe_chr b)
  done;
  let accept = Bytes.make ((nclasses + 1) * npred) '\000' in
  Array.iteri
    (fun p inst ->
      let set v b =
        Bytes.unsafe_set accept
          ((Char.code (Bytes.unsafe_get classes b) * npred) + p)
          v
      in
      if complemented inst then begin
        for c = 0 to nclasses - 1 do
          Bytes.unsafe_set accept ((c * npred) + p) '\001'
        done;
        split_set inst (set '\000')
      end
      else split_set inst (set '\001'))
    preds;
  let classes = Bytes.unsafe_to_string classes in
  (pred, { classes; nclasses; class_fact; npred; accept })

(* Immutable, per-pattern, shared across domains.  One class table
   serves both programs. *)
type static = {
  tb : tables;
  fwd_prog : Rx_pike.inst array;
  fwd_pred : int array;
  rev_prog : Rx_pike.inst array;
  rev_pred : int array;
}

let build ~fwd ~rev =
  let pred, tb = tables (Array.append fwd rev) in
  let nf = Array.length fwd in
  {
    tb;
    fwd_prog = fwd;
    fwd_pred = Array.sub pred 0 nf;
    rev_prog = rev;
    rev_pred = Array.sub pred nf (Array.length rev);
  }

(* A DFA state: the left-context fact plus the pending NFA threads (the
   program counters stepped into this boundary, in priority order, not
   yet epsilon-closed — closure needs the next byte, so it happens when
   a transition out of the state is first taken).  A state with no
   threads is dead.  [hash] is [hash_threads] of the two, kept so the
   interning table can reject a probe and rehash without rereading the
   threads. *)
type state = { ctx : int; raw : int array; hash : int }

let dead = { ctx = 0; raw = [||]; hash = 0 }
let no_row : int array = [||]

(* States intern by hashing the thread buffer itself: the table
   compares the context fact and the pcs in place, so a lookup builds
   no key and a hit allocates nothing. *)
let hash_threads ctx buf len =
  let h = ref (ctx + 1) in
  for i = 0 to len - 1 do
    h := (!h * 0x01000193) lxor Array.unsafe_get buf i
  done;
  let h = !h in
  (h lxor (h lsr 23) lxor (h lsr 41)) land max_int

let same_threads s ctx buf len =
  s.ctx = ctx
  && Array.length s.raw = len
  &&
  let raw = s.raw and i = ref 0 in
  while !i < len && Array.unsafe_get raw !i = Array.unsafe_get buf !i do
    incr i
  done;
  !i = len

(* What closure does on reaching an [I_match]: [Stop] collecting (the
   forward machine — in leftmost-first semantics no lower-priority
   thread can beat a match already found), [Flag] it and go on (the
   backward machine, whose query is a minimum over positions), or
   record the owning [Slots] entry once per closure (the fused
   machine). *)
type on_match = Stop | Flag | Slots of { owner : int array; nslots : int }

(* Cache-pressure counts, maintained on the slow (materialization)
   path only so the per-byte loop carries no accounting stores; hit
   counts are recovered at publish time from the byte ticks.  A
   pattern's two machines share one. *)
type tally = { mutable misses : int; mutable flushes : int }

(* One machine: a program's interning table, bounded state store,
   transition rows and closure scratch.  Rows live in arrays parallel
   to [states] so the match loop reaches a row in one load; a state
   gets only the rows its machine's phases read.

   The store costs nothing until states exist: [states], [rows],
   [urows] and the interning table start at [initial_states] slots and
   double as states are interned, up to [max_states]; a store holding
   [max_states] states flushes on the next new one.  A fresh machine
   is a few small minor-heap arrays, not [max_states]-slot arrays
   that go straight to the major heap.

   [itbl] is an open-addressing table of state ids ([-1] empty) with
   linear probing, at least twice the store's capacity, so it is at
   most half full.  A probe hashes and compares the successor buffer
   in place; only a new state copies it.

   Row encodings (chosen so the hot loop's common case is one sign
   test):

   - [urows] (the forward machine's unanchored phase 1; empty on every
     other machine): [-1] not materialized, [-2] a match ends at this
     boundary (the successor is not even interned — the anchored rerun
     recomputes it); otherwise [(sid lsl 1) lor bare] where [bare]
     marks a successor holding only the injected fresh-start thread,
     i.e. a point where the skip analysis may jump.  Unanchored
     successors always contain that injected thread, so they are never
     dead — the loop needs no dead check.

   - [rows]: [-1] not materialized; otherwise [(sid lsl 1) lor flag]
     where [flag] marks a match ending at this boundary (for the fused
     machine: some slot matched).  Dead successors are real interned
     states. *)
type mach = {
  prog : Rx_pike.inst array;
  pred : int array; (* pc -> distinct-predicate id; -1 if non-consuming *)
  tb : tables;
  on_match : on_match;
  swap : bool; (* backward: facts swap boundary sides *)
  ncols : int;
  tally : tally;
  unanchored : bool; (* whether states get [urows] *)
  max_states : int;
  mutable nstates : int;
  mutable states : state array; (* its length is the current capacity *)
  mutable rows : int array array;
  mutable urows : int array array;
  mutable itbl : int array;
  mutable fgen : int; (* flush generation *)
  mutable search_flushes : int; (* flushes since the search began *)
  start_sids : int array; (* [start]'s memo, by left-context fact *)
  stamp : int array; (* per-pc visit stamps for closure dedup *)
  mutable gen : int;
  buf : int array; (* closure output: consuming pcs, in order *)
  mutable count : int; (* ... and its length *)
  mutable stopped : bool; (* [Stop] reached a match in this closure *)
  pruned : int array; (* [Slots]: per-slot stamps, matched in this closure *)
  mbuf : int array; (* [Slots]: slots matched in this closure *)
  mutable nmatched : int; (* ... and their count; 0 or 1 otherwise *)
  out : int array; (* successor threads under construction *)
}

let max_search_flushes = 4
let initial_states = 16

(* The interning table's size for a store of [cap] slots: the least
   power of two at least [2 * cap]. *)
let table_size cap =
  let rec go n = if n >= 2 * cap then n else go (2 * n) in
  go 8

let make_mach ?(unanchored = false) ~max_states ~swap ~on_match ~tally tb
    prog pred =
  if max_states < 2 then invalid_arg "Rx_dfa.make_mach: max_states < 2";
  let n = Array.length prog in
  let nslots = match on_match with Slots s -> s.nslots | Stop | Flag -> 0 in
  let cap = min initial_states max_states in
  {
    prog;
    pred;
    tb;
    on_match;
    swap;
    ncols = tb.nclasses + 1;
    tally;
    unanchored;
    max_states;
    nstates = 0;
    states = Array.make cap dead;
    rows = Array.make cap no_row;
    urows = (if unanchored then Array.make cap no_row else [||]);
    itbl = Array.make (table_size cap) (-1);
    fgen = 0;
    search_flushes = 0;
    start_sids = Array.make 4 (-1);
    stamp = Array.make n 0;
    gen = 0;
    buf = Array.make (n + 1) 0;
    count = 0;
    stopped = false;
    pruned = Array.make nslots 0;
    mbuf = Array.make nslots 0;
    nmatched = 0;
    out = Array.make (n + 1) 0;
  }

(* [ticks] is the number of bytes the search scanned through live
   states; each one took a cached or freshly materialized transition,
   so hits = ticks - misses up to the skip jumps and mode switches.
   [recorder] is the caller's pre-fetched recording handle — the search
   entry points accept one so a whole scan sweep pays the sink lookup
   once; callers that did not thread one through still get recorded via
   a local fetch.  The first argument is the (hits, misses, flushes)
   counter triple the machine reports under. *)
let publish (hits_c, misses_c, flushes_c) tally ~recorder ~ticks =
  (match
     (match recorder with Some _ as r -> r | None -> Telemetry.recorder ())
   with
  | None -> ()
  | Some r ->
    (* one write batch for the whole search, squarely on the
       instrumented scan hot path *)
    let hits = ticks - tally.misses in
    if hits > 0 then Telemetry.Counter.record r hits_c hits;
    if tally.misses > 0 then Telemetry.Counter.record r misses_c tally.misses;
    if tally.flushes > 0 then
      Telemetry.Counter.record r flushes_c tally.flushes);
  tally.misses <- 0;
  tally.flushes <- 0

(* The one exit path of every search: [run] gets the step accumulator
   ([steps_acc], or a fresh one), and the steps it ticked are published
   as the search's byte ticks whether it returns or raises. *)
let metered counters tally ~recorder ~steps_acc run =
  let steps = match steps_acc with Some r -> r | None -> ref 0 in
  let t0 = !steps in
  match run steps with
  | result ->
    publish counters tally ~recorder ~ticks:(!steps - t0);
    result
  | exception ex ->
    publish counters tally ~recorder ~ticks:(!steps - t0);
    raise ex

(* Drops the states and rows so stale successor ids can never be
   reached again.  A search that keeps flushing gives up. *)
let flush m =
  Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_flush;
  Array.fill m.itbl 0 (Array.length m.itbl) (-1);
  Array.fill m.states 0 m.nstates dead;
  Array.fill m.rows 0 m.nstates no_row;
  if m.unanchored then Array.fill m.urows 0 m.nstates no_row;
  Array.fill m.start_sids 0 4 (-1);
  m.nstates <- 0;
  m.fgen <- m.fgen + 1;
  m.tally.flushes <- m.tally.flushes + 1;
  m.search_flushes <- m.search_flushes + 1;
  if m.search_flushes > max_search_flushes then raise Bail

(* The first empty slot of [tbl] on [hash]'s probe sequence. *)
let free_slot tbl hash =
  let mask = Array.length tbl - 1 in
  let i = ref (hash land mask) in
  while Array.unsafe_get tbl !i >= 0 do
    i := (!i + 1) land mask
  done;
  !i

let grown a cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Doubles the store, up to [max_states] slots, and rehashes the
   interning table at its new size. *)
let grow m =
  let cap = min m.max_states (2 * Array.length m.states) in
  m.states <- grown m.states cap dead;
  m.rows <- grown m.rows cap no_row;
  if m.unanchored then m.urows <- grown m.urows cap no_row;
  let tbl = Array.make (table_size cap) (-1) in
  for sid = 0 to m.nstates - 1 do
    tbl.(free_slot tbl (Array.unsafe_get m.states sid).hash) <- sid
  done;
  m.itbl <- tbl

(* The state id of the threads [buf.(0 .. len-1)] at left-context fact
   [ctx], interned on first sight.  A hit allocates nothing; a new
   state copies the threads out of [buf].
   @raise Restart when the store was full and got flushed.
   @raise Bail when that flush was one too many for the search. *)
let find_or_add m ctx buf len =
  let hash = hash_threads ctx buf len in
  let tbl = m.itbl in
  let mask = Array.length tbl - 1 in
  (* a loop over locals rather than a local recursive function, which
     would allocate its closure on every lookup *)
  let i = ref (hash land mask) and found = ref (-2) in
  while !found = -2 do
    let sid = Array.unsafe_get tbl !i in
    if sid < 0 then found := -1
    else begin
      let s = Array.unsafe_get m.states sid in
      if s.hash = hash && same_threads s ctx buf len then found := sid
      else i := (!i + 1) land mask
    end
  done;
  if !found >= 0 then !found
  else begin
    if m.nstates = Array.length m.states then
      if m.nstates < m.max_states then grow m
      else begin
        flush m;
        raise Restart
      end;
    let sid = m.nstates in
    m.states.(sid) <- { ctx; raw = Array.sub buf 0 len; hash };
    m.rows.(sid) <- Array.make m.ncols (-1);
    if m.unanchored then m.urows.(sid) <- Array.make m.ncols (-1);
    m.itbl.(free_slot m.itbl hash) <- sid;
    m.nstates <- sid + 1;
    sid
  end

(* [find_or_add] retried once past a flush: the emptied store always
   has room. *)
let intern m ctx buf len =
  try find_or_add m ctx buf len with Restart -> find_or_add m ctx buf len

let start_raw = [| 0 |]

(* The start state for left-context fact [ctx]: start states depend only
   on the program, so the memo serves skip jumps and later searches
   until a flush drops it. *)
let start m ctx =
  let s = Array.unsafe_get m.start_sids ctx in
  if s >= 0 then s
  else begin
    let s = intern m ctx start_raw 1 in
    m.start_sids.(ctx) <- s;
    s
  end

(* One step of [closure]'s DFS: a top-level function over the machine's
   counters rather than a local closure, so a miss allocates nothing to
   close over. *)
let rec close_pc m ~gen ~lf ~rf pc =
  let stamp = m.stamp in
  if (not m.stopped) && stamp.(pc) <> gen then begin
    stamp.(pc) <- gen;
    match m.prog.(pc) with
    | Rx_pike.I_jmp t -> close_pc m ~gen ~lf ~rf t
    | Rx_pike.I_split (a, b) ->
      close_pc m ~gen ~lf ~rf a;
      close_pc m ~gen ~lf ~rf b
    | Rx_pike.I_bol ->
      if lf = fact_boundary || lf = fact_newline then
        close_pc m ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_eol ->
      if rf = fact_boundary || rf = fact_newline then
        close_pc m ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_eos ->
      if rf = fact_boundary then close_pc m ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_wordb ->
      if (lf = fact_word) <> (rf = fact_word) then
        close_pc m ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_nwordb ->
      if (lf = fact_word) = (rf = fact_word) then
        close_pc m ~gen ~lf ~rf (pc + 1)
    | Rx_pike.I_match -> (
      match m.on_match with
      | Stop ->
        m.nmatched <- 1;
        m.stopped <- true
      | Flag -> m.nmatched <- 1
      | Slots { owner; _ } ->
        let s = owner.(pc) in
        if s >= 0 && m.pruned.(s) <> gen then begin
          m.pruned.(s) <- gen;
          m.mbuf.(m.nmatched) <- s;
          m.nmatched <- m.nmatched + 1
        end)
    | Rx_pike.I_char _ | Rx_pike.I_any | Rx_pike.I_class _ ->
      m.buf.(m.count) <- pc;
      m.count <- m.count + 1
  end

(* Epsilon closure of [raw.(0 .. len-1)] at a boundary whose
   subject-left fact is [lf] and subject-right fact is [rf]: the
   consuming pcs reachable through zero-width instructions land in
   [m.buf] in priority order, [m.nmatched] tells whether (and, for
   [Slots], which) [I_match]es were reached.  Returns the pc count. *)
let closure m raw ~len ~lf ~rf =
  m.gen <- m.gen + 1;
  m.count <- 0;
  m.nmatched <- 0;
  m.stopped <- false;
  let gen = m.gen in
  for i = 0 to len - 1 do
    close_pc m ~gen ~lf ~rf (Array.unsafe_get raw i)
  done;
  m.count

(* The per-pattern half of transition materialization: close [s] over
   the boundary before class [c] and step every collected thread that
   accepts [c] into [m.out]; returns the successor's fact and thread
   count (injection not yet applied). *)
let successors m s c =
  m.tally.misses <- m.tally.misses + 1;
  let tb = m.tb in
  let cf = tb.class_fact.(c) in
  let lf, rf = if m.swap then (cf, s.ctx) else (s.ctx, cf) in
  let n = closure m s.raw ~len:(Array.length s.raw) ~lf ~rf in
  let row = c * tb.npred in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let pc = Array.unsafe_get m.buf i in
    if Bytes.unsafe_get tb.accept (row + Array.unsafe_get m.pred pc) <> '\000'
    then begin
      Array.unsafe_set m.out !k (pc + 1);
      incr k
    end
  done;
  (cf, !k)

(* Materialize the unanchored transition out of state [sid] on class
   [c].  A match flag short-circuits to [-2] without interning the
   successor (phase 2 reruns the boundary anchored anyway).
   @raise Restart when interning the successor flushed the table. *)
let materialize_u m sid c =
  let cf, k = successors m (Array.unsafe_get m.states sid) c in
  if m.nmatched > 0 then begin
    (Array.unsafe_get m.urows sid).(c) <- -2;
    -2
  end
  else begin
    (* inject the fresh start attempt at lowest priority — the DFA form
       of the backtracker's start loop *)
    m.out.(k) <- 0;
    let sid' = find_or_add m cf m.out (k + 1) in
    let v = (sid' lsl 1) lor (if k = 0 then 1 else 0) in
    (Array.unsafe_get m.urows sid).(c) <- v;
    v
  end

(* Materialize the anchored transition out of [sid] on class [c]. *)
let materialize_a m sid c =
  let cf, k = successors m (Array.unsafe_get m.states sid) c in
  let matched = m.nmatched > 0 in
  let sid' = find_or_add m cf m.out k in
  let v = (sid' lsl 1) lor (if matched then 1 else 0) in
  (Array.unsafe_get m.rows sid).(c) <- v;
  v

let step_allowance_exceeded =
  Rx_match.Budget_exceeded "rx dfa: step cap exceeded"

(* The mutable, per-domain half of a pattern: one machine per
   direction. *)
type cache = { fw : mach; rv : mach; tally : tally }

let default_max_states = 512

let make_cache ?(max_states = default_max_states) (st : static) =
  let tally = { misses = 0; flushes = 0 } in
  {
    fw =
      make_mach ~unanchored:true ~max_states ~swap:false ~on_match:Stop ~tally
        st.tb st.fwd_prog st.fwd_pred;
    rv =
      make_mach ~max_states ~swap:true ~on_match:Flag ~tally st.tb st.rev_prog
        st.rev_pred;
    tally;
  }

let counters =
  ( Telemetry.Counter.make "rx_dfa_cache_hits_total",
    Telemetry.Counter.make "rx_dfa_cache_misses_total",
    Telemetry.Counter.make "rx_dfa_cache_flushes_total" )

(* libc memchr (rx_memchr.c): the index of the first byte [c] in [s]
   at or after [from], or -1 when there is none or [from >= length s].
   Every skip lane below hunts through it, a word or vector at a time;
   [String.index_from] is a byte-at-a-time loop. *)
external memchr :
  string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rx_memchr" "rx_memchr_unboxed"
[@@noalloc]

(* Start-skip shape, selected once per search from the compile-time
   start analysis.  A plain tag plus the top-level hunt helpers below
   (rather than a closure pair built per search) keeps the skip path
   allocation-free. *)
type skip_shape =
  | Skip_prefixes
  | Skip_memchr1 of char
  | Skip_table of bytes
  | Skip_bol_table of bytes
  | Skip_bol

(* One literal lane: the earliest candidate start [>= s] for a required
   literal [prefix], or [best] when none comes before [best].  The lane
   is anchored on the literal's rarest byte [prefix.[anchor]]; the
   memchr hunts the anchor byte, so occurrences map back to starts at
   [- anchor] — monotone in [s], hence the early stops.  False anchor
   hits never wake the state machine up: the in-place verify loop
   rejects them cheaper than DFA steps would. *)
let rec hunt_lane subject ~len ~prefix ~anchor ~best s =
  let plen = String.length prefix in
  if s >= best || s + plen > len then best
  else
    let ia =
      memchr subject (Char.code (String.unsafe_get prefix anchor)) (s + anchor)
    in
    if ia < 0 then best
    else begin
      let i = ia - anchor in
      if i >= best || i + plen > len then best
      else begin
        let j = ref 0 in
        while
          !j < plen
          && String.unsafe_get subject (i + !j) = String.unsafe_get prefix !j
        do
          incr j
        done;
        if !j = plen then i
        else hunt_lane subject ~len ~prefix ~anchor ~best (i + 1)
      end
    end

(* The first line start [>= s] (offset 0 or just past a ['\n']), or
   [len + 1] when none remains: one memchr per line, not a test per
   byte.  A line start at [len] (after a trailing newline) counts. *)
let next_line_start subject ~len s =
  if s > len then len + 1
  else if s = 0 || String.unsafe_get subject (s - 1) = '\n' then s
  else
    let i = memchr subject (Char.code '\n') s in
    if i < 0 then len + 1 else i + 1

(* The first line start [>= s] whose byte is in the FIRST set [fb] (so
   never [len]), or [len + 1]: a line jump per rejected line. *)
let rec next_line_first subject ~len fb s =
  let s = next_line_start subject ~len s in
  if s >= len then len + 1
  else if
    Bytes.unsafe_get fb (Char.code (String.unsafe_get subject s)) <> '\000'
  then s
  else next_line_first subject ~len fb (s + 1)

(* The input class of byte [i] of [subject], or the end-of-input
   sentinel when [i] lies off the subject; [tb.class_fact] of it is the
   byte's fact, [fact_boundary] off the subject. *)
let class_at tb subject i =
  if i >= 0 && i < String.length subject then
    Char.code
      (String.unsafe_get tb.classes (Char.code (String.unsafe_get subject i)))
  else tb.nclasses
[@@inline]

(* A miss in state [sid] on class [c]: [materialize arg sid c] fills the
   row entry.  Returns the state to go on from — [sid], or its
   re-interned copy when materializing flushed the store (the state
   record survives a flush even though its table slot does not, and
   the copy's row is empty again).  The caller re-reads the row either
   way.  The materializer's context comes as an argument, so a miss
   builds no closure. *)
let miss m materialize arg sid c =
  let s = Array.unsafe_get m.states sid in
  match materialize arg sid c with
  | (_ : int) -> sid
  | exception Restart -> intern m s.ctx s.raw (Array.length s.raw)

(* The one anchored runner: steps [m] from boundary [p] in state [!sid]
   until the threads die or the run has read boundary [edge], each
   boundary reading the byte after it ([back = 0], forward) or before
   it ([back = 1], backward) — the end-of-input sentinel past the
   subject's edge — and costing one step, checked against [cap].
   Returns the last boundary whose transition carried the match flag,
   or -1.  With [first], the first flag ends the run before its
   transition is taken, with [sid] left on the state at that boundary
   so a second run can resume there. *)
let anchored m ~cap ~steps ~back ~edge ~first subject sid p =
  let tb = m.tb in
  let cur = ref !sid and p = ref p and e = ref (-1) and running = ref true in
  while !running do
    incr steps;
    if !steps > cap then raise step_allowance_exceeded;
    let c = class_at tb subject (!p - back) in
    let v = Array.unsafe_get (Array.unsafe_get m.rows !cur) c in
    let v =
      if v >= 0 then v
      else begin
        cur := miss m materialize_a m !cur c;
        (* still -1 after a flush: the next round retries the boundary *)
        Array.unsafe_get (Array.unsafe_get m.rows !cur) c
      end
    in
    if v >= 0 then begin
      if v land 1 = 1 then e := !p;
      if v land 1 = 1 && first then running := false
      else begin
        let nsid = v lsr 1 in
        if !p = edge || Array.length (Array.unsafe_get m.states nsid).raw = 0
        then running := false
        else begin
          cur := nsid;
          p := !p + 1 - (2 * back)
        end
      end
    end
  done;
  sid := !cur;
  !e

(* Forward pass: returns the boundary where the leftmost-first match
   ends, or -1 when there is no match with a start in [pos..until].
   [stop_at_first] short-circuits at the first flag (boolean queries
   need no exact span).

   [until] fences the starts: the unanchored phase injects no fresh
   attempt past it, and a skip landing past it ends the search.  The
   threads it drops all rank below every attempt started at or before
   [until], so when the leftmost match start from [pos] is [<= until]
   the fenced pass flags the same leftmost-first match as an unfenced
   one — leftmost-first priority never lets a later attempt change an
   earlier attempt's end — and otherwise it finds none. *)
let forward_end ?(until = max_int) cache ~stop_at_first ~cap ~steps
    ~first_bytes ~first_byte ~prefixes ~bol_only subject pos =
  let m = cache.fw in
  let tb = m.tb in
  let len = String.length subject in
  let classes = tb.classes in
  let fact_left p = tb.class_fact.(class_at tb subject (p - 1)) in
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
     required literals get memchr-plus-verify lanes, line-anchored
     shapes jump from line to line with memchr ['\n'], the general
     table case is one tight byte loop. *)
  let shape =
    if Array.length prefixes > 0 && not bol_only then Skip_prefixes
    else
      match (first_byte, first_bytes) with
      | Some fb1, _ when not bol_only -> Skip_memchr1 fb1
      | _, Some fb when not bol_only -> Skip_table fb
      | _, Some fb -> Skip_bol_table fb
      | _ -> Skip_bol
  in
  let next_feasible s =
    match shape with
    | Skip_prefixes ->
      (* one memchr lane per required literal (several for a leading
         alternation), landing on the earliest verified hit; later
         lanes stop as soon as they pass the best hit so far, so the
         per-detour cost stays close to a single lane's *)
      let best = ref (len + 1) in
      for b = 0 to Array.length prefixes - 1 do
        let prefix, anchor = Array.unsafe_get prefixes b in
        best := hunt_lane subject ~len ~prefix ~anchor ~best:!best s
      done;
      !best
    | Skip_memchr1 fb1 ->
      let i = memchr subject (Char.code fb1) s in
      if i < 0 then len + 1 else i
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
    | Skip_bol_table fb -> next_line_first subject ~len fb s
    | Skip_bol ->
      (* [skippable] implies [bol_only] here *)
      next_line_start subject ~len s
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
  (* the last boundary an attempt may start at *)
  let lim = if until < len then until else len in
  let p0 = if skippable then next_feasible pos else pos in
  if p0 > lim then -1
  else begin
    m.search_flushes <- 0;
    (* start states differ only by left-context fact: the machine's memo
       lets skip jumps — and whole subsequent searches — re-enter in
       O(1) *)
    let sid = ref (start m (fact_left p0)) in
    let p = ref p0 in
    (* 0 = hunting, 1 = a match ends at [!p], 2 = no match possible *)
    let verdict = ref 0 in
    (* The hot loop: the unanchored stretch, injecting a fresh attempt
       at every boundary up to [lim].  Step accounting is
       segment-based — [p - seg] bytes are flushed into [steps] at
       every exit — which folds the deadline check into the loop bound
       instead of paying a tick per byte. *)
    while !verdict = 0 && !p < lim do
      let stop =
        if cap = max_int then lim
        else begin
          let allowed = cap - !steps in
          if allowed <= 0 then raise step_allowance_exceeded
          else if allowed >= lim - !p then lim
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
                 if q > lim then verdict := 2
                 else begin
                   p := q;
                   seg := q;
                   sid := start m (fact_left q)
                 end
               end
             end
           else if v = -2 then begin
             (* a match ends at this boundary *)
             steps := !steps + 1 + (!p - !seg);
             seg := !p;
             verdict := 1
           end
           else sid := miss m materialize_u m !sid c
         done
       with
      | () -> steps := !steps + (!p - !seg)
      | exception ex ->
        steps := !steps + (!p - !seg);
        raise ex)
    done;
    if !verdict = 2 then -1
    else begin
      (* No fresh attempt starts past [lim]: the live ones run on the
         anchored table until one flags or all die — at [len] that is
         the one sentinel step.  Then, unless only existence was asked,
         a match is known to end at [e]; a second anchored run from the
         same boundary keeps going until the threads die, recording the
         last flag.  Every flag now belongs to the leftmost attempt
         (prune-after-match removed everything below it), so the final
         flag is the end of a match starting at the leftmost start. *)
      let cur = ref !sid in
      let run ~first p =
        anchored m ~cap ~steps ~back:0 ~edge:len ~first subject cur p
      in
      let e = if !verdict = 1 then !p else run ~first:true !p in
      if e < 0 || stop_at_first then e else run ~first:false e
    end
  end

(* Backward pass: the smallest boundary in [low..e] where a match
   starting there ends exactly at [e].  Runs the reversed program from
   [e] leftward, anchored, without pruning (all thread priorities must
   survive — the query is a minimum over positions, not a preference).
   Returns -1 only if no flag fires, which the forward pass's success
   makes an internal failure (the caller bails to the backtracker). *)
let backward_start cache ~cap ~steps ~low ~e subject =
  let m = cache.rv in
  m.search_flushes <- 0;
  let sid = ref (start m m.tb.class_fact.(class_at m.tb subject e)) in
  anchored m ~cap ~steps ~back:1 ~edge:low ~first:false subject sid e

let search cache ?recorder ?(cap = max_int) ?steps_acc ?until ?first_bytes
    ?first_byte ?(prefixes = [||]) ~bol_only subject pos =
  if pos < 0 then invalid_arg "Rx: negative position";
  metered counters cache.tally ~recorder ~steps_acc (fun steps ->
      let e =
        forward_end ?until cache ~stop_at_first:false ~cap ~steps ~first_bytes
          ~first_byte ~prefixes ~bol_only subject pos
      in
      if e < 0 then None
      else begin
        let s = backward_start cache ~cap ~steps ~low:pos ~e subject in
        if s < 0 then raise Bail (* forward/backward disagreement *)
        else Some (s, e)
      end)

let is_match cache ?recorder ?(cap = max_int) ?steps_acc ?first_bytes
    ?first_byte ?(prefixes = [||]) ~bol_only subject pos =
  if pos < 0 then invalid_arg "Rx: negative position";
  metered counters cache.tally ~recorder ~steps_acc (fun steps ->
      forward_end cache ~stop_at_first:true ~cap ~steps ~first_bytes
        ~first_byte ~prefixes ~bol_only subject pos
      >= 0)
