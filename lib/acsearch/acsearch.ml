(* Aho–Corasick, compiled to a dense class-indexed DFA.

   Build is three phases: trie insertion, byte-class derivation, and a
   breadth-first squash of goto/fail into a single transition table
   (delta) so the scan loop is one class lookup and one table read per
   input byte.  Output sets are merged down failure chains at build
   time, which keeps the scan loop free of chain walking.

   Byte classes: only bytes that appear in some pattern can move the
   automaton off the failure path, and every other byte behaves
   identically in every state (no edge anywhere is labelled with it, so
   goto falls through to the root).  The rule catalog's literals use
   ~60 distinct bytes, so mapping bytes through a 256-entry class table
   shrinks each state's row from 256 entries to the next power of two
   above the class count — a quarter of the memory, which matters
   twice: the table stays closer to L1 during scans, and a rule-pack
   load allocates a quarter as much (large allocations dominate pack
   cold-start cost).

   The table has two representations.  The common one (Dense16) is a
   flat Bytes.t of 16-bit state ids, [1 lsl cshift] bytes per state,
   padded to a power-of-two state count:
   - build squashes a state by blitting its failure state's whole row
     and overwriting the real edges, instead of deciding goto-vs-fail
     per class — an order of magnitude faster;
   - the scan loop masks every fetched state id to the padded range,
     class offsets are premultiplied and always inside a row, and the
     out table spans the whole masked range, so even a corrupt table
     can only produce wrong transitions, never an out-of-bounds access;
   - half the memory traffic of boxed int rows.
   Automata past 65536 states (never the rule catalog; conceivable from
   a giant user rules file) fall back to byte-indexed int-array rows
   (Rows).

   The trie ([kids], [base_out]) is kept on the side: it is the
   canonical form the binary codec ships — a few kilobytes instead of
   the expanded table — and [construct] rebuilds the dense form from it
   on pack load with the same blit pass build uses. *)

type rep =
  | Dense16 of {
      delta : Bytes.t;
          (* row [s] is [delta[s lsl cshift .. (s+1) lsl cshift - 1]],
             native-endian u16 entries, one per byte class *)
      smask : int;  (* padded state count - 1 *)
      clsoff : int array;
          (* byte -> premultiplied class offset (class * 2), 256
             entries, each < [1 lsl cshift] *)
      cshift : int;  (* log2 of the row size in bytes *)
    }
  | Rows of int array array  (* state -> byte -> state *)

(* The trie in flattened form: state [s]'s edges are slots
   [kid_start.(s) .. kid_start.(s+1) - 1] of [kid_byte]/[kid_child],
   its unmerged pattern ids the same slots of [out_start]/[out_id].
   Flat arrays rather than per-state lists because the codec parses
   this with tight loops (a list-of-pairs form spent half of pack load
   on cons cells and closures). *)
type trie = {
  nstates : int;
  kid_start : int array;  (* length nstates + 1 *)
  kid_byte : string;  (* edge labels, one byte per edge *)
  kid_child : int array;
  out_start : int array;  (* length nstates + 1 *)
  out_id : int array;
}

type t = {
  rep : rep;
  out : int array array;
      (* state -> pattern indices ending here (merged down failure
         chains); length = padded state count, so any masked state id
         indexes safely *)
  npat : int;
  trie : trie;  (* retained: it is the binary codec's wire form *)
}

let pattern_count t = t.npat

(* Unaligned native-endian 16-bit load without a bounds check: every
   index is [(masked state) lsl cshift lor clsoff.(byte)], in range by
   construction. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

let max_dense_states = 65536

let next_pow2 n =
  let r = ref 1 in
  while !r < n do
    r := !r * 2
  done;
  !r

(* Squashes a trie into the scan representation.  Shared by [build] and
   the codec's [read]: the trie is both the build intermediate and the
   wire form.  The trie must be a tree rooted at state 0 (readers
   validate this). *)
let construct ~npat (trie : trie) =
  let n = trie.nstates in
  let { kid_start; kid_byte; kid_child; out_start; out_id; _ } = trie in
  let fail = Array.make n 0 in
  let out = Array.make n [] in
  for s = 0 to n - 1 do
    let acc = ref [] in
    for k = out_start.(s + 1) - 1 downto out_start.(s) do
      acc := out_id.(k) :: !acc
    done;
    out.(s) <- !acc
  done;
  (* The traversal order: parents strictly before children (any such
     order works — a child's failure state is always shallower than the
     child, so its row is final by the time the child is squashed).  A
     plain array cursor, not a Queue: this runs on the pack cold-start
     path and a Queue allocates per push. *)
  let order = Array.make n 0 in
  let qtail = ref 0 in
  let push s =
    order.(!qtail) <- s;
    incr qtail
  in
  if n <= max_dense_states then begin
    (* Byte classes: class 0 is every byte labelling no edge (all such
       bytes transition identically), each edge byte gets its own
       class. *)
    let clsoff = Array.make 256 0 in
    let nclasses = ref 1 in
    String.iter
      (fun ch ->
        let c = Char.code ch in
        if clsoff.(c) = 0 then begin
          clsoff.(c) <- !nclasses * 2;
          incr nclasses
        end)
      kid_byte;
    let row_entries = next_pow2 !nclasses in
    let cshift =
      let s = ref 1 in
      while 1 lsl !s < row_entries * 2 do
        incr s
      done;
      !s
    in
    let rows = next_pow2 n in
    let row_bytes = 1 lsl cshift in
    (* [Bytes.create], not [Bytes.make]: every real row other than the
       root is fully overwritten by its failure-row blit, so only the
       root row and the padding rows need explicit zeroing (missing
       root edges and padding must point at the root — padding rows are
       reachable only through a corrupt table, but must still be
       deterministic).  Skipping the full zero fill matters on the pack
       load path. *)
    let delta = Bytes.create (rows * row_bytes) in
    Bytes.fill delta 0 row_bytes '\000';
    Bytes.fill delta (n * row_bytes) ((rows - n) * row_bytes) '\000';
    let set16 st c v =
      Bytes.set_uint16_ne delta ((st lsl cshift) lor clsoff.(c)) v
    in
    let get16 st c = Bytes.get_uint16_ne delta ((st lsl cshift) lor clsoff.(c)) in
    for k = kid_start.(0) to kid_start.(1) - 1 do
      let ch = kid_child.(k) in
      set16 0 (Char.code kid_byte.[k]) ch;
      push ch
    done;
    (* A state's row is its failure state's row (already squashed,
       since failure states are strictly shallower) overwritten with
       its real edges; a child's failure is what the failure row held
       at the edge byte before the overwrite. *)
    let qhead = ref 0 in
    while !qhead < !qtail do
      let s = order.(!qhead) in
      incr qhead;
      (match out.(fail.(s)) with
      | [] -> ()
      | inherited -> out.(s) <- out.(s) @ inherited);
      Bytes.blit delta (fail.(s) lsl cshift) delta (s lsl cshift) row_bytes;
      for k = kid_start.(s) to kid_start.(s + 1) - 1 do
        let c = Char.code kid_byte.[k] in
        let ch = kid_child.(k) in
        fail.(ch) <- get16 fail.(s) c;
        set16 s c ch;
        push ch
      done
    done;
    let out_arr = Array.make rows [||] in
    for s = 0 to n - 1 do
      match out.(s) with
      | [] -> ()
      | ids -> out_arr.(s) <- Array.of_list (List.sort_uniq compare ids)
    done;
    {
      rep = Dense16 { delta; smask = rows - 1; clsoff; cshift };
      out = out_arr;
      npat;
      trie;
    }
  end
  else begin
    let delta = Array.make n [||] in
    delta.(0) <- Array.make 256 0;
    for k = kid_start.(0) to kid_start.(1) - 1 do
      let ch = kid_child.(k) in
      delta.(0).(Char.code kid_byte.[k]) <- ch;
      push ch
    done;
    let qhead = ref 0 in
    while !qhead < !qtail do
      let s = order.(!qhead) in
      incr qhead;
      out.(s) <- out.(s) @ out.(fail.(s));
      delta.(s) <- Array.copy delta.(fail.(s));
      for k = kid_start.(s) to kid_start.(s + 1) - 1 do
        let c = Char.code kid_byte.[k] in
        let ch = kid_child.(k) in
        fail.(ch) <- delta.(fail.(s)).(c);
        delta.(s).(c) <- ch;
        push ch
      done
    done;
    {
      rep = Rows delta;
      out = Array.map (fun ids -> Array.of_list (List.sort_uniq compare ids)) out;
      npat;
      trie;
    }
  end

let build patterns =
  let npat = List.length patterns in
  (* The trie can never exceed one state per pattern byte plus the
     root.  Edges live in small per-state assoc lists during insertion
     (fan-out is tiny in practice), then flatten into the [trie]
     arrays. *)
  let cap =
    1 + List.fold_left (fun acc p -> acc + String.length p) 0 patterns
  in
  let kids : (int * int) list array = Array.make cap [] in
  let bout : int list array = Array.make cap [] in
  let nstates = ref 1 in
  List.iteri
    (fun idx p ->
      let st = ref 0 in
      String.iter
        (fun ch ->
          let c = Char.code ch in
          match List.assoc_opt c kids.(!st) with
          | Some nxt -> st := nxt
          | None ->
            let fresh = !nstates in
            incr nstates;
            kids.(!st) <- (c, fresh) :: kids.(!st);
            st := fresh)
        p;
      bout.(!st) <- idx :: bout.(!st))
    patterns;
  let n = !nstates in
  let kid_start = Array.make (n + 1) 0 in
  let out_start = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    kid_start.(s + 1) <- kid_start.(s) + List.length kids.(s);
    out_start.(s + 1) <- out_start.(s) + List.length bout.(s)
  done;
  let nedges = kid_start.(n) in
  let kid_byte = Bytes.create nedges in
  let kid_child = Array.make nedges 0 in
  let out_id = Array.make out_start.(n) 0 in
  for s = 0 to n - 1 do
    let k = ref kid_start.(s) in
    List.iter
      (fun (c, child) ->
        Bytes.set kid_byte !k (Char.chr c);
        kid_child.(!k) <- child;
        incr k)
      kids.(s);
    let k = ref out_start.(s) in
    List.iter
      (fun id ->
        out_id.(!k) <- id;
        incr k)
      bout.(s)
  done;
  construct ~npat
    {
      nstates = n;
      kid_start;
      kid_byte = Bytes.unsafe_to_string kid_byte;
      kid_child;
      out_start;
      out_id;
    }

(* The scan loops avoid two per-byte costs: bounds checks on the delta
   lookup (masked ids, premultiplied in-row class offsets), and the
   former [<> [||]] emptiness test, which compiled to a polymorphic
   structural comparison per input byte — [Array.length] is one load. *)

let search_mask t subject =
  let mask = Array.make t.npat false in
  let out = t.out in
  let mark st = Array.iter (fun id -> mask.(id) <- true) (Array.unsafe_get out st) in
  mark 0 (* empty patterns end at the root *);
  (match t.rep with
  | Dense16 { delta; smask; clsoff; cshift } ->
    let st = ref 0 in
    for i = 0 to String.length subject - 1 do
      st :=
        get16u delta
          ((!st lsl cshift)
          lor Array.unsafe_get clsoff (Char.code (String.unsafe_get subject i)))
        land smask;
      if Array.length (Array.unsafe_get out !st) > 0 then mark !st
    done
  | Rows delta ->
    let st = ref 0 in
    for i = 0 to String.length subject - 1 do
      st :=
        Array.unsafe_get
          (Array.unsafe_get delta !st)
          (Char.code (String.unsafe_get subject i));
      if Array.length (Array.unsafe_get out !st) > 0 then mark !st
    done);
  mask

let search t subject =
  let mask = search_mask t subject in
  let hits = ref [] in
  for i = t.npat - 1 downto 0 do
    if mask.(i) then hits := i :: !hits
  done;
  !hits

let mem t subject =
  if t.npat = 0 then false
  else if t.out.(0) <> [||] then true
  else begin
    let out = t.out in
    let len = String.length subject in
    match t.rep with
    | Dense16 { delta; smask; clsoff; cshift } ->
      let st = ref 0 and i = ref 0 and hit = ref false in
      while (not !hit) && !i < len do
        st :=
          get16u delta
            ((!st lsl cshift)
            lor Array.unsafe_get clsoff (Char.code (String.unsafe_get subject !i))
            )
          land smask;
        if Array.length (Array.unsafe_get out !st) > 0 then hit := true;
        incr i
      done;
      !hit
    | Rows delta ->
      let st = ref 0 and i = ref 0 and hit = ref false in
      while (not !hit) && !i < len do
        st :=
          Array.unsafe_get
            (Array.unsafe_get delta !st)
            (Char.code (String.unsafe_get subject !i));
        if Array.length (Array.unsafe_get out !st) > 0 then hit := true;
        incr i
      done;
      !hit
  end

(* --- codec -----------------------------------------------------------------

   The wire form is the trie, not the expanded table: a few kilobytes
   of (byte, child) edges plus per-state pattern ids.  [read] rebuilds
   the dense table with the same blit pass [build] uses, which is both
   far smaller on disk (the expanded table is hundreds of kilobytes)
   and faster to load than a verbatim table would be — large
   allocations, not decoding work, dominate pack load time, and the
   trie form allocates one table instead of shipping one through the
   file, the checksum and a copy.

   Validation here is structural: the edge list must form a tree rooted
   at state 0 (each state a child at most once, never the root), so the
   squash BFS terminates and visits each state at most once.  Content
   cannot be validated — any tree is a valid automaton — which is fine:
   the scan loops are memory-safe for arbitrary table content, and rule
   packs checksum their payload, which is what actually rejects
   corruption; see Rulepack. *)

(* Caps a wire-declared pattern count: out ids index scanner-side
   arrays sized [npat], so the count must stay allocation-sane. *)
let max_npat = 1 lsl 20
let max_states = 1 lsl 22

let write buf t =
  let { nstates; kid_start; kid_byte; kid_child; out_start; out_id } =
    t.trie
  in
  Binio.w_u32 buf t.npat;
  Binio.w_u32 buf nstates;
  Binio.w_u32 buf (Array.length kid_child);
  for s = 0 to nstates - 1 do
    Binio.w_u16 buf (kid_start.(s + 1) - kid_start.(s))
  done;
  Buffer.add_string buf kid_byte;
  Array.iter (Binio.w_u32 buf) kid_child;
  Binio.w_u32 buf (Array.length out_id);
  for s = 0 to nstates - 1 do
    Binio.w_u32 buf (out_start.(s + 1) - out_start.(s))
  done;
  Array.iter (Binio.w_u32 buf) out_id

let read r =
  let npat = Binio.r_u32 r in
  if npat < 0 || npat > max_npat then
    raise (Binio.Corrupt (Printf.sprintf "pattern count %d out of range" npat));
  let nstates = Binio.r_u32 r in
  if nstates < 1 || nstates > max_states then
    raise (Binio.Corrupt (Printf.sprintf "state count %d out of range" nstates));
  let nedges = Binio.r_count ~limit:(256 * max_states) r in
  let kid_start = Array.make (nstates + 1) 0 in
  for s = 0 to nstates - 1 do
    let k = Binio.r_u16 r in
    if k > 256 then raise (Binio.Corrupt "trie fan-out over 256");
    kid_start.(s + 1) <- kid_start.(s) + k
  done;
  if kid_start.(nstates) <> nedges then
    raise (Binio.Corrupt "trie edge counts do not sum to the edge total");
  let kid_byte = Binio.r_raw r nedges in
  let seen = Array.make nstates false in
  let kid_child =
    Array.init nedges (fun _ ->
        let child = Binio.r_u32 r in
        if child < 1 || child >= nstates then
          raise (Binio.Corrupt "trie child out of range");
        if seen.(child) then raise (Binio.Corrupt "trie child repeated");
        seen.(child) <- true;
        child)
  in
  let nout = Binio.r_count ~limit:(256 * max_states) r in
  let out_start = Array.make (nstates + 1) 0 in
  for s = 0 to nstates - 1 do
    let k = Binio.r_count ~limit:max_npat r in
    out_start.(s + 1) <- out_start.(s) + k
  done;
  if out_start.(nstates) <> nout then
    raise (Binio.Corrupt "output counts do not sum to the output total");
  let out_id =
    Array.init nout (fun _ ->
        let id = Binio.r_u32 r in
        if id < 0 || id >= npat then
          raise (Binio.Corrupt "pattern index out of range");
        id)
  in
  construct ~npat { nstates; kid_start; kid_byte; kid_child; out_start; out_id }
