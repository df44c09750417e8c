exception Parse_error of string * int
exception Budget_exceeded of string

type t = {
  source : string;
  node : Rx_ast.node;
  ngroups : int;
  (* Search accelerators, derived once at compile time (see
     [start_info]): the set of bytes a match can start with ([None] when
     the pattern can match the empty string, which makes every offset a
     valid start), and whether every match starts at a line start. *)
  first_bytes : Bytes.t option;
  (* [first_bytes] narrowed to a single byte when the FIRST set is a
     singleton — the common fixed-literal-prefix case — letting the DFA
     tier skip dead stretches with [String.index_from] (memchr) instead
     of a byte-at-a-time table walk. *)
  first_byte : char option;
  (* Small set of literals such that every match starts with one of
     them ([||] when none could be derived), each paired with the
     offset of its rarest byte; the DFA tier's skip loop memchrs that
     anchor byte and verifies the whole literal in place before
     re-entering the state machine.  Usually a singleton (a fixed
     literal prefix); leading alternations contribute one literal per
     branch. *)
  start_prefixes : (string * int) array;
  bol_only : bool;
  (* Derived analyses, computed eagerly at compile time: [t] values are
     shared across domains, so memoizing them lazily would need a lock
     on every read — and the scanner wants them for every rule anyway. *)
  req_literals : string list;
  (* The lazy-DFA execution tier (see [Rx_dfa]): [None] when the
     pattern needs features only the backtracker has (back-references,
     counted repetitions beyond the expansion bound), when the compiled
     program is too large to determinize profitably, or when
     [PATCHITPY_RX_TIER=backtrack] forces the legacy engine.  The tier
     decision is made at compile time so runtime semantics never hinge
     on it: both tiers produce byte-identical matches. *)
  dfa : Rx_dfa.static option;
  (* Whether the DFA tier's forward-pass end is authoritative (see
     [has_nullable_rep]): when false, a DFA-tier match must be
     re-confirmed by the backtracker for its span, not just its
     groups. *)
  end_exact : bool;
  (* Key for the per-domain transition-cache table. *)
  uid : int;
}

(* First-byte analysis.  [go] accumulates into [set] every byte some
   match of [node] can start with and returns whether the node is
   nullable (can match without consuming).  The traversal mirrors
   standard FIRST-set computation: sequences keep contributing while the
   prefix is nullable, alternations union all branches, zero-width
   atoms contribute nothing and continue.  Back-references are
   conservatively "any byte, maybe empty".  The result over-approximates
   (extra bytes only cost skipped-attempt opportunities); it must never
   under-approximate, or the search would miss matches. *)
let start_info node =
  let set = Bytes.make 256 '\000' in
  let rec go node =
    match node with
    | Rx_ast.Empty -> true
    | Rx_ast.Char c ->
      Bytes.set set (Char.code c) '\001';
      false
    | Rx_ast.Any ->
      for i = 0 to 255 do
        if Char.chr i <> '\n' then Bytes.set set i '\001'
      done;
      false
    | Rx_ast.Class cls ->
      for i = 0 to 255 do
        if Rx_ast.class_matches cls (Char.chr i) then Bytes.set set i '\001'
      done;
      false
    | Rx_ast.Seq nodes ->
      (* left-to-right, stopping at the first non-nullable element *)
      List.for_all go nodes
    | Rx_ast.Alt branches ->
      (* no short-circuit: every branch must contribute its bytes *)
      List.fold_left (fun nullable b -> go b || nullable) false branches
    | Rx_ast.Group (_, inner) -> go inner
    | Rx_ast.Rep (inner, min, _, _) ->
      let n = go inner in
      n || min = 0
    | Rx_ast.Bol | Rx_ast.Eol | Rx_ast.Eos | Rx_ast.Wordb | Rx_ast.Nwordb ->
      true
    | Rx_ast.Backref _ ->
      Bytes.fill set 0 256 '\001';
      true
  in
  let nullable = go node in
  if nullable then None else Some set

(* Whether every match must start at a line start: the pattern begins
   with [^] through any nesting of sequences and groups, or every
   alternative does. *)
let rec bol_only_node = function
  | Rx_ast.Bol -> true
  | Rx_ast.Seq (n :: _) -> bol_only_node n
  | Rx_ast.Group (_, inner) -> bol_only_node inner
  | Rx_ast.Alt (_ :: _ as branches) -> List.for_all bol_only_node branches
  | _ -> false

(* Literal start set: a few strings such that every match must start
   with one of them ([||] when none can be proven).  Zero-width
   assertions contribute nothing and allow the walk to continue — they
   constrain context, not the matched bytes.  A leading alternation
   forks the walk, one literal per branch, so patterns like
   [(?:requests\.(?:get|post)|urlopen)\(] — whose FIRST set spans
   several bytes and whose common prefix is empty — still get a usable
   skip.  The walk stops extending a branch at the first node that is
   not an exact literal (class, repetition, back-reference) and gives
   up entirely past [max_width] branches: more memchr lanes per skip
   detour than that stops paying for itself.  Branches that share a
   head byte collapse to their longest common prefix — two lanes
   hunting the same byte would find every occurrence twice.  The DFA
   tier's skip loop verifies one of these literals at every candidate
   offset before waking the machine up, which is what makes FIRST-byte
   hits inside unrelated words (the ['r'] of ["request"] against
   [return\s+...]) nearly free. *)
(* Relative byte frequency in Python-ish source text, 0..255 (measured
   once over the evaluation corpus; only the ordering matters, and it
   is stable across code corpora: whitespace and [e r t s a n o i] on
   top, capitals, digits and most punctuation near the bottom; bytes
   never seen rank rarest).  The skip loop memchrs the *rarest* byte of
   a required literal rather than its first: hunting ['y'] instead of
   ['o'] for ["os.system("] surfaces ~14x fewer false candidates, each
   of which costs a verify detour. *)
let byte_freq =
  [|
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 70; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    255; 0; 49; 0; 0; 0; 0; 0; 33; 33; 0; 0; 12; 0; 20; 3;
    4; 1; 0; 1; 2; 0; 2; 0; 0; 2; 15; 0; 0; 14; 2; 0;
    2; 1; 0; 1; 1; 8; 5; 2; 0; 0; 0; 0; 1; 0; 3; 2;
    1; 0; 1; 3; 2; 0; 3; 0; 0; 0; 0; 2; 0; 2; 0; 28;
    0; 67; 5; 24; 30; 124; 29; 12; 13; 56; 2; 12; 40; 34; 63; 62;
    43; 6; 94; 68; 74; 39; 3; 4; 4; 6; 0; 1; 0; 1; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
  |]

let rarest_byte_offset p =
  let best = ref 0 in
  for j = 1 to String.length p - 1 do
    if byte_freq.(Char.code p.[j]) < byte_freq.(Char.code p.[!best]) then
      best := j
  done;
  !best

let start_prefixes_node node0 =
  let max_len = 16 and max_width = 4 in
  let exception Give_up in
  (* [go buf nodes] = every literal a match of [Seq nodes] can start
     with, each already prefixed by the fixed [buf]. *)
  let rec go buf nodes =
    if String.length buf >= max_len then [ buf ]
    else
      match nodes with
      | [] -> [ buf ]
      | n :: tl -> (
        match n with
        | Rx_ast.Char c -> go (buf ^ String.make 1 c) tl
        | Rx_ast.Empty | Rx_ast.Bol | Rx_ast.Eol | Rx_ast.Eos | Rx_ast.Wordb
        | Rx_ast.Nwordb ->
          go buf tl
        | Rx_ast.Seq l -> go buf (l @ tl)
        | Rx_ast.Group (_, inner) -> go buf (inner :: tl)
        | Rx_ast.Alt branches ->
          let all = List.concat_map (fun b -> go buf (b :: tl)) branches in
          if List.length all > max_width then raise Give_up;
          all
        | Rx_ast.Class _ | Rx_ast.Any | Rx_ast.Rep _ | Rx_ast.Backref _ ->
          [ buf ])
  in
  match go "" [ node0 ] with
  | exception Give_up -> [||]
  | raw ->
    if List.exists (fun p -> String.length p = 0) raw then [||]
    else begin
      let lcp a b =
        let n = min (String.length a) (String.length b) in
        let i = ref 0 in
        while !i < n && a.[!i] = b.[!i] do
          incr i
        done;
        String.sub a 0 !i
      in
      let merged =
        List.fold_left
          (fun acc p ->
            let rec ins = function
              | [] -> [ p ]
              | q :: rest -> if q.[0] = p.[0] then lcp p q :: rest else q :: ins rest
            in
            ins acc)
          [] raw
      in
      (* The skip shape needs at least two bytes per lane to verify —
         a one-byte literal is just the FIRST-byte memchr the engine
         already has. *)
      if List.exists (fun p -> String.length p < 2) merged then [||]
      else
        Array.of_list (List.map (fun p -> (p, rarest_byte_offset p)) merged)
    end

(* Derives the "required literal" prefilter: a set of strings such that
   any match must contain at least one of them.
   - a literal char run in a Seq is mandatory;
   - for Alt, every branch must contribute (the union is returned);
   - Rep with min = 0 and optional branches contribute nothing. *)
let derive_literals node0 =
  (* Longest mandatory literal of a node, or None when the node can match
     without any fixed literal.  [None] propagates up conservatively. *)
  let rec literals node : string list option =
    match node with
    | Rx_ast.Char c -> Some [ String.make 1 c ]
    | Rx_ast.Seq nodes ->
      (* choose the child with the best (longest shortest-member) set;
         also merge adjacent Char runs for longer literals *)
      let runs = char_runs nodes in
      let from_runs =
        match runs with
        | [] -> None
        | _ ->
          let best =
            List.fold_left
              (fun acc r -> if String.length r > String.length acc then r else acc)
              "" runs
          in
          if best = "" then None else Some [ best ]
      in
      let from_children =
        List.filter_map literals nodes
        |> List.fold_left
             (fun acc set ->
               match acc with
               | None -> Some set
               | Some best ->
                 if shortest set > shortest best then Some set else acc)
             None
      in
      (match (from_runs, from_children) with
      | Some r, Some c -> if shortest r >= shortest c then Some r else Some c
      | (Some _ as r), None -> r
      | None, c -> c)
    | Rx_ast.Alt branches ->
      let sets = List.map literals branches in
      if List.for_all Option.is_some sets then
        Some (List.concat_map Option.get sets)
      else None
    | Rx_ast.Group (_, inner) -> literals inner
    | Rx_ast.Rep (inner, min, _, _) -> if min >= 1 then literals inner else None
    | Rx_ast.Empty | Rx_ast.Any | Rx_ast.Class _ | Rx_ast.Bol | Rx_ast.Eol
    | Rx_ast.Eos | Rx_ast.Wordb | Rx_ast.Nwordb | Rx_ast.Backref _ -> None
  and char_runs nodes =
    let buf = Buffer.create 8 in
    let out = ref [] in
    let flush () =
      if Buffer.length buf > 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
    in
    List.iter
      (fun n ->
        match n with
        | Rx_ast.Char c -> Buffer.add_char buf c
        | _ -> flush ())
      nodes;
    flush ();
    !out
  and shortest = function
    | [] -> 0
    | set -> List.fold_left (fun acc s -> min acc (String.length s)) max_int set
  in
  match literals node0 with
  | Some set when List.for_all (fun s -> String.length s >= 2) set -> set
  | Some _ | None -> []

(* --- execution-tier selection -------------------------------------------- *)

(* Beyond this many Pike instructions the DFA's per-state closures and
   rows stop paying for themselves; such patterns stay on the
   backtracker.  Also keeps interned state keys within 16 bits per pc. *)
let max_dfa_program = 4096

let backtrack_forced () =
  match Sys.getenv_opt "PATCHITPY_RX_TIER" with
  | Some "backtrack" -> true
  | Some _ | None -> false

(* Whether the pattern runs on the DFA tier, decided once at compile
   time: patterns the Pike compiler cannot express (back-references,
   oversized counted repetitions) fall back wholly to the backtracking
   engine, as does anything the operator pins with
   [PATCHITPY_RX_TIER=backtrack]. *)
let build_dfa node =
  if backtrack_forced () then None
  else
    match Rx_pike.compile node with
    | exception Rx_pike.Unsupported _ -> None
    | fwd ->
      if Array.length fwd > max_dfa_program then None
      else (
        match Rx_pike.compile (Rx_dfa.reverse_node node) with
        | exception Rx_pike.Unsupported _ -> None
        | rev -> Some (Rx_dfa.build ~fwd ~rev))

(* Whether some repetition in [node] has a nullable body — a body that
   can match without consuming input.  For such a repetition the
   backtracker's Python rule ("an empty body iteration satisfies any
   outstanding [min]") and the Pike program's thread semantics (an
   empty iteration is deduplicated away, so mandatory copies must make
   progress) can rank match *ends* differently — e.g. [(?:c*?|c){2,}]
   on ["c"] ends at 0 for the backtracker and at 1 for the NFA-derived
   DFA.  Match *existence* and leftmost *starts* agree on both tiers
   regardless; only the end ranking diverges, so the DFA tier handles
   these patterns by confirming every match with the backtracker and
   taking its spans as the answer.  Conservative over min (any
   repetition counts, not just [min >= 2]): the cost of a false
   positive is one backtracker confirm per match, never a wrong
   result. *)
let has_nullable_rep node =
  let rec nullable = function
    | Rx_ast.Empty | Rx_ast.Bol | Rx_ast.Eol | Rx_ast.Eos | Rx_ast.Wordb
    | Rx_ast.Nwordb | Rx_ast.Backref _ ->
      true
    | Rx_ast.Char _ | Rx_ast.Any | Rx_ast.Class _ -> false
    | Rx_ast.Seq ns -> List.for_all nullable ns
    | Rx_ast.Alt bs -> List.exists nullable bs
    | Rx_ast.Group (_, inner) -> nullable inner
    | Rx_ast.Rep (inner, min, _, _) -> min = 0 || nullable inner
  in
  let rec go = function
    | Rx_ast.Empty | Rx_ast.Char _ | Rx_ast.Any | Rx_ast.Class _
    | Rx_ast.Bol | Rx_ast.Eol | Rx_ast.Eos | Rx_ast.Wordb | Rx_ast.Nwordb
    | Rx_ast.Backref _ ->
      false
    | Rx_ast.Seq ns -> List.exists go ns
    | Rx_ast.Alt bs -> List.exists go bs
    | Rx_ast.Group (_, inner) -> go inner
    | Rx_ast.Rep (inner, _, _, _) -> nullable inner || go inner
  in
  go node

let uid_source = Atomic.make 0

let single_first_byte = function
  | None -> None
  | Some fb ->
    let found = ref '\000' and count = ref 0 in
    for b = 0 to 255 do
      if Bytes.get fb b <> '\000' then begin
        incr count;
        found := Char.chr b
      end
    done;
    if !count = 1 then Some !found else None

let compile_uncached source =
  match Rx_parser.parse source with
  | node, ngroups ->
    let first_bytes = start_info node in
    {
      source;
      node;
      ngroups;
      first_bytes;
      first_byte = single_first_byte first_bytes;
      start_prefixes = start_prefixes_node node;
      bol_only = bol_only_node node;
      req_literals = derive_literals node;
      dfa = build_dfa node;
      end_exact = not (has_nullable_rep node);
      uid = Atomic.fetch_and_add uid_source 1;
    }
  | exception Rx_parser.Error (msg, pos) -> raise (Parse_error (msg, pos))

(* --- compile memo --------------------------------------------------------- *)

(* Identical pattern sources compile once: [t] is immutable after
   construction (the per-domain DFA caches live outside it), so one
   value can safely be shared by every rule, domain and caller that
   names the same source.  The catalog compiles dozens of rules whose
   suppress/context patterns repeat, and the parallel compile path
   previously re-derived every analysis per copy.  The key carries the
   tier tag — the only compile-time "flag" in this dialect — so a
   [PATCHITPY_RX_TIER] switch mid-process cannot alias entries.  Parse
   errors are not cached (raising is cheap and rare). *)
let compile_cache : (string, t) Hashtbl.t = Hashtbl.create 64
let compile_cache_lock = Mutex.create ()
let compile_cache_hits = Atomic.make 0

let compile_cache_hits_counter =
  Telemetry.Counter.make "rx_compile_cache_hits_total"

let max_compile_cache_entries = 8192

let compile source =
  let key = if backtrack_forced () then "B\x00" ^ source else source in
  let cached =
    Mutex.protect compile_cache_lock (fun () ->
        Hashtbl.find_opt compile_cache key)
  in
  match cached with
  | Some t ->
    Atomic.incr compile_cache_hits;
    Telemetry.Counter.incr compile_cache_hits_counter;
    t
  | None ->
    let t = compile_uncached source in
    Mutex.protect compile_cache_lock (fun () ->
        if Hashtbl.length compile_cache >= max_compile_cache_entries then
          Hashtbl.reset compile_cache;
        Hashtbl.replace compile_cache key t);
    t

let compile_cache_stats () =
  ( Atomic.get compile_cache_hits,
    Mutex.protect compile_cache_lock (fun () -> Hashtbl.length compile_cache) )

let compile_opt source =
  match compile source with
  | t -> Ok t
  | exception Parse_error (msg, pos) ->
    Error (Printf.sprintf "at offset %d: %s" pos msg)

let pattern t = t.source
let group_count t = t.ngroups
let required_literals t = t.req_literals
let is_word_char = Rx_ast.is_word_char
let start_literals t = Array.map fst t.start_prefixes

let tier t = match t.dfa with None -> `Backtrack | Some _ -> `Dfa

let backtrack_tier t =
  match t.dfa with
  | None -> t
  | Some _ -> { t with dfa = None; uid = Atomic.fetch_and_add uid_source 1 }

(* --- per-domain DFA transition caches ------------------------------------- *)

(* Transition caches are mutable and unsynchronized, so each domain owns
   its own set, keyed by the pattern's [uid] — a compiled scanner shared
   by several server workers grows one cache per (pattern, domain)
   without any locking on the match path.  The one-slot memo in front of
   the table serves the common shape of a scan: many consecutive
   searches with the same rule. *)
type dfa_slot = {
  tbl : (int, Rx_dfa.cache) Hashtbl.t;
  mutable last_uid : int;
  mutable last_cache : Rx_dfa.cache option;
}

let max_domain_caches = 1024

let dfa_slot : dfa_slot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 32; last_uid = -1; last_cache = None })

let get_cache t st =
  let slot = Domain.DLS.get dfa_slot in
  if slot.last_uid = t.uid then
    match slot.last_cache with Some c -> c | None -> assert false
  else begin
    let c =
      match Hashtbl.find_opt slot.tbl t.uid with
      | Some c -> c
      | None ->
        if Hashtbl.length slot.tbl >= max_domain_caches then
          Hashtbl.reset slot.tbl;
        let c = Rx_dfa.make_cache st in
        Hashtbl.replace slot.tbl t.uid c;
        c
    in
    slot.last_uid <- t.uid;
    slot.last_cache <- Some c;
    c
  end

let dfa_cache_clear t =
  let slot = Domain.DLS.get dfa_slot in
  Hashtbl.remove slot.tbl t.uid;
  if slot.last_uid = t.uid then begin
    slot.last_uid <- -1;
    slot.last_cache <- None
  end

let dfa_shrink_cache t ~max_states =
  match t.dfa with
  | None -> invalid_arg "Rx.dfa_shrink_cache: pattern runs on the backtracker"
  | Some st ->
    let slot = Domain.DLS.get dfa_slot in
    let c = Rx_dfa.make_cache ~max_states st in
    Hashtbl.replace slot.tbl t.uid c;
    if slot.last_uid = t.uid then slot.last_cache <- Some c

(* Spans are always eager; capture groups may be deferred.  On the DFA
   tier a match's start and end come from the forward/backward passes —
   the backtracker only runs to extract group spans, and the scanner
   never reads groups (it needs spans and matched text), so paying the
   backtracker's CPS allocation per scanned match bought nothing.  The
   thunk runs at most once, on first [group]/[group_span] access; the
   backtracking tier's results arrive with groups already computed and
   wrap them in [Lazy.from_val]. *)
type m = {
  subject : string;
  ngroups : int;
  m_s : int;
  m_e : int;
  m_groups : (int * int) option array Lazy.t;
}

let m_start m = m.m_s
let m_stop m = m.m_e

let matched m = String.sub m.subject (m_start m) (m_stop m - m_start m)

let group_span m i =
  if i = 0 then Some (m.m_s, m.m_e)
  else if i < 0 || i > m.ngroups then
    invalid_arg (Printf.sprintf "Rx.group: no group %d" i)
  else (Lazy.force m.m_groups).(i)

let group m i =
  match group_span m i with
  | None -> None
  | Some (a, b) -> Some (String.sub m.subject a (b - a))

(* Budget exhaustion used to vanish into a silent per-rule skip at the
   scanner; the counter makes every occurrence visible, whichever caller
   swallowed the exception.  Cost on the non-exceptional path: none. *)
let budget_exhausted_counter = Telemetry.Counter.make "rx_budget_exhausted_total"

(* --- cooperative step deadlines ------------------------------------------ *)

(* A deadline is a per-domain allowance of matcher steps shared by every
   search performed while it is installed — the deterministic cost unit
   the profile subsystem established, reused as a request-level budget.
   On the backtracking tier a step is one backtracker tick; on the DFA
   tier it is one scanned byte — both are charged through the same
   accumulator, so a request's allowance spans searches on either tier.
   Enforcement piggybacks on the per-attempt budget check: each search
   runs with an absolute cap on its step accumulator
   ([Rx_match.match_at ?cap]), so a request that burns its allowance
   raises out of whatever search it is in, at tick granularity, with no
   extra cost on the tick path.  The cell lives in domain-local storage:
   concurrent server workers each carry their own request's deadline. *)

exception Deadline_exceeded

type deadline = { mutable remaining : int }

let deadline_slot : deadline option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let deadline_exceeded_counter =
  Telemetry.Counter.make "rx_deadline_exceeded_total"

let with_step_deadline ~steps f =
  if steps <= 0 then invalid_arg "Rx.with_step_deadline: steps must be > 0";
  let cell = Domain.DLS.get deadline_slot in
  let previous = !cell in
  cell := Some { remaining = steps };
  Fun.protect ~finally:(fun () -> cell := previous) f

let deadline_remaining () =
  match !(Domain.DLS.get deadline_slot) with
  | None -> None
  | Some d -> Some (max 0 d.remaining)

let raise_deadline () =
  Telemetry.Counter.incr deadline_exceeded_counter;
  Telemetry.Trace.ambient_instant Telemetry.Trace.Deadline_hit;
  raise Deadline_exceeded

let wrap_budget f =
  try f ()
  with Rx_match.Budget_exceeded msg ->
    Telemetry.Counter.incr budget_exhausted_counter;
    Telemetry.Trace.ambient_instant Telemetry.Trace.Budget_exhausted;
    raise (Budget_exceeded msg)

(* Runs one search/match under the installed deadline (if any): the
   accumulator is capped at the remaining allowance, consumed steps are
   charged back whatever happens, and a budget trip that coincides with
   an exhausted allowance surfaces as [Deadline_exceeded] rather than
   [Budget_exceeded] (the attempt was cut by the cap, not its own
   budget). *)
let guarded ?steps_acc (run : ?cap:int -> ?steps_acc:int ref -> unit -> 'a) =
  match !(Domain.DLS.get deadline_slot) with
  | None -> wrap_budget (fun () -> run ?cap:None ?steps_acc ())
  | Some d ->
    if d.remaining <= 0 then raise_deadline ();
    let acc = match steps_acc with Some acc -> acc | None -> ref 0 in
    let before = !acc in
    let cap =
      if d.remaining > max_int - before then max_int else before + d.remaining
    in
    let charge () = d.remaining <- d.remaining - (!acc - before) in
    (match run ~cap ~steps_acc:acc () with
    | result ->
      charge ();
      result
    | exception Rx_match.Budget_exceeded msg ->
      charge ();
      if d.remaining <= 0 then raise_deadline ()
      else begin
        Telemetry.Counter.incr budget_exhausted_counter;
        Telemetry.Trace.ambient_instant Telemetry.Trace.Budget_exhausted;
        raise (Budget_exceeded msg)
      end)

(* --- tiered search dispatch ----------------------------------------------- *)

let exec_dfa_counter = Telemetry.Counter.make "rx_exec_dfa_total"
let exec_backtrack_counter = Telemetry.Counter.make "rx_exec_backtrack_total"
let dfa_fallback_counter = Telemetry.Counter.make "rx_dfa_fallback_total"
let dfa_confirm_counter = Telemetry.Counter.make "rx_dfa_confirm_total"

(* The search dispatch counts every dispatch decision, so each search
   would otherwise pay a sink-and-collector lookup per counter.  The
   entry points fetch the recorder once instead and record through it;
   a sweep ([find_all_counted]) reuses one fetch across all its
   searches. *)
let rincr recorder c =
  match recorder with
  | None -> ()
  | Some r -> Telemetry.Counter.record r c 1

let robserve recorder h v =
  match recorder with
  | None -> ()
  | Some r -> Telemetry.Histogram.record r h v

let bt_search ?cap ?steps_acc t subject pos =
  Rx_match.search ?cap ?steps_acc ?first_bytes:t.first_bytes
    ~bol_only:t.bol_only t.node t.ngroups subject pos

(* Groups array shared by every captureless match: [group_span] never
   indexes it (slot 0 is answered from the spans), so one value serves
   all. *)
let no_group_spans : (int * int) option array Lazy.t = Lazy.from_val [| None |]

let of_result subject ngroups (r : Rx_match.result) =
  {
    subject;
    ngroups;
    m_s = r.Rx_match.m_start;
    m_e = r.Rx_match.m_stop;
    m_groups = Lazy.from_val r.Rx_match.m_groups;
  }

(* Deferred capture extraction for a DFA-tier match with span (s, e):
   one backtracker attempt anchored at [s], run on first group access.
   Anchored at a known match start, the attempt finds the same match
   the eager confirm would have (leftmost-first from the same offset),
   so the spans it records are the authoritative ones.  It runs under
   the ordinary per-attempt budget but outside any request deadline —
   the request that found the match may be long gone when a patcher
   finally reads a capture.  The two impossible-by-construction
   failures (no match at [s], budget blown on a confirmed match)
   degrade to unset groups rather than raising from an accessor; the
   differential suites compare group spans across tiers, so a real
   divergence cannot hide there. *)
let deferred_groups t subject s =
  lazy
    (rincr (Telemetry.recorder ()) dfa_confirm_counter;
     match Rx_match.match_at t.node t.ngroups subject s with
     | Some r -> r.Rx_match.m_groups
     | None | (exception Rx_match.Budget_exceeded _) ->
       Array.make (t.ngroups + 1) None)

(* DFA tier: one linear forward pass finds the match end, a backward
   pass pins the leftmost start.  Capture groups are not extracted
   here: the match carries a thunk that runs the backtracker anchored
   at that start if and when a group is actually read — byte-identical
   spans either way, since a backtracker-only search would have found
   its first (hence identical) match at the same start.  [Rx_dfa.Bail]
   (cache thrash) falls back to the legacy search wholesale. *)
let tier_search ~recorder ?cap ?steps_acc t subject pos =
  match t.dfa with
  | None ->
    rincr recorder exec_backtrack_counter;
    Option.map (of_result subject t.ngroups)
      (bt_search ?cap ?steps_acc t subject pos)
  | Some st -> (
    rincr recorder exec_dfa_counter;
    let cache = get_cache t st in
    match
      Rx_dfa.search cache ?recorder ?cap ?steps_acc
        ?first_bytes:t.first_bytes ?first_byte:t.first_byte
        ~prefixes:t.start_prefixes ~bol_only:t.bol_only subject pos
    with
    | exception Rx_dfa.Bail ->
      rincr recorder dfa_fallback_counter;
      Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_bail;
      Option.map (of_result subject t.ngroups)
        (bt_search ?cap ?steps_acc t subject pos)
    | None -> None
    | Some (s, e) ->
      if t.end_exact then
        (* (s, e) already is the leftmost-first span: the forward pass
           records the match flag under prune-after-match with start
           injection stopped, which is exactly the end the backtracker's
           priority order prefers for [end_exact] patterns.  The
           differential suite checks this equivalence on every pattern
           it generates. *)
        let m_groups =
          if t.ngroups = 0 then no_group_spans else deferred_groups t subject s
        in
        Some { subject; ngroups = t.ngroups; m_s = s; m_e = e; m_groups }
      else begin
        (* A repetition with a nullable body can rank ends differently
           across tiers (see [has_nullable_rep]): [s] is still the
           authoritative leftmost start, but the span must come from
           the backtracker, anchored there — groups ride along for
           free. *)
        rincr recorder dfa_confirm_counter;
        match Rx_match.match_at ?cap ?steps_acc t.node t.ngroups subject s with
        | Some r -> Some (of_result subject t.ngroups r)
        | None ->
          (* impossible by construction; never let an engine bug change
             results — re-run the whole search on the legacy tier *)
          rincr recorder dfa_fallback_counter;
          Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_bail;
          Option.map (of_result subject t.ngroups)
            (bt_search ?cap ?steps_acc t subject pos)
      end)

let exec ?(pos = 0) t subject =
  let recorder = Telemetry.recorder () in
  guarded (fun ?cap ?steps_acc () ->
      tier_search ~recorder ?cap ?steps_acc t subject pos)

let matches t subject =
  match t.dfa with
  | None -> exec t subject <> None
  | Some st ->
    (* boolean query: forward pass only, stopping at the first match
       flag — no backward pass, no capture confirmation *)
    let recorder = Telemetry.recorder () in
    guarded (fun ?cap ?steps_acc () ->
        rincr recorder exec_dfa_counter;
        let cache = get_cache t st in
        match
          Rx_dfa.is_match cache ?recorder ?cap ?steps_acc
            ?first_bytes:t.first_bytes ?first_byte:t.first_byte
            ~prefixes:t.start_prefixes ~bol_only:t.bol_only subject 0
        with
        | exception Rx_dfa.Bail ->
          rincr recorder dfa_fallback_counter;
          Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_bail;
          bt_search ?cap ?steps_acc t subject 0 <> None
        | found -> found)

exception Unsupported_linear of string

(* The Pike program is compiled on first use and cached on the pattern.
   The cache is process-wide, so lookups/inserts take a mutex — callers
   may scan from several domains at once. *)
let pike_cache : (string, Rx_pike.inst array) Hashtbl.t = Hashtbl.create 64
let pike_cache_lock = Mutex.create ()

let matches_linear t subject =
  let cached =
    Mutex.protect pike_cache_lock (fun () -> Hashtbl.find_opt pike_cache t.source)
  in
  let prog =
    match cached with
    | Some prog -> prog
    | None -> (
      match Rx_pike.compile t.node with
      | prog ->
        Mutex.protect pike_cache_lock (fun () ->
            Hashtbl.replace pike_cache t.source prog);
        prog
      | exception Rx_pike.Unsupported what -> raise (Unsupported_linear what))
  in
  Rx_pike.search prog subject

let compile_linear t =
  match Rx_pike.compile t.node with
  | prog -> Some (Array.length prog)
  | exception Rx_pike.Unsupported _ -> None

let matches_whole t subject =
  guarded (fun ?cap ?steps_acc () ->
      Rx_match.match_whole ?cap ?steps_acc t.node t.ngroups subject)

(* One recorder fetch and one [guarded] entry for the whole sweep, not
   one per match: the deadline cap is invariant across the sweep (each
   charge shrinks [remaining] by exactly the steps the shared
   accumulator grew), so hoisting the wrapper out of the loop changes
   no budget or deadline behaviour — it only removes the per-[exec]
   DLS fetches from the scanner's confirm path. *)
let find_all t subject =
  let recorder = Telemetry.recorder () in
  let len = String.length subject in
  guarded (fun ?cap ?steps_acc () ->
      let rec loop pos acc =
        if pos > len then List.rev acc
        else
          match tier_search ~recorder ?cap ?steps_acc t subject pos with
          | None -> List.rev acc
          | Some m ->
            let next = if m_stop m = m_start m then m_stop m + 1 else m_stop m in
            loop next (m :: acc)
      in
      loop 0 [])

let search_steps_histogram = Telemetry.Histogram.make "rx_search_steps"

let exec_steps ~recorder ?(pos = 0) t subject ~steps =
  guarded ~steps_acc:steps (fun ?cap ?steps_acc () ->
      let steps = match steps_acc with Some acc -> acc | None -> steps in
      tier_search ~recorder ?cap ~steps_acc:steps t subject pos)

let observe_sweep recorder before steps =
  robserve recorder search_steps_histogram (!steps - before)

let find_all_counted t subject ~steps =
  let recorder = Telemetry.recorder () in
  let before = !steps in
  let len = String.length subject in
  let rec loop pos acc =
    if pos > len then List.rev acc
    else
      match exec_steps ~recorder ~pos t subject ~steps with
      | None -> List.rev acc
      | Some m ->
        let next = if m_stop m = m_start m then m_stop m + 1 else m_stop m in
        loop next (m :: acc)
  in
  (* One histogram observation per sweep, not per exec: the scanner calls
     this once per candidate rule, and the cheap path must stay within
     the documented <=2% overhead budget. *)
  match loop 0 [] with
  | result ->
    observe_sweep recorder before steps;
    result
  | exception e ->
    observe_sweep recorder before steps;
    raise e

let expand_template m template =
  let buf = Buffer.create (String.length template + 16) in
  let len = String.length template in
  let add_group i =
    match group m i with
    | Some s -> Buffer.add_string buf s
    | None -> ()
  in
  let rec loop i =
    if i >= len then ()
    else if template.[i] = '$' && i + 1 < len then
      match template.[i + 1] with
      | '$' ->
        Buffer.add_char buf '$';
        loop (i + 2)
      | '{' ->
        let close =
          match String.index_from_opt template (i + 2) '}' with
          | Some j -> j
          | None -> invalid_arg "Rx.expand_template: unterminated ${"
        in
        let n = int_of_string (String.sub template (i + 2) (close - i - 2)) in
        add_group n;
        loop (close + 1)
      | c when c >= '0' && c <= '9' ->
        add_group (Char.code c - Char.code '0');
        loop (i + 2)
      | c ->
        Buffer.add_char buf '$';
        Buffer.add_char buf c;
        loop (i + 2)
    else begin
      Buffer.add_char buf template.[i];
      loop (i + 1)
    end
  in
  loop 0;
  Buffer.contents buf

let replace_f ?(count = max_int) t ~f subject =
  let len = String.length subject in
  let buf = Buffer.create len in
  let rec loop pos remaining =
    if remaining = 0 || pos > len then
      Buffer.add_string buf (String.sub subject pos (len - pos))
    else
      match exec ~pos t subject with
      | None -> Buffer.add_string buf (String.sub subject pos (len - pos))
      | Some m ->
        Buffer.add_string buf (String.sub subject pos (m_start m - pos));
        Buffer.add_string buf (f m);
        if m_stop m = m_start m then begin
          (* Empty match: emit the next char to guarantee progress. *)
          if m_stop m < len then Buffer.add_char buf subject.[m_stop m];
          loop (m_stop m + 1) (remaining - 1)
        end
        else loop (m_stop m) (remaining - 1)
  in
  loop 0 count;
  Buffer.contents buf

let replace ?count t ~template subject =
  replace_f ?count t ~f:(fun m -> expand_template m template) subject

let split t subject =
  let len = String.length subject in
  let final field_start acc =
    List.rev (String.sub subject field_start (len - field_start) :: acc)
  in
  (* [field_start] is where the current field began; empty matches are
     skipped (they separate nothing), as Python's [re.split] does. *)
  let rec loop field_start pos acc =
    if pos > len then final field_start acc
    else
      match exec ~pos t subject with
      | None -> final field_start acc
      | Some m when m_stop m = m_start m -> loop field_start (pos + 1) acc
      | Some m ->
        let field = String.sub subject field_start (m_start m - field_start) in
        loop (m_stop m) (m_stop m) (field :: acc)
  in
  loop 0 0 []

(* --- compiled-pattern codec ------------------------------------------------

   Serialization of a fully compiled pattern for rule packs: the AST
   (the backtracking matcher executes it directly) and the compile-time
   search accelerators.  Decoding does no parsing or analysis
   derivation — it only validates.  The DFA tier is NOT serialized:
   [build_dfa] redoes determinization from the decoded AST.  Rule packs
   decode patterns lazily (a pattern is only decoded when a scan
   actually runs its rule), so the rebuild is off the cold-start path
   and amortizes to nothing, whereas shipping the DFA's programs and
   class tables roughly doubled every pattern's wire size — and pack
   load cost scales with bytes read, hashed and allocated.  It also
   keeps decode trivially consistent with [compile] under
   [PATCHITPY_RX_TIER].  Each decoded value gets a fresh [uid] so the
   per-domain transition caches can never alias it with another
   pattern. *)

let max_serialized_groups = 512

let write_compiled buf t =
  Binio.w_str buf t.source;
  Binio.w_u16 buf t.ngroups;
  Rx_ast.w_node buf t.node;
  Binio.w_opt (fun buf fb -> Buffer.add_bytes buf fb) buf t.first_bytes;
  Binio.w_array
    (fun buf (lit, anchor) ->
      Binio.w_str buf lit;
      Binio.w_u8 buf anchor)
    buf t.start_prefixes;
  Binio.w_bool buf t.bol_only;
  Binio.w_list Binio.w_str buf t.req_literals

let read_compiled r =
  let source = Binio.r_str r in
  let ngroups = Binio.r_u16 r in
  if ngroups > max_serialized_groups then
    raise (Binio.Corrupt (Printf.sprintf "group count %d out of range" ngroups));
  let node = Rx_ast.r_node ~ngroups r in
  let first_bytes =
    Binio.r_opt (fun r -> Bytes.of_string (Binio.r_raw r 256)) r
  in
  let start_prefixes =
    Binio.r_array
      (fun r ->
        let lit = Binio.r_str r in
        let anchor = Binio.r_u8 r in
        if String.length lit < 2 || anchor >= String.length lit then
          raise (Binio.Corrupt "bad start-literal lane");
        (lit, anchor))
      r
  in
  let bol_only = Binio.r_bool r in
  let req_literals = Binio.r_list Binio.r_str r in
  {
    source;
    node;
    ngroups;
    first_bytes;
    first_byte = single_first_byte first_bytes;
    start_prefixes;
    bol_only;
    req_literals;
    dfa = build_dfa node;
    end_exact = not (has_nullable_rep node);
    uid = Atomic.fetch_and_add uid_source 1;
  }

(* --- fused multi-pattern tier ----------------------------------------------

   [Rx_fused] is the raw machine; this wrapper decides which patterns
   it can host, maps the machine's dense slot space back to the
   caller's pattern indices, and owns the per-domain cache registry —
   the catalog-level analogue of the per-pattern plumbing above. *)

type fused = {
  fstatic : Rx_fused.static;
  f_slots : int array; (* machine slot -> caller pattern index *)
  f_hosted : bool array; (* caller pattern index -> hosted? *)
  fuid : int; (* keys the per-domain fused caches, like [t.uid] *)
}

module Fused = struct
  exception Bail = Rx_fused.Bail

  (* A fused program walks every byte with no skip lanes, so its size
     budget sits between a single pattern's [max_dfa_program] and the
     16-bit pc ceiling: big enough for several hundred catalog rules,
     small enough that state keys and closures stay cheap. *)
  let max_fused_program = 60000

  (* A pattern is hostable when it runs on the DFA tier (so Pike
     compilation is known to succeed and the pattern is within size
     bounds — and [PATCHITPY_RX_TIER=backtrack] disables fusing along
     with the rest of the DFA machinery) and has a derived FIRST set:
     a pattern without one can match the empty string, which would
     flag on every subject and tell the caller nothing. *)
  let hostable p = p.dfa <> None && p.first_bytes <> None

  let compile patterns =
    let n = Array.length patterns in
    let slots = ref [] in
    let nslots = ref 0 in
    let progs = ref [] in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let p = patterns.(i) in
      if hostable p then begin
        match Rx_pike.compile p.node with
        | exception Rx_pike.Unsupported _ -> ()
        | prog ->
          (* budget check counts the fan-out preamble (one split per
             slot); overflow skips the pattern — deterministically, in
             pattern order — rather than failing the whole compile *)
          if !total + Array.length prog + !nslots + 1 <= max_fused_program
          then begin
            slots := i :: !slots;
            progs := prog :: !progs;
            incr nslots;
            total := !total + Array.length prog
          end
      end
    done;
    if !nslots = 0 then None
    else begin
      let f_slots = Array.of_list (List.rev !slots) in
      let progs = Array.of_list (List.rev !progs) in
      let f_hosted = Array.make n false in
      Array.iter (fun i -> f_hosted.(i) <- true) f_slots;
      Some
        {
          fstatic = Rx_fused.build progs;
          f_slots;
          f_hosted;
          fuid = Atomic.fetch_and_add uid_source 1;
        }
    end

  let is_hosted f i = f.f_hosted.(i)
  let hosted_count f = Array.length f.f_slots
  let pattern_count f = Array.length f.f_hosted
  let program_size f = Rx_fused.program_size f.fstatic

  (* Per-domain fused caches, mirroring [dfa_slot]: unsynchronized
     tables keyed by [fuid], with a one-slot memo in front because a
     process typically runs exactly one catalog.  The table is tiny —
     a fused cache is big, and more than a couple of live catalogs per
     domain means something is off. *)
  type fused_slot = {
    ftbl : (int, Rx_fused.cache) Hashtbl.t;
    mutable flast_uid : int;
    mutable flast : Rx_fused.cache option;
  }

  let max_fused_caches = 16

  let fused_slot : fused_slot Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { ftbl = Hashtbl.create 4; flast_uid = -1; flast = None })

  let get_cache f =
    let slot = Domain.DLS.get fused_slot in
    if slot.flast_uid = f.fuid then
      match slot.flast with Some c -> c | None -> assert false
    else begin
      let c =
        match Hashtbl.find_opt slot.ftbl f.fuid with
        | Some c -> c
        | None ->
          if Hashtbl.length slot.ftbl >= max_fused_caches then
            Hashtbl.reset slot.ftbl;
          let c = Rx_fused.make_cache f.fstatic in
          Hashtbl.replace slot.ftbl f.fuid c;
          c
      in
      slot.flast_uid <- f.fuid;
      slot.flast <- Some c;
      c
    end

  let cache_clear f =
    let slot = Domain.DLS.get fused_slot in
    Hashtbl.remove slot.ftbl f.fuid;
    if slot.flast_uid = f.fuid then begin
      slot.flast_uid <- -1;
      slot.flast <- None
    end

  let shrink_cache f ~max_states =
    let slot = Domain.DLS.get fused_slot in
    let c = Rx_fused.make_cache ~max_states f.fstatic in
    Hashtbl.replace slot.ftbl f.fuid c;
    if slot.flast_uid = f.fuid then slot.flast <- Some c

  let state_count f = Rx_fused.state_count (get_cache f)

  (* One fused pass: a byte per caller pattern index, ['\001'] iff
     that pattern matches anywhere in [subject].  Unhosted patterns
     stay ['\000'] — the caller must treat them as "unknown", not "no
     match".  Runs under the installed step deadline like every other
     entry point; [Bail] (cache thrash) propagates for the caller's
     per-pattern fallback. *)
  let run f subject =
    let recorder = Telemetry.recorder () in
    let mask = Bytes.make (Rx_fused.nslots f.fstatic) '\000' in
    let cache = get_cache f in
    let ok =
      guarded (fun ?cap ?steps_acc () ->
          match Rx_fused.search cache ?recorder ?cap ?steps_acc ~mask subject with
          | () -> true
          | exception Rx_fused.Bail -> false)
    in
    if not ok then begin
      Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_bail;
      raise Bail
    end;
    (* full-catalog hosting means the slot map is the identity: the
       slot-space mask already is the caller-space answer *)
    if Rx_fused.nslots f.fstatic = Array.length f.f_hosted then mask
    else begin
      let out = Bytes.make (Array.length f.f_hosted) '\000' in
      Array.iteri
        (fun s i ->
          if Bytes.unsafe_get mask s <> '\000' then Bytes.set out i '\001')
        f.f_slots;
      out
    end

  (* Codec for the rule-pack section.  The slot map rides along with
     the machine; [read] re-checks it against the catalog it is being
     attached to, so a pack whose fused section disagrees with its own
     rule list (possible only via forged checksums) is rejected as
     corrupt rather than silently misrouting flags. *)
  let write buf f =
    Rx_fused.write_static buf f.fstatic;
    Binio.w_u16 buf (Array.length f.f_hosted);
    Binio.w_array (fun buf s -> Binio.w_u32 buf s) buf f.f_slots

  let read ~npatterns r =
    let fstatic = Rx_fused.read_static r in
    let n = Binio.r_u16 r in
    if n <> npatterns then
      raise
        (Binio.Corrupt
           (Printf.sprintf "fused section built for %d patterns, catalog has %d"
              n npatterns));
    let f_slots = Binio.r_array (fun r -> Binio.r_u32 r) r in
    if Array.length f_slots <> Rx_fused.nslots fstatic then
      raise (Binio.Corrupt "fused slot map does not match the machine");
    let prev = ref (-1) in
    Array.iter
      (fun s ->
        if s <= !prev || s >= n then
          raise (Binio.Corrupt "fused slot map out of order or out of range");
        prev := s)
      f_slots;
    let f_hosted = Array.make n false in
    Array.iter (fun i -> f_hosted.(i) <- true) f_slots;
    {
      fstatic;
      f_slots;
      f_hosted;
      fuid = Atomic.fetch_and_add uid_source 1;
    }
end
