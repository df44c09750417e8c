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
     tier skip dead stretches with libc memchr instead of a
     byte-at-a-time table walk. *)
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
  (* The lazy-DFA execution tier (see [Rx_dfa]): [None] when the
     pattern needs features only the backtracker has (back-references,
     counted repetitions beyond the expansion bound), when the compiled
     program is too large to determinize profitably, or on a copy
     pinned by [backtrack_tier].  The tier decision is made at compile
     time so runtime semantics never hinge on it: both tiers produce
     byte-identical matches. *)
  dfa : dfa option;
  (* Whether the DFA tier's forward-pass end is authoritative (see
     [has_nullable_rep]): when false, a DFA-tier match must be
     re-confirmed by the backtracker for its span, not just its
     groups. *)
  end_exact : bool;
  (* Key for the per-domain transition-cache table. *)
  uid : int;
}

(* A DFA-tier pattern's programs.  The forward Pike program is compiled
   eagerly (it decides the tier, and [Fused.compile] hosts it as is);
   the reverse program and the byte-class tables ([Rx_dfa.build], most
   of a compile's cost) are built on the first DFA-tier search, so
   compiling a catalog most of whose patterns a scan never runs costs
   little more than parsing it.  Neither deferred step can fail: see
   [dfa_tier]. *)
and dfa = { fwd : Rx_pike.inst array; tables : unit -> Rx_dfa.static }

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
   not an exact literal (class, repetition, back-reference), and an
   alternation of more than [max_width] branches ends the walk at the
   literal fixed before it (more memchr lanes per skip detour than that
   stops paying for itself; every match still starts with that
   literal, so [\bsubprocess\.(call|run|Popen|...)] keeps
   ["subprocess."]).  Branches that share a
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
   a start literal rather than its first: hunting ['y'] instead of
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
          if List.length all > max_width then [ buf ] else all
        | Rx_ast.Class _ | Rx_ast.Any | Rx_ast.Rep _ | Rx_ast.Backref _ ->
          [ buf ])
  in
  let raw = go "" [ node0 ] in
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

(* --- execution-tier selection -------------------------------------------- *)

(* Beyond this many Pike instructions the DFA's per-state closures and
   rows stop paying for themselves; such patterns stay on the
   backtracker. *)
let max_dfa_program = 4096

(* The CAS discipline for values built on first use by any domain: an
   [Atomic] rather than a [lazy], because two domains forcing the same
   [lazy] at once raise [CamlinternalLazy.Undefined].  Concurrent first
   calls at worst build twice; the CAS winner is served from then on. *)
let once build =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None -> (
      let v = build () in
      if Atomic.compare_and_set cell None (Some v) then v
      else match Atomic.get cell with Some winner -> winner | None -> v)

let dfa_builds_counter = Telemetry.Counter.make "rx_dfa_builds_total"

(* Whether the pattern runs on the DFA tier, decided once at compile
   time: patterns the Pike compiler cannot express (back-references,
   oversized counted repetitions) fall back wholly to the backtracking
   engine.  The forward program decides it alone: [Rx_pike.compile]
   rejects a node for its kind and repetition bounds, which
   [Rx_dfa.reverse_node] keeps — it only reorders sequences — so the
   reverse program compiles exactly when the forward one does, and
   [Rx_dfa.build] is total.  Deferring both therefore moves no error
   to match time. *)
let dfa_tier node =
  match Rx_pike.compile node with
  | exception Rx_pike.Unsupported _ -> None
  | fwd when Array.length fwd > max_dfa_program -> None
  | fwd ->
    let tables =
      once (fun () ->
          Telemetry.Counter.incr dfa_builds_counter;
          Rx_dfa.build ~fwd ~rev:(Rx_pike.compile (Rx_dfa.reverse_node node)))
    in
    Some { fwd; tables }

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
      dfa = dfa_tier node;
      end_exact = not (has_nullable_rep node);
      uid = Atomic.fetch_and_add uid_source 1;
    }
  | exception Rx_parser.Error (msg, pos) -> raise (Parse_error (msg, pos))

(* --- compile memo --------------------------------------------------------- *)

(* Identical pattern sources compile once: [t] is immutable after
   construction (the per-domain DFA caches live outside it), so one
   value can safely be shared by every rule, domain and caller that
   names the same source.  The catalog compiles dozens of rules whose
   suppress/context patterns repeat.  Parse errors are not cached
   (raising is cheap and rare). *)
let compile_cache : (string, t) Hashtbl.t = Hashtbl.create 64
let compile_cache_lock = Mutex.create ()
let compile_cache_hits = Atomic.make 0

let compile_cache_hits_counter =
  Telemetry.Counter.make "rx_compile_cache_hits_total"

let max_compile_cache_entries = 8192

let compile source =
  let cached =
    Mutex.protect compile_cache_lock (fun () ->
        Hashtbl.find_opt compile_cache source)
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
        Hashtbl.replace compile_cache source t);
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
let is_word_char = Rx_ast.is_word_char
let is_space_char = Rx_ast.is_space_char
let[@inline] index_from s from c = Rx_dfa.memchr s (Char.code c) from
let start_literals t = Array.map fst t.start_prefixes

let tier t = match t.dfa with None -> `Backtrack | Some _ -> `Dfa

let prepare t =
  match t.dfa with None -> () | Some d -> ignore (d.tables () : Rx_dfa.static)

let backtrack_tier t =
  match t.dfa with
  | None -> t
  | Some _ -> { t with dfa = None; uid = Atomic.fetch_and_add uid_source 1 }

(* --- per-domain transition caches ------------------------------------------ *)

(* Transition caches are mutable and unsynchronized, so each domain owns
   its own set, keyed by the pattern's (or fused catalog's) uid — a
   compiled scanner shared by several server workers grows one cache
   per (pattern, domain) without any locking on the match path.  The
   one-slot memo in front of the table serves the common shape of a
   scan: many consecutive searches with the same rule (and, for fused
   catalogs, a process that runs exactly one).  A registry holding
   [cap] caches drops them all before adding another. *)
type 'c registry = {
  tbl : (int, 'c) Hashtbl.t;
  cap : int;
  mutable last_uid : int;
  mutable last : 'c option;
}

let registry ~cap : 'c registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 32; cap; last_uid = -1; last = None })

(* [make arg] builds a missing cache; a top-level [make] keeps the hit
   path allocation-free. *)
let cached key uid make arg =
  let r = Domain.DLS.get key in
  if r.last_uid = uid then
    match r.last with Some c -> c | None -> assert false
  else begin
    let c =
      match Hashtbl.find_opt r.tbl uid with
      | Some c -> c
      | None ->
        if Hashtbl.length r.tbl >= r.cap then Hashtbl.reset r.tbl;
        let c = make arg in
        Hashtbl.replace r.tbl uid c;
        c
    in
    r.last_uid <- uid;
    r.last <- Some c;
    c
  end

let drop key uid =
  let r = Domain.DLS.get key in
  Hashtbl.remove r.tbl uid;
  if r.last_uid = uid then begin
    r.last_uid <- -1;
    r.last <- None
  end

let install key uid c =
  let r = Domain.DLS.get key in
  Hashtbl.replace r.tbl uid c;
  if r.last_uid = uid then r.last <- Some c

let dfa_caches : Rx_dfa.cache registry Domain.DLS.key = registry ~cap:1024
let make_dfa_cache d = Rx_dfa.make_cache (d.tables ())
let get_cache t d = cached dfa_caches t.uid make_dfa_cache d
let dfa_cache_clear t = drop dfa_caches t.uid

let dfa_shrink_cache t ~max_states =
  match t.dfa with
  | None -> invalid_arg "Rx.dfa_shrink_cache: pattern runs on the backtracker"
  | Some d ->
    install dfa_caches t.uid (Rx_dfa.make_cache ~max_states (d.tables ()))

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
   a sweep ([find_all]) reuses one fetch across all its searches. *)
let rincr recorder c =
  match recorder with
  | None -> ()
  | Some r -> Telemetry.Counter.record r c 1

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
   finally reads a capture.  A blown budget raises [Budget_exceeded]
   from the group accessor, counted and traced as [wrap_budget] does:
   the DFA found the span in linear time, but the captures exist only
   through the backtracker, and unset groups would be made up (the
   pinned backtracker raises on the same search).  No match at [s] is
   impossible by construction and degrades to unset groups; the
   differential suites compare group spans across tiers, so a real
   divergence cannot hide there. *)
let deferred_groups t subject s =
  lazy
    (rincr (Telemetry.recorder ()) dfa_confirm_counter;
     match
       wrap_budget (fun () -> Rx_match.match_at t.node t.ngroups subject s)
     with
     | Some r -> r.Rx_match.m_groups
     | None -> Array.make (t.ngroups + 1) None)

(* The tier dispatch every query shares: counts the tier that ran, runs
   [dfa] on the calling domain's cache for [t], and answers through
   [bt] from the backtracking search when [t] has no DFA tier or the
   DFA gave up ([Rx_dfa.Bail]: cache thrash, or an internal cross-check
   failed) — never letting an engine bug change results. *)
let dispatch ~recorder ?cap ?steps_acc t subject pos ~bt ~dfa =
  match t.dfa with
  | None ->
    rincr recorder exec_backtrack_counter;
    bt (bt_search ?cap ?steps_acc t subject pos)
  | Some d -> (
    rincr recorder exec_dfa_counter;
    match dfa (get_cache t d) with
    | result -> result
    | exception Rx_dfa.Bail ->
      rincr recorder dfa_fallback_counter;
      Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_bail;
      bt (bt_search ?cap ?steps_acc t subject pos))

(* DFA tier: one linear forward pass finds the match end, a backward
   pass pins the leftmost start.  Capture groups are not extracted
   here: the match carries a thunk that runs the backtracker anchored
   at that start if and when a group is actually read — byte-identical
   spans either way, since a backtracker-only search would have found
   its first (hence identical) match at the same start.  [until]
   fences the DFA tier's starts ([Rx_dfa.search]); the backtracking
   paths ignore it, so a caller must drop a match starting past it. *)
let tier_search ~recorder ?cap ?steps_acc ?until t subject pos =
  dispatch ~recorder ?cap ?steps_acc t subject pos
    ~bt:(Option.map (of_result subject t.ngroups))
    ~dfa:(fun cache ->
      match
        Rx_dfa.search cache ?recorder ?cap ?steps_acc ?until
          ?first_bytes:t.first_bytes ?first_byte:t.first_byte
          ~prefixes:t.start_prefixes ~bol_only:t.bol_only subject pos
      with
      | None -> None
      | Some (s, e) when t.end_exact ->
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
      | Some (s, _) -> (
        (* A repetition with a nullable body can rank ends differently
           across tiers (see [has_nullable_rep]): [s] is still the
           authoritative leftmost start, but the span must come from
           the backtracker, anchored there — groups ride along for
           free.  No match there is impossible by construction. *)
        rincr recorder dfa_confirm_counter;
        match Rx_match.match_at ?cap ?steps_acc t.node t.ngroups subject s with
        | Some r -> Some (of_result subject t.ngroups r)
        | None -> raise Rx_dfa.Bail))

let exec ?(pos = 0) t subject =
  let recorder = Telemetry.recorder () in
  guarded (fun ?cap ?steps_acc () ->
      tier_search ~recorder ?cap ?steps_acc t subject pos)

(* A boolean query: on the DFA tier, the forward pass alone, stopping at
   the first match flag — no backward pass, no capture confirmation. *)
let matches t subject =
  let recorder = Telemetry.recorder () in
  guarded (fun ?cap ?steps_acc () ->
      dispatch ~recorder ?cap ?steps_acc t subject 0 ~bt:Option.is_some
        ~dfa:(fun cache ->
          Rx_dfa.is_match cache ?recorder ?cap ?steps_acc
            ?first_bytes:t.first_bytes ?first_byte:t.first_byte
            ~prefixes:t.start_prefixes ~bol_only:t.bol_only subject 0))

let matches_whole t subject =
  guarded (fun ?cap ?steps_acc () ->
      Rx_match.match_whole ?cap ?steps_acc t.node t.ngroups subject)

(* The sweep behind [find_all]: matches left to right, keeping those
   that start at or before [until].  The DFA tier injects no start past
   [until], so a sweep fenced at a bound no match start exceeds
   ([Fused.run]'s) stops scanning there; a match from a backtracking
   path starting past it ends the sweep like [None]. *)
let sweep ~search ~until subject =
  let len = String.length subject in
  let last = if until < len then until else len in
  let rec loop pos acc =
    if pos > last then List.rev acc
    else
      match search pos with
      | None -> List.rev acc
      | Some m when m_start m > last -> List.rev acc
      | Some m ->
        let next = if m_stop m = m_start m then m_stop m + 1 else m_stop m in
        loop next (m :: acc)
  in
  loop 0 []

let search_steps_histogram = Telemetry.Histogram.make "rx_search_steps"

(* One recorder fetch and one [guarded] entry for the whole sweep, not
   one per match: the deadline cap is invariant across the sweep (each
   charge shrinks [remaining] by exactly the steps the shared
   accumulator grew), so hoisting the wrapper out of the loop changes
   no budget — it only removes the per-search DLS fetches from the
   scanner's confirm path.  A counted sweep makes one histogram
   observation, not one per search: the scanner counts every swept
   rule, and the cheap path must stay within the documented <=2%
   overhead budget. *)
let find_all ?(until = max_int) ?steps t subject =
  let recorder = Telemetry.recorder () in
  let run () =
    guarded ?steps_acc:steps (fun ?cap ?steps_acc () ->
        sweep ~until subject
          ~search:(tier_search ~recorder ?cap ?steps_acc ~until t subject))
  in
  match (steps, recorder) with
  | Some acc, Some r ->
    let before = !acc in
    Fun.protect run ~finally:(fun () ->
        Telemetry.Histogram.record r search_steps_histogram (!acc - before))
  | _ -> run ()

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
  exception Bail = Rx_dfa.Bail

  (* A fused program walks every byte with no skip lanes, so its size
     budget sits between a single pattern's [max_dfa_program] and
     [Rx_fused]'s 65535-instruction cap: big enough for several hundred
     catalog rules, small enough that states and closures stay cheap. *)
  let max_fused_program = 60000

  (* A pattern is hostable when it runs on the DFA tier (so its
     forward Pike program exists and is within size bounds) and has a
     derived FIRST set: a pattern without one can match the empty
     string, which would flag on every subject and tell the caller
     nothing.  The fused machine hosts that forward program as is, so
     fusing builds no per-pattern DFA tables. *)
  let compile patterns =
    let n = Array.length patterns in
    let slots = ref [] in
    let nslots = ref 0 in
    let progs = ref [] in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let p = patterns.(i) in
      match p.dfa with
      | Some { fwd = prog; _ } when p.first_bytes <> None ->
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
      | Some _ | None -> ()
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
  let pattern_count f = Array.length f.f_hosted
  let program_size f = Rx_fused.program_size f.fstatic

  (* The registry is tiny: a fused cache is big, and more than a couple
     of live catalogs per domain means something is off. *)
  let caches : Rx_fused.cache registry Domain.DLS.key = registry ~cap:16
  let make_cache f = Rx_fused.make_cache f.fstatic
  let get_cache f = cached caches f.fuid make_cache f
  let cache_clear f = drop caches f.fuid

  let shrink_cache f ~max_states =
    install caches f.fuid (Rx_fused.make_cache ~max_states f.fstatic)

  let state_count f = Rx_fused.state_count (get_cache f)

  (* One fused pass: an int per caller pattern index, the last
     boundary where that pattern flagged (every match of it starts at
     or before it), or [-1] iff it matches nowhere in [subject].
     Unhosted patterns stay [-1] — the caller must treat them as
     "unknown", not "no match".  Runs under the installed step
     deadline like every other entry point; [Bail] (cache thrash)
     propagates for the caller's per-pattern fallback. *)
  let run f subject =
    let recorder = Telemetry.recorder () in
    let last = Array.make (Rx_fused.nslots f.fstatic) (-1) in
    let cache = get_cache f in
    let ok =
      guarded (fun ?cap ?steps_acc () ->
          match Rx_fused.search cache ?recorder ?cap ?steps_acc ~last subject with
          | () -> true
          | exception Rx_dfa.Bail -> false)
    in
    if not ok then begin
      Telemetry.Trace.ambient_instant Telemetry.Trace.Dfa_bail;
      raise Bail
    end;
    (* full-catalog hosting means the slot map is the identity: the
       slot-space bounds already are the caller-space answer *)
    if Rx_fused.nslots f.fstatic = Array.length f.f_hosted then last
    else begin
      let out = Array.make (Array.length f.f_hosted) (-1) in
      Array.iteri (fun s i -> out.(i) <- last.(s)) f.f_slots;
      out
    end
end

module Private = struct
  module Ast = Rx_ast
  module Pike = Rx_pike
  module Dfa = Rx_dfa

  let class_program t =
    Option.map
      (fun d ->
        Array.append d.fwd (Rx_pike.compile (Rx_dfa.reverse_node t.node)))
      t.dfa

  let fused_program f = Rx_fused.program f.fstatic
end
