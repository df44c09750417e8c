(** A tagged lazy DFA fusing a whole catalog of patterns into one
    forward pass.

    The machine answers an existence query for every pattern at once:
    one walk over the subject records, per slot, the last boundary
    where that slot's pattern flagged, or [-1] iff it matches nowhere
    in the subject.  The flag is exact in both directions — it is
    raised only by a genuine thread of that pattern and no unmatched
    pattern's thread is ever dropped — so a caller can skip any
    downstream per-pattern work for unflagged slots without changing
    results; and every match of a flagged pattern starts at or before
    its last flag, so downstream searches can stop injecting starts
    there (the argument is in [rx_fused.ml]'s header).

    Spans are deliberately out of scope: per-pattern leftmost-first
    spans cannot be recovered from a single fused pass (the phase
    switches that leftmost-first semantics needs conflict across
    patterns sharing one thread set), so flagged patterns are resolved
    by the ordinary per-pattern engines.

    The machine is an {!Rx_dfa.mach} over the composed program — the
    per-pattern engine's state store, interning, closure and
    clear-and-restart discipline — so {!Rx_dfa.Bail} is raised when a
    single search thrashes the table; the caller falls back to its
    per-pattern path, so correctness never depends on cache capacity.
    This module holds only what is fused-specific: composing the
    tagged program, the fan-out table, the per-slot prune, the
    flagged-slot side table and the existence walk.  User code goes
    through [Rx.Fused], which handles hostability, slot mapping, and
    the per-domain cache registry. *)

type static
(** The immutable fused program and its byte-class tables; shared
    freely across domains. *)

type cache
(** Per-domain mutable transition tables; never share across
    domains. *)

val build : Rx_pike.inst array array -> static
(** [build progs] fuses one compiled Pike program per slot into a
    single tagged program.  Slot [i] of the machine reports on
    [progs.(i)].
    @raise Invalid_argument when [progs] is empty, when the fused
    program exceeds 65535 instructions (the composer in [Rx.Fused]
    caps totals well below it), or when some program can match the empty
    string (the composer hosts none that can). *)

val nslots : static -> int
val program_size : static -> int

val program : static -> Rx_pike.inst array
(** The composed program: the fan-out preamble, then every slot's
    rebased program. *)

val make_cache : ?max_states:int -> static -> cache
(** Default [max_states] is 4096 — a fused state carries threads of
    every pattern at once, so the store is sized an order of magnitude
    above {!Rx_dfa}'s.
    @raise Invalid_argument when [max_states < 2]. *)

val state_count : cache -> int
(** Interned states currently in the table (test instrumentation). *)

val search :
  cache ->
  ?recorder:Telemetry.recorder ->
  ?cap:int ->
  ?steps_acc:int ref ->
  last:int array ->
  string ->
  unit
(** [search cache ~last subject] runs the fused pass and sets
    [last.(slot)] to the last boundary where the slot flagged, for
    every slot whose pattern matches anywhere in [subject]; every match
    of that pattern starts at or before it.  [last] must hold [-1]
    everywhere on entry, with length [nslots]; unmatched slots keep
    [-1].  [cap]/[steps_acc] meter boundary steps against the caller's
    budget exactly as in [Rx_dfa].
    @raise Rx_match.Budget_exceeded when the step allowance runs out.
    @raise Rx_dfa.Bail when the cache thrashes. *)
