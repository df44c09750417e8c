(** A tagged lazy DFA fusing a whole catalog of patterns into one
    forward pass.

    The machine answers an existence query for every pattern at once:
    one walk over the subject sets a per-slot flag iff that slot's
    pattern matches anywhere in the subject.  The flag is exact in
    both directions — it is raised only by a genuine thread of that
    pattern and no unmatched pattern's thread is ever dropped — so a
    caller can skip any downstream per-pattern work for unflagged
    slots without changing results.

    Spans are deliberately out of scope: per-pattern leftmost-first
    spans cannot be recovered from a single fused pass (the phase
    switches that leftmost-first semantics needs conflict across
    patterns sharing one thread set), so flagged patterns are resolved
    by the ordinary per-pattern engines.

    Cache discipline mirrors {!Rx_dfa}: a bounded per-domain
    transition table, flushed and rebuilt on overflow, with {!Bail}
    raised when a single search thrashes the table — the caller falls
    back to its per-pattern path, so correctness never depends on
    cache capacity.  This module is the raw machine; user code goes
    through [Rx.Fused], which handles hostability, slot mapping, and
    the per-domain cache registry. *)

exception Bail
(** A single search flushed the transition table too many times; the
    caller must fall back to per-pattern scanning. *)

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
    @raise Invalid_argument when [progs] is empty or the fused program
    exceeds the 16-bit pc budget (the composer in [Rx.Fused] caps
    totals well below it). *)

val nslots : static -> int
val program_size : static -> int

val max_program : int
(** Hard size cap on a fused program (pcs pack into 16 bits in state
    keys). *)

val make_cache : ?max_states:int -> static -> cache
(** Default [max_states] is 2048 — a fused state carries threads of
    every pattern at once, so the store is sized an order of magnitude
    above {!Rx_dfa}'s. *)

val state_count : cache -> int
(** Interned states currently in the table (test instrumentation). *)

val search :
  cache ->
  ?recorder:Telemetry.recorder ->
  ?cap:int ->
  ?steps_acc:int ref ->
  mask:Bytes.t ->
  string ->
  unit
(** [search cache ~mask subject] runs the fused pass and sets
    [mask.[slot]] to ['\001'] for every slot whose pattern matches
    anywhere in [subject].  [mask] must be all-zero on entry with
    length [nslots].  [cap]/[steps_acc] meter boundary steps against
    the caller's budget exactly as in [Rx_dfa].
    @raise Rx_match.Budget_exceeded when the step allowance runs out.
    @raise Bail when the cache thrashes. *)

val write_static : Buffer.t -> static -> unit

val read_static : Binio.r -> static
(** Re-validates every index the runner dereferences (jump targets,
    owners, class ids, table lengths).
    @raise Binio.Corrupt on malformed bytes. *)
