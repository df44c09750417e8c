(** Versioned binary rule packs: the compiled catalog, serialized.

    A pack stores both scan plans ({!Patchitpy.Catalog.all} and
    {!Patchitpy.Catalog.javascript}) fully compiled — prefilter
    automata, pattern ASTs and DFA programs, derived tables, rewrite
    IR — behind a magic tag, a format version, a catalog fingerprint
    and a whole-file checksum.  Loading one therefore replaces the
    process's entire rule-compilation phase with a validated decode:
    scan and patch output over a loaded pack is byte-identical to the
    source-compiled catalog's, at a fraction of the startup cost.

    Robustness contract: {!load}/{!decode} return typed errors — never
    raise — on any malformed input (truncation, bit flips, version
    skew, forged structure), and every decoded index is re-validated
    before use, so even a pack whose checksum was deliberately fixed up
    cannot make the scanner read out of bounds.  Parts the fast path
    never touches (per-rule blobs, the javascript section) decode
    lazily behind the checksum; on a deliberately forged pack their
    first use may raise a {!Binio} exception — still memory-safe, just
    no longer a typed [Error].

    Packs additionally carry the python plan's pre-built fused
    multi-pattern machine ({!Rx.Fused}) in an optional section, so the
    first scan over a loaded pack skips the catalog-wide fuse.  The
    section decodes lazily like the javascript one, and because it is
    a pure accelerator it is also the one part allowed to degrade: a
    forged-but-checksummed fused section falls back to re-fusing from
    the validated rules instead of raising.  Packs without the section
    (older builds) load fine and fuse from rules on first scan.

    A pack may additionally carry a {e warm} section: up to 16 canary
    subjects, an even spread of a corpus chosen at pack time
    ({!with_canaries}).  {!prewarm} replays them in the calling domain
    so its lazy-DFA tables and the hardware caches along the scan path
    are hot before the first real request.  The section is plain data,
    decoded and validated with the rest of the pack; canaries only
    ever feed scans whose results are discarded, so they cannot change
    a finding. *)

type t = {
  version : int;  (** the pack's format version (= {!format_version}) *)
  catalog_hash : string;
      (** hex fingerprint of the rule sources the pack was built from *)
  python : Patchitpy.Scanner.t;
  javascript : unit -> Patchitpy.Scanner.t;
      (** decoded on first call (domain-safe): the scan/patch/serve
          fast paths only use the python plan, so a loaded pack does
          not pay for this section at startup.  On a pack whose
          checksum was deliberately forged around a damaged javascript
          section, the first call may raise a {!Binio} exception. *)
  fused_section : bool;
      (** whether the pack carries the pre-built fused multi-pattern
          machine; packs from pre-fused-section builds report [false]
          and re-fuse from rules on first scan *)
  canaries : string list;
      (** warm-section canary subjects, replayed by {!prewarm}; empty
          for cold packs *)
}

val with_canaries : corpus:string list -> t -> t
(** [with_canaries ~corpus t] is [t] carrying an even spread of at
    most 16 subjects of [corpus] as canaries; {!encode} writes them in
    the warm section. *)

val prewarm : t -> int
(** Forces the deferred decode of every python rule, then replays the
    pack's canary subjects twice through the python plan in the
    calling domain, results discarded, so that domain's first real
    scan runs near steady-state speed.  Transition caches are
    per-domain, so call it in every domain that will scan.  Returns
    the number of canary scans run; [0] for a cold pack. *)

type error =
  | Bad_magic  (** not a rule pack at all *)
  | Version_skew of { found : int; expected : int }
      (** written by an incompatible build *)
  | Corrupted of string  (** checksum, truncation or structure failure *)
  | Io of string  (** the file could not be read *)

val format_version : int
(** Current pack format version.  Bump on any codec change. *)

val error_to_string : error -> string

val create : unit -> t
(** Compiles the source catalog into a pack (the only constructor that
    compiles anything).  Validates every rewrite program so a bad rule
    fails here, at build time, not at patch time. *)

val encode : t -> string
(** The serialized pack bytes, with a warm section when [t] carries
    canaries. *)

val decode : string -> (t, error) result
(** Parses and validates pack bytes.  Total: malformed input of any
    kind yields [Error]. *)

val save : path:string -> t -> unit
(** Writes {!encode} to [path] via {!Binio.save_atomic}: a crash or a
    failed write never leaves a truncated pack behind.
    @raise Sys_error when the write fails; an existing [path] is then
    left untouched. *)

val load : path:string -> (t, error) result
(** Reads and {!decode}s a pack file.  Counts
    [rulepack_loads_total] / [rulepack_load_failures_total]. *)

val fingerprint : Patchitpy.Rule.t list -> string
(** Hex fingerprint of a rule list's declarations (sources, not
    compiled forms). *)

val catalog_fingerprint : unit -> string
(** {!fingerprint} of the running binary's full catalog.  Forces
    catalog compilation — callers on the pack fast path don't want
    this; see {!verify_catalog}. *)

val verify_catalog : t -> (unit, string) result
(** Whether the pack was built from this binary's catalog.  Compiles
    the source catalog to compare — used by [rules pack], the CI
    differential and tests, not by the scan/serve fast paths, which
    rely on the version gate and checksum instead. *)

val scanner : t -> [ `Python | `Js ] -> Patchitpy.Scanner.t

val env_var : string
(** ["PATCHITPY_RULE_PACK"]. *)

val use_env_pack : unit -> unit
(** When [PATCHITPY_RULE_PACK] names a pack file, registers a provider
    so {!Patchitpy.Engine.default_scanner} loads it instead of
    compiling the catalog.  A pack that fails to load is reported on
    stderr and the engine falls back to source compilation. *)
