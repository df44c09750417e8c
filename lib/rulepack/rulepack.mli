(** Versioned binary rule packs: the rule catalog's sources, checksummed.

    A pack stores both rule lists ({!Patchitpy.Catalog.all} and
    {!Patchitpy.Catalog.javascript}) as their declarations — per rule
    the id, title, CWE, severity, pattern and suppress sources, fix
    (a template or a rendered {!Patchitpy.Rewrite} program), imports
    and note — behind a magic tag, a format version, a catalog
    fingerprint and a whole-file checksum.  Loading one decodes those
    strings into plans ({!Patchitpy.Scanner.deferred}) that compile
    their rules from source on first use, through
    {!Patchitpy.Rule.make} — the path user rule files take.  Scan and
    patch output over a loaded pack is byte-identical to the
    source-compiled catalog's.  Formats 4 and older, which stored
    compiled patterns and a pre-built fused machine, are refused with
    [Version_skew].

    Robustness contract: {!load}/{!decode} return typed errors — never
    raise — on malformed input (truncation, bit flips, version skew,
    bad structure, a rewrite program that does not parse).  A pack
    whose checksum was deliberately fixed up still holds only strings:
    a pattern that does not parse raises {!Binio.Corrupt} when the plan
    first compiles its rules — memory-safe, just no longer a typed
    [Error].

    A pack may additionally carry a {e warm} section: up to 16 canary
    subjects, an even spread of a corpus chosen at pack time
    ({!with_canaries}).  {!prewarm} replays them in the calling domain
    so its lazy-DFA caches and the hardware caches along the scan path
    are hot before the first real request.  The section is plain data,
    decoded and validated with the rest of the pack; canaries only
    ever feed scans whose results are discarded, so they cannot change
    a finding. *)

type t = {
  version : int;  (** the pack's format version (= {!format_version}) *)
  catalog_hash : string;
      (** hex fingerprint of the rule sources the pack was built from *)
  python : Patchitpy.Scanner.t;
  javascript : Patchitpy.Scanner.t;
  canaries : string list;
      (** warm-section canary subjects, replayed by {!prewarm}; empty
          for cold packs *)
}

val with_canaries : corpus:string list -> t -> t
(** [with_canaries ~corpus t] is [t] carrying an even spread of at
    most 16 subjects of [corpus] as canaries; {!encode} writes them in
    the warm section. *)

val prewarm : t -> int
(** Compiles every python rule and builds the DFA tables of each
    pattern and suppress pattern ({!Rx.prepare}), then replays the
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
(** A pack of the source catalog.  Validates every rewrite program so
    a bad rule fails here, at build time, not at patch time. *)

val encode : t -> string
(** The serialized pack bytes, with a warm section when [t] carries
    canaries. *)

val decode : string -> (t, error) result
(** Parses and validates pack bytes.  Total: malformed structure
    yields [Error]; see the robustness contract above for a pattern
    that does not parse. *)

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
    compilation of the built-in catalog; see {!verify_catalog}. *)

val verify_catalog : t -> (unit, string) result
(** Whether the pack was built from this binary's catalog.  Compiles
    the built-in catalog to compare — used by [rules inspect], the CI
    differential and tests, not by the scan/serve paths, which rely on
    the version gate and checksum instead. *)

val scanner : t -> [ `Python | `Js ] -> Patchitpy.Scanner.t

val env_var : string
(** ["PATCHITPY_RULE_PACK"]. *)

val use_env_pack : unit -> unit
(** When [PATCHITPY_RULE_PACK] names a pack file, registers a provider
    so {!Patchitpy.Engine.default_scanner} serves its python plan
    instead of the built-in catalog.  A pack that fails to load is
    reported on stderr and the engine falls back to the built-in
    catalog. *)
