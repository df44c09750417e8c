(** The evaluation harness: regenerates every table and figure of the
    paper's case study (§III) over the simulated corpus.

    Experiment index (see DESIGN.md):
    - E1 {!prompt_stats} — §III-A prompt-length statistics;
    - E2 {!incidence} — §III-B vulnerability incidence and top CWEs;
    - E3 {!Detection} — Table II detection metrics, 7 tools × 4 columns;
    - E4 {!cwe_coverage} — distinct CWEs correctly identified per model;
    - E5 {!Patching} — Table III patch-correctness rates plus the
      Semgrep/Bandit suggestion-only shares;
    - E6 {!Quality} — Pylint-score comparison with Wilcoxon tests;
    - E7 {!Fig3} — cyclomatic-complexity distributions;
    - E8 {!table1} — the rule-derivation walkthrough of Table I. *)

module Tables = Tables
module Detection = Detection
module Patching = Patching
module Quality = Quality
module Fig3 = Fig3
module Ablation = Ablation

module Par = Par
(** Parallel corpus runner: E1-E8 map their per-sample work through
    {!Par.map_samples}, so [Par.set_default_jobs] (the CLI's [--jobs])
    controls the domain count for the whole harness. *)

module Profile = Profile
(** Corpus profiling under {!Telemetry}: the per-rule hot-spot table
    behind [patchitpy profile]. *)

val prompt_stats : unit -> string
(** E1: token statistics of the 203 prompts. *)

val incidence : unit -> string
(** E2: per-model vulnerable counts and the most frequent CWEs. *)

val cwe_coverage : unit -> string
(** E4: distinct CWEs PatchitPy correctly identified per model. *)

val table1 : unit -> string
(** E8: standardization + LCS + diff on the paper's Table I pair. *)

val run_all : unit -> string
(** Every section E1-E8, concatenated — the bench harness's output. *)

val run_ablations : unit -> string
(** The A1-A5 ablation study (see {!Ablation}). *)
