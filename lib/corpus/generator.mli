(** Simulated AI code generators.

    Stands in for the GitHub Copilot, Claude-3.7-Sonnet and DeepSeek-V3
    APIs (§III-A): each persona renders every scenario's prompt to Python
    with its own style, and with a per-model propensity to pick the
    insecure realization.  The propensities are calibrated to the
    incidence the paper measured — Copilot 169/203, Claude 126/203,
    DeepSeek 166/203 (§III-B) — and to each model's skew towards
    weaknesses that are harder to detect and patch (which is where the
    paper's per-model recall and repair-rate differences come from).

    Everything is deterministic: a sample is a pure function of
    (model, scenario). *)

type model = Copilot | Claude | Deepseek

val models : model list

val model_name : model -> string

type sample = {
  model : model;
  scenario : Scenario.t;
  code : string;  (** what the generator emitted *)
  vulnerable : bool;  (** ground truth (the §III-B oracle) *)
}

val vulnerable_quota : model -> int
(** How many of the 203 prompts this persona answers insecurely. *)

val samples : model -> sample list
(** One sample per scenario, in scenario order (203 samples). *)

val all_samples : unit -> sample list
(** All three personas over all scenarios: 609 samples. *)

val long_files : unit -> (string * string) list
(** Thirty long inputs, [("long-NN.py", contents)]: each concatenates
    corpus samples drawn with a fixed random state until it reaches a
    target size drawn uniformly from 512 B - 64 KB.  Many samples share
    imports, so these files carry dozens to hundreds of import lines.
    The golden digests and the fused-pass benchmark rows run over
    them. *)

val style_label : model -> string
(** Short description of the persona's code style quirks. *)
