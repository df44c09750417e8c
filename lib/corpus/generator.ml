type model = Copilot | Claude | Deepseek

let models = [ Copilot; Claude; Deepseek ]

let model_name = function
  | Copilot -> "Copilot"
  | Claude -> "Claude"
  | Deepseek -> "DeepSeek"

type sample = {
  model : model;
  scenario : Scenario.t;
  code : string;
  vulnerable : bool;
}

(* Incidence measured by the paper's manual evaluation (§III-B). *)
let vulnerable_quota = function
  | Copilot -> 169
  | Claude -> 126
  | Deepseek -> 166

(* Per-model skew: multiplying the selection score of the detect-only /
   semantic scenarios moves them towards (factor < 1) or away from
   (factor > 1) the insecure pool for that persona.  This reproduces the
   paper's per-model recall and repair-rate spread: Copilot's insecure
   answers concentrate on weaknesses that rules struggle with, Claude's
   on pattern-friendly ones. *)
let difficulty_factor model (s : Scenario.t) =
  let base =
    match (model, s.Scenario.difficulty) with
    | Copilot, Scenario.Semantic -> 0.30
    | Copilot, Scenario.Detect_only -> 0.40
    | Copilot, Scenario.Plain -> 1.0
    | Claude, Scenario.Semantic -> 1.9
    | Claude, Scenario.Detect_only -> 1.45
    | Claude, Scenario.Plain -> 1.0
    | Deepseek, Scenario.Semantic -> 1.15
    | Deepseek, Scenario.Detect_only -> 0.85
    | Deepseek, Scenario.Plain -> 1.0
  in
  (* Bait scenarios lean secure: their insecure twin is the obvious
     mistake models rarely make once the benign use is in the prompt. *)
  let bait_factor =
    match model with Copilot -> 1.4 | Claude -> 2.2 | Deepseek -> 1.18
  in
  let base = if s.Scenario.fp_bait then base *. bait_factor else base in
  (* Rarity: personas differ in how securely they answer unusual,
     single-of-their-kind prompts (this shapes how many distinct CWEs
     each model's insecure answers span, §III-C). *)
  let rare = Dataset.cwe_instance_count s.Scenario.cwe <= 2 in
  let rarity_factor =
    match model with Copilot -> 1.0 | Claude -> 1.7 | Deepseek -> 1.25
  in
  if rare then base *. rarity_factor else base

let selection_score model (s : Scenario.t) =
  Genhash.float_of (model_name model ^ "|select|" ^ s.Scenario.sid)
  *. difficulty_factor model s

(* The insecure pool: the [quota] scenarios with the lowest score. *)
let vulnerable_set model scenarios =
  let scored =
    List.map (fun s -> (selection_score model s, s.Scenario.sid)) scenarios
  in
  let sorted = List.sort compare scored in
  let quota = vulnerable_quota model in
  let chosen = Hashtbl.create 256 in
  List.iteri
    (fun i (_, sid) -> if i < quota then Hashtbl.replace chosen sid ())
    sorted;
  chosen

(* --- style transforms --------------------------------------------------- *)

let style_label = function
  | Copilot ->
    "terse; sometimes emits fragments without imports or truncated tails"
  | Claude -> "adds docstrings to functions"
  | Deepseek -> "appends a __main__ usage demo"

(* Copilot fragments: drop the import prologue, as inline completions
   often do.  The vulnerability lives in the function body, so ground
   truth is unaffected — but AST-based tools lose the context they key
   on. *)
let strip_imports code =
  let lines = String.split_on_char '\n' code in
  let body =
    List.filter
      (fun l ->
        let t = String.trim l in
        not
          (String.length t >= 7 && String.sub t 0 7 = "import "
          || (String.length t >= 5 && String.sub t 0 5 = "from ")))
      lines
  in
  (* drop leading blank lines left behind *)
  let rec drop_blank = function
    | "" :: rest -> drop_blank rest
    | l -> l
  in
  String.concat "\n" (drop_blank body)

(* Copilot truncation: the completion window cut the suggestion off
   mid-signature.  The sample no longer parses — pattern matching still
   works, AST tools do not. *)
let truncate_tail code = code ^ "\ndef retry_with_backoff(attempts,\n"

let insert_docstring code =
  let lines = String.split_on_char '\n' code in
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest
      when String.length (String.trim line) > 4
           && String.sub (String.trim line) 0 4 = "def "
           && String.length line > 0 ->
      let indent =
        let body_indent =
          String.length line - String.length (String.trim line) + 4
        in
        String.make body_indent ' '
      in
      let doc = indent ^ "\"\"\"Generated helper.\"\"\"" in
      List.rev_append acc ((line :: doc :: rest))
    | line :: rest -> go (line :: acc) rest
  in
  String.concat "\n" (go [] lines)

(* Control-flow realism: models sprinkle guard clauses over generated
   functions ("if x is None: raise ...").  Decision density is what the
   cyclomatic-complexity experiment (Fig. 3) measures, so the corpus
   carries the 1-4-branch functions real generations show. *)
let def_with_param_rx =
  Rx.once @@ fun () ->
  Rx.compile {|^(\s*)def\s+\w+\(\s*([A-Za-z_]\w*)[^)]*\)[^:]*:\s*$|}

let guard_templates =
  [
    (fun pad param ->
      Printf.sprintf "%s    if %s is None:\n%s        raise ValueError(\"missing %s\")"
        pad param pad param);
    (fun pad param ->
      Printf.sprintf "%s    if not %s:\n%s        return None" pad param pad);
    (fun pad param ->
      Printf.sprintf
        "%s    if isinstance(%s, str) and len(%s) > 4096:\n%s        raise ValueError(\"input too large\")"
        pad param param pad);
  ]

let add_guards key code =
  (* every parameterized function gets 0-3 guards; inserted bottom-up so
     match offsets stay valid *)
  let matches = Rx.find_all (def_with_param_rx ()) code in
  List.fold_left
    (fun code m ->
      let pad = Option.value (Rx.group m 1) ~default:"" in
      let param = Option.value (Rx.group m 2) ~default:"" in
      if param = "self" || param = "" then code
      else begin
        let fkey = key ^ "|" ^ string_of_int (Rx.m_start m) in
        let r = Genhash.float_of (fkey ^ "|guards") in
        let count =
          if r < 0.10 then 0 else if r < 0.55 then 1 else if r < 0.92 then 2 else 3
        in
        if count = 0 then code
        else begin
          let guards =
            List.init count (fun i ->
                let g =
                  List.nth guard_templates
                    ((i + Genhash.int_of (fkey ^ "|gpick") 3) mod 3)
                in
                g pad param)
          in
          let stop = Rx.m_stop m in
          String.sub code 0 stop ^ "\n" ^ String.concat "\n" guards
          ^ String.sub code stop (String.length code - stop)
        end
      end)
    code (List.rev matches)

(* Handlers read request parameters and then check them — the guard
   shape models emit for zero-parameter route functions. *)
let request_get_rx =
  Rx.once @@ fun () ->
  Rx.compile {|^(\s+)([A-Za-z_]\w*) = request\.(?:args|form|values)(?:\.get)?[(\[][^\n]*$|}

let add_request_guards key code =
  let matches = Rx.find_all (request_get_rx ()) code in
  List.fold_left
    (fun code m ->
      let pad = Option.value (Rx.group m 1) ~default:"" in
      let var = Option.value (Rx.group m 2) ~default:"" in
      let fkey = key ^ "|rg|" ^ string_of_int (Rx.m_start m) in
      if var = "" || Genhash.float_of fkey < 0.45 then code
      else begin
        let guard =
          Printf.sprintf "%sif not %s:\n%s    return \"missing parameter\", 400"
            pad var pad
        in
        let stop = Rx.m_stop m in
        String.sub code 0 stop ^ "\n" ^ guard
        ^ String.sub code stop (String.length code - stop)
      end)
    code (List.rev matches)

let append_demo code =
  code ^ "\nif __name__ == \"__main__\":\n    print(\"demo run complete\")\n"

let apply_style model key code =
  match model with
  | Copilot ->
    let r = Genhash.float_of (key ^ "|frag") in
    if r < 0.14 then strip_imports code
    else if r < 0.34 then truncate_tail code
    else code
  | Claude -> insert_docstring code
  | Deepseek ->
    if Genhash.float_of (key ^ "|demo") < 0.5 then append_demo code else code

let generate chosen model (s : Scenario.t) =
  let vulnerable = Hashtbl.mem chosen s.Scenario.sid in
  let key = model_name model ^ "|" ^ s.Scenario.sid in
  let pool = if vulnerable then s.Scenario.vulnerable else s.Scenario.secure in
  (* Variant preference: Copilot tends to decompose work into intermediate
     variables (the later variants), Claude prefers the canonical inline
     form.  Decomposed insecure variants are exactly the shapes lexical
     rules miss, so this drives the per-model recall spread. *)
  let decomposed_pref =
    match model with Copilot -> 0.66 | Claude -> 0.05 | Deepseek -> 0.18
  in
  let code =
    match pool with
    | [ only ] -> only
    | pool when Genhash.float_of (key ^ "|pref") < decomposed_pref ->
      List.nth pool (List.length pool - 1)
    | pool ->
      (* canonical forms: everything but the decomposed last variant *)
      Genhash.pick (key ^ "|variant")
        (List.filteri (fun i _ -> i < List.length pool - 1) pool)
  in
  let code = add_guards key code in
  let code = add_request_guards key code in
  let code = apply_style model key code in
  { model; scenario = s; code; vulnerable }

let samples model =
  let scenarios = Dataset.scenarios () in
  let chosen = vulnerable_set model scenarios in
  List.map (generate chosen model) scenarios

let all_samples () = List.concat_map samples models

let long_files () =
  let samples = Array.of_list (all_samples ()) in
  let st = Random.State.make [| 12 |] in
  List.init 30 (fun i ->
      let target = 512 + Random.State.int st (65536 - 512) in
      let buf = Buffer.create (target + 4096) in
      while Buffer.length buf < target do
        let s = samples.(Random.State.int st (Array.length samples)) in
        Buffer.add_string buf s.code;
        Buffer.add_char buf '\n'
      done;
      (Printf.sprintf "long-%02d.py" i, Buffer.contents buf))
