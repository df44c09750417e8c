(* Domain safety of the once-cells that module init now defers.  Four
   domains, released together, make the first call into every deferred
   entry point at once — a [lazy] there would raise
   [CamlinternalLazy.Undefined] in all but one of them — and every
   domain's results must equal a sequential run made afterwards. *)

open Baselines

let inputs =
  [
    "import os\nimport pickle\ndef go(cmd, blob):\n    os.system(cmd)\n\
    \    return pickle.loads(blob)\n";
    "import yaml, hashlib\ncfg = yaml.load(open(\"c.yml\"))\n\
     h = hashlib.md5(data).hexdigest()\nname = f\"{user}\"\n";
    "from flask import request\n@app.route(\"/\")\ndef index():\n\
    \    q = request.args.get(\"q\")\n    return f\"<p>{q}</p>\"\n";
  ]

(* Every deferred entry point, folded into comparable strings. *)
let run_all () =
  let llm =
    List.concat_map
      (fun persona ->
        List.map
          (fun code ->
            let v = (Llm_sim.detector persona).Baseline.detect code in
            Printf.sprintf "%b|%s" v.Baseline.vulnerable
              (Llm_sim.patch persona code))
          inputs)
      Llm_sim.personas
  in
  let semgrep =
    List.map
      (fun code ->
        String.concat ";"
          (List.map
             (fun (f : Baseline.finding) ->
               Printf.sprintf "%s@%d" f.Baseline.check f.Baseline.line)
             (Semgrep_sim.scan code)))
      inputs
  in
  let corpus =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (List.map
               (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
               (Corpus.Generator.all_samples ()))))
  in
  let standardized =
    List.map
      (fun code ->
        match Standardize.standardize code with
        | Ok (s, _) -> s
        | Error e -> "error: " ^ e)
      inputs
  in
  let catalog =
    List.map
      (fun (r : Patchitpy.Rule.t) -> r.Patchitpy.Rule.id)
      (Patchitpy.Catalog.all () @ Patchitpy.Catalog.javascript ())
  in
  llm @ semgrep @ (corpus :: standardized) @ catalog

let domains = 4

let test_first_force_race () =
  let arrived = Atomic.make 0 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < domains do
              Domain.cpu_relax ()
            done;
            run_all ()))
  in
  let parallel = List.map Domain.join spawned in
  let sequential = run_all () in
  List.iteri
    (fun i got ->
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d = sequential" i)
        sequential got)
    parallel

let () =
  Alcotest.run "init-race"
    [
      ( "first force",
        [
          Alcotest.test_case "4 domains at once" `Quick test_first_force_race;
        ] );
    ]
