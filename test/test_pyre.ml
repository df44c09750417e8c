(* Python's [re] as an independent oracle for the rule dialect: every
   catalog detection pattern (Python and JS) is run through [Rx.find_all]
   and through [re.finditer] in bytes mode with [re.MULTILINE] — the
   dialect [Rx] documents — over the 609 corpus samples and their CRLF
   forms, and the match spans must agree pair by pair.  Both of the
   engine's tiers are derived from one AST, so this is the check that
   does not share their assumptions.

   Needs [python3] on the PATH; without it the test prints a skip and
   passes. *)

module G = Corpus.Generator

let have_python () = Sys.command "python3 -c 'import re' >/dev/null 2>&1" = 0

(* Items travel as "<byte length>\n<bytes>" so patterns and subjects
   cross the process boundary verbatim, whatever bytes they hold. *)
let write_items path items =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      output_string oc (string_of_int (String.length s));
      output_char oc '\n';
      output_string oc s)
    items;
  close_out oc

(* Prints one line per (pattern, subject) pair with at least one match,
   "i j s,e s,e ...", and "i E message" for a pattern [re] rejects. *)
let oracle_script =
  {|import re, sys

def items(path):
    data = open(path, "rb").read()
    out, pos = [], 0
    while pos < len(data):
        nl = data.index(b"\n", pos)
        n = int(data[pos:nl])
        out.append(data[nl + 1 : nl + 1 + n])
        pos = nl + 1 + n
    return out

pats, subs = items(sys.argv[1]), items(sys.argv[2])
with open(sys.argv[3], "w") as out:
    for i, p in enumerate(pats):
        try:
            rx = re.compile(p, re.MULTILINE)
        except re.error as e:
            out.write("%d E %s\n" % (i, e))
            continue
        for j, s in enumerate(subs):
            spans = ["%d,%d" % m.span() for m in rx.finditer(s)]
            if spans:
                out.write("%d %d %s\n" % (i, j, " ".join(spans)))
|}

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let crlf s = String.concat "\r\n" (String.split_on_char '\n' s)

let test_catalog_spans () =
  if not (have_python ()) then
    print_endline "python3 not found: skipping the python re oracle"
  else begin
    let rules = Patchitpy.Catalog.all () @ Patchitpy.Catalog.javascript () in
    let pats =
      Array.of_list
        (List.map (fun (r : Patchitpy.Rule.t) -> r.Patchitpy.Rule.pattern)
           rules)
    in
    Alcotest.(check int) "catalog patterns" 101 (Array.length pats);
    let codes = List.map (fun (s : G.sample) -> s.G.code) (G.all_samples ()) in
    let subjects = Array.of_list (codes @ List.map crlf codes) in
    let tmp suffix = Filename.temp_file "patchitpy-pyre" suffix in
    let pat_file = tmp ".pats" and sub_file = tmp ".subs" in
    let script = tmp ".py" and out_file = tmp ".out" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ pat_file; sub_file; script; out_file ])
      (fun () ->
        write_items pat_file (Array.to_list (Array.map Rx.pattern pats));
        write_items sub_file (Array.to_list subjects);
        let oc = open_out_bin script in
        output_string oc oracle_script;
        close_out oc;
        let rc =
          Sys.command
            (String.concat " "
               (List.map Filename.quote
                  [ "python3"; script; pat_file; sub_file; out_file ]))
        in
        Alcotest.(check int) "oracle exit code" 0 rc;
        let budget_skips = ref 0 in
        let ours =
          List.concat
            (List.mapi
               (fun i rx ->
                 List.concat
                   (List.mapi
                      (fun j subject ->
                        match Rx.find_all rx subject with
                        | [] -> []
                        | ms ->
                          [
                            Printf.sprintf "%d %d %s" i j
                              (String.concat " "
                                 (List.map
                                    (fun m ->
                                      Printf.sprintf "%d,%d" (Rx.m_start m)
                                        (Rx.m_stop m))
                                    ms));
                          ]
                        | exception Rx.Budget_exceeded _ ->
                          incr budget_skips;
                          [])
                      (Array.to_list subjects)))
               (Array.to_list pats))
        in
        let theirs = read_lines out_file in
        Alcotest.(check int) "no pair ran out of budget" 0 !budget_skips;
        let describe line =
          match String.split_on_char ' ' line with
          | i :: j :: _ -> (
            match (int_of_string_opt i, int_of_string_opt j) with
            | Some i, Some j ->
              Printf.sprintf "%s  [pattern %S, subject %d]" line
                (Rx.pattern pats.(i)) j
            | Some i, None ->
              Printf.sprintf "%s  [pattern %S]" line (Rx.pattern pats.(i))
            | None, _ -> line)
          | _ -> line
        in
        let only_in a b =
          let seen = Hashtbl.create 4096 in
          List.iter (fun l -> Hashtbl.replace seen l ()) b;
          List.filter (fun l -> not (Hashtbl.mem seen l)) a
        in
        let missing = only_in theirs ours and extra = only_in ours theirs in
        let report side =
          List.iter (fun l -> Printf.printf "only %s: %s\n" side (describe l))
        in
        report "python re" missing;
        report "Rx" extra;
        Printf.printf "%d (pattern, subject) pairs matched under python re\n"
          (List.length theirs);
        Alcotest.(check bool) "the oracle saw real matches" true (theirs <> []);
        Alcotest.(check int) "span disagreements" 0
          (List.length missing + List.length extra))
  end

let () =
  Alcotest.run "pyre"
    [
      ( "oracle",
        [
          Alcotest.test_case "catalog spans = python re (LF and CRLF)" `Slow
            test_catalog_spans;
        ] );
    ]
