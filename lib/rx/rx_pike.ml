(* Thompson-NFA compilation of the regex AST into a Pike program.

   The program is the input of both automaton tiers: [Rx_dfa]
   determinizes one pattern's forward and reverse programs lazily, and
   [Rx_fused] rebases many programs behind one fan-out preamble.
   Captures are not tracked and back-references cannot be expressed;
   patterns using them (or counted repetitions beyond the expansion
   bound) raise [Unsupported] and stay on the backtracking engine. *)

exception Unsupported of string

type inst =
  | I_char of char
  | I_any
  | I_class of Rx_ast.cls
  | I_match
  | I_jmp of int
  | I_split of int * int  (* preferred branch first *)
  | I_bol
  | I_eol
  | I_eos
  | I_wordb
  | I_nwordb

(* Counted repetitions are expanded by copying; beyond this bound the
   program would bloat, so the caller falls back to backtracking. *)
let max_counted_expansion = 64

(* Instructions are emitted into a growable array so a back-patch is a
   single in-place store; the previous list representation rewrote the
   whole program with [List.mapi] per patch, making compilation
   quadratic in program size. *)
let compile node =
  let prog = ref (Array.make 64 I_match) in
  let len = ref 0 in
  let emit inst =
    if !len = Array.length !prog then begin
      let grown = Array.make (2 * !len) I_match in
      Array.blit !prog 0 grown 0 !len;
      prog := grown
    end;
    !prog.(!len) <- inst;
    incr len;
    !len - 1
  in
  let patch idx inst = !prog.(idx) <- inst in
  let rec go node =
    match node with
    | Rx_ast.Empty -> ()
    | Rx_ast.Char c -> ignore (emit (I_char c))
    | Rx_ast.Any -> ignore (emit I_any)
    | Rx_ast.Class cls -> ignore (emit (I_class cls))
    | Rx_ast.Seq nodes -> List.iter go nodes
    | Rx_ast.Alt branches -> alt branches
    | Rx_ast.Group (_, inner) -> go inner (* captures are not tracked *)
    | Rx_ast.Rep (inner, min, max, greed) -> rep inner min max greed
    | Rx_ast.Bol -> ignore (emit I_bol)
    | Rx_ast.Eol -> ignore (emit I_eol)
    | Rx_ast.Eos -> ignore (emit I_eos)
    | Rx_ast.Wordb -> ignore (emit I_wordb)
    | Rx_ast.Nwordb -> ignore (emit I_nwordb)
    | Rx_ast.Backref _ -> raise (Unsupported "back-reference")
  and alt = function
    | [] -> ()
    | [ only ] -> go only
    | first :: rest ->
      let split = emit (I_jmp 0) (* placeholder *) in
      go first;
      let jmp = emit (I_jmp 0) (* placeholder *) in
      let rest_start = !len in
      alt rest;
      patch split (I_split (split + 1, rest_start));
      patch jmp (I_jmp !len)
  and rep inner min max greed =
    (match max with
    | Some m when m > max_counted_expansion ->
      raise (Unsupported "large counted repetition")
    | Some _ | None -> ());
    if min > max_counted_expansion then
      raise (Unsupported "large counted repetition");
    (* mandatory copies *)
    for _ = 1 to min do
      go inner
    done;
    match max with
    | None ->
      (* star: L: split(body, out); body; jmp L *)
      let split = emit (I_jmp 0) in
      go inner;
      ignore (emit (I_jmp split));
      let out = !len in
      let body = split + 1 in
      patch split
        (match greed with
        | Rx_ast.Greedy -> I_split (body, out)
        | Rx_ast.Lazy -> I_split (out, body))
    | Some m ->
      (* (max - min) optional copies *)
      let exits = ref [] in
      for _ = 1 to m - min do
        let split = emit (I_jmp 0) in
        exits := split :: !exits;
        go inner
      done;
      let out = !len in
      List.iter
        (fun split ->
          patch split
            (match greed with
            | Rx_ast.Greedy -> I_split (split + 1, out)
            | Rx_ast.Lazy -> I_split (out, split + 1)))
        !exits
  in
  go node;
  ignore (emit I_match);
  Array.sub !prog 0 !len
