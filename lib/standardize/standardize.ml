type mapping = (string * string) list

(* A token paired with its source span, plus classification context
   gathered in a first pass. *)

let is_dunder name =
  String.length name > 4
  && String.sub name 0 2 = "__"
  && String.sub name (String.length name - 2) 2 = "__"

let is_capitalized name = name <> "" && name.[0] >= 'A' && name.[0] <= 'Z'

let raw_text source (tok : Pylex.token) =
  String.sub source tok.Pylex.start.Pylex.offset
    (tok.Pylex.stop.Pylex.offset - tok.Pylex.start.Pylex.offset)

(* The tagger walks the token array tracking:
   - bracket depth and, per open paren, whether it is a call and whether
     the callee is "plain" (lowercase function/method, not a constructor);
   - whether the current logical line is a decorator line;
   - kwarg context: a Name directly followed by '=' inside a call is a
     configuration parameter and is preserved together with its value. *)

type call_frame = { plain_call : bool }

let collect_standardizable source tokens =
  let toks = Array.of_list tokens in
  let n = Array.length toks in
  let ordered = ref [] in
  let seen = Hashtbl.create 16 in
  let note key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      ordered := key :: !ordered
    end
  in
  let stack = ref [] in
  let in_decorator = ref false in
  let kind i = toks.(i).Pylex.kind in
  let prev_code i =
    let rec go j =
      if j < 0 then None
      else
        match kind j with
        | Pylex.Comment _ | Pylex.Nl -> go (j - 1)
        | k -> Some k
    in
    go (i - 1)
  in
  let next_code i =
    let rec go j =
      if j >= n then None
      else
        match kind j with
        | Pylex.Comment _ | Pylex.Nl -> go (j + 1)
        | k -> Some k
    in
    go (i + 1)
  in
  (* Does the rest of the logical line after '=' at index i contain a
     plain (lowercase, non-constructor) call? *)
  let rhs_has_plain_call i =
    let rec go j last_name =
      if j >= n then false
      else
        match kind j with
        | Pylex.Newline | Pylex.Eof -> false
        | Pylex.Op "(" -> (
          match last_name with
          | Some callee when (not (is_capitalized callee)) && not (is_dunder callee)
            -> true
          | Some _ | None -> go (j + 1) None)
        | Pylex.Name nm -> go (j + 1) (Some nm)
        | _ -> go (j + 1) None
    in
    go i None
  in
  for i = 0 to n - 1 do
    match kind i with
    | Pylex.Op "@" when (match prev_code i with
                         | None | Some (Pylex.Newline | Pylex.Indent | Pylex.Dedent) -> true
                         | Some _ -> false) ->
      in_decorator := true
    | Pylex.Newline ->
      in_decorator := false;
      stack := []
    | Pylex.Op "(" ->
      (* A call if the previous code token is a Name (or closing bracket);
         plain if that name is lowercase and not a dunder. *)
      let frame =
        match prev_code i with
        | Some (Pylex.Name callee) ->
          { plain_call =
              (not !in_decorator)
              && (not (is_capitalized callee))
              && not (is_dunder callee) }
        | Some _ | None -> { plain_call = false }
      in
      stack := frame :: !stack
    | Pylex.Op ("[" | "{") -> stack := { plain_call = false } :: !stack
    | Pylex.Op (")" | "]" | "}") ->
      (match !stack with [] -> () | _ :: rest -> stack := rest)
    | Pylex.Op "=" when !stack = [] -> (
      (* Statement-level assignment: previous name is the target. *)
      match prev_code i with
      | Some (Pylex.Name target)
        when (not (is_dunder target)) && rhs_has_plain_call (i + 1) ->
        note target
      | Some _ | None -> ())
    | Pylex.Name nm -> (
      match !stack with
      | { plain_call = true } :: _ ->
        (* Positional argument: not a kwarg name (next is '='), not a
           kwarg value (prev is '='), not part of an attribute chain or
           itself a callee. *)
        let next_is cond = match next_code i with Some k -> cond k | None -> false in
        let prev_is cond = match prev_code i with Some k -> cond k | None -> false in
        let is_kwarg_name = next_is (function Pylex.Op "=" -> true | _ -> false) in
        let is_kwarg_value = prev_is (function Pylex.Op "=" -> true | _ -> false) in
        let in_attr_chain =
          prev_is (function Pylex.Op "." -> true | _ -> false)
          || next_is (function Pylex.Op ("." | "(") -> true | _ -> false)
        in
        if
          (not is_kwarg_name) && (not is_kwarg_value) && (not in_attr_chain)
          && (not (is_dunder nm))
          && not (is_capitalized nm)
        then note nm
      | _ -> ())
    | Pylex.Str _ -> (
      match !stack with
      | { plain_call = true } :: _ ->
        let prev_is cond = match prev_code i with Some k -> cond k | None -> false in
        let is_kwarg_value = prev_is (function Pylex.Op "=" -> true | _ -> false) in
        if not is_kwarg_value then note (raw_text source toks.(i))
      | _ -> ())
    | _ -> ()
  done;
  List.rev !ordered

let fstring_ident_rx =
  Rx.once @@ fun () -> Rx.compile "\\{([A-Za-z_][A-Za-z0-9_]*)\\}"

let apply_mapping source tokens table =
  (* Splices replacements over the original text, preserving everything
     between tokens (whitespace, comments) verbatim. *)
  let buf = Buffer.create (String.length source) in
  let cursor = ref 0 in
  let copy_upto offset =
    if offset > !cursor then begin
      Buffer.add_string buf (String.sub source !cursor (offset - !cursor));
      cursor := offset
    end
  in
  let replace_span (tok : Pylex.token) text =
    copy_upto tok.Pylex.start.Pylex.offset;
    Buffer.add_string buf text;
    cursor := tok.Pylex.stop.Pylex.offset
  in
  List.iter
    (fun (tok : Pylex.token) ->
      match tok.Pylex.kind with
      | Pylex.Name nm -> (
        match Hashtbl.find_opt table nm with
        | Some v -> replace_span tok v
        | None -> ())
      | Pylex.Str { Pylex.prefix; _ } ->
        let raw = raw_text source tok in
        (match Hashtbl.find_opt table raw with
        | Some v -> replace_span tok v
        | None ->
          (* Rewrite mapped names interpolated in f-strings. *)
          if String.contains prefix 'f' then begin
            let rewritten =
              Rx.replace_f (fstring_ident_rx ())
                ~f:(fun m ->
                  match Rx.group m 1 with
                  | Some ident -> (
                    match Hashtbl.find_opt table ident with
                    | Some v -> "{" ^ v ^ "}"
                    | None -> Rx.matched m)
                  | None -> Rx.matched m)
                raw
            in
            if rewritten <> raw then replace_span tok rewritten
          end)
      | _ -> ())
    tokens;
  copy_upto (String.length source);
  Buffer.contents buf

let standardize source =
  match Pylex.tokenize source with
  | Error { Pylex.message; position } ->
    Error
      (Printf.sprintf "line %d, col %d: %s" position.Pylex.line
         position.Pylex.col message)
  | Ok tokens ->
    let keys = collect_standardizable source tokens in
    let mapping = List.mapi (fun i k -> (k, Printf.sprintf "var%d" i)) keys in
    let table = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace table k v) mapping;
    Ok (apply_mapping source tokens table, mapping)

let standardize_exn source =
  match standardize source with Ok r -> r | Error msg -> failwith msg

let standardized_equal a b =
  match (standardize a, standardize b) with
  | Ok (sa, _), Ok (sb, _) -> sa = sb
  | (Error _ | Ok _), _ -> false
