let ( let* ) = Result.bind

let field_str obj name =
  match Jsonin.member name obj with
  | Some v -> (
    match Jsonin.to_string v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S must be a string" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_str_opt obj name =
  match Jsonin.member name obj with
  | None -> Ok None
  | Some v -> (
    match Jsonin.to_string v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "field %S must be a string" name))

let field_int obj name =
  match Jsonin.member name obj with
  | Some v -> (
    match Jsonin.to_number v with
    | Some n when Float.is_integer n -> Ok (int_of_float n)
    | Some _ | None -> Error (Printf.sprintf "field %S must be an integer" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_str_list obj name =
  match Jsonin.member name obj with
  | None -> Ok []
  | Some v -> (
    match Jsonin.to_list v with
    | Some items ->
      let strs = List.filter_map Jsonin.to_string items in
      if List.length strs = List.length items then Ok strs
      else Error (Printf.sprintf "field %S must be an array of strings" name)
    | None -> Error (Printf.sprintf "field %S must be an array" name))

let rule_of_json obj =
  let* id = field_str obj "id" in
  let locate e = Printf.sprintf "rule %S: %s" id e in
  let relocate r = Result.map_error locate r in
  let* title = relocate (field_str obj "title") in
  let* cwe = relocate (field_int obj "cwe") in
  let* severity_s = relocate (field_str obj "severity") in
  let* severity = relocate (Rule.severity_of_string severity_s) in
  let* pattern = relocate (field_str obj "pattern") in
  let* suppress = relocate (field_str_opt obj "suppress") in
  let* fix_template = relocate (field_str_opt obj "fix") in
  let* imports = relocate (field_str_list obj "imports") in
  let* note = relocate (field_str_opt obj "note") in
  let compile_checked what p =
    match Rx.compile_opt p with
    | Ok _ -> Ok p
    | Error e -> Error (locate (Printf.sprintf "%s does not compile: %s" what e))
  in
  let* pattern = compile_checked "pattern" pattern in
  let* suppress =
    match suppress with
    | None -> Ok None
    | Some s ->
      let* s = compile_checked "suppress" s in
      Ok (Some s)
  in
  let fix =
    match fix_template with
    | Some template -> Rule.Replace_template template
    | None -> Rule.No_fix
  in
  Ok
    (Rule.make ~id ~title ~cwe ~severity ~pattern ?suppress ~fix ~imports
       ~note:(Option.value note ~default:title)
       ())

let load text =
  match Jsonin.parse text with
  | Error e -> Error (Printf.sprintf "rule file is not valid JSON: %s" e)
  | Ok (Jsonin.Arr items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        let* rule = rule_of_json item in
        go (rule :: acc) rest
    in
    go [] items
  | Ok _ -> Error "rule file must be a JSON array of rule objects"

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> load text
  | exception Sys_error e -> Error e
