type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Err of string * int

type st = { src : string; mutable pos : int }

let fail st msg = raise (Err (msg, st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* Encodes a Unicode scalar value as UTF-8. *)
let utf8_of_code buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The end of the run of plain bytes from [i]: the first '"', '\\' or
   control byte, or the end of input. *)
let rec plain_run src i =
  if i >= String.length src then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' -> i
    | c when Char.code c < 0x20 -> i
    | _ -> plain_run src (i + 1)

(* Decodes the rest of a string that has an escape or an error: [start]
   is its first byte and [stop] the end of its first run of plain bytes.
   Each later run between escapes is copied with one
   [Buffer.add_substring]. *)
let parse_escaped st start stop =
  let src = st.src in
  let buf = Buffer.create (stop - start + 16) in
  Buffer.add_substring buf src start (stop - start);
  st.pos <- stop;
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek st with
      | Some c when c >= '0' && c <= '9' -> v := (!v * 16) + Char.code c - 48
      | Some c when c >= 'a' && c <= 'f' -> v := (!v * 16) + Char.code c - 87
      | Some c when c >= 'A' && c <= 'F' -> v := (!v * 16) + Char.code c - 55
      | Some _ | None -> fail st "invalid \\u escape");
      advance st
    done;
    !v
  in
  (* The cursor sits on a '"', '\\' or control byte, or at the end. *)
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'u' ->
        advance st;
        let code = hex4 () in
        utf8_of_code buf code;
        (* hex4 leaves the cursor after the escape; compensate for the
           unconditional advance below *)
        st.pos <- st.pos - 1
      | Some c -> fail st (Printf.sprintf "invalid escape \\%c" c)
      | None -> fail st "dangling backslash");
      advance st;
      let stop = plain_run src st.pos in
      Buffer.add_substring buf src st.pos (stop - st.pos);
      st.pos <- stop;
      loop ()
    | Some _ -> fail st "control character in string"
  in
  loop ();
  Buffer.contents buf

(* A string without escapes is one [String.sub], so a multi-megabyte
   source costs a scan and a copy rather than a dispatch per byte. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = plain_run st.src start in
  if stop < String.length st.src && String.unsafe_get st.src stop = '"' then begin
    st.pos <- stop + 1;
    String.sub st.src start (stop - start)
  end
  else parse_escaped st start stop

let parse_number st =
  let start = st.pos in
  let consume pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
        advance st;
        go ()
      | Some _ | None -> ()
    in
    go ()
  in
  if peek st = Some '-' then advance st;
  consume (fun c -> c >= '0' && c <= '9');
  if peek st = Some '.' then begin
    advance st;
    consume (fun c -> c >= '0' && c <= '9')
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with
    | Some ('+' | '-') -> advance st
    | Some _ | None -> ());
    consume (fun c -> c >= '0' && c <= '9')
  | Some _ | None -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st (Printf.sprintf "invalid number %S" text)

(* Nesting bound: the parser recurses once per container level, so an
   adversarial payload of a few hundred thousand '[' bytes would
   otherwise turn into a stack overflow — fatal in a server accepting
   untrusted requests.  255 levels is far beyond any document this
   project produces or consumes. *)
let max_depth = 255

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | Some _ | None -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | Some _ | None -> fail st "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse source =
  let st = { src = source; pos = 0 } in
  match
    let v = parse_value st 0 in
    skip_ws st;
    (match peek st with
    | Some _ -> fail st "trailing garbage"
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Err (msg, pos) -> Error (Printf.sprintf "at offset %d: %s" pos msg)
  (* The depth bound should make this unreachable; kept as a last line
     of defense so no input can crash a caller. *)
  | exception Stack_overflow -> Error "at offset 0: nesting too deep"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_number = function Num n -> Some n | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
