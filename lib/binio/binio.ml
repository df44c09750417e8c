(* Little-endian binary primitives for the rule-pack codec.  Writers
   append to a Buffer; readers consume a string through a cursor and
   raise [Truncated]/[Corrupt] — callers wrap a whole decode in
   [protect] to get a result instead. *)

exception Truncated
exception Corrupt of string

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let w_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_opt w buf = function
  | None -> w_u8 buf 0
  | Some v ->
    w_u8 buf 1;
    w buf v

let w_list w buf l =
  w_u32 buf (List.length l);
  List.iter (w buf) l

type r = { s : string; mutable pos : int; stop : int }

let reader ?(pos = 0) ?stop s =
  let stop = match stop with None -> String.length s | Some e -> e in
  if pos < 0 || stop > String.length s || pos > stop then
    invalid_arg "Binio.reader";
  { s; pos; stop }

let need r n = if r.stop - r.pos < n then raise Truncated

let r_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let v =
    Char.code r.s.[r.pos]
    lor (Char.code r.s.[r.pos + 1] lsl 8)
    lor (Char.code r.s.[r.pos + 2] lsl 16)
    lor (Char.code r.s.[r.pos + 3] lsl 24)
  in
  r.pos <- r.pos + 4;
  v

let r_str r =
  let n = r_u32 r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

(* A sub-reader over the next [n] bytes, sharing the backing string —
   no copy, which matters when slicing a few hundred kilobytes of
   section payload on the pack cold-start path. *)
let r_view r n =
  need r n;
  let v = { s = r.s; pos = r.pos; stop = r.pos + n } in
  r.pos <- r.pos + n;
  v

let r_opt rd r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (rd r)
  | v -> raise (Corrupt (Printf.sprintf "bad option byte %d" v))

(* A sequence count read from the wire bounds allocation: [limit] keeps
   a forged count from provoking a giant pre-allocation before the
   elements inevitably hit [Truncated]. *)
let r_count ?(limit = 1 lsl 24) r =
  let n = r_u32 r in
  if n > limit then raise (Corrupt (Printf.sprintf "count %d exceeds limit" n));
  n

let r_list rd r =
  let n = r_count r in
  List.init n (fun _ -> rd r)

let r_array rd r =
  let n = r_count r in
  Array.init n (fun _ -> rd r)

let at_end r = r.pos = r.stop

let protect f =
  match f () with
  | v -> Ok v
  | exception Truncated -> Error "truncated input"
  | exception Corrupt msg -> Error msg

(* --- checksum --------------------------------------------------------------

   XXH64 via a C stub (binio_xxh64.c): the rule-pack loader hashes its
   whole payload on every start, so this must run at memory speed —
   pure-OCaml word loops plateau well below it without flambda. *)

external xxh64_unsafe : string -> int -> int -> int64 = "binio_xxh64_stub"

let hash64 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Binio.hash64";
  xxh64_unsafe s pos len

(* --- atomic file replacement -----------------------------------------------

   [close_out], not [close_out_noerr]: the final flush is where a full
   disk or an I/O error surfaces, and swallowing it would rename a
   truncated file over the good one.  Any failure removes the
   temporary file and re-raises, so [path] is either the complete new
   bytes or untouched. *)
let save_atomic ~path write =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    (match
       write oc;
       close_out oc
     with
    | () -> ()
    | exception e ->
      (* a failed [close_out] leaves the descriptor open *)
      close_out_noerr oc;
      raise e);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
