(* Abstract syntax of regular expressions, shared by the parser and the
   matcher.  Kept internal to the [rx] library: users only see [Rx.t]. *)

type greediness = Greedy | Lazy

type set_kind = Digit | Nondigit | Word | Nonword | Space | Nonspace

type citem =
  | Cchar of char
  | Crange of char * char
  | Cset of set_kind

type cls = { negated : bool; items : citem list }

type node =
  | Empty
  | Char of char
  | Any                                   (* '.': any char except newline *)
  | Class of cls
  | Seq of node list
  | Alt of node list
  | Rep of node * int * int option * greediness
  | Group of int * node                   (* capturing group, 1-based index *)
  | Bol                                   (* '^' (multiline semantics) *)
  | Eol                                   (* '$' (multiline semantics) *)
  | Eos                                   (* true end of subject (fullmatch) *)
  | Wordb                                 (* \b *)
  | Nwordb                                (* \B *)
  | Backref of int

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let is_space_char c =
  c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' || c = '\011'

let set_matches kind c =
  match kind with
  | Digit -> c >= '0' && c <= '9'
  | Nondigit -> not (c >= '0' && c <= '9')
  | Word -> is_word_char c
  | Nonword -> not (is_word_char c)
  | Space -> is_space_char c
  | Nonspace -> not (is_space_char c)

let class_matches { negated; items } c =
  let item_matches = function
    | Cchar c' -> c = c'
    | Crange (lo, hi) -> c >= lo && c <= hi
    | Cset kind -> set_matches kind c
  in
  let hit = List.exists item_matches items in
  if negated then not hit else hit
