(* starts.(i) is the byte offset of the first character of line i+1;
   starts.(0) = 0 always, and a trailing newline contributes a final
   (possibly empty) line, exactly like counting '\n's up to the offset. *)

type t = int array

let build source =
  (* both passes jump newline to newline via memchr rather than walking
     bytes — the index is built on every scan with findings *)
  let count = ref 1 in
  let i = ref 0 in
  (try
     while true do
       i := String.index_from source !i '\n' + 1;
       incr count
     done
   with Not_found -> ());
  let starts = Array.make !count 0 in
  let next = ref 1 in
  i := 0;
  (try
     while true do
       i := String.index_from source !i '\n' + 1;
       starts.(!next) <- !i;
       incr next
     done
   with Not_found -> ());
  starts

(* Greatest i with starts.(i) <= offset. *)
let locate starts offset =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= offset then lo := mid else hi := mid - 1
  done;
  !lo

let line t offset = locate t offset + 1
let column t offset = offset - t.(locate t offset)
