type t = { start : int; stop : int; repl : string }

let delta e = String.length e.repl - (e.stop - e.start)

let valid source edits =
  let len = String.length source in
  let rec go pos = function
    | [] -> true
    | e :: rest ->
      e.start >= pos && e.stop >= e.start && e.stop <= len && go e.stop rest
  in
  go 0 edits

(* The volume pushed through edit buffers: old-text bytes copied plus
   replacement bytes written. *)
let bytes_moved_counter = Telemetry.Counter.make "edit_bytes_moved_total"

let apply source edits =
  if edits = [] then source
  else begin
    let len = String.length source in
    let out =
      Buffer.create (len + List.fold_left (fun acc e -> acc + delta e) 0 edits)
    in
    let pos =
      List.fold_left
        (fun pos e ->
          Buffer.add_substring out source pos (e.start - pos);
          Buffer.add_string out e.repl;
          e.stop)
        0 edits
    in
    Buffer.add_substring out source pos (len - pos);
    Telemetry.Counter.incr bytes_moved_counter ~by:(Buffer.length out);
    Buffer.contents out
  end
