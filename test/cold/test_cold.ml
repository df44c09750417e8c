(* The work of the first scan pass in a fresh process: the words it
   allocates straight into the major heap and the fused states it
   interns.  A one-shot [scan] or [patch] command pays this pass on
   every run, so a lazy-DFA machine must cost nothing until its states
   exist: a store preallocated at its [max_states] bound, or a
   byte-class scratch array over 256 words, is a major-heap allocation
   made before any lookup needs it.

   Direct major words are [major_words - promoted_words] of
   [Gc.quick_stat]: the allocations too large for the minor heap,
   counted the same on every run of an unchanged tree.  Minor words
   are not pinned: moving scratch arrays from the major heap into the
   minor one raises them while the pass gets cheaper.  The pass is
   [Scanner.scan] over the 30 generated long files right after
   [Scanner.compile] of the python catalog, in the default (dev) build
   profile that [dune runtest] uses. *)

let direct_major_words = 143_943
let fused_states = 2557

let direct_major () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let test_first_pass () =
  let files = List.map snd (Corpus.Generator.long_files ()) in
  let scanner = Patchitpy.Scanner.compile (Patchitpy.Catalog.all ()) in
  let before = direct_major () in
  List.iter
    (fun src ->
      ignore (Sys.opaque_identity (Patchitpy.Scanner.scan scanner src)))
    files;
  let words = int_of_float (direct_major () -. before) in
  let states =
    match Patchitpy.Scanner.fused_machine scanner with
    | Some f -> Rx.Fused.state_count f
    | None -> 0
  in
  Alcotest.(check int) "fused states interned" fused_states states;
  Alcotest.(check int) "words allocated straight into the major heap"
    direct_major_words words

let () =
  Alcotest.run "cold"
    [
      ( "first pass",
        [
          Alcotest.test_case "long files after compile" `Quick
            test_first_pass;
        ] );
    ]
