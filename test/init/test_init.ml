(* What module initialisation costs a fresh process.  A one-shot
   command pays for every top-level pattern compile of every library it
   links, whether it runs that code or not, so patterns only the
   baselines, the corpus generator or the standardizer use are compiled
   on first use instead.  This reads the process-wide compile memo
   before anything but module init has run. *)

let init_compiles = snd (Rx.compile_cache_stats ())

(* The scan/patch path's own init-time patterns: none (the patcher's
   import passes read import lines without regexes). *)
let scan_patch_init_patterns = 0

let test_init_compiles () =
  if init_compiles > scan_patch_init_patterns then
    Alcotest.failf
      "module init compiled %d patterns; the scan/patch path needs %d — \
       build the rest on first use (Rx.once)"
      init_compiles scan_patch_init_patterns

let () =
  Alcotest.run "init"
    [
      ( "module init",
        [
          Alcotest.test_case "compiles only scan/patch patterns" `Quick
            test_init_compiles;
        ] );
    ]
