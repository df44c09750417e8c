(* The content-hash result cache: LRU and byte-budget invariants under
   random op sequences, byte-identical hits through the pool over the
   full corpus, invalidation on rule-pack swap, and concurrent-domain
   races. *)

module Rcache = Server.Rcache
module Pool = Server.Pool
module Protocol = Server.Protocol

let catalog_scanner = lazy (Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()))

let mk ?(shards = 1) ?(max_bytes = 4096) () =
  Rcache.create ~shards ~max_bytes ~salt:"test-salt" ()

let key t body = Rcache.key t ~kind:"scan" ~file:"f.py" ~options:"" ~body

(* --- basics ---------------------------------------------------------------- *)

let test_hit_miss_insert () =
  let t = mk () in
  let k = key t "print(1)" in
  Alcotest.(check (option string)) "cold miss" None (Rcache.find t k);
  Rcache.add t k "RESPONSE";
  Alcotest.(check (option string)) "hit" (Some "RESPONSE") (Rcache.find t k);
  (* the same body hashed again finds the same entry *)
  Alcotest.(check (option string)) "rehashed hit" (Some "RESPONSE")
    (Rcache.find t (key t "print(1)"));
  (* any keyed dimension changing is a different entry *)
  Alcotest.(check (option string)) "kind differs" None
    (Rcache.find t (Rcache.key t ~kind:"patch" ~file:"f.py" ~options:"" ~body:"print(1)"));
  Alcotest.(check (option string)) "file differs" None
    (Rcache.find t (Rcache.key t ~kind:"scan" ~file:"g.py" ~options:"" ~body:"print(1)"));
  Alcotest.(check (option string)) "options differ" None
    (Rcache.find t (Rcache.key t ~kind:"scan" ~file:"f.py" ~options:"500" ~body:"print(1)"));
  let s = Rcache.stats t in
  Alcotest.(check int) "one entry" 1 s.Rcache.entries;
  Alcotest.(check int) "hits" 2 s.Rcache.hits;
  Alcotest.(check int) "misses" 4 s.Rcache.misses;
  Alcotest.(check int) "insertions" 1 s.Rcache.insertions

let test_lru_eviction () =
  (* one shard so the LRU order is global and observable *)
  let t = mk ~shards:1 ~max_bytes:1024 () in
  let body i = Printf.sprintf "body-%03d-%s" i (String.make 100 'x') in
  (* fill past the budget; oldest entries must fall off *)
  for i = 0 to 19 do
    Rcache.add t (key t (string_of_int i)) (body i)
  done;
  let s = Rcache.stats t in
  Alcotest.(check bool) "stayed under budget" true
    (s.Rcache.bytes <= s.Rcache.max_bytes);
  Alcotest.(check bool) "evicted something" true (s.Rcache.evictions > 0);
  Alcotest.(check (option string)) "oldest gone" None
    (Rcache.find t (key t "0"));
  Alcotest.(check (option string)) "newest kept" (Some (body 19))
    (Rcache.find t (key t "19"));
  (* a find promotes: touch an old survivor, insert more, it outlives
     untouched peers inserted after it *)
  let survivor =
    (* the oldest key still cached *)
    let rec first i =
      if i > 19 then Alcotest.fail "cache cannot be empty"
      else if Rcache.find t (key t (string_of_int i)) <> None then i
      else first (i + 1)
    in
    first 0
  in
  ignore (Rcache.find t (key t (string_of_int survivor)));
  Rcache.add t (key t "fresh-a") (body 100);
  Rcache.add t (key t "fresh-b") (body 101);
  Alcotest.(check bool) "promoted entry survives" true
    (Rcache.find t (key t (string_of_int survivor)) <> None
     || (* unless the budget is so tight everything but the new pair fell off *)
     (Rcache.stats t).Rcache.entries <= 2)

let test_oversized_body_dropped () =
  let t = mk ~shards:1 ~max_bytes:512 () in
  Rcache.add t (key t "big") (String.make 4096 'x');
  Alcotest.(check int) "not inserted" 0 (Rcache.stats t).Rcache.entries;
  Alcotest.(check int) "no bytes held" 0 (Rcache.stats t).Rcache.bytes

let test_invalidation () =
  let t = mk () in
  let stale = key t "code" in
  Rcache.add t stale "OLD";
  Alcotest.(check (option string)) "cached" (Some "OLD") (Rcache.find t stale);
  Rcache.invalidate t ~salt:"new-pack-fingerprint";
  (* the table is empty and the old salt's keys never match again *)
  Alcotest.(check int) "cleared" 0 (Rcache.stats t).Rcache.entries;
  Alcotest.(check (option string)) "stale key misses" None (Rcache.find t stale);
  Alcotest.(check (option string)) "fresh key misses" None
    (Rcache.find t (key t "code"));
  (* a key minted before the invalidation cannot resurrect its result *)
  Rcache.add t stale "ZOMBIE";
  Alcotest.(check int) "stale insert refused" 0 (Rcache.stats t).Rcache.entries;
  (* the new generation works normally *)
  let fresh = key t "code" in
  Rcache.add t fresh "NEW";
  Alcotest.(check (option string)) "new generation caches" (Some "NEW")
    (Rcache.find t fresh)

(* --- QCheck invariants ----------------------------------------------------- *)

(* A random op sequence over a small key space against a reference
   model: [find] returns exactly the last body added for that key or
   nothing (LRU may have evicted it — never a wrong body), and the
   byte accounting never exceeds the budget. *)
let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 200)
      (pair (int_bound 7) (oneofl [ `Add; `Find ])))

let lru_invariants =
  QCheck.Test.make ~count:200 ~name:"byte budget and last-write hits"
    (QCheck.make gen_ops)
    (fun ops ->
      let max_bytes = 2048 in
      let t = Rcache.create ~shards:1 ~max_bytes ~salt:"s" () in
      let last = Array.make 8 None in
      let version = ref 0 in
      List.for_all
        (fun (i, op) ->
          let body_key = Printf.sprintf "source-%d" i in
          match op with
          | `Add ->
            incr version;
            let body = Printf.sprintf "resp-%d-%d-%s" i !version
                         (String.make (i * 17) 'b') in
            Rcache.add t (key t body_key) body;
            last.(i) <- Some body;
            (Rcache.stats t).Rcache.bytes <= max_bytes
          | `Find -> (
            match Rcache.find t (key t body_key) with
            | None -> true (* evicted or never added: fine *)
            | Some got -> last.(i) = Some got))
        ops)

(* --- through the pool ------------------------------------------------------ *)

let submit_and_wait pool req =
  (* jobs:1 pool; misses land on the worker, hits are synchronous *)
  let cell = Atomic.make None in
  Pool.submit pool req ~deliver:(fun r -> Atomic.set cell (Some r));
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Atomic.get cell with
    | Some r -> r
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "pool timed out";
      Unix.sleepf 0.001;
      wait ()
  in
  wait ()

let body_of = function
  | Protocol.Reply { body; _ } -> body
  | Protocol.Error_reply { message; _ } ->
    Alcotest.failf "unexpected error reply: %s" message

let test_pool_hits_byte_identical () =
  (* Every corpus sample scanned twice through a cached pool: the
     second pass must hit and return the first pass's exact bytes,
     which in turn must equal the uncached [execute] output. *)
  let scanner = Lazy.force catalog_scanner in
  let rcache =
    Rcache.create ~shards:8 ~max_bytes:(256 * 1024 * 1024) ~salt:"corpus" ()
  in
  let pool = Pool.create ~rcache ~jobs:1 ~queue_capacity:16 ~scanner () in
  let samples = Corpus.Generator.all_samples () in
  let request (sample : Corpus.Generator.sample) =
    let file =
      Printf.sprintf "%s_%s.py"
        (Corpus.Generator.model_name sample.Corpus.Generator.model)
        sample.Corpus.Generator.scenario.Corpus.Scenario.sid
    in
    {
      Protocol.id = file;
      deadline_steps = None;
      kind = Protocol.Scan { file; source = sample.Corpus.Generator.code };
    }
  in
  let first =
    List.map (fun s -> body_of (submit_and_wait pool (request s))) samples
  in
  let hits_before = (Rcache.stats rcache).Rcache.hits in
  let second =
    List.map (fun s -> body_of (submit_and_wait pool (request s))) samples
  in
  let hits = (Rcache.stats rcache).Rcache.hits - hits_before in
  List.iter2
    (fun a b -> Alcotest.(check bool) "byte-identical hit" true (a = b))
    first second;
  (* the corpus contains duplicate sources across models, so the first
     pass warms more keys than it misses; every second-pass probe hits *)
  Alcotest.(check int) "all duplicates hit" (List.length samples) hits;
  (* and cached bytes equal the uncached execution path *)
  List.iteri
    (fun i s ->
      if i mod 50 = 0 then
        Alcotest.(check string) "matches execute"
          (body_of (Pool.execute pool (request s)))
          (List.nth second i))
    samples;
  ignore (Pool.shutdown pool)

let test_pool_invalidation_swaps () =
  let scanner = Lazy.force catalog_scanner in
  let rcache = Rcache.create ~max_bytes:(1 lsl 20) ~salt:"pack-v1" () in
  let pool = Pool.create ~rcache ~jobs:1 ~queue_capacity:4 ~scanner () in
  let req =
    {
      Protocol.id = "inv";
      deadline_steps = None;
      kind = Protocol.Scan { file = "inv.py"; source = "x = eval(input())" };
    }
  in
  let b1 = body_of (submit_and_wait pool req) in
  let b2 = body_of (submit_and_wait pool req) in
  Alcotest.(check string) "hit before swap" b1 b2;
  Alcotest.(check bool) "cache warm" true ((Rcache.stats rcache).Rcache.hits > 0);
  (* a rule-pack swap invalidates: next probe misses, re-executes,
     re-caches under the new fingerprint *)
  Rcache.invalidate rcache ~salt:"pack-v2";
  let misses_before = (Rcache.stats rcache).Rcache.misses in
  let b3 = body_of (submit_and_wait pool req) in
  Alcotest.(check string) "same scanner, same bytes" b1 b3;
  Alcotest.(check bool) "swap forced a miss" true
    ((Rcache.stats rcache).Rcache.misses > misses_before);
  ignore (Pool.shutdown pool)

(* --- snapshot / restore ----------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "rcache-snap" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_snapshot_roundtrip () =
  with_temp_file (fun path ->
      let t = mk ~shards:2 ~max_bytes:65536 () in
      let bodies = List.init 20 (fun i -> Printf.sprintf "source-%d" i) in
      List.iter (fun b -> Rcache.add t (key t b) ("RESPONSE:" ^ b)) bodies;
      let saved =
        match Rcache.save_snapshot t ~path with
        | Ok n -> n
        | Error e -> Alcotest.failf "save: %s" e
      in
      Alcotest.(check int) "all entries saved" 20 saved;
      (* restore into a fresh cache with the same salt *)
      let t2 = mk ~shards:2 ~max_bytes:65536 () in
      (match Rcache.restore_snapshot t2 ~path with
      | Ok n -> Alcotest.(check int) "all entries restored" 20 n
      | Error e -> Alcotest.failf "restore: %s" e);
      Alcotest.(check int) "stats counts restores" 20
        (Rcache.stats t2).Rcache.restored;
      List.iter
        (fun b ->
          Alcotest.(check (option string)) "restored hit" (Some ("RESPONSE:" ^ b))
            (Rcache.find t2 (key t2 b)))
        bodies;
      (* restored entries are live LRU citizens: an invalidate clears them *)
      Rcache.invalidate t2 ~salt:"next-pack";
      Alcotest.(check int) "invalidate clears restored" 0
        (Rcache.stats t2).Rcache.entries)

let test_snapshot_salt_refusal () =
  with_temp_file (fun path ->
      let t = mk () in
      Rcache.add t (key t "a") "A";
      (match Rcache.save_snapshot t ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      let other = Rcache.create ~shards:1 ~max_bytes:4096 ~salt:"other-pack" () in
      (match Rcache.restore_snapshot other ~path with
      | Ok _ -> Alcotest.fail "restore under a different salt must refuse"
      | Error _ -> ());
      Alcotest.(check int) "cache untouched after refusal" 0
        (Rcache.stats other).Rcache.entries;
      Alcotest.(check int) "no restores counted" 0
        (Rcache.stats other).Rcache.restored)

let test_snapshot_missing_file () =
  let t = mk () in
  match Rcache.restore_snapshot t ~path:"/nonexistent/rcache.snap" with
  | Ok _ -> Alcotest.fail "restore from a missing file must error"
  | Error _ ->
    Alcotest.(check int) "cache untouched" 0 (Rcache.stats t).Rcache.entries

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

(* Truncations and single-bit flips over the snapshot file: every one
   is a typed [Error] (the trailer checksum covers all of it) with the
   cache left untouched — never a crash, never a partial replay. *)
let test_snapshot_corruption_sweeps () =
  with_temp_file (fun path ->
      let t = mk ~shards:2 ~max_bytes:65536 () in
      for i = 0 to 15 do
        Rcache.add t (key t (string_of_int i)) (Printf.sprintf "R%d" i)
      done;
      (match Rcache.save_snapshot t ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      let good = read_file path in
      let n = String.length good in
      let attempt bytes label =
        write_file path bytes;
        let fresh = mk ~shards:2 ~max_bytes:65536 () in
        (match Rcache.restore_snapshot fresh ~path with
        | Ok _ -> Alcotest.failf "%s restored Ok" label
        | Error _ -> ());
        Alcotest.(check int) (label ^ ": cache untouched") 0
          (Rcache.stats fresh).Rcache.entries
      in
      let step = max 1 (n / 97) in
      let k = ref 0 in
      while !k < n do
        attempt (String.sub good 0 !k) (Printf.sprintf "truncation at %d" !k);
        let b = Bytes.of_string good in
        Bytes.set b !k (Char.chr (Char.code (Bytes.get b !k) lxor 0x40));
        attempt (Bytes.to_string b) (Printf.sprintf "bit flip at %d" !k);
        k := !k + step
      done;
      (* the pristine file still restores after all that *)
      write_file path good;
      let fresh = mk ~shards:2 ~max_bytes:65536 () in
      match Rcache.restore_snapshot fresh ~path with
      | Ok 16 -> ()
      | Ok n -> Alcotest.failf "pristine file restored %d of 16" n
      | Error e -> Alcotest.failf "pristine file refused: %s" e)

let test_snapshot_empty_cache () =
  with_temp_file (fun path ->
      let t = mk () in
      (match Rcache.save_snapshot t ~path with
      | Ok n -> Alcotest.(check int) "zero entries saved" 0 n
      | Error e -> Alcotest.failf "save: %s" e);
      let t2 = mk () in
      match Rcache.restore_snapshot t2 ~path with
      | Ok n -> Alcotest.(check int) "zero entries restored" 0 n
      | Error e -> Alcotest.failf "restore: %s" e)

(* A write that fails on its final flush — [path.tmp] pointed at
   /dev/full, where every write reports ENOSPC — must surface as [Error],
   leave the previous snapshot byte-identical and remove the temporary
   file. *)
let test_snapshot_failed_write () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  with_temp_file (fun path ->
      let t = mk () in
      Rcache.add t (key t "a") "A";
      (match Rcache.save_snapshot t ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      let good = read_file path in
      let tmp = path ^ ".tmp" in
      Unix.symlink "/dev/full" tmp;
      let tmp_present () =
        match Unix.lstat tmp with
        | _ -> true
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
      in
      Fun.protect
        ~finally:(fun () -> if tmp_present () then Sys.remove tmp)
        (fun () ->
          Rcache.add t (key t "b") "B";
          (match Rcache.save_snapshot t ~path with
          | Ok _ -> Alcotest.fail "a write to a full device reported Ok"
          | Error _ -> ());
          Alcotest.(check string) "old snapshot untouched" good (read_file path);
          Alcotest.(check bool) "temporary file removed" false (tmp_present ())))

(* --- concurrency ----------------------------------------------------------- *)

let test_concurrent_domains () =
  (* hammer one cache from several domains mixing find/add/invalidate;
     the property is absence of crashes plus invariants at the end *)
  let max_bytes = 64 * 1024 in
  let t = Rcache.create ~shards:4 ~max_bytes ~salt:"race" () in
  let wrong = Atomic.make 0 in
  let worker seed () =
    let state = ref seed in
    let rand bound =
      (* xorshift: no shared RNG state between domains *)
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x;
      abs x mod bound
    in
    for _ = 1 to 20_000 do
      let i = rand 16 in
      let body_key = Printf.sprintf "k-%d" i in
      (* the body is a pure function of the key: any hit with other
         bytes is a corruption, whoever inserted it *)
      let body = Printf.sprintf "body-for-%d-%s" i (String.make i 'p') in
      match rand 20 with
      | 0 -> Rcache.invalidate t ~salt:"race" (* same salt: clear only *)
      | n when n < 8 -> Rcache.add t (key t body_key) body
      | _ -> (
        match Rcache.find t (key t body_key) with
        | None -> ()
        | Some got -> if got <> body then Atomic.incr wrong)
    done
  in
  let domains =
    List.map (fun seed -> Domain.spawn (worker seed)) [ 7; 1312; 40_499; 9_990_001 ]
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get wrong);
  let s = Rcache.stats t in
  Alcotest.(check bool) "bytes within budget" true
    (s.Rcache.bytes <= s.Rcache.max_bytes);
  Alcotest.(check bool) "entries sane" true
    (s.Rcache.entries >= 0 && s.Rcache.entries <= 16 * 4)

let () =
  Alcotest.run "rcache"
    [
      ( "lru",
        [
          Alcotest.test_case "hit, miss, insert" `Quick test_hit_miss_insert;
          Alcotest.test_case "byte-budget eviction" `Quick test_lru_eviction;
          Alcotest.test_case "oversized body dropped" `Quick
            test_oversized_body_dropped;
          QCheck_alcotest.to_alcotest lru_invariants;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "salt swap clears and fences" `Quick
            test_invalidation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "corpus hits are byte-identical" `Quick
            test_pool_hits_byte_identical;
          Alcotest.test_case "pack swap invalidates" `Quick
            test_pool_invalidation_swaps;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "save/restore round-trip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "different fingerprint refused" `Quick
            test_snapshot_salt_refusal;
          Alcotest.test_case "missing file errors" `Quick
            test_snapshot_missing_file;
          Alcotest.test_case "truncation and bit-flip sweeps" `Quick
            test_snapshot_corruption_sweeps;
          Alcotest.test_case "empty cache round-trips" `Quick
            test_snapshot_empty_cache;
          Alcotest.test_case "failed write keeps the old file" `Quick
            test_snapshot_failed_write;
        ] );
      ( "races",
        [
          Alcotest.test_case "concurrent domains" `Quick
            test_concurrent_domains;
        ] );
    ]
