(* The content-hash result cache: LRU and byte-budget invariants under
   random op sequences, byte-identical hits through the pool over the
   full corpus, and concurrent-domain races. *)

module Rcache = Server.Rcache
module Pool = Server.Pool
module Protocol = Server.Protocol

let catalog_scanner = lazy (Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()))

let mk ?(max_bytes = 4096) () = Rcache.create ~max_bytes ~salt:"test-salt" ()

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
  Alcotest.(check int) "insertions" 1 s.Rcache.insertions;
  (* the salt (the rule-pack fingerprint) is keyed too *)
  let other = Rcache.create ~max_bytes:4096 ~salt:"other-pack" () in
  Alcotest.(check (option string)) "salt differs" None
    (Rcache.find t (key other "print(1)"))

let test_lru_eviction () =
  let t = mk ~max_bytes:1024 () in
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
  let t = mk ~max_bytes:512 () in
  Rcache.add t (key t "big") (String.make 4096 'x');
  Alcotest.(check int) "not inserted" 0 (Rcache.stats t).Rcache.entries;
  Alcotest.(check int) "no bytes held" 0 (Rcache.stats t).Rcache.bytes

let test_large_body_cached () =
  (* the whole budget serves one entry: a body far past an eighth of it
     is kept *)
  let t = mk ~max_bytes:4096 () in
  let body = String.make 3000 'y' in
  Rcache.add t (key t "large") body;
  Alcotest.(check (option string)) "cached" (Some body)
    (Rcache.find t (key t "large"));
  Alcotest.(check int) "one entry" 1 (Rcache.stats t).Rcache.entries

let test_exact_lru_order () =
  (* the budget holds exactly four entries of one size: every insert
     past it evicts the least recently used entry of the whole cache *)
  let body i = Printf.sprintf "body-%03d-%s" i (String.make 200 'z') in
  let size = String.length (body 0) + 96 in
  let t = mk ~max_bytes:(4 * size) () in
  let add i = Rcache.add t (key t (string_of_int i)) (body i) in
  let cached i = Rcache.find t (key t (string_of_int i)) <> None in
  List.iter add [ 0; 1; 2; 3 ];
  let s = Rcache.stats t in
  Alcotest.(check int) "four fit" 4 s.Rcache.entries;
  Alcotest.(check int) "budget full" (4 * size) s.Rcache.bytes;
  Alcotest.(check int) "nothing evicted" 0 s.Rcache.evictions;
  (* order, oldest first: 0 1 2 3; touching 0 makes it 1 2 3 0 *)
  ignore (Rcache.find t (key t "0"));
  add 4;
  add 5;
  (* 1 and 2 fell off, in that order; 3 is now the oldest *)
  Alcotest.(check (list bool)) "survivors"
    [ true; false; false; true; true; true ]
    (List.map cached [ 0; 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "two evicted" 2 (Rcache.stats t).Rcache.evictions;
  (* the probes above left the order 0 3 4 5 *)
  add 6;
  Alcotest.(check (list bool)) "oldest next" [ false; true; true; true; true ]
    (List.map cached [ 0; 3; 4; 5; 6 ])

(* --- claim and settle ------------------------------------------------------ *)

let reply id body = Protocol.Reply { id; kind = "scan"; body }
let waiter id : Rcache.waiter = (id, fun _ -> ())
let waiter_ids = List.map fst

let claim_name = function
  | Rcache.Hit body -> "hit " ^ body
  | Rcache.Joined -> "joined"
  | Rcache.Lead -> "lead"

let test_claim_settle () =
  let t = mk () in
  let k = key t "x = 1" in
  let claim id = claim_name (Rcache.claim t k (waiter id)) in
  Alcotest.(check string) "first claim leads" "lead" (claim "a");
  Alcotest.(check string) "repeat joins" "joined" (claim "b");
  Alcotest.(check string) "another repeat joins" "joined" (claim "c");
  let waiters = Rcache.settle t k (reply "a" "BODY") in
  Alcotest.(check (list string)) "waiters oldest first" [ "b"; "c" ]
    (waiter_ids waiters);
  Alcotest.(check string) "settled reply is a hit" "hit BODY" (claim "d");
  let s = Rcache.stats t in
  Alcotest.(check (list int)) "hits, misses, coalesced, insertions"
    [ 1; 3; 2; 1 ]
    [ s.Rcache.hits; s.Rcache.misses; s.Rcache.coalesced; s.Rcache.insertions ];
  (* an error settles the key without caching it *)
  let k = key t "y = 2" in
  let claim id = claim_name (Rcache.claim t k (waiter id)) in
  Alcotest.(check string) "lead" "lead" (claim "e");
  Alcotest.(check string) "joined" "joined" (claim "f");
  let waiters =
    Rcache.settle t k
      (Protocol.Error_reply
         { id = Some "e"; error = Protocol.Timeout; message = "late" })
  in
  Alcotest.(check (list string)) "error waiters" [ "f" ] (waiter_ids waiters);
  Alcotest.(check int) "error not cached" 1 (Rcache.stats t).Rcache.entries;
  Alcotest.(check string) "next claim leads again" "lead" (claim "g")

let test_in_flight_holds_nothing () =
  let body i = Printf.sprintf "body-%d-%s" i (String.make 200 'w') in
  let size = String.length (body 0) + 96 in
  let t = mk ~max_bytes:(2 * size) () in
  let pending = key t "pending" in
  Alcotest.(check string) "lead" "lead"
    (claim_name (Rcache.claim t pending (waiter "lead")));
  let s = Rcache.stats t in
  Alcotest.(check (list int)) "no entry, no bytes" [ 0; 0 ]
    [ s.Rcache.entries; s.Rcache.bytes ];
  Alcotest.(check (option string)) "find misses" None (Rcache.find t pending);
  (* churn the whole budget several times over *)
  for i = 0 to 9 do
    Rcache.add t (key t (string_of_int i)) (body i)
  done;
  Alcotest.(check int) "two cached" 2 (Rcache.stats t).Rcache.entries;
  Alcotest.(check string) "still in flight" "joined"
    (claim_name (Rcache.claim t pending (waiter "repeat")));
  Alcotest.(check (list string)) "waiter kept" [ "repeat" ]
    (waiter_ids (Rcache.settle t pending (reply "lead" "P")))

let test_add_keeps_waiters () =
  let t = mk () in
  let k = key t "z = 3" in
  ignore (Rcache.claim t k (waiter "lead"));
  ignore (Rcache.claim t k (waiter "repeat"));
  Rcache.add t k "ADDED";
  Alcotest.(check (option string)) "in flight still misses" None
    (Rcache.find t k);
  Alcotest.(check (list string)) "waiters kept" [ "repeat" ]
    (waiter_ids (Rcache.settle t k (reply "lead" "SETTLED")));
  Alcotest.(check (option string)) "settled body cached" (Some "SETTLED")
    (Rcache.find t k)

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
      let t = Rcache.create ~max_bytes ~salt:"s" () in
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
    Rcache.create ~max_bytes:(256 * 1024 * 1024) ~salt:"corpus" ()
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

(* Repeats of a key whose first miss is still queued coalesce onto it
   instead of taking queue slots.  The one worker is held in [warm_boot]
   and the queue has one slot, so without coalescing the first request
   fills the queue and the four repeats are [overloaded]. *)
let test_pool_coalesces_inflight_misses () =
  let sink = Telemetry.create () in
  Telemetry.install sink;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  let release = Atomic.make false in
  let warm_boot () =
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done
  in
  let rcache = Rcache.create ~max_bytes:(1024 * 1024) ~salt:"coalesce" () in
  let pool =
    Pool.create ~rcache ~warm_boot ~jobs:1 ~queue_capacity:1
      ~scanner:(Lazy.force catalog_scanner) ()
  in
  let lock = Mutex.create () in
  let replies = ref [] in
  let deliver r = Mutex.protect lock (fun () -> replies := r :: !replies) in
  let ids = List.init 5 (Printf.sprintf "dup-%d") in
  List.iter
    (fun id ->
      Pool.submit pool
        {
          Protocol.id;
          deadline_steps = None;
          kind = Protocol.Scan { file = "f.py"; source = "h = hashlib.md5(d)\n" };
        }
        ~deliver)
    ids;
  Atomic.set release true;
  let deadline = Unix.gettimeofday () +. 20. in
  while
    Mutex.protect lock (fun () -> List.length !replies) < 5
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  ignore (Pool.shutdown pool);
  let replies = Mutex.protect lock (fun () -> !replies) in
  let reply_ids =
    List.map
      (function
        | Protocol.Reply { id; _ } -> id
        | Protocol.Error_reply { message; _ } ->
          Alcotest.failf "unexpected error reply: %s" message)
      replies
  in
  Alcotest.(check (list string)) "every id answered once" ids
    (List.sort compare reply_ids);
  let bodies = List.sort_uniq compare (List.map body_of replies) in
  Alcotest.(check int) "one body for all" 1 (List.length bodies);
  let report = Telemetry.Report.of_sink sink in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name report.Telemetry.Report.counters)
  in
  Alcotest.(check int) "executed once" 1 (counter "server_requests_total");
  Alcotest.(check int) "none overloaded" 0 (counter "server_overloaded_total");
  Alcotest.(check int) "four repeats coalesced" 4
    (counter "server_cache_coalesced_total");
  Alcotest.(check int) "coalesced in stats" 4
    (Rcache.stats rcache).Rcache.coalesced

(* --- concurrency ----------------------------------------------------------- *)

let test_concurrent_domains () =
  (* hammer one cache from several domains mixing find and add;
     the property is absence of crashes plus invariants at the end *)
  let max_bytes = 64 * 1024 in
  let t = Rcache.create ~max_bytes ~salt:"race" () in
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
          Alcotest.test_case "body past an eighth of the budget cached"
            `Quick test_large_body_cached;
          Alcotest.test_case "exact LRU order over the whole budget" `Quick
            test_exact_lru_order;
          QCheck_alcotest.to_alcotest lru_invariants;
        ] );
      ( "claim",
        [
          Alcotest.test_case "lead, join, settle, hit" `Quick test_claim_settle;
          Alcotest.test_case "in-flight key holds nothing" `Quick
            test_in_flight_holds_nothing;
          Alcotest.test_case "add keeps waiters" `Quick test_add_keeps_waiters;
        ] );
      ( "pool",
        [
          Alcotest.test_case "corpus hits are byte-identical" `Quick
            test_pool_hits_byte_identical;
          Alcotest.test_case "in-flight misses of one key coalesce" `Quick
            test_pool_coalesces_inflight_misses;
        ] );
      ( "races",
        [
          Alcotest.test_case "concurrent domains" `Quick
            test_concurrent_domains;
        ] );
    ]
