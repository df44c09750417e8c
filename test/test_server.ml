(* The serve subsystem: protocol framing (QCheck round-trips and edge
   cases), the bounded queue, pool semantics (differential vs one-shot
   output, poison isolation, deadlines, backpressure, drain), and the
   Jsonin hardening the server's untrusted input path relies on. *)

module Protocol = Server.Protocol
module Bqueue = Server.Bqueue
module Pool = Server.Pool
module Serve = Server.Serve
module Netio = Server.Netio

let catalog_scanner = lazy (Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()))

(* --- generators ----------------------------------------------------------- *)

let gen_bytes =
  (* arbitrary bytes, newlines and quotes included: framing must survive *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 60))

let gen_kind =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun file source -> Protocol.Scan { file; source })
          gen_bytes gen_bytes;
        map2
          (fun file source -> Protocol.Patch { file; source })
          gen_bytes gen_bytes;
        return Protocol.Health;
        oneofl [ Protocol.Stats Protocol.Stats_json;
                 Protocol.Stats Protocol.Stats_prometheus ];
        map3
          (fun count mode format ->
            Protocol.Trace_dump { count; mode; format })
          (int_range 1 Protocol.max_trace_count)
          (oneofl [ Protocol.Trace_last; Protocol.Trace_slow ])
          (oneofl [ Protocol.Trace_chrome; Protocol.Trace_ndjson ]);
      ])

let gen_request =
  QCheck.Gen.(
    map3
      (fun id deadline kind ->
        { Protocol.id; deadline_steps = deadline; kind })
      gen_bytes
      (opt (int_range 1 1_000_000))
      gen_kind)

(* Bodies must be valid single-line JSON (the server only embeds Jsonout /
   Telemetry output); adversarial content goes inside the string field. *)
let gen_body =
  QCheck.Gen.(
    map
      (fun s -> Printf.sprintf "{\"v\":\"%s\"}" (Patchitpy.Jsonout.escape_string s))
      gen_bytes)

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun id kind body -> Protocol.Reply { id; kind; body })
          gen_bytes
          (oneofl [ "scan"; "patch"; "health"; "stats"; "trace" ])
          gen_body;
        map3
          (fun id error message ->
            Protocol.Error_reply { id; error; message })
          (opt gen_bytes)
          (oneofl
             [ Protocol.Invalid; Protocol.Too_large; Protocol.Overloaded;
               Protocol.Timeout; Protocol.Internal ])
          gen_bytes;
      ])

let request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode request round-trip"
    (QCheck.make gen_request)
    (fun r ->
      let line = Protocol.encode_request r in
      (not (String.contains line '\n'))
      && Protocol.decode_request line = Ok r)

let response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode response round-trip"
    (QCheck.make gen_response)
    (fun r ->
      let line = Protocol.encode_response r in
      (not (String.contains line '\n'))
      && Protocol.decode_response line = Ok r)

(* --- protocol edge cases --------------------------------------------------- *)

let contains_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let check_invalid ~expect_id line =
  match Protocol.decode_request line with
  | Ok _ -> Alcotest.failf "expected a decode error for %S" line
  | Error (id, msg) ->
    Alcotest.(check (option string)) "recovered id" expect_id id;
    Alcotest.(check bool) "message names the schema" true
      (contains_substring msg Protocol.schema)

let test_framing_edges () =
  check_invalid ~expect_id:None "";
  check_invalid ~expect_id:None "   ";
  check_invalid ~expect_id:None "not json";
  check_invalid ~expect_id:None "{\"id\":\"x\"";
  (* unknown kind: versioned error, id recovered *)
  check_invalid ~expect_id:(Some "k1")
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"k1\",\"kind\":\"explode\"}";
  (* wrong schema: versioned error, id recovered *)
  check_invalid ~expect_id:(Some "k2")
    "{\"schema\":\"patchitpy-serve/9\",\"id\":\"k2\",\"kind\":\"health\"}";
  (* embedded newlines in the source never reach the wire raw *)
  let req =
    {
      Protocol.id = "nl";
      deadline_steps = None;
      kind = Protocol.Scan { file = "a.py"; source = "line1\nline2\r\n\"x\"" };
    }
  in
  let line = Protocol.encode_request req in
  Alcotest.(check bool) "no raw newline" false (String.contains line '\n');
  Alcotest.(check bool) "round-trips" true
    (Protocol.decode_request line = Ok req)

let test_trace_kind_decoding () =
  let decode line =
    match Protocol.decode_request line with
    | Ok r -> `Ok r.Protocol.kind
    | Error (_, msg) -> `Err msg
  in
  (* all fields optional, with pinned defaults *)
  (match decode "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\"}" with
  | `Ok (Protocol.Trace_dump { count; mode; format }) ->
    Alcotest.(check int) "default count" Protocol.default_trace_count count;
    Alcotest.(check bool) "default mode" true (mode = Protocol.Trace_last);
    Alcotest.(check bool) "default format" true (format = Protocol.Trace_chrome)
  | _ -> Alcotest.fail "bare trace request must decode");
  (match
     decode
       "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\",\"count\":5,\"mode\":\"slow\",\"format\":\"ndjson\"}"
   with
  | `Ok (Protocol.Trace_dump { count = 5; mode = Protocol.Trace_slow;
                               format = Protocol.Trace_ndjson }) -> ()
  | _ -> Alcotest.fail "explicit trace fields must decode");
  (* bounds and typos are rejected with named messages *)
  let rejected field line =
    match decode line with
    | `Err msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names %s in %S" field msg)
        true (contains_substring msg field)
    | `Ok _ -> Alcotest.failf "%S must be rejected" line
  in
  rejected "count"
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\",\"count\":0}";
  rejected "count"
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\",\"count\":5000}";
  rejected "count"
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\",\"count\":1.5}";
  rejected "trace mode"
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\",\"mode\":\"recent\"}";
  rejected "trace format"
    "{\"schema\":\"patchitpy-serve/1\",\"id\":\"t\",\"kind\":\"trace\",\"format\":\"xml\"}"

let test_large_request () =
  (* > 1 MiB of source must frame and round-trip *)
  let source =
    String.concat "\n"
      (List.init 60_000 (fun i -> Printf.sprintf "x%d = hashlib.md5(d)" i))
  in
  Alcotest.(check bool) "over 1 MiB" true (String.length source > 1 lsl 20);
  let req =
    {
      Protocol.id = "big";
      deadline_steps = None;
      kind = Protocol.Scan { file = "big.py"; source };
    }
  in
  let line = Protocol.encode_request req in
  Alcotest.(check bool) "round-trips" true
    (Protocol.decode_request line = Ok req)

(* Strings decode run by run; this pins the run boundaries against the
   encoder: every corpus source, plus escapes at the first byte, at the
   last byte and back to back, in every field that carries text. *)
let test_string_decode_differential () =
  let edge =
    [ ""; "\""; "\\"; "\n"; "\"x"; "x\""; "\n\n"; "\\\"\\";
      "\t\r\n"; "a\x01b"; "\x00"; "\x1f\x7f"; "caf\xc3\xa9";
      "\"\\\n\r\t\x02\"";
      String.concat ""
        (List.init 300 (fun i -> String.make (i mod 7) 'a' ^ "\n")) ]
  in
  let sources =
    List.map (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
      (Corpus.Generator.all_samples ())
  in
  Alcotest.(check int) "corpus size" 609 (List.length sources);
  List.iter
    (fun text ->
      List.iter
        (fun kind ->
          let req = { Protocol.id = text; deadline_steps = None; kind } in
          if Protocol.decode_request (Protocol.encode_request req) <> Ok req
          then Alcotest.failf "round trip lost %S" text)
        [ Protocol.Scan { file = text; source = text };
          Protocol.Patch { file = "f.py"; source = text } ])
    (edge @ sources);
  (* \u forms the encoder never writes: lower and upper hex, one to
     three UTF-8 bytes, first and last in the string, adjacent *)
  List.iter
    (fun (json, expect) ->
      match Patchitpy.Jsonin.parse json with
      | Ok (Patchitpy.Jsonin.Str got) ->
        Alcotest.(check string) (Printf.sprintf "decodes %s" json) expect got
      | Ok _ -> Alcotest.failf "%s is not a string" json
      | Error e -> Alcotest.failf "%s: %s" json e)
    [ ({|"\u0041"|}, "A"); ({|"\u00e9x"|}, "\xc3\xa9x");
      ({|"x\u00E9"|}, "x\xc3\xa9");
      ({|"\u20ac\u20AC"|}, "\xe2\x82\xac\xe2\x82\xac");
      ({|"\u0000\/\b\f"|}, "\x00/\b\x0c"); ({|"ab\u000acd"|}, "ab\ncd") ];
  (* errors keep their messages and offsets *)
  List.iter
    (fun (json, expect) ->
      match Patchitpy.Jsonin.parse json with
      | Ok _ -> Alcotest.failf "%S must be rejected" json
      | Error e ->
        Alcotest.(check string) (Printf.sprintf "error for %S" json) expect e)
    [ ("\"abc", "at offset 4: unterminated string");
      ("\"a\\n", "at offset 4: unterminated string");
      ("\"", "at offset 1: unterminated string");
      ("\"ab\\q\"", "at offset 4: invalid escape \\q");
      ("[\"ok\",\"bad\\x\"]", "at offset 11: invalid escape \\x");
      ("\"ab\x01c\"", "at offset 3: control character in string");
      ("\"a\\nb\x1f\"", "at offset 5: control character in string");
      ("\"\\u12\"", "at offset 5: invalid \\u escape");
      ("\"abc\\", "at offset 5: dangling backslash") ]

let test_raw_body_adversarial () =
  (* an id crafted to contain the body marker's text must not fool the
     raw slice: inside the encoded id every quote is escaped *)
  let id = "x\",\"body\":\"evil" in
  let body = "{\"real\":true}" in
  let line = Protocol.encode_response (Protocol.Reply { id; kind = "scan"; body }) in
  Alcotest.(check (option string)) "raw body" (Some body)
    (Protocol.raw_body line);
  match Protocol.decode_response line with
  | Ok (Protocol.Reply r) ->
    Alcotest.(check string) "id" id r.id;
    Alcotest.(check string) "body" body r.body
  | _ -> Alcotest.fail "expected a Reply"

(* --- jsonin hardening ------------------------------------------------------ *)

let test_jsonin_malformed () =
  let is_error s =
    match Patchitpy.Jsonin.parse s with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true (is_error s))
    [
      ""; "   "; "garbage"; "{"; "["; "{\"a\":"; "[1,2"; "\"abc";
      "{\"a\" 1}"; "nul"; "12e999x"; "{\"a\":1,}"; "\"\\u12\"";
      "\"\x01\""; "{} trailing";
    ]

let test_jsonin_depth () =
  (* beyond the bound: typed error, never an exception or overflow *)
  let deep n = String.make n '[' ^ String.make n ']' in
  (match Patchitpy.Jsonin.parse (deep 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "100 levels should parse: %s" e);
  (match Patchitpy.Jsonin.parse (deep 1000) with
  | Error msg ->
    Alcotest.(check bool) "names the depth bound" true
      (contains_substring msg "nesting too deep")
  | Ok _ -> Alcotest.fail "1000 levels should be rejected");
  (* a pathological all-open payload, as a fuzzer would send it *)
  match Patchitpy.Jsonin.parse (String.make 500_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unclosed nesting should be rejected"

(* --- bounded queue --------------------------------------------------------- *)

let test_bqueue_bounds () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2 = `Ok);
  Alcotest.(check bool) "push 3 is Full" true (Bqueue.try_push q 3 = `Full);
  Alcotest.(check int) "length" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "slot freed" true (Bqueue.try_push q 3 = `Ok);
  Bqueue.close q;
  Alcotest.(check bool) "closed" true (Bqueue.try_push q 4 = `Closed);
  (* items queued before the close still drain, then None *)
  Alcotest.(check (option int)) "drain 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drain 3" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "end" None (Bqueue.pop q)

let test_bqueue_blocking_pop () =
  let q = Bqueue.create ~capacity:4 in
  let got = Atomic.make (-1) in
  let consumer = Domain.spawn (fun () ->
      match Bqueue.pop q with
      | Some v -> Atomic.set got v
      | None -> Atomic.set got (-2))
  in
  Unix.sleepf 0.02; (* consumer should now be blocked *)
  Alcotest.(check bool) "push wakes consumer" true (Bqueue.try_push q 7 = `Ok);
  Domain.join consumer;
  Alcotest.(check int) "popped the pushed item" 7 (Atomic.get got)

(* --- pool ------------------------------------------------------------------ *)

let scan_request ?deadline_steps ~id source =
  {
    Protocol.id;
    deadline_steps;
    kind = Protocol.Scan { file = id ^ ".py"; source };
  }

let patch_request ~id source =
  {
    Protocol.id;
    deadline_steps = None;
    kind = Protocol.Patch { file = id ^ ".py"; source };
  }

(* Collects asynchronous deliveries; [await n] spins until [n] responses
   arrived (the pool promises exactly one delivery per submission). *)
let collector () =
  let m = Mutex.create () in
  let responses = ref [] in
  let deliver r = Mutex.protect m (fun () -> responses := r :: !responses) in
  let await ?(timeout = 20.) n =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec wait () =
      let len = Mutex.protect m (fun () -> List.length !responses) in
      if len >= n then ()
      else if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out awaiting %d responses (got %d)" n len
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    in
    wait ();
    Mutex.protect m (fun () -> List.rev !responses)
  in
  (deliver, await)

let test_pool_differential () =
  let scanner = Lazy.force catalog_scanner in
  let pool = Pool.create ~jobs:1 ~queue_capacity:4 ~scanner () in
  let mismatches = ref 0 and total = ref 0 in
  List.iter
    (fun (sample : Corpus.Generator.sample) ->
      incr total;
      let file =
        Printf.sprintf "%s_%s.py"
          (Corpus.Generator.model_name sample.Corpus.Generator.model)
          sample.Corpus.Generator.scenario.Corpus.Scenario.sid
      in
      let source = sample.Corpus.Generator.code in
      let findings, warnings =
        Patchitpy.Scanner.scan_with_warnings scanner source
      in
      let oneshot =
        Patchitpy.Jsonout.findings_to_json ~warnings ~file findings
      in
      let req =
        { Protocol.id = file; deadline_steps = None;
          kind = Protocol.Scan { file; source } }
      in
      match Pool.execute pool req with
      | Protocol.Reply { body; _ } -> if body <> oneshot then incr mismatches
      | Protocol.Error_reply { message; _ } ->
        Alcotest.failf "scan of %s failed: %s" file message)
    (Corpus.Generator.all_samples ());
  ignore (Pool.shutdown ~drain_timeout:5. pool);
  Alcotest.(check int)
    (Printf.sprintf "byte-identical scan bodies over %d samples" !total)
    0 !mismatches

(* A fix whose rewrite IR embeds an unparseable regex: evaluation raises
   Rx.Parse_error inside the worker, standing in for any exception a
   request can throw. *)
let poison_rule =
  Patchitpy.Rule.make ~id:"TST-666" ~title:"poison pill" ~cwe:20
    ~severity:Patchitpy.Rule.Low ~pattern:"poison_me\\(\\)"
    ~fix:
      (Patchitpy.Rule.Rewrite
         [ Patchitpy.Rewrite.Str
             ( Patchitpy.Rewrite.Whole,
               [ Patchitpy.Rewrite.Subst { pat = "(poisoned"; with_ = "" } ] )
         ])
    ~note:"test-only" ()

(* Keeps a worker occupied for [delay] seconds after a request: delivery
   runs on the worker domain, so a sleeping [deliver] holds the domain
   exactly as a slow fix closure used to. *)
let slow_deliver delay deliver resp =
  Unix.sleepf delay;
  deliver resp

let test_pool_poison_isolation () =
  (* one worker: the request after the poisoned one runs on the same
     domain, proving the worker survived the exception *)
  let scanner = Patchitpy.Scanner.compile (poison_rule :: Patchitpy.(Catalog.all ())) in
  let pool = Pool.create ~jobs:1 ~queue_capacity:8 ~scanner () in
  let deliver, await = collector () in
  Pool.submit pool (patch_request ~id:"bad" "x = poison_me()\n") ~deliver;
  Pool.submit pool
    (scan_request ~id:"good" "h = hashlib.md5(data)\n")
    ~deliver;
  let responses = await 2 in
  (match responses with
  | [ Protocol.Error_reply { id; error; message };
      Protocol.Reply { id = id2; kind; _ } ] ->
    Alcotest.(check (option string)) "poison id" (Some "bad") id;
    Alcotest.(check string) "error kind" "error"
      (Protocol.error_kind_to_string error);
    Alcotest.(check bool) "carries the exception" true
      (contains_substring message "Parse_error");
    Alcotest.(check string) "next request answered" "good" id2;
    Alcotest.(check string) "as a scan" "scan" kind
  | _ -> Alcotest.failf "unexpected responses (%d)" (List.length responses));
  ignore (Pool.shutdown ~drain_timeout:5. pool)

let test_pool_deadline_timeout () =
  let pool =
    Pool.create ~jobs:1 ~queue_capacity:4 ~scanner:(Lazy.force catalog_scanner)
      ()
  in
  let source =
    String.concat "\n"
      (List.init 50 (fun i -> Printf.sprintf "h%d = hashlib.md5(data)" i))
  in
  (* sanity: without a deadline the same request succeeds *)
  (match Pool.execute pool (scan_request ~id:"ok" source) with
  | Protocol.Reply _ -> ()
  | Protocol.Error_reply { message; _ } -> Alcotest.failf "scan failed: %s" message);
  (* one step of allowance: the first search trips the deadline *)
  (match Pool.execute pool (scan_request ~deadline_steps:1 ~id:"dl" source) with
  | Protocol.Error_reply { id; error; _ } ->
    Alcotest.(check (option string)) "id echoed" (Some "dl") id;
    Alcotest.(check string) "timeout" "timeout"
      (Protocol.error_kind_to_string error)
  | Protocol.Reply _ -> Alcotest.fail "expected a timeout");
  (* the worker survives a timeout too *)
  (match Pool.execute pool (scan_request ~id:"after" source) with
  | Protocol.Reply _ -> ()
  | Protocol.Error_reply _ -> Alcotest.fail "pool must survive a timeout");
  ignore (Pool.shutdown ~drain_timeout:5. pool)

let test_pool_backpressure () =
  let scanner = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()) in
  let pool = Pool.create ~jobs:1 ~queue_capacity:2 ~scanner () in
  let deliver, await = collector () in
  let deliver = slow_deliver 0.3 deliver in
  let slow id = patch_request ~id "y = fast_call()\n" in
  Pool.submit pool (slow "s1") ~deliver;
  Unix.sleepf 0.05; (* the worker is now asleep delivering s1 *)
  Pool.submit pool (slow "s2") ~deliver;
  Pool.submit pool (slow "s3") ~deliver;
  Pool.submit pool (slow "s4") ~deliver; (* queue holds s2+s3: full *)
  let responses = await 4 in
  let overloaded, completed =
    List.partition
      (function
        | Protocol.Error_reply { error = Protocol.Overloaded; _ } -> true
        | _ -> false)
      responses
  in
  (match overloaded with
  | [ Protocol.Error_reply { id; message; _ } ] ->
    Alcotest.(check (option string)) "the rejected one" (Some "s4") id;
    Alcotest.(check bool) "names the capacity" true
      (contains_substring message "capacity 2")
  | _ -> Alcotest.failf "expected exactly 1 overloaded, got %d"
           (List.length overloaded));
  Alcotest.(check int) "the rest completed" 3 (List.length completed);
  List.iter
    (function
      | Protocol.Reply { kind; _ } -> Alcotest.(check string) "patch" "patch" kind
      | Protocol.Error_reply { message; _ } ->
        Alcotest.failf "unexpected error: %s" message)
    completed;
  ignore (Pool.shutdown ~drain_timeout:5. pool)

let test_pool_drain () =
  let scanner = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()) in
  let pool = Pool.create ~jobs:1 ~queue_capacity:8 ~scanner () in
  let deliver, await = collector () in
  let deliver = slow_deliver 0.1 deliver in
  Pool.submit pool (patch_request ~id:"d1" "y = fast_call()\n") ~deliver;
  Pool.submit pool (patch_request ~id:"d2" "y = fast_call()\n") ~deliver;
  (* drain must finish the in-flight work within the budget... *)
  Alcotest.(check bool) "drained" true (Pool.shutdown ~drain_timeout:10. pool);
  Alcotest.(check int) "nothing pending" 0 (Pool.pending pool);
  let responses = await 2 in
  Alcotest.(check int) "both answered" 2 (List.length responses);
  (* ...and late submissions are refused, not queued *)
  let deliver2, await2 = collector () in
  Pool.submit pool (patch_request ~id:"late" "y = 1\n") ~deliver:deliver2;
  match await2 1 with
  | [ Protocol.Error_reply { error = Protocol.Overloaded; message; _ } ] ->
    Alcotest.(check bool) "draining message" true
      (contains_substring message "draining")
  | _ -> Alcotest.fail "late submission must be refused"

let test_pool_drain_timeout () =
  let scanner = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()) in
  let pool = Pool.create ~jobs:1 ~queue_capacity:4 ~scanner () in
  let deliver, await = collector () in
  let deliver = slow_deliver 1.5 deliver in
  Pool.submit pool (patch_request ~id:"stuck" "y = fast_call()\n") ~deliver;
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "drain cut short" false
    (Pool.shutdown ~drain_timeout:0.1 pool);
  Alcotest.(check bool) "returned promptly" true
    (Unix.gettimeofday () -. t0 < 1.0);
  (* not joined, but the worker still finishes and delivers *)
  ignore (await 1)

(* --- tracing surfaces ------------------------------------------------------- *)

let trace_request ?(count = 32) ?(mode = Protocol.Trace_last)
    ?(format = Protocol.Trace_chrome) ~id () =
  {
    Protocol.id;
    deadline_steps = None;
    kind = Protocol.Trace_dump { count; mode; format };
  }

let json_member_list name json =
  Patchitpy.Jsonin.(Option.bind (member name json) to_list)

let json_member_string name json =
  Patchitpy.Jsonin.(Option.bind (member name json) to_string)

(* The full loop the ISSUE's acceptance demo drives: traced scan/patch
   requests through the pool, then a [trace] request over the same pool
   returning a Chrome document whose events decompose the earlier
   requests into queue-wait/scan/serialize/write phases. *)
let test_pool_trace_request () =
  let module Tr = Telemetry.Trace in
  Tr.reset ();
  Tr.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tr.disable ();
      Tr.reset ())
  @@ fun () ->
  let pool =
    Pool.create ~jobs:1 ~queue_capacity:8 ~scanner:(Lazy.force catalog_scanner)
      ()
  in
  let deliver, await = collector () in
  Pool.submit pool (scan_request ~id:"t1" "h = hashlib.md5(d)\n") ~deliver;
  Pool.submit pool (patch_request ~id:"t2" "h = hashlib.md5(d)\n") ~deliver;
  ignore (await 2);
  (* chrome dump through the same request path clients use *)
  let deliver_c, await_c = collector () in
  Pool.submit pool (trace_request ~id:"dump-chrome" ()) ~deliver:deliver_c;
  (match await_c 1 with
  | [ Protocol.Reply { kind; body; _ } ] -> (
    Alcotest.(check string) "reply kind" "trace" kind;
    match Patchitpy.Jsonin.parse body with
    | Error msg -> Alcotest.failf "chrome body does not parse: %s" msg
    | Ok json ->
      let events =
        match json_member_list "traceEvents" json with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let names = List.filter_map (json_member_string "name") events in
      List.iter
        (fun phase ->
          Alcotest.(check bool)
            (Printf.sprintf "phase %S present" phase)
            true (List.mem phase names))
        [ "queue-wait"; "dispatch"; "scan"; "serialize"; "write" ];
      Alcotest.(check bool) "request events present" true
        (List.mem "scan" names && List.mem "patch" names))
  | _ -> Alcotest.fail "expected a trace reply");
  (* ndjson dump: a JSON string whose lines are patchitpy-trace/1 *)
  let deliver_n, await_n = collector () in
  Pool.submit pool
    (trace_request ~id:"dump-ndjson" ~format:Protocol.Trace_ndjson ())
    ~deliver:deliver_n;
  (match await_n 1 with
  | [ Protocol.Reply { body; _ } ] -> (
    match Patchitpy.Jsonin.parse body with
    | Ok (Patchitpy.Jsonin.Str text) ->
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "at least the two traced requests" true
        (List.length lines >= 2);
      List.iter
        (fun line ->
          match Patchitpy.Jsonin.parse line with
          | Ok record ->
            Alcotest.(check (option string)) "line schema"
              (Some "patchitpy-trace/1")
              (json_member_string "schema" record)
          | Error msg -> Alcotest.failf "ndjson line does not parse: %s" msg)
        lines
    | Ok _ -> Alcotest.fail "ndjson body must be a JSON string"
    | Error msg -> Alcotest.failf "ndjson body does not parse: %s" msg)
  | _ -> Alcotest.fail "expected a trace reply");
  ignore (Pool.shutdown ~drain_timeout:5. pool)

let test_health_and_stats_extras () =
  let module Tr = Telemetry.Trace in
  Tr.reset ();
  Tr.enable ();
  let sink = Telemetry.create () in
  Telemetry.install sink;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.uninstall ();
      Tr.disable ();
      Tr.reset ())
  @@ fun () ->
  let pool =
    Pool.create ~jobs:1 ~queue_capacity:8 ~scanner:(Lazy.force catalog_scanner)
      ()
  in
  let deliver, await = collector () in
  Pool.submit pool (scan_request ~id:"s1" "h = hashlib.md5(d)\n") ~deliver;
  Pool.submit pool (scan_request ~id:"s2" "h = hashlib.md5(d)\n") ~deliver;
  ignore (await 2);
  let body req =
    match Pool.execute pool req with
    | Protocol.Reply { body; _ } -> body
    | Protocol.Error_reply { message; _ } ->
      Alcotest.failf "request failed: %s" message
  in
  let health =
    body { Protocol.id = "h"; deadline_steps = None; kind = Protocol.Health }
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "health carries %s" fragment)
        true
        (contains_substring health fragment))
    [ "\"status\":\"ok\""; "\"rxCompileCache\""; "\"entries\""; "\"dfaCache\"";
      "\"builds\""; "\"flushes\""; "\"bails\"" ];
  let stats =
    body
      {
        Protocol.id = "st";
        deadline_steps = None;
        kind = Protocol.Stats Protocol.Stats_json;
      }
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "stats carries %s" fragment)
        true
        (contains_substring stats fragment))
    [ "\"server_requests_total\""; "\"rxCompileCache\""; "\"dfaCache\"";
      "\"latencyBreakdown\""; "\"queueWaitNs\""; "\"serviceNs\"";
      "\"p99Exemplars\"" ];
  (* the breakdown actually saw the two traced submissions *)
  Alcotest.(check bool) "stats body still parses as JSON" true
    (match Patchitpy.Jsonin.parse stats with Ok _ -> true | Error _ -> false);
  (match Patchitpy.Jsonin.parse stats with
  | Ok json -> (
    match Patchitpy.Jsonin.member "latencyBreakdown" json with
    | Some breakdown ->
      let samples =
        Patchitpy.Jsonin.(
          Option.bind (member "samples" breakdown) to_number)
      in
      Alcotest.(check bool) "breakdown counts the traced requests" true
        (match samples with Some f -> f >= 2.0 | None -> false)
    | None -> Alcotest.fail "latencyBreakdown missing")
  | Error msg -> Alcotest.failf "stats does not parse: %s" msg);
  (* prometheus stats pick up the compile-cache gauges *)
  let prom =
    body
      {
        Protocol.id = "pr";
        deadline_steps = None;
        kind = Protocol.Stats Protocol.Stats_prometheus;
      }
  in
  (match Patchitpy.Jsonin.parse prom with
  | Ok (Patchitpy.Jsonin.Str text) ->
    List.iter
      (fun fragment ->
        Alcotest.(check bool)
          (Printf.sprintf "prometheus carries %s" fragment)
          true
          (contains_substring text fragment))
      [ "rx_compile_cache_entries"; "rx_compile_cache_hits_total";
        "# TYPE rx_compile_cache_entries gauge" ]
  | Ok _ -> Alcotest.fail "prometheus body must be a JSON string"
  | Error msg -> Alcotest.failf "prometheus body does not parse: %s" msg);
  ignore (Pool.shutdown ~drain_timeout:5. pool)

(* --- batch amortization ---------------------------------------------------- *)

let counter_value report name =
  Option.value ~default:0
    (List.assoc_opt name report.Telemetry.Report.counters)

let test_batch_compiles_once () =
  let sink = Telemetry.create () in
  let sources =
    [ "a = hashlib.md5(x)\n"; "b = yaml.load(f)\n"; "c = eval(user)\n" ]
  in
  Telemetry.with_sink sink (fun () ->
      (* the batch pattern used by the multi-file CLI and the daemon:
         one compile, then every file through the same plan *)
      let scanner = Patchitpy.Scanner.compile Patchitpy.(Catalog.all ()) in
      List.iter
        (fun src -> ignore (Patchitpy.Patcher.patch ~scanner src))
        sources);
  let report = Telemetry.Report.of_sink sink in
  Alcotest.(check int) "one compile for the whole batch" 1
    (counter_value report "scanner_compiles_total");
  (* and the per-rules-list path compiles once per call, which is what
     the counter is there to catch *)
  let sink2 = Telemetry.create () in
  Telemetry.with_sink sink2 (fun () ->
      List.iter
        (fun src ->
          ignore (Patchitpy.Patcher.patch ~rules:Patchitpy.(Catalog.all ()) src))
        sources);
  let report2 = Telemetry.Report.of_sink sink2 in
  Alcotest.(check int) "per-call compiles without sharing" 3
    (counter_value report2 "scanner_compiles_total")

(* --- deadline machinery (Rx layer) ----------------------------------------- *)

let test_rx_deadline () =
  let pat = Rx.compile "hashlib\\.md5\\(" in
  let subject = String.concat "" (List.init 200 (fun _ -> "x = hashlib.md5(d)\n")) in
  (* no deadline: unaffected *)
  Alcotest.(check bool) "plain exec matches" true (Rx.exec pat subject <> None);
  Alcotest.(check (option int)) "no ambient deadline" None
    (Rx.deadline_remaining ());
  (* a generous deadline: work completes and the allowance shrinks *)
  let remaining_after =
    Rx.with_step_deadline ~steps:1_000_000 (fun () ->
        ignore (Rx.exec pat subject);
        Option.get (Rx.deadline_remaining ()))
  in
  Alcotest.(check bool) "allowance consumed" true
    (remaining_after < 1_000_000 && remaining_after > 0);
  (* a one-step deadline: the search raises Deadline_exceeded, not
     Budget_exceeded *)
  (match
     Rx.with_step_deadline ~steps:1 (fun () -> ignore (Rx.exec pat subject); `Done)
   with
  | `Done -> Alcotest.fail "expected Deadline_exceeded"
  | exception Rx.Deadline_exceeded -> ()
  | exception Rx.Budget_exceeded _ ->
    Alcotest.fail "deadline must not surface as Budget_exceeded");
  (* the cell restores after the scope, even on raise *)
  Alcotest.(check (option int)) "restored" None (Rx.deadline_remaining ());
  (* nesting: the inner scope wins, the outer allowance survives *)
  Rx.with_step_deadline ~steps:500_000 (fun () ->
      (match
         Rx.with_step_deadline ~steps:1 (fun () -> ignore (Rx.exec pat subject))
       with
      | () -> Alcotest.fail "inner deadline should trip"
      | exception Rx.Deadline_exceeded -> ());
      Alcotest.(check bool) "outer intact" true
        (Option.get (Rx.deadline_remaining ()) > 400_000))

(* --- NDJSON connection loop under hostile frames --------------------------- *)

(* Drives one socket connection end to end: write the frames (in
   [piece]-byte writes), half-close, read every response line until the
   server closes its side. *)
let drive_connection ?(piece = max_int) ~max_request_bytes frames =
  let scanner = Lazy.force catalog_scanner in
  let pool = Pool.create ~jobs:1 ~queue_capacity:16 ~scanner () in
  let client, server = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  let loop =
    Thread.create
      (fun () ->
        Serve.connection_loop pool ~max_request_bytes ~input:server
          ~output:server;
        Unix.close server)
      ()
  in
  List.iter
    (fun frame ->
      let line = frame ^ "\n" in
      let rec write off =
        if off < String.length line then
          match
            Unix.write_substring client line off
              (min piece (String.length line - off))
          with
          | n -> write (off + n)
          | exception Unix.Unix_error (EINTR, _, _) -> write off
      in
      write 0)
    frames;
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec read_all () =
    match Unix.read client chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read_all ()
    | exception Unix.Unix_error (EINTR, _, _) -> read_all ()
  in
  read_all ();
  Thread.join loop;
  (try Unix.close client with Unix.Unix_error _ -> ());
  ignore (Pool.shutdown pool);
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Protocol.decode_response l with
         | Ok r -> r
         | Error msg -> Alcotest.failf "undecodable response %S: %s" l msg)

let scan_frame id =
  Protocol.encode_request
    {
      Protocol.id;
      deadline_steps = None;
      kind = Protocol.Scan { file = id ^ ".py"; source = "import os\n" };
    }

let test_connection_too_large_resync () =
  (* a 3 MiB frame against a 1 MiB bound, sandwiched between valid
     requests: typed too_large reply, framing resynchronizes, the
     connection survives *)
  let bound = 1 lsl 20 in
  let responses =
    drive_connection ~max_request_bytes:bound
      [ scan_frame "before"; String.make (3 * bound) 'a'; scan_frame "after" ]
  in
  let replies, errors =
    List.partition_map
      (function
        | Protocol.Reply { id; _ } -> Left id
        | Protocol.Error_reply { id; error; message } ->
          Right (id, error, message))
      responses
  in
  Alcotest.(check (list string)) "both valid frames answered"
    [ "after"; "before" ]
    (List.sort compare replies);
  match errors with
  | [ (None, Protocol.Too_large, message) ] ->
    Alcotest.(check bool) "message names the limit" true
      (contains_substring message (string_of_int bound))
  | _ -> Alcotest.failf "expected exactly one too_large error"

(* A frame just under the bound, written in 64 KiB pieces, is carried
   across reads and answered exactly once, with what [Pool.execute]
   answers for the same request. *)
let test_connection_large_frame () =
  let bound = 2 lsl 20 in
  let request reps =
    {
      Protocol.id = "large";
      deadline_steps = None;
      kind =
        Protocol.Scan
          {
            file = "large.py";
            source =
              String.concat "" (List.init reps (fun _ -> "x = eval(s)\n"));
          };
    }
  in
  (* each source line encodes to 13 bytes ("\n" escapes to two) *)
  let overhead = String.length (Protocol.encode_request (request 0)) in
  let req = request ((bound - overhead) / 13) in
  let frame = Protocol.encode_request req in
  Alcotest.(check bool) "frame is just under the bound" true
    (String.length frame <= bound && String.length frame > bound - 13);
  let pool =
    Pool.create ~jobs:1 ~queue_capacity:4 ~scanner:(Lazy.force catalog_scanner)
      ()
  in
  let expected = Pool.execute pool req in
  ignore (Pool.shutdown pool);
  match drive_connection ~piece:65536 ~max_request_bytes:bound [ frame ] with
  | [ reply ] ->
    Alcotest.(check bool) "reply equals Pool.execute" true (reply = expected)
  | replies -> Alcotest.failf "expected one reply, got %d" (List.length replies)

(* The stdio front-end's framing over a pipe pair: a frame twice the
   bound is answered with [too_large] while it is still open — before
   its newline arrives, so the loop never buffered it whole — and the
   next request on the stream is served. *)
let test_pipe_frame_bounded () =
  let bound = 1024 in
  let scanner = Lazy.force catalog_scanner in
  let pool = Pool.create ~jobs:1 ~queue_capacity:16 ~scanner () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let loop =
    Thread.create
      (fun () ->
        Serve.connection_loop pool ~max_request_bytes:bound ~input:in_r
          ~output:out_w)
      ()
  in
  let pending = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  (* the next response line, failing after 10 s without one *)
  let rec next_line () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear pending;
      Buffer.add_string pending
        (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None -> (
      match Unix.select [ out_r ] [] [] 10.0 with
      | [], _, _ -> None
      | _ -> (
        match Unix.read out_r chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes pending chunk 0 n;
          next_line ()))
  in
  let decode = function
    | None -> Alcotest.fail "no response within 10 s"
    | Some l -> (
      match Protocol.decode_response l with
      | Ok r -> r
      | Error msg -> Alcotest.failf "undecodable response %S: %s" l msg)
  in
  Netio.write_all in_w (String.make (2 * bound) 'x');
  (match decode (next_line ()) with
  | Protocol.Error_reply { id = None; error = Protocol.Too_large; _ } -> ()
  | _ -> Alcotest.fail "expected a too_large reply to the open frame");
  Netio.write_all in_w ("\n" ^ scan_frame "valid" ^ "\n");
  Unix.close in_w;
  (match decode (next_line ()) with
  | Protocol.Reply { id = "valid"; _ } -> ()
  | _ -> Alcotest.fail "expected the valid request's reply");
  Thread.join loop;
  Unix.close out_w;
  Alcotest.(check (option string)) "nothing else" None (next_line ());
  List.iter Unix.close [ in_r; out_r ];
  ignore (Pool.shutdown pool)

(* Random frame mixes — valid, junk, oversized — against a 1 MiB bound:
   one typed response per non-blank frame, correct kind each, and the
   loop never wedges or drops the connection early. *)
let gen_frames =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (frequency
         [
           (3, map (fun i -> `Valid (Printf.sprintf "q%d" i)) small_nat);
           (3, map (fun s -> `Junk s)
                (string_size ~gen:(char_range ' ' '~') (int_bound 60)));
           (1, map (fun extra -> `Oversize ((1 lsl 20) + 1 + extra))
                (int_bound (1 lsl 20)));
         ]))

let hostile_frames =
  QCheck.Test.make ~count:10 ~name:"hostile NDJSON frames get typed replies"
    (QCheck.make gen_frames)
    (fun frames ->
      let wire =
        List.map
          (function
            | `Valid id -> scan_frame id
            | `Junk s -> s
            | `Oversize n -> String.make n 'z')
          frames
      in
      let responses = drive_connection ~max_request_bytes:(1 lsl 20) wire in
      let expect_replies =
        List.filter_map (function `Valid id -> Some id | _ -> None) frames
      and expect_invalid =
        List.length
          (List.filter
             (function `Junk s -> String.trim s <> "" | _ -> false)
             frames)
      and expect_too_large =
        List.length
          (List.filter (function `Oversize _ -> true | _ -> false) frames)
      in
      let replies = ref [] and invalid = ref 0 and too_large = ref 0 in
      List.iter
        (function
          | Protocol.Reply { id; _ } -> replies := id :: !replies
          | Protocol.Error_reply { error = Protocol.Invalid; _ } ->
            incr invalid
          | Protocol.Error_reply { error = Protocol.Too_large; id = None; _ }
            ->
            incr too_large
          | Protocol.Error_reply { message; _ } ->
            QCheck.Test.fail_reportf "unexpected error kind: %s" message)
        responses;
      List.sort compare !replies = List.sort compare expect_replies
      && !invalid = expect_invalid
      && !too_large = expect_too_large)

(* --- one write syscall per response ---------------------------------------- *)

let test_single_write_per_response () =
  let before = Netio.write_syscalls () in
  let n = 5 in
  let responses =
    drive_connection ~max_request_bytes:Serve.default_max_request_bytes
      (List.init n (fun i -> scan_frame (Printf.sprintf "w%d" i)))
  in
  Alcotest.(check int) "all answered" n (List.length responses);
  (* small responses into an empty socketpair buffer never short-write:
     the counter must advance exactly once per response *)
  Alcotest.(check int) "one write syscall per response" n
    (Netio.write_syscalls () - before)

(* --- stale unix socket claim ----------------------------------------------- *)

(* The HTTP front door disables Nagle on every accepted connection;
   checked on a real loopback pair, since socketpairs have no TCP
   options. *)
let test_nodelay_on_accepted () =
  let lfd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  let client = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ lfd; client ])
    (fun () ->
      Unix.bind lfd (ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lfd 1;
      Unix.connect client (Unix.getsockname lfd);
      let fd, _ = Unix.accept ~cloexec:true lfd in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Alcotest.(check bool) "off by default" false
            (Unix.getsockopt fd TCP_NODELAY);
          Serve.set_nodelay fd;
          Alcotest.(check bool) "on after set_nodelay" true
            (Unix.getsockopt fd TCP_NODELAY));
      (* a Unix-domain socket has no TCP options: ignored, not raised *)
      let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Serve.set_nodelay a;
      Unix.close a;
      Unix.close b)

let test_claim_unix_socket () =
  let path = Filename.temp_file "patchitpy-claim" ".sock" in
  Sys.remove path;
  (* nothing there: claimable *)
  Alcotest.(check bool) "absent path is claimable" true
    (Serve.claim_unix_socket path = Ok ());
  (* a stale socket file — its owner is gone, nothing accepts — is
     removed and claimed *)
  let stale = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind stale (ADDR_UNIX path);
  Unix.close stale;
  Alcotest.(check bool) "socket file persists after close" true
    (Sys.file_exists path);
  Alcotest.(check bool) "stale socket is claimed" true
    (Serve.claim_unix_socket path = Ok ());
  Alcotest.(check bool) "stale socket removed" false (Sys.file_exists path);
  (* a live listener is refused *)
  let live = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind live (ADDR_UNIX path);
  Unix.listen live 1;
  (match Serve.claim_unix_socket path with
  | Error msg ->
    Alcotest.(check bool) "error names liveness" true
      (contains_substring msg "live")
  | Ok () -> Alcotest.fail "a live daemon's socket must not be claimed");
  Unix.close live;
  Sys.remove path;
  (* a non-socket file is refused and left alone *)
  let out = open_out path in
  output_string out "not a socket";
  close_out out;
  (match Serve.claim_unix_socket path with
  | Error msg ->
    Alcotest.(check bool) "error names the refusal" true
      (contains_substring msg "not a socket")
  | Ok () -> Alcotest.fail "a regular file must not be claimed");
  Alcotest.(check bool) "file left in place" true (Sys.file_exists path);
  Sys.remove path

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest request_roundtrip;
          QCheck_alcotest.to_alcotest response_roundtrip;
          Alcotest.test_case "framing edge cases" `Quick test_framing_edges;
          Alcotest.test_case "trace kind decoding" `Quick
            test_trace_kind_decoding;
          Alcotest.test_case "requests over 1 MiB" `Quick test_large_request;
          Alcotest.test_case "string decode differential" `Quick
            test_string_decode_differential;
          Alcotest.test_case "adversarial body marker" `Quick
            test_raw_body_adversarial;
        ] );
      ( "jsonin",
        [
          Alcotest.test_case "malformed payloads return Error" `Quick
            test_jsonin_malformed;
          Alcotest.test_case "nesting depth is bounded" `Quick
            test_jsonin_depth;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "bounds and close" `Quick test_bqueue_bounds;
          Alcotest.test_case "blocking pop" `Quick test_bqueue_blocking_pop;
        ] );
      ( "pool",
        [
          Alcotest.test_case "scan bodies match one-shot output" `Quick
            test_pool_differential;
          Alcotest.test_case "poisoned request is isolated" `Quick
            test_pool_poison_isolation;
          Alcotest.test_case "deadline yields timeout" `Quick
            test_pool_deadline_timeout;
          Alcotest.test_case "full queue yields overloaded" `Quick
            test_pool_backpressure;
          Alcotest.test_case "shutdown drains in-flight work" `Quick
            test_pool_drain;
          Alcotest.test_case "drain timeout cuts the wait" `Quick
            test_pool_drain_timeout;
        ] );
      ( "connection",
        [
          Alcotest.test_case "oversized frame resynchronizes" `Quick
            test_connection_too_large_resync;
          Alcotest.test_case "pipe frame stays bounded" `Quick
            test_pipe_frame_bounded;
          Alcotest.test_case "large frame in 64 KiB pieces" `Quick
            test_connection_large_frame;
          QCheck_alcotest.to_alcotest hostile_frames;
          Alcotest.test_case "one write syscall per response" `Quick
            test_single_write_per_response;
          Alcotest.test_case "stale socket claim" `Quick
            test_claim_unix_socket;
          Alcotest.test_case "accepted HTTP sockets set TCP_NODELAY" `Quick
            test_nodelay_on_accepted;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "trace request dumps the recorder" `Quick
            test_pool_trace_request;
          Alcotest.test_case "health and stats extras" `Quick
            test_health_and_stats_extras;
        ] );
      ( "amortization",
        [
          Alcotest.test_case "batch compiles the plan once" `Quick
            test_batch_compiles_once;
        ] );
      ( "rx deadline",
        [ Alcotest.test_case "step deadlines" `Quick test_rx_deadline ] );
    ]
