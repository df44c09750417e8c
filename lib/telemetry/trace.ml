(* Request-lifecycle tracing: the flight recorder.

   Where the sibling [Telemetry] instruments aggregate (counters,
   histogram buckets — the per-request story is erased at record time),
   this module keeps it: each request builds one [record] of
   phase-decomposed spans plus point events, and [finish] publishes the
   record into the finishing domain's ring buffer.  Rings are
   fixed-size and overwrite-oldest, so tracing is "always on" in the
   serve daemon at bounded memory: the last N requests per domain are
   reconstructable after the fact, which is exactly what a latency
   regression investigation needs.

   Concurrency model, chosen so the hot path has no locks:

   - One ring per domain, created through [Domain.DLS] and registered
     in a global list (mutex, once per domain).  Only the owning domain
     pushes; pushing is a slot store plus a cursor bump.
   - A slot holds an immutable, fully-built [record] behind an
     [Atomic]: readers on other domains see whole records or stale
     ones, never torn ones.  The cursor is atomic too, so a reader can
     bound its walk; a push racing a snapshot can at worst substitute a
     newer complete record for an older one.
   - The builder [t] is single-owner by construction (it follows the
     request through the pipeline), so its mutable span/instant lists
     need no synchronization.  [mark]/[marked] is the one cross-domain
     handoff (submit thread stamps, worker reads) and rides on the
     happens-before edge of the queue transfer.

   Cost budget (the CI gate holds the scan bench to an absolute +4 us
   with tracing on): a traced request pays two clock reads and one
   small allocation at the edges, one clock read per span boundary,
   and nothing per worked byte.  The dominant term is none of those
   but the GC lifecycle of the published record itself — every record
   is retained by its ring slot until overwritten, so each one is
   promoted out of the minor heap and major-collected later, a
   near-constant 1-3 us per request that scales with live-heap size,
   not scan length.  That is why the gate is an absolute budget rather
   than a percentage of scan time.  With tracing off every hook is one
   atomic load and a branch. *)

external now_ns : unit -> (int[@untagged]) = "tele_now_ns" "tele_now_ns_unboxed"
[@@noalloc]

(* --- vocabulary ----------------------------------------------------------- *)

type phase =
  | Intake
  | Cache_lookup
  | Queue_wait
  | Dispatch
  | Scan
  | Patch_round
  | Serialize
  | Write

type instant = Dfa_flush | Dfa_bail | Deadline_hit | Budget_exhausted

let phase_name = function
  | Intake -> "intake"
  | Cache_lookup -> "cache-lookup"
  | Queue_wait -> "queue-wait"
  | Dispatch -> "dispatch"
  | Scan -> "scan"
  | Patch_round -> "patch-round"
  | Serialize -> "serialize"
  | Write -> "write"

let instant_name = function
  | Dfa_flush -> "dfa-flush"
  | Dfa_bail -> "dfa-bail"
  | Deadline_hit -> "deadline"
  | Budget_exhausted -> "budget"

type span = { sp_phase : phase; sp_start : int; sp_stop : int }

type record = {
  tr_id : string;
  tr_kind : string;
  tr_seq : int;
  tr_domain : int;
  tr_start : int;
  tr_stop : int;
  tr_spans : span list;  (* ascending by sp_start *)
  tr_instants : (instant * int) list;  (* ascending by time *)
  tr_dropped : int;  (* instants beyond the per-record cap *)
  tr_minor_words : int;  (* minor-heap words allocated by the request *)
}

(* --- global switches ------------------------------------------------------ *)

let on = Atomic.make false
let default_capacity = 256
let ring_capacity = Atomic.make default_capacity
let seq_source = Atomic.make 0

(* Bumping the generation orphans every existing ring: domains lazily
   rebuild on their next push, so [reset] never races a writer. *)
let generation = Atomic.make 0

let enabled () = Atomic.get on

(* --- per-domain rings ----------------------------------------------------- *)

type ring = {
  r_domain : int;
  r_gen : int;
  r_slots : record option Atomic.t array;
  r_w : int Atomic.t;  (* records ever pushed; slot = w mod capacity *)
}

let rings_lock = Mutex.create ()
let rings : ring list ref = ref []

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let cell = Domain.DLS.get ring_key in
  let gen = Atomic.get generation in
  match !cell with
  | Some r when r.r_gen = gen -> r
  | _ ->
    let r =
      {
        r_domain = (Domain.self () :> int);
        r_gen = gen;
        r_slots =
          Array.init (Atomic.get ring_capacity) (fun _ -> Atomic.make None);
        r_w = Atomic.make 0;
      }
    in
    Mutex.protect rings_lock (fun () -> rings := r :: !rings);
    cell := Some r;
    r

let reset () =
  Atomic.incr generation;
  Atomic.set seq_source 0;
  Mutex.protect rings_lock (fun () -> rings := [])

let capacity () = Atomic.get ring_capacity

let enable ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Trace.enable: capacity must be >= 1"
  | Some c when c <> Atomic.get ring_capacity ->
    Atomic.set ring_capacity c;
    reset ()
  | Some _ | None -> ());
  Atomic.set on true

let disable () = Atomic.set on false

(* --- request builders ----------------------------------------------------- *)

type t = {
  b_id : string;
  b_kind : string;
  b_seq : int;
  b_start : int;
  mutable b_mark : int;  (* enqueue timestamp, see [mark] *)
  mutable b_spans : span list;  (* completion order, newest first *)
  mutable b_instants : (instant * int) list;  (* newest first *)
  mutable b_ninstants : int;
  mutable b_dropped : int;
  b_minor0 : float;
}

(* Instants can fire per search (a thrashing pattern flushes on every
   rule); the cap keeps a pathological request from growing its own
   trace without bound.  Drops are counted, never silent. *)
let max_instants = 128

let start ?at ~id ~kind () =
  if not (Atomic.get on) then None
  else
    let t0 = match at with Some t -> t | None -> now_ns () in
    Some
      {
        b_id = id;
        b_kind = kind;
        b_seq = Atomic.fetch_and_add seq_source 1;
        b_start = t0;
        b_mark = t0;
        b_spans = [];
        b_instants = [];
        b_ninstants = 0;
        b_dropped = 0;
        b_minor0 = Gc.minor_words ();
      }

let add_span b ph ~start ~stop =
  b.b_spans <- { sp_phase = ph; sp_start = start; sp_stop = stop } :: b.b_spans

let span b ph f =
  let t0 = now_ns () in
  match f () with
  | v ->
    add_span b ph ~start:t0 ~stop:(now_ns ());
    v
  | exception e ->
    add_span b ph ~start:t0 ~stop:(now_ns ());
    raise e

let instant b i =
  if b.b_ninstants >= max_instants then b.b_dropped <- b.b_dropped + 1
  else begin
    b.b_instants <- (i, now_ns ()) :: b.b_instants;
    b.b_ninstants <- b.b_ninstants + 1
  end

let mark b = b.b_mark <- now_ns ()
let marked b = b.b_mark

(* --- the ambient builder -------------------------------------------------- *)

(* The builder the current domain is executing a request for, so deep
   instrumentation sites (scanner, patcher, rx) attach spans without
   the builder being threaded through every signature.  Checked behind
   the [on] flag first: with tracing off an ambient hook is one atomic
   load and a branch, with tracing on but no request in progress it
   adds one DLS read. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_current b f =
  let cell = Domain.DLS.get current_key in
  let previous = !cell in
  cell := Some b;
  Fun.protect ~finally:(fun () -> cell := previous) f

let current () =
  if not (Atomic.get on) then None else !(Domain.DLS.get current_key)

let ambient_span ph f =
  match current () with None -> f () | Some b -> span b ph f

let ambient_instant i =
  match current () with None -> () | Some b -> instant b i

(* --- publishing ----------------------------------------------------------- *)

(* [finish] must run on one thread at a time per domain: the pool calls
   it from worker domains (one request at a time each), the CLI and
   bench from their single driving thread.  Systhreads sharing a domain
   would interleave pushes benignly (records are immutable; at worst a
   slot is written twice before the cursor moves), but no caller does
   that today. *)
let finish b =
  let stop = now_ns () in
  let record =
    {
      tr_id = b.b_id;
      tr_kind = b.b_kind;
      tr_seq = b.b_seq;
      tr_domain = (Domain.self () :> int);
      tr_start = b.b_start;
      tr_stop = stop;
      tr_spans =
        List.sort
          (fun a b -> compare (a.sp_start, a.sp_stop) (b.sp_start, b.sp_stop))
          b.b_spans;
      tr_instants = List.rev b.b_instants;
      tr_dropped = b.b_dropped;
      tr_minor_words = int_of_float (Gc.minor_words () -. b.b_minor0);
    }
  in
  let r = my_ring () in
  let w = Atomic.get r.r_w in
  Atomic.set r.r_slots.(w mod Array.length r.r_slots) (Some record);
  Atomic.set r.r_w (w + 1)

let with_request ~id ~kind f =
  match start ~id ~kind () with
  | None -> f ()
  | Some b ->
    with_current b (fun () -> Fun.protect ~finally:(fun () -> finish b) f)

(* --- snapshots ------------------------------------------------------------ *)

let ring_records r =
  let cap = Array.length r.r_slots in
  let w = Atomic.get r.r_w in
  let lo = if w > cap then w - cap else 0 in
  let rec gather i acc =
    if i < lo then acc
    else
      match Atomic.get r.r_slots.(i mod cap) with
      | None -> gather (i - 1) acc
      | Some record -> gather (i - 1) (record :: acc)
  in
  gather (w - 1) []

let records () =
  let rings = Mutex.protect rings_lock (fun () -> !rings) in
  List.concat_map ring_records rings
  |> List.sort (fun a b -> compare a.tr_seq b.tr_seq)

let take n l =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n l

let total_ns r = r.tr_stop - r.tr_start

let phase_ns r ph =
  List.fold_left
    (fun acc s -> if s.sp_phase = ph then acc + (s.sp_stop - s.sp_start) else acc)
    0 r.tr_spans

let queue_wait_ns r = phase_ns r Queue_wait

(* Time attributable to the server itself: everything but the wait for
   a worker and the front-end parse. *)
let service_ns r =
  max 0 (total_ns r - queue_wait_ns r - phase_ns r Intake)

let last n =
  let all = records () in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let slowest n =
  records ()
  |> List.sort (fun a b -> compare (total_ns b) (total_ns a))
  |> take n

(* --- exporters ------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let schema = "patchitpy-trace/1"

(* Timestamps are exported relative to the earliest record in the dump:
   raw monotonic readings mean nothing across hosts, and Perfetto
   renders from zero. *)
let base_of = function
  | [] -> 0
  | records -> List.fold_left (fun acc r -> min acc r.tr_start) max_int records

let to_chrome ?(extra = []) records =
  let t0 = base_of records in
  let buf = Buffer.create 4096 in
  let us t = float_of_int (t - t0) /. 1000.0 in
  let dur a b = float_of_int (b - a) /. 1000.0 in
  let first = ref true in
  let event s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iter
    (fun r ->
      let id = json_escape r.tr_id in
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"id\":\"%s\",\"seq\":%d,\"minorWords\":%d,\"droppedInstants\":%d}}"
           (json_escape r.tr_kind) (us r.tr_start)
           (dur r.tr_start r.tr_stop)
           r.tr_domain id r.tr_seq r.tr_minor_words r.tr_dropped);
      List.iter
        (fun s ->
          event
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"id\":\"%s\"}}"
               (phase_name s.sp_phase) (us s.sp_start)
               (dur s.sp_start s.sp_stop)
               r.tr_domain id))
        r.tr_spans;
      List.iter
        (fun (i, at) ->
          event
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"s\":\"t\",\"args\":{\"id\":\"%s\"}}"
               (instant_name i) (us at) r.tr_domain id))
        r.tr_instants)
    records;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"%s\",\"recordCount\":%d"
       schema (List.length records));
  List.iter
    (fun (key, raw_json) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":%s" (json_escape key) raw_json))
    extra;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* One record per line.  The record's own start stays absolute
   (monotonic ns — orderable within the dump); span and instant offsets
   are relative to it, which is the compact form and what the analysis
   scripts want anyway. *)
let record_to_ndjson r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"%s\",\"id\":\"%s\",\"kind\":\"%s\",\"seq\":%d,\"domain\":%d,\"startNs\":%d,\"durNs\":%d,\"minorWords\":%d,\"droppedInstants\":%d,\"spans\":["
       schema (json_escape r.tr_id) (json_escape r.tr_kind) r.tr_seq
       r.tr_domain r.tr_start (total_ns r) r.tr_minor_words r.tr_dropped);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"phase\":\"%s\",\"startNs\":%d,\"durNs\":%d}"
           (phase_name s.sp_phase)
           (s.sp_start - r.tr_start)
           (s.sp_stop - s.sp_start)))
    r.tr_spans;
  Buffer.add_string buf "],\"instants\":[";
  List.iteri
    (fun i (ev, at) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\":\"%s\",\"atNs\":%d}" (instant_name ev)
           (at - r.tr_start)))
    r.tr_instants;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_ndjson records =
  String.concat "" (List.map (fun r -> record_to_ndjson r ^ "\n") records)
