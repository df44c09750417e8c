(* Seeded inputs for the three workloads.  Everything the program under
   test sees comes from these functions, and the same seed always gives
   the same inputs.  All bodies are built from the 609-sample generated
   corpus ({!Corpus.Generator}). *)

type kind = Scan | Patch

let kind_name = function Scan -> "scan" | Patch -> "patch"

type request = { kind : kind; file : string; body : string }

let corpus =
  lazy
    (Array.of_list
       (List.map
          (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.code)
          (Corpus.Generator.all_samples ())))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Both serve workloads send 3 scans to 1 patch. *)
let pick_kind rng = if Random.State.int rng 4 = 0 then Patch else Scan
let share = function Scan -> 0.75 | Patch -> 0.25

(* Mean size of a corpus sample, the body both serve workloads send. *)
let mean_sample_bytes =
  lazy
    (let c = Lazy.force corpus in
     float_of_int (Array.fold_left (fun a s -> a + String.length s) 0 c)
     /. float_of_int (Array.length c))

(* serve-unique: HTTP traffic in which no two bodies are equal.  It exists
   to put the result cache on its write path: each body is a short corpus
   sample plus a seeded stamp comment, so every request misses the cache,
   crosses http -> gateway -> rcache -> bqueue -> worker wake-up ->
   scanner/patcher -> jsonout -> netio, and inserts its result.  A scan
   costs microseconds here, so per-request overhead dominates: this is the
   traffic the latency ledger is about.  Returns a generator; call it once
   per request, in send order. *)
let unique ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let corpus = Lazy.force corpus in
  let n = ref 0 in
  fun () ->
    let kind = pick_kind rng in
    let code = corpus.(Random.State.int rng (Array.length corpus)) in
    incr n;
    {
      kind;
      file = "unique.py";
      body = Printf.sprintf "%s\n# perfbench request %d-%d\n" code seed !n;
    }

let fleet_bodies = 64
let zipf_exponent = 1.1

(* serve-fleet: NDJSON traffic over the Unix socket from a fleet of
   generators that keep emitting the same snippets.  Bodies follow a Zipf
   choice over 64 distinct corpus samples, so after the first touch nearly
   every request is a result-cache hit: the scanner idles while the
   protocol codec, the connection loop and the cache hit path carry the
   load.  It is the only workload on the NDJSON front door. *)
let fleet ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let corpus = Lazy.force corpus in
  let order = Array.init (Array.length corpus) Fun.id in
  shuffle rng order;
  let bodies = Array.init fleet_bodies (fun k -> corpus.(order.(k))) in
  let weights =
    Array.init fleet_bodies (fun k ->
        1. /. (float_of_int (k + 1) ** zipf_exponent))
  in
  let total = Stats.sum weights in
  let cdf = Array.make fleet_bodies 0. in
  let acc = ref 0. in
  Array.iteri
    (fun k w ->
      acc := !acc +. (w /. total);
      cdf.(k) <- !acc)
    weights;
  fun () ->
    let kind = pick_kind rng in
    let u = Random.State.float rng 1. in
    let rec find k =
      if k >= fleet_bodies - 1 || cdf.(k) >= u then k else find (k + 1)
    in
    let k = find 0 in
    { kind; file = Printf.sprintf "fleet-%02d.py" k; body = bodies.(k) }

let batch_files = 64
let batch_min_bytes = 512
let batch_max_bytes = 65536

(* batch-long: one directory of long, messy files for the one-shot CLI.
   Each file concatenates corpus samples up to a target length; the
   targets are the quantiles i/(n-1) of a Pareto(1) law truncated to
   [0.5 KB, 64 KB], so every seed has the same heavy-tailed length
   profile while the contents differ.  Here rx, scanner, patcher and
   jsonout do nearly all the work: there are no server layers, patch cost
   grows faster than file length, and long varied files push the fused
   DFA toward its state-cache ceiling.  The CLI never prewarms a pack, so
   this workload bypasses the warm-start machinery.  Returns (name,
   contents) pairs in name order. *)
let batch ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let corpus = Lazy.force corpus in
  let lo = float_of_int batch_min_bytes and hi = float_of_int batch_max_bytes in
  let lengths =
    Array.init batch_files (fun i ->
        let u = float_of_int i /. float_of_int (batch_files - 1) in
        int_of_float (lo /. (1. -. (u *. (1. -. (lo /. hi))))))
  in
  shuffle rng lengths;
  List.init batch_files (fun i ->
      let buf = Buffer.create (lengths.(i) + 1024) in
      while Buffer.length buf < lengths.(i) do
        Buffer.add_string buf
          corpus.(Random.State.int rng (Array.length corpus));
        Buffer.add_char buf '\n'
      done;
      (Printf.sprintf "f%03d.py" i, Buffer.contents buf))

(* --- input summary --------------------------------------------------------- *)

(* One line describing what a workload fed the program: count, bytes,
   length quantiles, findings per KB of scanned input, the scan:patch
   split and the share of requests whose (kind, label, body) had already
   been sent — the share a result cache can answer.  [findings] counts a
   scan request's findings. *)
let summary ~name ~(requests : request array) ~findings =
  let n = Array.length requests in
  let lens =
    Array.map (fun r -> float_of_int (String.length r.body)) requests
  in
  let seen = Hashtbl.create 1024 in
  let repeats = ref 0 and scans = ref 0 and found = ref 0 and scan_bytes = ref 0 in
  Array.iter
    (fun r ->
      if r.kind = Scan then begin
        incr scans;
        found := !found + findings r;
        scan_bytes := !scan_bytes + String.length r.body
      end;
      let key = (r.kind, r.file, r.body) in
      if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ())
    requests;
  Printf.sprintf
    "input %s: %d requests, %.0f bytes, length p50/p90/max %.0f/%.0f/%.0f B, \
     %.2f findings/KB, scan:patch %d:%d, already-seen share %.4f"
    name n (Stats.sum lens) (Stats.percentile lens 0.5)
    (Stats.percentile lens 0.9) (Stats.percentile lens 1.0)
    (Stats.ratio (float_of_int !found) (float_of_int !scan_bytes /. 1024.))
    !scans (n - !scans)
    (Stats.ratio (float_of_int !repeats) (float_of_int n))
