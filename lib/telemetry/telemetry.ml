(* Metrics and tracing with per-domain collectors.

   Layout: every instrument (counter / histogram) owns a process-wide
   dense slot allocated at [make] time; a collector is one domain's
   slot-indexed arrays plus its per-scanner rule blocks.  Recording is
   therefore [Atomic.get] + [Domain.DLS.get] + an array store — no
   locks and no allocation on the hot path.  The only mutexes are
   around slot allocation (once per instrument) and collector
   registration (once per domain per sink), both off the hot path. *)

external now_ns : unit -> (int[@untagged]) = "tele_now_ns" "tele_now_ns_unboxed"
[@@noalloc]

external now_ticks : unit -> (int[@untagged]) = "tele_ticks" "tele_ticks_unboxed"
[@@noalloc]

(* ns per tick, calibrated lazily: the conversion only happens at
   report time, which can afford the 200 us spin; recording paths
   store raw ticks.  On non-x86 hosts ticks already are ns and the
   factor comes out ~1. *)
let ns_per_tick =
  lazy
    (let t0 = now_ns () and c0 = now_ticks () in
     while now_ns () - t0 < 200_000 do
       ()
     done;
     let t1 = now_ns () and c1 = now_ticks () in
     if c1 = c0 then 1.0 else float_of_int (t1 - t0) /. float_of_int (c1 - c0))

let ticks_to_ns t =
  int_of_float ((float_of_int t *. Lazy.force ns_per_tick) +. 0.5)

(* Request-lifecycle tracing lives in its own compilation unit (it must
   not depend on this one); re-exported here so the library surface
   stays a single module. *)
module Trace = Trace

(* --- instrument registry ------------------------------------------------- *)

let registry_lock = Mutex.create ()
let counter_names : string list ref = ref [] (* newest first; slot = index from end *)
let counter_slots : (string, int) Hashtbl.t = Hashtbl.create 16
let histo_names : string list ref = ref []
let histo_slots : (string, int) Hashtbl.t = Hashtbl.create 16

(* HELP strings for the Prometheus exposition; instruments register
   one at [make] time (optional — the exposition falls back to a
   generic line, since # HELP is mandatory for well-formed scrapes). *)
let help_texts : (string, string) Hashtbl.t = Hashtbl.create 16

let intern ?help slots names name =
  Mutex.protect registry_lock (fun () ->
      (match help with
      | Some text -> Hashtbl.replace help_texts name text
      | None -> ());
      match Hashtbl.find_opt slots name with
      | Some slot -> slot
      | None ->
        let slot = Hashtbl.length slots in
        Hashtbl.replace slots name slot;
        names := name :: !names;
        slot)

let help_of name =
  Mutex.protect registry_lock (fun () -> Hashtbl.find_opt help_texts name)

let registered names () =
  (* slot order: the list is newest-first *)
  Mutex.protect registry_lock (fun () -> Array.of_list (List.rev !names))

(* --- rule-set definitions ------------------------------------------------ *)

module Rules0 = struct
  type def = { stamp : int; def_ids : string array }

  let next_stamp = Atomic.make 0

  let define ids = { stamp = Atomic.fetch_and_add next_stamp 1; def_ids = ids }
  let ids d = d.def_ids

  type block = {
    mutable scans : int;
    time_ns : int array;
    steps : int array;
    candidates : int array;
    matched : int array;
    suppressed : int array;
    findings : int array;
    budget_exhausted : int array;
  }

  let fresh_block n =
    {
      scans = 0;
      time_ns = Array.make n 0;
      steps = Array.make n 0;
      candidates = Array.make n 0;
      matched = Array.make n 0;
      suppressed = Array.make n 0;
      findings = Array.make n 0;
      budget_exhausted = Array.make n 0;
    }
end

(* --- collectors and sinks ------------------------------------------------ *)

type collector = {
  mutable c_counters : int array;  (* counter slot -> value *)
  mutable c_histos : int array array;  (* histo slot -> 32 buckets + sum *)
  c_blocks : (int, Rules0.def * Rules0.block) Hashtbl.t;  (* by stamp *)
}

let n_buckets = 32

let fresh_collector () =
  {
    c_counters = Array.make (max 8 (Hashtbl.length counter_slots)) 0;
    c_histos = Array.make (max 8 (Hashtbl.length histo_slots)) [||];
    c_blocks = Hashtbl.create 4;
  }

type sink = {
  lock : Mutex.t;
  mutable collectors : collector list;
  key : collector Domain.DLS.key;
}

let create () =
  let holder = ref None in
  let key =
    Domain.DLS.new_key (fun () ->
        let c = fresh_collector () in
        (match !holder with
        | Some s -> Mutex.protect s.lock (fun () -> s.collectors <- c :: s.collectors)
        | None -> ());
        c)
  in
  let s = { lock = Mutex.create (); collectors = []; key } in
  holder := Some s;
  s

let current : sink option Atomic.t = Atomic.make None

let install s = Atomic.set current (Some s)
let uninstall () = Atomic.set current None
let installed () = Atomic.get current
let enabled () = Atomic.get current <> None

let with_sink s f =
  let previous = Atomic.get current in
  Atomic.set current (Some s);
  Fun.protect ~finally:(fun () -> Atomic.set current previous) f

let collector_of s = Domain.DLS.get s.key

(* A recorder is this domain's collector for the installed sink,
   fetched once and then written through directly: instrument sites
   that record several values per event (the DFA publish path) pay the
   [Atomic.get] + [Domain.DLS.get] entry cost once instead of per
   value. *)
type recorder = collector

let recorder () =
  match Atomic.get current with
  | None -> None
  | Some s -> Some (collector_of s)

(* --- counters ------------------------------------------------------------ *)

module Counter = struct
  type t = { slot : int }

  let make ?help name = { slot = intern ?help counter_slots counter_names name }

  let record (col : recorder) c by =
    let n = Array.length col.c_counters in
    if c.slot >= n then begin
      let grown = Array.make (max (c.slot + 1) (2 * n)) 0 in
      Array.blit col.c_counters 0 grown 0 n;
      col.c_counters <- grown
    end;
    Array.unsafe_set col.c_counters c.slot
      (Array.unsafe_get col.c_counters c.slot + by)

  let incr ?(by = 1) c =
    match Atomic.get current with
    | None -> ()
    | Some s -> record (collector_of s) c by
end

(* --- histograms ---------------------------------------------------------- *)

(* Bucket [i] holds values in [2^i, 2^(i+1)); bucket 0 absorbs v <= 1,
   the last bucket absorbs the tail.  Data layout per slot: 32 bucket
   counts followed by the running sum. *)
module Histogram = struct
  type t = { slot : int }

  let bucket_count = n_buckets

  let make ?help name = { slot = intern ?help histo_slots histo_names name }

  (* floor(log2 v) by binary descent: six branches whatever the value,
     where the shift-loop version cost one iteration per bit and showed
     up in the instrumented scan path (steps histograms observe values
     in the thousands). *)
  let bucket_of v =
    if v <= 1 then 0
    else begin
      let i = ref 0 and v = ref v in
      if !v >= 1 lsl 32 then begin i := !i + 32; v := !v lsr 32 end;
      if !v >= 1 lsl 16 then begin i := !i + 16; v := !v lsr 16 end;
      if !v >= 1 lsl 8 then begin i := !i + 8; v := !v lsr 8 end;
      if !v >= 1 lsl 4 then begin i := !i + 4; v := !v lsr 4 end;
      if !v >= 1 lsl 2 then begin i := !i + 2; v := !v lsr 2 end;
      if !v >= 2 then incr i;
      min !i (n_buckets - 1)
    end

  let record (col : recorder) h v =
    let v = if v < 0 then 0 else v in
    let n = Array.length col.c_histos in
    if h.slot >= n then begin
      let grown = Array.make (max (h.slot + 1) (2 * n)) [||] in
      Array.blit col.c_histos 0 grown 0 n;
      col.c_histos <- grown
    end;
    let data =
      match Array.unsafe_get col.c_histos h.slot with
      | [||] ->
        let d = Array.make (n_buckets + 1) 0 in
        col.c_histos.(h.slot) <- d;
        d
      | d -> d
    in
    (* data is always n_buckets + 1 long and bucket_of < n_buckets *)
    let b = bucket_of v in
    Array.unsafe_set data b (Array.unsafe_get data b + 1);
    Array.unsafe_set data n_buckets (Array.unsafe_get data n_buckets + v)

  let observe h v =
    match Atomic.get current with
    | None -> ()
    | Some s -> record (collector_of s) h v
end

module Span = struct
  let record h f =
    match Atomic.get current with
    | None -> f ()
    | Some _ ->
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () -> Histogram.observe h (now_ns () - t0))
        f
end

(* --- per-rule blocks ----------------------------------------------------- *)

module Rules = struct
  include Rules0

  let block s (def : def) =
    let col = collector_of s in
    match Hashtbl.find_opt col.c_blocks def.stamp with
    | Some (_, b) -> b
    | None ->
      let b = fresh_block (Array.length def.def_ids) in
      Hashtbl.replace col.c_blocks def.stamp (def, b);
      b
end

(* --- merged reports ------------------------------------------------------ *)

module Report = struct
  type histogram = {
    h_name : string;
    h_count : int;
    h_sum : int;
    h_buckets : int array;
  }

  type ruleset = { r_ids : string array; r_scans : int; r_block : Rules.block }

  type t = {
    counters : (string * int) list;
    histograms : histogram list;
    rulesets : ruleset list;
  }

  let add_into dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

  let of_sink s =
    let collectors = Mutex.protect s.lock (fun () -> s.collectors) in
    let counter_names = registered counter_names () in
    let histo_names = registered histo_names () in
    let counters =
      Array.to_list
        (Array.mapi
           (fun slot name ->
             let total =
               List.fold_left
                 (fun acc col ->
                   if slot < Array.length col.c_counters then
                     acc + col.c_counters.(slot)
                   else acc)
                 0 collectors
             in
             (name, total))
           counter_names)
      |> List.sort compare
    in
    let histograms =
      Array.to_list
        (Array.mapi
           (fun slot name ->
             let buckets = Array.make n_buckets 0 in
             let sum = ref 0 in
             List.iter
               (fun col ->
                 if slot < Array.length col.c_histos then
                   match col.c_histos.(slot) with
                   | [||] -> ()
                   | data ->
                     for i = 0 to n_buckets - 1 do
                       buckets.(i) <- buckets.(i) + data.(i)
                     done;
                     sum := !sum + data.(n_buckets))
               collectors;
             {
               h_name = name;
               h_count = Array.fold_left ( + ) 0 buckets;
               h_sum = !sum;
               h_buckets = buckets;
             })
           histo_names)
      |> List.sort (fun a b -> compare a.h_name b.h_name)
    in
    let merged : (int, Rules.def * Rules.block) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun col ->
        Hashtbl.iter
          (fun stamp ((def : Rules.def), (b : Rules.block)) ->
            let acc =
              match Hashtbl.find_opt merged stamp with
              | Some (_, acc) -> acc
              | None ->
                let acc = Rules.fresh_block (Array.length (Rules.ids def)) in
                Hashtbl.replace merged stamp (def, acc);
                acc
            in
            acc.scans <- acc.scans + b.scans;
            add_into acc.time_ns b.time_ns;
            add_into acc.steps b.steps;
            add_into acc.candidates b.candidates;
            add_into acc.matched b.matched;
            add_into acc.suppressed b.suppressed;
            add_into acc.findings b.findings;
            add_into acc.budget_exhausted b.budget_exhausted)
          col.c_blocks)
      collectors;
    (* recorded as raw ticks on the hot path; reports are in ns *)
    Hashtbl.iter
      (fun _ ((_ : Rules.def), (b : Rules.block)) ->
        Array.iteri (fun i t -> b.time_ns.(i) <- ticks_to_ns t) b.time_ns)
      merged;
    let rulesets =
      Hashtbl.fold (fun stamp (def, b) acc -> (stamp, def, b) :: acc) merged []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      |> List.map (fun (_, def, (b : Rules.block)) ->
             { r_ids = Rules.ids def; r_scans = b.scans; r_block = b })
    in
    { counters; histograms; rulesets }

  (* --- serialization ----------------------------------------------------- *)

  let escape = Trace.json_escape

  let json_rule_fields (b : Rules.block) i =
    Printf.sprintf
      "\"candidates\":%d,\"matched\":%d,\"suppressed\":%d,\"findings\":%d,\
       \"steps\":%d,\"budgetExhausted\":%d,\"timeNs\":%d"
      b.candidates.(i) b.matched.(i) b.suppressed.(i) b.findings.(i)
      b.steps.(i) b.budget_exhausted.(i) b.time_ns.(i)

  let to_json t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"schema\":\"patchitpy-telemetry/1\",\"counters\":{";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (escape name) v))
      t.counters;
    Buffer.add_string buf "},\"histograms\":[";
    List.iteri
      (fun i h ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"count\":%d,\"sum\":%d,\"buckets\":["
             (escape h.h_name) h.h_count h.h_sum);
        Array.iteri
          (fun j n ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int n))
          h.h_buckets;
        Buffer.add_string buf "]}")
      t.histograms;
    Buffer.add_string buf "],\"rulesets\":[";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "{\"scans\":%d,\"rules\":[" r.r_scans);
        Array.iteri
          (fun j id ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "{\"id\":\"%s\",%s}" (escape id)
                 (json_rule_fields r.r_block j)))
          r.r_ids;
        Buffer.add_string buf "]}")
      t.rulesets;
    Buffer.add_string buf "]}";
    Buffer.contents buf

  (* Prometheus text exposition.  Metric names we mint ourselves; rule
     ids only appear as label values and HELP text, each with the
     format's own escaping — which is NOT JSON's: label values escape
     backslash, double-quote and newline (a \u sequence would be taken
     literally by a scraper); HELP text escapes only backslash and
     newline. *)
  let prometheus_label_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let prometheus_help_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_prometheus t =
    let buf = Buffer.create 4096 in
    let label_escape = prometheus_label_escape in
    let help_line name fallback =
      let text =
        match help_of name with Some text -> text | None -> fallback
      in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" name (prometheus_help_escape text))
    in
    List.iter
      (fun (name, v) ->
        help_line name (Printf.sprintf "PatchitPy counter %s." name);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
      t.counters;
    List.iter
      (fun h ->
        help_line h.h_name
          (Printf.sprintf "PatchitPy histogram %s (power-of-two buckets)."
             h.h_name);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" h.h_name);
        let cumulative = ref 0 in
        Array.iteri
          (fun i n ->
            cumulative := !cumulative + n;
            if i < n_buckets - 1 then
              (* bucket i covers values <= 2^(i+1)-1 *)
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" h.h_name
                   ((1 lsl (i + 1)) - 1)
                   !cumulative))
          h.h_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n"
             h.h_name h.h_count h.h_name h.h_sum h.h_name h.h_count))
      t.histograms;
    if t.rulesets <> [] then
      Buffer.add_string buf
        "# HELP patchitpy_scanner_scans_total Scans recorded per registered \
         rule set.\n\
         # TYPE patchitpy_scanner_scans_total counter\n";
    List.iteri
      (fun set r ->
        Buffer.add_string buf
          (Printf.sprintf "patchitpy_scanner_scans_total{set=\"%d\"} %d\n" set
             r.r_scans);
        let series name (arr : int array) =
          (* HELP/TYPE must appear once per metric name; the series
             names repeat across rule sets. *)
          if set = 0 then
            Buffer.add_string buf
              (Printf.sprintf
                 "# HELP patchitpy_scanner_rule_%s_total Per-rule %s, summed \
                  across scans.\n\
                  # TYPE patchitpy_scanner_rule_%s_total counter\n"
                 name
                 (String.map (fun c -> if c = '_' then ' ' else c) name)
                 name);
          Array.iteri
            (fun i id ->
              Buffer.add_string buf
                (Printf.sprintf
                   "patchitpy_scanner_rule_%s_total{set=\"%d\",rule=\"%s\"} %d\n"
                   name set (label_escape id) arr.(i)))
            r.r_ids
        in
        series "candidates" r.r_block.Rules.candidates;
        series "matched" r.r_block.Rules.matched;
        series "suppressed" r.r_block.Rules.suppressed;
        series "findings" r.r_block.Rules.findings;
        series "steps" r.r_block.Rules.steps;
        series "budget_exhausted" r.r_block.Rules.budget_exhausted;
        series "time_ns" r.r_block.Rules.time_ns)
      t.rulesets;
    Buffer.contents buf
end
