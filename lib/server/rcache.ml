(* See rcache.mli.  Each shard is a classic intrusive doubly-linked
   LRU over a hashtable, guarded by its own mutex; the hot path (find
   on a hit) takes one lock, does one hashtable probe and a couple of
   pointer swings.  The 128-bit key is two XXH64 passes: one over the
   request body, one over a small metadata string that binds the salt,
   kind, file label, options and the first hash — so the body is
   hashed exactly once and never copied or compared. *)

type node = {
  nd_key : int64 * int64;
  nd_value : string;
  nd_size : int;
  mutable nd_prev : node option;  (* toward most recently used *)
  mutable nd_next : node option;  (* toward least recently used *)
}

type shard = {
  lock : Mutex.t;
  table : (int64 * int64, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
}

type t = {
  shards : shard array;
  mask : int;
  shard_budget : int;
  max_bytes : int;
  salt : string Atomic.t;
  generation : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  insertions : int Atomic.t;
  evictions : int Atomic.t;
  restored : int Atomic.t;
}

let hits_counter = Telemetry.Counter.make "server_cache_hits_total"
let misses_counter = Telemetry.Counter.make "server_cache_misses_total"
let insertions_counter = Telemetry.Counter.make "server_cache_insertions_total"
let evictions_counter = Telemetry.Counter.make "server_cache_evictions_total"

let restored_counter =
  Telemetry.Counter.make "server_cache_restored_entries_total"

(* Hashtable buckets, LRU pointers, key and size words: a flat
   per-entry charge so byte budgets bound real memory, not just
   payload bytes. *)
let entry_overhead = 96

let create ?(shards = 8) ~max_bytes ~salt () =
  if max_bytes < 1 then invalid_arg "Rcache.create: max_bytes must be >= 1";
  let n =
    let rec pow2 n = if n >= shards then n else pow2 (n * 2) in
    pow2 1
  in
  {
    shards =
      Array.init n (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 256;
            mru = None;
            lru = None;
            bytes = 0;
          });
    mask = n - 1;
    shard_budget = max 1 (max_bytes / n);
    max_bytes;
    salt = Atomic.make salt;
    generation = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    insertions = Atomic.make 0;
    evictions = Atomic.make 0;
    restored = Atomic.make 0;
  }

type key = { k1 : int64; k2 : int64; key_gen : int }

let key t ~kind ~file ~options ~body =
  let key_gen = Atomic.get t.generation in
  let k1 = Binio.hash64 body in
  let meta =
    Printf.sprintf "%s\x00%s\x00%s\x00%s\x00%d\x00%Lx" (Atomic.get t.salt)
      kind file options (String.length body) k1
  in
  { k1; k2 = Binio.hash64 meta; key_gen }

let shard_of t k = t.shards.(Int64.to_int k.k2 land t.mask)

(* --- the LRU list, all under the shard lock -------------------------------- *)

let unlink shard node =
  (match node.nd_prev with
  | Some p -> p.nd_next <- node.nd_next
  | None -> shard.mru <- node.nd_next);
  (match node.nd_next with
  | Some n -> n.nd_prev <- node.nd_prev
  | None -> shard.lru <- node.nd_prev);
  node.nd_prev <- None;
  node.nd_next <- None

let push_front shard node =
  node.nd_next <- shard.mru;
  (match shard.mru with Some m -> m.nd_prev <- Some node | None -> ());
  shard.mru <- Some node;
  if shard.lru = None then shard.lru <- Some node

let drop shard node =
  unlink shard node;
  Hashtbl.remove shard.table node.nd_key;
  shard.bytes <- shard.bytes - node.nd_size

(* --- operations ------------------------------------------------------------ *)

let find t k =
  let shard = shard_of t k in
  let result =
    Mutex.protect shard.lock (fun () ->
        match Hashtbl.find_opt shard.table (k.k1, k.k2) with
        | None -> None
        | Some node ->
          unlink shard node;
          push_front shard node;
          Some node.nd_value)
  in
  (match result with
  | Some _ ->
    Atomic.incr t.hits;
    Telemetry.Counter.incr hits_counter
  | None ->
    Atomic.incr t.misses;
    Telemetry.Counter.incr misses_counter);
  result

let add t k value =
  let size = String.length value + entry_overhead in
  if size <= t.shard_budget && k.key_gen = Atomic.get t.generation then begin
    let shard = shard_of t k in
    let evicted =
      Mutex.protect shard.lock (fun () ->
          (* Inserting under a generation the invalidator already
             retired would resurrect a stale result; the generation
             check just above closes all but a tiny window, and the
             clear below runs with every shard lock held in turn, so
             re-checking here under the lock closes it completely. *)
          if k.key_gen <> Atomic.get t.generation then None
          else begin
            (match Hashtbl.find_opt shard.table (k.k1, k.k2) with
            | Some old -> drop shard old
            | None -> ());
            let node =
              {
                nd_key = (k.k1, k.k2);
                nd_value = value;
                nd_size = size;
                nd_prev = None;
                nd_next = None;
              }
            in
            Hashtbl.replace shard.table node.nd_key node;
            push_front shard node;
            shard.bytes <- shard.bytes + size;
            let evicted = ref 0 in
            while shard.bytes > t.shard_budget do
              match shard.lru with
              | Some victim ->
                drop shard victim;
                incr evicted
              | None -> shard.bytes <- 0 (* unreachable: list mirrors bytes *)
            done;
            Some !evicted
          end)
    in
    match evicted with
    | None -> ()
    | Some evicted ->
      Atomic.incr t.insertions;
      Telemetry.Counter.incr insertions_counter;
      for _ = 1 to evicted do
        Atomic.incr t.evictions;
        Telemetry.Counter.incr evictions_counter
      done
  end

let invalidate t ~salt =
  Atomic.set t.salt salt;
  Atomic.incr t.generation;
  Array.iter
    (fun shard ->
      Mutex.protect shard.lock (fun () ->
          Hashtbl.reset shard.table;
          shard.mru <- None;
          shard.lru <- None;
          shard.bytes <- 0))
    t.shards

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  restored : int;
  entries : int;
  bytes : int;
  max_bytes : int;
  shards : int;
}

let stats (t : t) =
  let entries = ref 0 and bytes = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.protect shard.lock (fun () ->
          entries := !entries + Hashtbl.length shard.table;
          bytes := !bytes + shard.bytes))
    t.shards;
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    insertions = Atomic.get t.insertions;
    evictions = Atomic.get t.evictions;
    restored = Atomic.get t.restored;
    entries = !entries;
    bytes = !bytes;
    max_bytes = t.max_bytes;
    shards = Array.length t.shards;
  }

(* --- snapshot / restore ---------------------------------------------------- *)

(* Layout mirrors the rule pack's:

     magic (8 bytes) | version (u8) | salt (str) | generation (u32)
     | entry count (u32) | entries | XXH64 of everything above

   An entry is the raw 128-bit key (two int64, little-endian) plus the
   length-prefixed response body.  The key hashes are persisted as-is —
   they bind the salt through [key]'s meta pass, so a snapshot replayed
   into a cache running a different rule-pack fingerprint would never
   be probed successfully anyway; the explicit salt check below just
   turns that silent dead weight into a refusal.  Entries are written
   least- to most-recently used per shard, so replaying [add]s on
   restore reproduces the recency order. *)

let snapshot_magic = "PITRCS\x00\x00"
let snapshot_version = 1

let save_snapshot t ~path =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf snapshot_magic;
  Binio.w_u8 buf snapshot_version;
  Binio.w_str buf (Atomic.get t.salt);
  Binio.w_u32 buf (Atomic.get t.generation);
  let count = ref 0 in
  let entries = Buffer.create (1 lsl 16) in
  Array.iter
    (fun shard ->
      Mutex.protect shard.lock (fun () ->
          let rec walk = function
            | None -> ()
            | Some node ->
              let k1, k2 = node.nd_key in
              let b = Bytes.create 16 in
              Bytes.set_int64_le b 0 k1;
              Bytes.set_int64_le b 8 k2;
              Buffer.add_bytes entries b;
              Binio.w_str entries node.nd_value;
              incr count;
              walk node.nd_prev
          in
          walk shard.lru))
    t.shards;
  Binio.w_u32 buf !count;
  Buffer.add_buffer buf entries;
  let checksum = Binio.hash64 (Buffer.contents buf) in
  let trailer = Bytes.create 8 in
  Bytes.set_int64_le trailer 0 checksum;
  Buffer.add_bytes buf trailer;
  match Binio.save_atomic ~path (fun oc -> Buffer.output_buffer oc buf) with
  | () -> Ok !count
  | exception Sys_error msg -> Error msg

let restore_snapshot t ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error "truncated cache snapshot"
  | data ->
    let mlen = String.length snapshot_magic in
    if String.length data < mlen + 8 || String.sub data 0 mlen <> snapshot_magic
    then Error "not a cache snapshot (bad magic)"
    else begin
      let dlen = String.length data - 8 in
      if
        not
          (Int64.equal (Binio.hash64 ~len:dlen data)
             (String.get_int64_le data dlen))
      then Error "cache snapshot checksum mismatch"
      else begin
        let parse () =
          let r = Binio.reader ~pos:mlen ~stop:dlen data in
          let version = Binio.r_u8 r in
          if version <> snapshot_version then
            raise
              (Binio.Corrupt
                 (Printf.sprintf "snapshot version %d, this build reads %d"
                    version snapshot_version));
          let salt = Binio.r_str r in
          let (_ : int) = Binio.r_u32 r in
          (* saved generation: informational — generations are
             process-local, restored entries are re-keyed under the
             live one below *)
          if not (String.equal salt (Atomic.get t.salt)) then
            raise
              (Binio.Corrupt
                 "snapshot was taken under a different rule-pack fingerprint");
          let count = Binio.r_count r in
          (* decode fully before touching the cache: a forged tail must
             not leave a half-replayed snapshot behind *)
          let acc = ref [] in
          for _ = 1 to count do
            let raw = Binio.r_raw r 16 in
            let k1 = String.get_int64_le raw 0 in
            let k2 = String.get_int64_le raw 8 in
            let value = Binio.r_str r in
            acc := (k1, k2, value) :: !acc
          done;
          if not (Binio.at_end r) then
            raise (Binio.Corrupt "trailing bytes after the last entry");
          let gen = Atomic.get t.generation in
          List.iter
            (fun (k1, k2, value) -> add t { k1; k2; key_gen = gen } value)
            (List.rev !acc);
          count
        in
        match Binio.protect parse with
        | Ok n ->
          ignore (Atomic.fetch_and_add t.restored n : int);
          Telemetry.Counter.incr ~by:n restored_counter;
          Ok n
        | Error msg -> Error msg
      end
    end
