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
  salt : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  coalesced : int Atomic.t;
  insertions : int Atomic.t;
  evictions : int Atomic.t;
}

let hits_counter = Telemetry.Counter.make "server_cache_hits_total"
let misses_counter = Telemetry.Counter.make "server_cache_misses_total"
let coalesced_counter = Telemetry.Counter.make "server_cache_coalesced_total"
let insertions_counter = Telemetry.Counter.make "server_cache_insertions_total"
let evictions_counter = Telemetry.Counter.make "server_cache_evictions_total"

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
    salt;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    coalesced = Atomic.make 0;
    insertions = Atomic.make 0;
    evictions = Atomic.make 0;
  }

type key = { k1 : int64; k2 : int64 }

let key t ~kind ~file ~options ~body =
  let k1 = Binio.hash64 body in
  let meta =
    Printf.sprintf "%s\x00%s\x00%s\x00%s\x00%d\x00%Lx" t.salt kind file
      options (String.length body) k1
  in
  { k1; k2 = Binio.hash64 meta }

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

let note_coalesced t =
  Atomic.incr t.coalesced;
  Telemetry.Counter.incr coalesced_counter

let add t k value =
  let size = String.length value + entry_overhead in
  if size <= t.shard_budget then begin
    let shard = shard_of t k in
    let evicted =
      Mutex.protect shard.lock (fun () ->
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
          !evicted)
    in
    Atomic.incr t.insertions;
    Telemetry.Counter.incr insertions_counter;
    for _ = 1 to evicted do
      Atomic.incr t.evictions;
      Telemetry.Counter.incr evictions_counter
    done
  end

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  insertions : int;
  evictions : int;
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
    coalesced = Atomic.get t.coalesced;
    insertions = Atomic.get t.insertions;
    evictions = Atomic.get t.evictions;
    entries = !entries;
    bytes = !bytes;
    max_bytes = t.max_bytes;
    shards = Array.length t.shards;
  }
