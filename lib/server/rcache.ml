(* See rcache.mli.  One hashtable under one mutex holds every key the
   cache knows: a cached body, threaded on one intrusive doubly-linked
   LRU list, or an in-flight miss with the repeats waiting on it.  The
   hot path (a hit) takes the lock once, does one hashtable probe and a
   couple of pointer swings.  The 128-bit key is two XXH64 passes: one
   over the request body, one over a small metadata string that binds
   the salt, kind, file label, options and the first hash — so the body
   is hashed exactly once and never copied or compared. *)

type key = { k1 : int64; k2 : int64 }
type waiter = string * (Protocol.response -> unit)

type node = {
  nd_key : key;
  nd_value : string;
  nd_size : int;
  mutable nd_prev : node option;  (* toward most recently used *)
  mutable nd_next : node option;  (* toward least recently used *)
}

type entry =
  | Cached of node
  | In_flight of waiter list  (* newest first *)

type t = {
  lock : Mutex.t;
  table : (key, entry) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
  mutable entries : int;  (* cached entries, in-flight keys excluded *)
  max_bytes : int;
  salt : string;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable insertions : int;
  mutable evictions : int;
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

let create ~max_bytes ~salt () =
  if max_bytes < 1 then invalid_arg "Rcache.create: max_bytes must be >= 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    mru = None;
    lru = None;
    bytes = 0;
    entries = 0;
    max_bytes;
    salt;
    hits = 0;
    misses = 0;
    coalesced = 0;
    insertions = 0;
    evictions = 0;
  }

let key t ~kind ~file ~options ~body =
  let k1 = Binio.hash64 body in
  let meta =
    Printf.sprintf "%s\x00%s\x00%s\x00%s\x00%d\x00%Lx" t.salt kind file
      options (String.length body) k1
  in
  { k1; k2 = Binio.hash64 meta }

(* --- the LRU list, all under the lock ------------------------------------- *)

let unlink t node =
  (match node.nd_prev with
  | Some p -> p.nd_next <- node.nd_next
  | None -> t.mru <- node.nd_next);
  (match node.nd_next with
  | Some n -> n.nd_prev <- node.nd_prev
  | None -> t.lru <- node.nd_prev);
  node.nd_prev <- None;
  node.nd_next <- None

let push_front t node =
  node.nd_next <- t.mru;
  (match t.mru with Some m -> m.nd_prev <- Some node | None -> ());
  t.mru <- Some node;
  if t.lru = None then t.lru <- Some node

let drop t node =
  unlink t node;
  Hashtbl.remove t.table node.nd_key;
  t.bytes <- t.bytes - node.nd_size;
  t.entries <- t.entries - 1

(* Counts bump the plain ints and the exported counters together,
   under the lock. *)
let count counter field =
  Telemetry.Counter.incr counter;
  field + 1

(* Probe [k]: a cached body is promoted and counted as a hit, anything
   else (absent or in flight) is counted as a miss. *)
let probe t k =
  match Hashtbl.find_opt t.table k with
  | Some (Cached node) ->
    unlink t node;
    push_front t node;
    t.hits <- count hits_counter t.hits;
    Some node.nd_value
  | Some (In_flight _) | None ->
    t.misses <- count misses_counter t.misses;
    None

(* Cache [value] under [k], which is not in flight, replacing a cached
   body, then evict from the cold end while over budget.  A body over
   the whole budget is dropped. *)
let store t k value =
  let size = String.length value + entry_overhead in
  if size <= t.max_bytes then begin
    (match Hashtbl.find_opt t.table k with
    | Some (Cached old) -> drop t old
    | Some (In_flight _) | None -> ());
    let node =
      {
        nd_key = k;
        nd_value = value;
        nd_size = size;
        nd_prev = None;
        nd_next = None;
      }
    in
    Hashtbl.replace t.table k (Cached node);
    push_front t node;
    t.bytes <- t.bytes + size;
    t.entries <- t.entries + 1;
    t.insertions <- count insertions_counter t.insertions;
    while t.bytes > t.max_bytes do
      match t.lru with
      | Some victim ->
        drop t victim;
        t.evictions <- count evictions_counter t.evictions
      | None -> t.bytes <- 0 (* unreachable: list mirrors bytes *)
    done
  end

(* --- operations ------------------------------------------------------------ *)

let find t k = Mutex.protect t.lock (fun () -> probe t k)

let add t k value =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some (In_flight _) -> ()
      | Some (Cached _) | None -> store t k value)

type claim = Hit of string | Joined | Lead

let claim t k waiter =
  Mutex.protect t.lock (fun () ->
      match probe t k with
      | Some body -> Hit body
      | None -> (
        match Hashtbl.find_opt t.table k with
        | Some (In_flight waiters) ->
          Hashtbl.replace t.table k (In_flight (waiter :: waiters));
          t.coalesced <- count coalesced_counter t.coalesced;
          Joined
        | Some (Cached _) | None ->
          Hashtbl.replace t.table k (In_flight []);
          Lead))

let settle t k response =
  Mutex.protect t.lock (fun () ->
      let waiters =
        match Hashtbl.find_opt t.table k with
        | Some (In_flight waiters) ->
          Hashtbl.remove t.table k;
          List.rev waiters
        | Some (Cached _) | None -> []
      in
      (match response with
      | Protocol.Reply { body; _ } -> store t k body
      | Protocol.Error_reply _ -> ());
      waiters)

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  insertions : int;
  evictions : int;
  entries : int;
  bytes : int;
  max_bytes : int;
}

let stats (t : t) =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        coalesced = t.coalesced;
        insertions = t.insertions;
        evictions = t.evictions;
        entries = t.entries;
        bytes = t.bytes;
        max_bytes = t.max_bytes;
      })
