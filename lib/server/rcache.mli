(** The content-hash result cache in front of the worker pool.

    AI code generators emit near-duplicate snippets at enormous rates,
    so the daemon keeps finished response bodies keyed by what produced
    them: the request body's XXH64, bound to the rule-pack fingerprint,
    the request kind, the file label and the request options.  A hit
    returns the exact bytes the scanner produced the first time —
    responses are deterministic for a fixed rule catalog — without
    touching a worker domain or the queue.

    Concurrency: the table is sharded and lock-striped; each shard is
    an independent LRU with its own byte budget, so front-end threads
    and worker domains probe and insert concurrently with at most
    one-shard contention.  Keys are 128 bits (two independent XXH64
    passes), so collisions are ignorable without storing or comparing
    request bodies.

    A cache is valid for one rule catalog: its salt is fixed when it is
    created, and the daemon creates it once at boot.

    Instruments: [server_cache_hits_total], [server_cache_misses_total],
    [server_cache_coalesced_total], [server_cache_insertions_total],
    [server_cache_evictions_total]. *)

type t

val create : ?shards:int -> max_bytes:int -> salt:string -> unit -> t
(** [shards] (default 8, rounded up to a power of two) locks stripe the
    table; [max_bytes] is the whole-cache budget for cached response
    bytes plus per-entry overhead, split evenly across shards; [salt]
    is the rule-pack fingerprint the cached results are valid for. *)

type key

val key :
  t -> kind:string -> file:string -> options:string -> body:string -> key
(** Hashes once for the whole request round trip: probe with the key,
    and insert the computed response under the same key after a miss.
    The key binds the cache's salt. *)

val find : t -> key -> string option
(** The cached response body, promoting the entry to most recently
    used; [None] on miss. *)

val note_coalesced : t -> unit
(** Counts a miss that the caller answered by waiting on an in-flight
    miss of the same key: it is counted among the misses by {!find},
    but is neither executed nor inserted. *)

val add : t -> key -> string -> unit
(** Caches a response body under [key], evicting least-recently-used
    entries while the shard is over budget.  Dropped silently when the
    body alone exceeds the shard budget. *)

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
      (** misses that waited on an in-flight miss of their key
          ({!note_coalesced}); a subset of [misses] *)
  insertions : int;
  evictions : int;
  entries : int;
  bytes : int;  (** accounted bytes currently held, overhead included *)
  max_bytes : int;
  shards : int;
}

val stats : t -> stats
