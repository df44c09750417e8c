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

    Invalidation: {!invalidate} swaps the fingerprint salt and clears
    every shard.  Keys minted before the swap carry the old generation
    and are refused by {!add}, so a scan that raced the invalidation
    cannot resurrect a stale result.

    Instruments: [server_cache_hits_total], [server_cache_misses_total],
    [server_cache_insertions_total], [server_cache_evictions_total]. *)

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
    The key binds the current salt and generation. *)

val find : t -> key -> string option
(** The cached response body, promoting the entry to most recently
    used; [None] on miss. *)

val add : t -> key -> string -> unit
(** Caches a response body under [key], evicting least-recently-used
    entries while the shard is over budget.  Dropped silently when the
    body alone exceeds the shard budget or the key's generation is no
    longer current (an {!invalidate} happened since {!key}). *)

val invalidate : t -> salt:string -> unit
(** Swap to a new rule-pack fingerprint: clears every shard and bumps
    the generation so in-flight keys minted under the old salt cannot
    be inserted afterwards. *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  restored : int;  (** entries replayed from a snapshot at boot *)
  entries : int;
  bytes : int;  (** accounted bytes currently held, overhead included *)
  max_bytes : int;
  shards : int;
}

val stats : t -> stats

val save_snapshot : t -> path:string -> (int, string) result
(** Persists the cache — salt, generation and every entry (128-bit
    key + response body), checksummed — to [path] via
    {!Binio.save_atomic}, so a crash mid-write never leaves a torn
    snapshot.  Returns the number of entries written, or [Error] when
    any write fails (a full disk included); an existing [path] is then
    left untouched.  The serve drain path calls this best-effort on
    graceful shutdown. *)

val restore_snapshot : t -> path:string -> (int, string) result
(** Replays a {!save_snapshot} file into the cache, re-keying entries
    under the live generation, and counts them in [stats.restored] and
    [server_cache_restored_entries_total].  Refuses — [Error], cache
    untouched — a snapshot whose fingerprint salt differs from the
    cache's, and any truncated, corrupt or version-skewed file; the
    caller starts cold in every refusal case.  The whole file is
    validated before the first entry lands, so a forged tail cannot
    leave a half-replayed snapshot behind. *)
