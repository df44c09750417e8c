(** The content-hash result cache in front of the worker pool.

    AI code generators emit near-duplicate snippets at enormous rates,
    so the daemon keeps finished response bodies keyed by what produced
    them: the request body's XXH64, bound to the rule-pack fingerprint,
    the request kind, the file label and the request options.  A hit
    returns the exact bytes the scanner produced the first time —
    responses are deterministic for a fixed rule catalog — without
    touching a worker domain or the queue.

    The cache also decides what a miss does.  Every key it knows is
    either a cached body or an in-flight miss with the repeats waiting
    on it, so {!claim} answers "cached, in flight, or run it" in one
    step, and {!settle} closes the miss: it caches the leader's body
    and hands back the repeats to answer.

    Concurrency: one hashtable and one global LRU list under one
    mutex.  Probes run on the submitting front-end threads, which all
    live in the main domain and so never run in parallel with each
    other; only a worker domain's {!settle}, one per miss, can contend
    with them.  Keys are 128 bits (two independent XXH64 passes), so
    collisions are ignorable without storing or comparing request
    bodies.

    A cache is valid for one rule catalog: its salt is fixed when it is
    created, and the daemon creates it once at boot.

    Instruments: [server_cache_hits_total], [server_cache_misses_total],
    [server_cache_coalesced_total], [server_cache_insertions_total],
    [server_cache_evictions_total]. *)

type t

val create : max_bytes:int -> salt:string -> unit -> t
(** [max_bytes] is the whole-cache budget for cached response bytes
    plus a flat per-entry overhead; [salt] is the rule-pack fingerprint
    the cached results are valid for. *)

type key

val key :
  t -> kind:string -> file:string -> options:string -> body:string -> key
(** Hashes once for the whole request round trip: probe with the key,
    and insert the computed response under the same key after a miss.
    The key binds the cache's salt. *)

val find : t -> key -> string option
(** The cached response body, promoting the entry to most recently
    used; [None] on miss, an in-flight key included. *)

val add : t -> key -> string -> unit
(** Caches a response body under [key], replacing a cached one, and
    evicts least-recently-used entries while the cache is over budget.
    Dropped silently when the body alone exceeds the budget, and when
    [key] is in flight: its {!settle} fills it and its waiters stay. *)

type waiter = string * (Protocol.response -> unit)
(** A repeat's request id and delivery callback. *)

type claim =
  | Hit of string  (** the cached body; counted as a hit *)
  | Joined
      (** the key was in flight: the waiter now waits on it; counted
          as a miss and as coalesced *)
  | Lead
      (** nothing was cached or in flight: the key is now in flight
          and the caller runs the request, then calls {!settle};
          counted as a miss *)

val claim : t -> key -> waiter -> claim
(** Probes [key] and, on a miss, joins or opens its in-flight entry,
    all under the one lock.  The waiter is kept only when [Joined].
    An in-flight key holds no bytes, is not counted in [entries] and is
    never evicted. *)

val settle : t -> key -> Protocol.response -> waiter list
(** Closes the in-flight miss of [key]: a [Reply] body is cached as by
    {!add}, an [Error_reply] is not.  Returns the joined waiters,
    oldest first, for the caller to answer. *)

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
      (** misses that joined an in-flight miss of their key; a subset
          of [misses] *)
  insertions : int;
  evictions : int;
  entries : int;  (** cached bodies; in-flight keys are not counted *)
  bytes : int;  (** accounted bytes currently held, overhead included *)
  max_bytes : int;
}

val stats : t -> stats
