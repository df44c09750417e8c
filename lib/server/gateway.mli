(** The HTTP/1.1 front door: routes requests into the {!Pool}.

    Endpoints:
    - [POST /v1/scan] — body is the source to scan; the response body
      is byte-identical to one-shot [patchitpy scan --json] for the
      same bytes (plus a trailing newline).  The file label comes from
      the [x-patchitpy-file] header (default ["-"]); an optional
      [x-patchitpy-deadline-steps] header bounds matcher steps.
    - [POST /v1/patch] — same shape over the patcher.
    - [GET /v1/health], [GET /v1/stats] — the pool's health and stats
      documents.
    - [GET /metrics] — the raw Prometheus text exposition.

    Scan and patch pass through the pool's result cache and, when a
    {!Quota.t} is configured, per-tenant admission: the tenant is the
    [x-patchitpy-tenant] header when present, else the per-connection
    identity the listener passed in.  Rejections are [429] with a
    [Retry-After] header.

    Pool error replies map onto status codes: [invalid] 400,
    [too_large] 413, [overloaded] 503, [timeout] 504, [error] 500;
    parser errors use {!Http.error_status} and close the connection
    (the byte stream is poisoned). *)

type t

val create : ?quota:Quota.t -> ?limits:Http.limits -> pool:Pool.t -> unit -> t

val handle_connection : t -> peer:string -> Unix.file_descr -> unit
(** Serves one connection to completion (keep-alive loop included);
    closing the descriptor is the caller's.  Runs on the calling
    thread; the listener spawns one thread per connection.  [peer] is the fallback tenant
    identity for quota accounting. *)
