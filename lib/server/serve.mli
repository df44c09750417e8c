(** The [patchitpy serve] daemon loop.

    Accepts {!Protocol} request lines over stdin/stdout and, when
    configured, a Unix-domain socket; and HTTP/1.1 on a loopback TCP
    port ({!Gateway}).  All front-ends dispatch to one {!Pool} of
    worker domains sharing one compiled scan plan — behind one
    content-hash result cache when [cache_bytes] > 0 — and write
    framed responses back to the submitting front-end as requests
    complete (out-of-order relative to submission — correlate by id).
    Each response is one buffer and, normally, one [write] syscall
    ([server_write_syscalls_total] counts them).

    Shutdown: SIGTERM or SIGINT stops accepting (listeners closed,
    socket unlinked, queue closed) and drains in-flight work for up to
    [drain_timeout] seconds before returning 0.  With no listeners
    configured, EOF on stdin triggers the same drain once every
    submitted request has been answered — one-shot batch mode. *)

type config = {
  socket : string option;  (** Unix-domain socket path, unlinked on exit *)
  http_port : int option;  (** HTTP/1.1 gateway port, bound on loopback *)
  jobs : int;  (** worker domains *)
  queue_capacity : int;  (** bounded submission queue slots *)
  drain_timeout : float;  (** seconds to wait for in-flight work on shutdown *)
  trace_dir : string option;
      (** when set, the flight recorder's surviving records are dumped
          here on shutdown: [serve-<pid>.trace.json] (Chrome
          [trace_event], Perfetto-loadable) and [serve-<pid>.ndjson]
          (compact [patchitpy-trace/1] lines) *)
  max_request_bytes : int;
      (** per-frame byte bound, all front-ends: an NDJSON line over it
          gets a typed [too_large] error reply (framing resynchronizes
          at the next newline), an HTTP body over it a 413 *)
  cache_bytes : int;
      (** result-cache byte budget; 0 disables the cache *)
  quota : (float * float) option;
      (** HTTP per-tenant token bucket as (rate per second, burst);
          [None] admits everything *)
}

val default_max_request_bytes : int
(** 8 MiB. *)

val default_cache_bytes : int
(** 64 MiB. *)

val claim_unix_socket : string -> (unit, string) result
(** Makes [path] bindable: nothing there is fine; a socket file no
    live daemon answers on (connect probe refused) is stale and gets
    removed; a live daemon or a non-socket file is an [Error] — the
    daemon refuses to steal either. *)

val set_nodelay : Unix.file_descr -> unit
(** Sets [TCP_NODELAY] on an accepted HTTP connection, so a reply is
    sent as soon as it is written instead of waiting behind the
    client's delayed ACK.  Errors (a socket without the option) are
    ignored. *)

val connection_loop :
  Pool.t ->
  max_request_bytes:int ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit
(** Serves one NDJSON stream to completion: request lines read from
    [input] until EOF, responses written to [output], returning once
    every accepted request has been answered.  A frame over
    [max_request_bytes] gets one [too_large] reply and is discarded up
    to the next newline without being buffered, so memory stays
    bounded whatever the peer sends.  Closes neither descriptor.  The
    socket front-end runs it on a thread per accepted connection
    ([input] = [output]), the stdio front-end on stdin/stdout; exposed
    so tests can drive it over a socketpair or pipes without a
    listener. *)

val run :
  ?pack:int * string ->
  ?warm_boot:(unit -> unit) ->
  scanner:Patchitpy.Scanner.t ->
  config ->
  int
(** Blocks until shutdown; returns the process exit code: 0 after a
    graceful or timed-out drain, 1 when the socket path could not be
    claimed ({!claim_unix_socket}).  Installs a process-wide telemetry
    sink and SIGTERM/SIGINT/SIGPIPE handlers, and enables the
    {!Telemetry.Trace} flight recorder for the daemon's lifetime: every
    request is traced intake → cache lookup → queue wait → dispatch →
    scan/patch phases → serialize → write into fixed-size per-domain
    rings (overwrite-oldest), queryable live via the [trace] request
    kind and summarized by the [stats] latency breakdown. *)
