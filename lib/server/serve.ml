(* The daemon: front-ends, signals and the drain state machine.

   Three front-ends feed one pool.  The stdio and socket front-ends
   share one NDJSON framing ([connection_loop]): the stdio front-end
   reads request lines from stdin and writes responses to stdout; the
   socket front-end serves connections on a Unix-domain socket, with
   responses written back to the submitting connection (behind a mutex
   — workers complete out of order).  The HTTP front-end serves
   loopback TCP connections through {!Gateway}.  Both listeners are one
   accept loop ([listen]) with one reader thread per connection.
   Threads do the blocking I/O; domains do the scanning — OCaml 5 runs
   both side by side, and a blocked thread costs no worker time.

   Every response, on every front-end, is serialized into one buffer
   and written with a single [Netio.write_all] call under the
   connection's mutex — one write syscall per response in the normal
   case, counted by [server_write_syscalls_total].

   Lifecycle:

     accepting --SIGTERM/SIGINT--> draining --in-flight done--> exit 0
                                       \--drain-timeout-------> exit 0

   Draining closes the listeners (no new connections), closes the pool
   queue (late submissions get an [overloaded] error), and waits for
   in-flight work up to [drain_timeout].  On a server with no
   listeners, EOF on stdin is a batch-mode drain trigger: every
   submitted request is answered, then the process exits 0. *)

type config = {
  socket : string option;
  http_port : int option;
  jobs : int;
  queue_capacity : int;
  drain_timeout : float;
  trace_dir : string option;
  max_request_bytes : int;
  cache_bytes : int;
  quota : (float * float) option;
}

let default_max_request_bytes = 8 * 1024 * 1024
let default_cache_bytes = 64 * 1024 * 1024

let is_blank line = String.trim line = ""

let handle_line pool line ~deliver =
  (* Read the clock before decoding so the intake span covers the parse;
     the builder itself can only be created after (its id and kind live
     inside the document). *)
  let t0 =
    if Telemetry.Trace.enabled () then Telemetry.Trace.now_ns () else 0
  in
  match Protocol.decode_request line with
  | Ok req ->
    let trace =
      match
        Telemetry.Trace.start ~at:t0 ~id:req.Protocol.id
          ~kind:(Protocol.kind_name req.Protocol.kind)
          ()
      with
      | None -> None
      | Some b ->
        Telemetry.Trace.add_span b Telemetry.Trace.Intake ~start:t0
          ~stop:(Telemetry.Trace.now_ns ());
        Some b
    in
    Pool.submit ?trace pool req ~deliver
  | Error (id, message) ->
    deliver (Protocol.Error_reply { id; error = Protocol.Invalid; message })

let too_large_reply ~max_request_bytes actual =
  Protocol.Error_reply
    {
      id = None;
      error = Protocol.Too_large;
      message =
        Printf.sprintf
          "request frame of %d bytes exceeds the %d-byte limit" actual
          max_request_bytes;
    }

(* --- NDJSON front-ends -------------------------------------------------------- *)

(* One NDJSON stream: requests read from [input], responses written to
   [output] — the same socket for a connection, stdin and stdout for
   the stdio front-end.  Returns at EOF on [input] once every accepted
   request has been answered; closing the descriptors is the
   caller's. *)
let connection_loop pool ~max_request_bytes ~input ~output =
  (* Responses may still be in flight when the client half-closes; the
     output stays open until every accepted request has been answered. *)
  let pending = Atomic.make 0 in
  let out_mutex = Mutex.create () in
  let deliver response =
    Fun.protect
      ~finally:(fun () -> Atomic.decr pending)
      (fun () ->
        let line = Protocol.encode_response response ^ "\n" in
        try Mutex.protect out_mutex (fun () -> Netio.write_all output line)
        with Unix.Unix_error _ -> ())
  in
  let process line =
    if not (is_blank line) then begin
      Atomic.incr pending;
      handle_line pool line ~deliver
    end
  in
  let reject actual =
    Atomic.incr pending;
    deliver (too_large_reply ~max_request_bytes actual)
  in
  (* [frame] carries the current frame's bytes across reads; each read
     is searched for newlines once, so framing stays linear in the
     bytes received however many reads a frame spans.  [discarding]
     means the current frame already exceeded the bound and was
     answered; its remaining bytes are dropped until the next newline
     resynchronizes framing.  [frame] is thus never longer than the
     bound: memory stays bounded no matter what the peer streams. *)
  let frame = Buffer.create 4096 in
  let discarding = ref false in
  let chunk = Bytes.create 65536 in
  let rec read_loop () =
    match Unix.read input chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      let data = Bytes.sub_string chunk 0 n in
      let rec split from =
        match String.index_from_opt data from '\n' with
        | Some j ->
          let size = Buffer.length frame + (j - from) in
          if !discarding then discarding := false
          else if size > max_request_bytes then reject size
          else begin
            Buffer.add_substring frame data from (j - from);
            process (Buffer.contents frame)
          end;
          Buffer.clear frame;
          split (j + 1)
        | None when !discarding -> ()
        | None ->
          (* no newline yet: the frame goes on in the next read *)
          let size = Buffer.length frame + (n - from) in
          if size > max_request_bytes then begin
            reject size;
            discarding := true;
            Buffer.clear frame
          end
          else Buffer.add_substring frame data from (n - from)
      in
      split 0;
      read_loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> read_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  read_loop ();
  if not !discarding then process (Buffer.contents frame);
  let rec await_deliveries () =
    if Atomic.get pending > 0 then begin
      Unix.sleepf 0.005;
      await_deliveries ()
    end
  in
  await_deliveries ()

(* --- listeners ------------------------------------------------------------ *)

(* Replies go out as soon as they are written: without TCP_NODELAY a
   pipelined reply waits behind the client's delayed ACK (~1 ms
   against ~170 us with the option set, over loopback).  Best-effort —
   a socket that rejects the option is still served. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* The one accept loop, for both front doors: binds and listens on
   [addr] and serves each accepted connection on its own thread with
   [serve ~peer fd], closing [fd] once [serve] returns.  [peer] is the
   peer address without the ephemeral port, so an HTTP client that
   reconnects keeps its quota bucket.  Returns the listening socket;
   closing it ends the loop. *)
let listen addr serve =
  let domain = Unix.domain_of_sockaddr addr in
  let tcp = domain <> PF_UNIX in
  let lfd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  if tcp then Unix.setsockopt lfd SO_REUSEADDR true;
  Unix.bind lfd addr;
  Unix.listen lfd 64;
  let connection (fd, peer) =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> serve ~peer fd)
  in
  let rec loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, addr ->
      if tcp then set_nodelay fd;
      let peer =
        match addr with
        | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
        | Unix.ADDR_UNIX p -> p
      in
      ignore (Thread.create connection (fd, peer));
      loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> () (* listener closed: drain started *)
  in
  ignore (Thread.create loop ());
  lfd

(* --- stale socket handling ------------------------------------------------- *)

let claim_unix_socket path =
  if not (Sys.file_exists path) then Ok ()
  else
    match (Unix.lstat path).Unix.st_kind with
    | exception Unix.Unix_error _ -> Ok () (* raced away; bind will tell *)
    | Unix.S_SOCK -> (
      (* Only a connect probe distinguishes a crashed daemon's leftover
         from a live one: the file looks identical either way. *)
      let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (ADDR_UNIX path) with
        | () -> Ok true
        | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> Ok false
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      match live with
      | Ok true ->
        Error
          (Printf.sprintf "a live daemon is already serving on %s" path)
      | Ok false ->
        (* stale: the owning process is gone, nothing answers *)
        (try Sys.remove path with Sys_error _ -> ());
        Ok ()
      | Error msg ->
        Error (Printf.sprintf "cannot probe existing socket %s: %s" path msg))
    | _ ->
      Error
        (Printf.sprintf "%s exists and is not a socket; refusing to remove it"
           path)

(* --- lifecycle ------------------------------------------------------------ *)

let run ?pack ?warm_boot ~scanner config =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Option.map claim_unix_socket config.socket with
  | Some (Error message) ->
    prerr_endline ("serve: " ^ message);
    1
  | None | Some (Ok ()) ->
    let stop = Atomic.make false in
    let on_signal _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    (* The daemon always collects: the [stats] request is the whole
       observability story, and per-domain collectors keep the cost off
       the worker hot path.  The flight recorder is likewise always on —
       fixed-size per-domain rings, overwrite-oldest — so the [trace]
       request and the [stats] latency breakdown work on any live
       daemon, not just one restarted with a flag. *)
    Telemetry.install (Telemetry.create ());
    Telemetry.Trace.enable ();
    let rcache =
      if config.cache_bytes <= 0 then None
      else
        (* The cache is valid for exactly one rule catalog; its salt is
           the catalog's fingerprint however the plan was built. *)
        let salt =
          match pack with
          | Some (_, catalog_hash) -> catalog_hash
          | None -> Rulepack.fingerprint (Patchitpy.Scanner.rules scanner)
        in
        Some (Rcache.create ~max_bytes:config.cache_bytes ~salt ())
    in
    let pool =
      Pool.create ?pack ?rcache ?warm_boot ~jobs:config.jobs
        ~queue_capacity:config.queue_capacity ~scanner ()
    in
    let max_request_bytes = config.max_request_bytes in
    let stdin_eof = Atomic.make false in
    ignore
      (Thread.create
         (fun () ->
           connection_loop pool ~max_request_bytes ~input:Unix.stdin
             ~output:Unix.stdout;
           Atomic.set stdin_eof true)
         ());
    let listeners =
      List.filter_map Fun.id
        [
          Option.map
            (fun path ->
              listen (ADDR_UNIX path) (fun ~peer:_ fd ->
                  connection_loop pool ~max_request_bytes ~input:fd ~output:fd))
            config.socket;
          Option.map
            (fun port ->
              let quota =
                Option.map
                  (fun (rate, burst) -> Quota.create ~rate ~burst ())
                  config.quota
              in
              let limits =
                { Http.default_limits with max_body_bytes = max_request_bytes }
              in
              let gateway = Gateway.create ?quota ~limits ~pool () in
              listen
                (ADDR_INET (Unix.inet_addr_loopback, port))
                (Gateway.handle_connection gateway))
            config.http_port;
        ]
    in
    let rec serve_until_stop () =
      if Atomic.get stop then ()
      else if
        listeners = [] && Atomic.get stdin_eof
        && Pool.pending pool = 0
      then () (* stdio batch mode: all input answered *)
      else begin
        (try Unix.sleepf 0.05 with Unix.Unix_error (EINTR, _, _) -> ());
        serve_until_stop ()
      end
    in
    serve_until_stop ();
    List.iter
      (fun lfd -> try Unix.close lfd with Unix.Unix_error _ -> ())
      listeners;
    Option.iter
      (fun path -> try Sys.remove path with Sys_error _ -> ())
      config.socket;
    let (_drained : bool) =
      Pool.shutdown ~drain_timeout:config.drain_timeout pool
    in
    (* Workers have quiesced (or been abandoned past the drain budget);
       dump whatever the flight recorder still holds.  Best-effort: a
       failed dump must not turn a clean drain into a non-zero exit. *)
    (match config.trace_dir with
    | None -> ()
    | Some dir ->
      (try
         (try Unix.mkdir dir 0o755
          with Unix.Unix_error (EEXIST, _, _) -> ());
         let records = Telemetry.Trace.records () in
         let write_file path contents =
           let oc = open_out path in
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () -> output_string oc contents)
         in
         let stem =
           Filename.concat dir (Printf.sprintf "serve-%d" (Unix.getpid ()))
         in
         write_file (stem ^ ".trace.json")
           (Telemetry.Trace.to_chrome records ^ "\n");
         write_file (stem ^ ".ndjson") (Telemetry.Trace.to_ndjson records)
       with _ -> ()));
    Telemetry.Trace.disable ();
    Telemetry.uninstall ();
    0
