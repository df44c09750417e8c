(* The daemon: front-ends, signals and the drain state machine.

   Three front-ends feed one pool.  The stdio front-end reads request
   lines from stdin and writes responses to stdout (behind a mutex —
   workers complete out of order).  The socket front-end accepts
   connections on a Unix-domain socket, one reader thread per
   connection, responses written back to the submitting connection.
   The HTTP front-end accepts loopback TCP connections and routes them
   through {!Gateway}.  Threads do the blocking I/O; domains do the
   scanning — OCaml 5 runs both side by side, and a blocked thread
   costs no worker time.

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
  cache_file : string option;
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

(* --- stdio front-end ------------------------------------------------------ *)

let stdio_loop pool ~max_request_bytes ~stdout_mutex ~stdin_eof =
  let deliver response =
    let line = Protocol.encode_response response ^ "\n" in
    Mutex.protect stdout_mutex (fun () -> Netio.write_all Unix.stdout line)
  in
  (try
     while true do
       let line = input_line stdin in
       if String.length line > max_request_bytes then
         deliver (too_large_reply ~max_request_bytes (String.length line))
       else if not (is_blank line) then handle_line pool line ~deliver
     done
   with End_of_file -> ());
  Atomic.set stdin_eof true

(* --- NDJSON socket front-end ----------------------------------------------- *)

let connection_loop pool ~max_request_bytes fd =
  (* Responses may still be in flight when the client half-closes; the
     fd stays open until every accepted request has been answered. *)
  let pending = Atomic.make 0 in
  let out_mutex = Mutex.create () in
  let deliver response =
    Fun.protect
      ~finally:(fun () -> Atomic.decr pending)
      (fun () ->
        let line = Protocol.encode_response response ^ "\n" in
        try Mutex.protect out_mutex (fun () -> Netio.write_all fd line)
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
  (* [discarding] means the current frame already exceeded the bound
     and was answered; its remaining bytes are dropped until the next
     newline resynchronizes framing.  The carried [leftover] is thus
     never longer than the bound: memory stays bounded no matter what
     the peer streams. *)
  let leftover = ref "" in
  let discarding = ref false in
  let chunk = Bytes.create 65536 in
  let rec read_loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      let data = !leftover ^ Bytes.sub_string chunk 0 n in
      let rec split = function
        | [] -> leftover := ""
        | [ tail ] ->
          if !discarding then leftover := ""
          else if String.length tail > max_request_bytes then begin
            reject (String.length tail);
            discarding := true;
            leftover := ""
          end
          else leftover := tail (* no newline yet: incomplete *)
        | line :: rest ->
          if !discarding then discarding := false
          else if String.length line > max_request_bytes then
            reject (String.length line)
          else process line;
          split rest
      in
      split (String.split_on_char '\n' data);
      read_loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> read_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  read_loop ();
  if not !discarding then process !leftover;
  let rec await_deliveries () =
    if Atomic.get pending > 0 then begin
      Unix.sleepf 0.005;
      await_deliveries ()
    end
  in
  await_deliveries ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let listener_loop pool ~max_request_bytes lfd =
  let rec loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      ignore
        (Thread.create (fun () -> connection_loop pool ~max_request_bytes fd) ());
      loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> () (* listener closed: drain started *)
  in
  loop ()

(* --- HTTP front-end -------------------------------------------------------- *)

(* Replies go out as soon as they are written: without TCP_NODELAY a
   pipelined reply waits behind the client's delayed ACK (~1 ms
   against ~170 us with the option set, over loopback).  Best-effort —
   a socket that rejects the option is still served. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let http_listener_loop gateway lfd =
  let rec loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, addr ->
      set_nodelay fd;
      (* The per-connection quota fallback identity is the peer
         address without the ephemeral port, so reconnecting does not
         mint a fresh bucket. *)
      let peer =
        match addr with
        | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
        | Unix.ADDR_UNIX p -> p
      in
      ignore
        (Thread.create
           (fun () -> Gateway.handle_connection gateway ~peer fd)
           ());
      loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ()

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
    (* Replay the previous run's snapshot before the first request can
       arrive, so a restarted daemon answers repeat traffic from its
       first second.  Refusals (fingerprint mismatch, corruption, no
       file yet) mean an ordinary cold cache, never a failed boot. *)
    (match (rcache, config.cache_file) with
    | Some cache, Some path when Sys.file_exists path -> (
      match Rcache.restore_snapshot cache ~path with
      | Ok n ->
        if n > 0 then
          Printf.eprintf "serve: restored %d cached result(s) from %s\n%!" n
            path
      | Error msg ->
        Printf.eprintf "serve: ignoring cache snapshot %s (%s); starting cold\n%!"
          path msg)
    | _ -> ());
    let pool =
      Pool.create ?pack ?rcache ?warm_boot ~jobs:config.jobs
        ~queue_capacity:config.queue_capacity ~scanner ()
    in
    let max_request_bytes = config.max_request_bytes in
    let stdin_eof = Atomic.make false in
    let stdout_mutex = Mutex.create () in
    ignore
      (Thread.create
         (fun () -> stdio_loop pool ~max_request_bytes ~stdout_mutex ~stdin_eof)
         ());
    let listener =
      match config.socket with
      | None -> None
      | Some path ->
        let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        Unix.bind lfd (ADDR_UNIX path);
        Unix.listen lfd 64;
        ignore
          (Thread.create
             (fun () -> listener_loop pool ~max_request_bytes lfd)
             ());
        Some (path, lfd)
    in
    let http_listener =
      match config.http_port with
      | None -> None
      | Some port ->
        let quota =
          Option.map
            (fun (rate, burst) -> Quota.create ~rate ~burst ())
            config.quota
        in
        let limits =
          { Http.default_limits with max_body_bytes = max_request_bytes }
        in
        let gateway = Gateway.create ?quota ~limits ~pool () in
        let lfd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
        Unix.setsockopt lfd SO_REUSEADDR true;
        Unix.bind lfd (ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen lfd 64;
        ignore (Thread.create (fun () -> http_listener_loop gateway lfd) ());
        Some lfd
    in
    let rec serve_until_stop () =
      if Atomic.get stop then ()
      else if
        listener = None && http_listener = None
        && Atomic.get stdin_eof
        && Pool.pending pool = 0
      then () (* stdio batch mode: all input answered *)
      else begin
        (try Unix.sleepf 0.05 with Unix.Unix_error (EINTR, _, _) -> ());
        serve_until_stop ()
      end
    in
    serve_until_stop ();
    (match listener with
    | Some (path, lfd) ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    (match http_listener with
    | Some lfd -> ( try Unix.close lfd with Unix.Unix_error _ -> ())
    | None -> ());
    let (_drained : bool) =
      Pool.shutdown ~drain_timeout:config.drain_timeout pool
    in
    (* Workers have quiesced, so the cache is stable: persist it for
       the next boot.  Best-effort, like the trace dump below — a
       failed snapshot must not turn a clean drain into a non-zero
       exit. *)
    (match (rcache, config.cache_file) with
    | Some cache, Some path -> (
      match Rcache.save_snapshot cache ~path with
      | Ok _ -> ()
      | Error msg ->
        Printf.eprintf "serve: could not save cache snapshot %s: %s\n%!" path
          msg)
    | _ -> ());
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
