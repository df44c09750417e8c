(* Processes and sockets: running the one-shot CLI, the daemon's
   lifecycle, a blocking HTTP client, and the receive buffer the load
   generator shares with it. *)

let now_ns = Telemetry.now_ns

external wait4 : int -> int * int = "perfbench_wait4"
external pin : int -> bool = "perfbench_pin"

(* Serve workloads on a host with two or more CPUs run the daemon on the
   second CPU and the load generator on the first, so the two never
   share a core and every run places them alike. *)
let generator_cpu = 0
let daemon_cpu = 1

let with_dev_null f =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* --- the one-shot CLI ------------------------------------------------------ *)

type cli_run = {
  code : int;  (** exit status, or minus the killing signal *)
  out : string;  (** everything written to stdout *)
  wall_ns : int;  (** spawn to reaped *)
  maxrss_kib : int;  (** peak resident set size *)
}

let run_cli cli args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    with_dev_null (fun null ->
        Unix.create_process cli (Array.of_list (cli :: args)) null w
          Unix.stderr)
  in
  Unix.close w;
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close r;
  let code, maxrss_kib = wait4 pid in
  { code; out = Buffer.contents buf; wall_ns = now_ns () - t0; maxrss_kib }

(* --- receive buffer -------------------------------------------------------- *)

type inbuf = { mutable b : Bytes.t; mutable lo : int; mutable hi : int }

let inbuf () = { b = Bytes.create 65536; lo = 0; hi = 0 }

(* One read into the buffer; the byte count, 0 at end of stream. *)
let fill ib fd =
  let want = 65536 in
  if ib.hi + want > Bytes.length ib.b then begin
    let live = ib.hi - ib.lo in
    let nb =
      if live + want > Bytes.length ib.b then Bytes.create (2 * (live + want))
      else ib.b
    in
    Bytes.blit ib.b ib.lo nb 0 live;
    ib.b <- nb;
    ib.lo <- 0;
    ib.hi <- live
  end;
  let n = Unix.read fd ib.b ib.hi want in
  ib.hi <- ib.hi + n;
  n

let find ib s from =
  let m = String.length s in
  let rec go i =
    if i + m > ib.hi then -1
    else if Bytes.get ib.b i = s.[0] && Bytes.sub_string ib.b i m = s then i
    else go (i + 1)
  in
  go from

exception Bad_response of string

(* The next complete HTTP response as (status, body), consuming it; None
   while incomplete.  Enough of HTTP for the gateway, which always sends
   content-length as its last header. *)
let take_http ib =
  match find ib "\r\n\r\n" ib.lo with
  | -1 -> None
  | h ->
    let status =
      match int_of_string_opt (Bytes.sub_string ib.b (ib.lo + 9) 3) with
      | Some s -> s
      | None -> raise (Bad_response "status line")
    in
    let cl = find ib "content-length: " ib.lo in
    if cl < 0 || cl > h then raise (Bad_response "no content-length");
    let len =
      match int_of_string_opt (Bytes.sub_string ib.b (cl + 16) (h - cl - 16)) with
      | Some n -> n
      | None -> raise (Bad_response "content-length")
    in
    let stop = h + 4 + len in
    if stop > ib.hi then None
    else begin
      let body = Bytes.sub_string ib.b (h + 4) len in
      ib.lo <- stop;
      Some (status, body)
    end

(* The next complete NDJSON line, without its newline. *)
let take_line ib =
  match Bytes.index_from_opt ib.b ib.lo '\n' with
  | Some i when i < ib.hi ->
    let line = Bytes.sub_string ib.b ib.lo (i - ib.lo) in
    ib.lo <- i + 1;
    Some line
  | Some _ | None -> None

(* --- blocking HTTP client -------------------------------------------------- *)

let http_request ~meth ~path ?(headers = []) body =
  let b = Buffer.create (String.length body + 128) in
  Printf.bprintf b "%s %s HTTP/1.1\r\nhost: localhost\r\n" meth path;
  List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
  Printf.bprintf b "content-length: %d\r\n\r\n" (String.length body);
  Buffer.add_string b body;
  Buffer.contents b

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

type client = { fd : Unix.file_descr; ib : inbuf }

let connect_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let client port = { fd = connect_tcp port; ib = inbuf () }
let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request, one response, in lockstep. *)
let call c ~meth ~path ?headers body =
  write_all c.fd (http_request ~meth ~path ?headers body) 0;
  let rec await () =
    match take_http c.ib with
    | Some r -> r
    | None ->
      if fill c.ib c.fd = 0 then raise (Bad_response "connection closed");
      await ()
  in
  await ()

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

(* --- the daemon ------------------------------------------------------------ *)

type daemon = { pid : int; port : int; socket : string; log : string }

(* Daemons still running when the benchmark exits — by error or by
   signal — are killed and reaped, so no run leaves a process behind. *)
let live : int list ref = ref []

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* A benchmark stopped by a signal still stops its daemons: [exit] runs
   the [at_exit] handler. *)
let () =
  at_exit reap_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

exception Daemon_failed of string

let log_tail d =
  match In_channel.with_open_bin d.log In_channel.input_all with
  | s ->
    let n = String.length s in
    if n > 2000 then String.sub s (n - 2000) 2000 else s
  | exception Sys_error _ -> ""

(* Spawns [patchitpy serve] on a free loopback port and a socket in
   [dir], and returns it with its set-up time: spawn to the first 200
   from /v1/health.  [pinned] puts it on [daemon_cpu]. *)
let spawn_daemon ?(pinned = false) ~cli ~pack ~dir () =
  let port = free_port () in
  let socket = Filename.concat dir "d.sock" in
  let log = Filename.concat dir "daemon.log" in
  let t0 = now_ns () in
  if pinned then ignore (pin daemon_cpu);
  let pid =
    with_dev_null (fun null ->
        let logfd =
          Unix.openfile log
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> Unix.close logfd)
          (fun () ->
            Unix.create_process cli
              [|
                cli; "serve"; "--http"; string_of_int port; "--socket"; socket;
                "--jobs"; "1"; "--rule-pack"; pack;
              |]
              null null logfd))
  in
  if pinned then ignore (pin generator_cpu);
  live := pid :: !live;
  let d = { pid; port; socket; log } in
  let deadline = t0 + 60_000_000_000 in
  let rec probe () =
    let ready =
      match client port with
      | c ->
        Fun.protect
          ~finally:(fun () -> close_client c)
          (fun () ->
            match call c ~meth:"GET" ~path:"/v1/health" "" with
            | 200, _ -> true
            | _ -> false
            | exception (Bad_response _ | Unix.Unix_error _) -> false)
      | exception Unix.Unix_error _ -> false
    in
    if ready then now_ns () - t0
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        raise (Daemon_failed ("daemon exited during start-up: " ^ log_tail d)));
      if now_ns () > deadline then
        raise (Daemon_failed "daemon not ready after 60 s");
      Unix.sleepf 0.0005;
      probe ()
    end
  in
  let setup_ns = probe () in
  (d, setup_ns)

(* SIGTERM, then the daemon must drain, exit 0 and unlink its socket. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if now_ns () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        Error "daemon ignored SIGTERM for 20 s"
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "daemon exited %d" n)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "daemon ended by signal %d" s)
  in
  let r = wait () in
  live := List.filter (( <> ) d.pid) !live;
  match r with
  | Error _ as e -> e
  | Ok () when Sys.file_exists d.socket -> Error "daemon left its socket behind"
  | Ok () -> Ok ()

(* CPU seconds a live process has used, user and system, from /proc. *)
let cpu_s pid =
  let stat =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  (* Fields after the parenthesised command name; utime and stime are the
     12th and 13th of them, in clock ticks of 1/100 s. *)
  let rest =
    String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  match String.split_on_char ' ' rest with
  | fields when List.length fields > 12 ->
    float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)
    |> fun ticks -> ticks /. 100.
  | _ -> 0.

(* Peak resident set size of a live process, from /proc. *)
let vm_hwm_kib pid =
  let lines =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
    |> String.split_on_char '\n'
  in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kib :: _ -> int_of_string_opt kib
        | [] -> None)
      | _ -> None)
    lines
  |> Option.value ~default:0
