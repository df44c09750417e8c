(* The traced run: the workload's exact inputs replayed in process, on
   one domain, through each layer's public functions in the order the
   deployed program calls them.  Every call is one span (name, start,
   stop, parent, request id), kept in memory and written out at the end.
   The spans are recorded here, around the calls; the program itself is
   not instrumented. *)

module W = Workload

type span = {
  name : string;
  req : int;  (** shared by every span of one request; -1 off the path *)
  parent : int;  (** index of the enclosing span; -1 for a root *)
  start : int;
  mutable stop : int;
  bytes : int;  (** input bytes the call worked on, where that means something *)
}

let spans : span array ref = ref [||]
let count = ref 0

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

(* The root span of the request being replayed, and its id. *)
let current = ref (-1, -1)

let with_root name ~req f =
  let i =
    push { name; req; parent = -1; start = Proc.now_ns (); stop = 0; bytes = 0 }
  in
  let saved = !current in
  current := (i, req);
  Fun.protect
    ~finally:(fun () ->
      !spans.(i).stop <- Proc.now_ns ();
      current := saved)
    f

let span ?(bytes = 0) name f =
  let parent, req = !current in
  let i = push { name; req; parent; start = Proc.now_ns (); stop = 0; bytes } in
  let r = f () in
  !spans.(i).stop <- Proc.now_ns ();
  r

(* Roots of spans that belong to no request: layers measured on the
   workload's inputs although the workload's own path does not cross
   them.  They count in the per-layer figures, never in the ledger. *)
let off_path f = with_root "offpath" ~req:(-1) f

(* Self time of every span: its duration minus what its children cover
   (children of one parent never overlap, they run one after another). *)
let self_ns () =
  let n = !count in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + (s.stop - s.start)
  done;
  Array.init n (fun i -> !spans.(i).stop - !spans.(i).start - child.(i))

(* Self times in microseconds of every span called [name]. *)
let layer_us self name =
  let acc = ref [] in
  for i = !count - 1 downto 0 do
    if !spans.(i).name = name then acc := (float_of_int self.(i) /. 1e3) :: !acc
  done;
  Array.of_list !acc

let layer_bytes name =
  let acc = ref 0 in
  for i = 0 to !count - 1 do
    if !spans.(i).name = name then acc := !acc + !spans.(i).bytes
  done;
  float_of_int !acc

(* Mean over roots called [root] of the summed self time of their layer
   spans, in microseconds: what the named layers account for in one
   request (or one command) of that kind. *)
let accounted_us self root =
  let roots = ref 0 and total = ref 0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.parent < 0 && s.name = root then incr roots
    else if s.parent >= 0 && !spans.(s.parent).name = root then
      total := !total + self.(i)
  done;
  Stats.ratio (float_of_int !total /. 1e3) (float_of_int !roots)

(* One span per line: name, request id, parent index, start and stop in
   monotonic nanoseconds, tab-separated; a span's index is its line
   number from 0. *)
let write_tsv path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      for i = 0 to !count - 1 do
        let s = !spans.(i) in
        Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" s.name s.req s.parent s.start
          s.stop
      done)

(* --- the layers ------------------------------------------------------------ *)

let json_ct = ("content-type", "application/json")

(* The worker's computation: scanner or patcher, then jsonout. *)
let compute scanner kind ~file body =
  let bytes = String.length body in
  match kind with
  | W.Scan ->
    let findings, warnings =
      span ~bytes "scanner.scan" (fun () ->
          Patchitpy.Scanner.scan_with_warnings scanner body)
    in
    span "jsonout.scan_json" (fun () ->
        Patchitpy.Jsonout.findings_to_json ~warnings ~file findings)
  | W.Patch ->
    let result =
      span ~bytes "patcher.patch" (fun () -> Patchitpy.Patcher.patch ~scanner body)
    in
    span "jsonout.patch_json" (fun () ->
        Patchitpy.Jsonout.patch_to_json ~file result)

let root_name prefix (r : W.request) = prefix ^ "." ^ W.kind_name r.kind

exception Diverged of string

(* One daemon request, in the order the daemon calls the layers: front
   door decode, cache key and probe, on a miss the worker's computation
   and the cache insert, then the front door encode.  [expect] is the
   oracle's body; a replay that disagrees with it aborts the run. *)
let serve_request ~proto ~scanner ~cache k (r : W.request) expect =
  with_root (root_name "request" r) ~req:k @@ fun () ->
  let kind, file, body =
    match proto with
    | Openloop.Http -> (
      let wire = Openloop.http_wire r in
      match
        span "http.parse" (fun () -> Http.read_request (Http.conn_of_string wire))
      with
      | Some (Ok q) ->
        ( W.kind_name r.kind,
          Option.value ~default:"-" (Http.header q "x-patchitpy-file"),
          q.Http.body )
      | _ -> raise (Diverged "http parse"))
    | Openloop.Ndjson -> (
      let line =
        Server.Protocol.encode_request
          (Openloop.protocol_request ~id:(string_of_int k) r)
      in
      match span "protocol.decode" (fun () -> Server.Protocol.decode_request line) with
      | Ok { kind = Server.Protocol.Scan { file; source }; _ } -> ("scan", file, source)
      | Ok { kind = Server.Protocol.Patch { file; source }; _ } ->
        ("patch", file, source)
      | _ -> raise (Diverged "protocol decode"))
  in
  let key =
    span "rcache.key" (fun () ->
        Server.Rcache.key cache ~kind ~file ~options:"" ~body)
  in
  let json =
    match span "rcache.find" (fun () -> Server.Rcache.find cache key) with
    | Some json -> json
    | None ->
      let json = compute scanner r.kind ~file body in
      span "rcache.add" (fun () -> Server.Rcache.add cache key json);
      json
  in
  if not (String.equal json expect) then raise (Diverged "reply bytes");
  match proto with
  | Openloop.Http ->
    ignore
      (span "http.respond" (fun () ->
           Http.response ~headers:[ json_ct ] ~status:200 ~body:(json ^ "\n") ()))
  | Openloop.Ndjson ->
    ignore
      (span "protocol.encode" (fun () ->
           Server.Protocol.encode_response
             (Server.Protocol.Reply
                { id = string_of_int k; kind; body = json })))

(* One one-shot CLI command over the whole batch directory, in the order
   the CLI calls the layers: load the pack, then per file the scanner or
   patcher and jsonout. *)
let batch_command ~pack_path ~kind k (files : (string * string) list) =
  with_root ("command." ^ W.kind_name kind) ~req:k @@ fun () ->
  match span "rulepack.load" (fun () -> Rulepack.load ~path:pack_path) with
  | Error e -> raise (Diverged (Rulepack.error_to_string e))
  | Ok pack ->
    let scanner = Rulepack.scanner pack `Python in
    List.iter
      (fun (file, body) -> ignore (compute scanner kind ~file body))
      files

(* Layers the workload's own path does not cross, fed the same inputs:
   the HTTP codec, the NDJSON codec, the result cache on its own. *)
let off_path_http (reqs : (W.request * string) array) =
  off_path @@ fun () ->
  Array.iter
    (fun (r, expect) ->
      let wire = Openloop.http_wire r in
      ignore
        (span "http.parse" (fun () -> Http.read_request (Http.conn_of_string wire)));
      ignore
        (span "http.respond" (fun () ->
             Http.response ~headers:[ json_ct ] ~status:200
               ~body:(expect ^ "\n") ())))
    reqs

let off_path_protocol (reqs : (W.request * string) array) =
  off_path @@ fun () ->
  Array.iteri
    (fun k (r, expect) ->
      let line =
        Server.Protocol.encode_request (Openloop.protocol_request ~id:(string_of_int k) r)
      in
      ignore (span "protocol.decode" (fun () -> Server.Protocol.decode_request line));
      ignore
        (span "protocol.encode" (fun () ->
             Server.Protocol.encode_response
               (Server.Protocol.Reply
                  { id = string_of_int k; kind = W.kind_name r.kind; body = expect }))))
    reqs

let off_path_rcache ~salt (reqs : (W.request * string) array) =
  let cache =
    Server.Rcache.create ~max_bytes:Server.Serve.default_cache_bytes ~salt ()
  in
  off_path @@ fun () ->
  Array.iter
    (fun ((r : W.request), expect) ->
      let key =
        span "rcache.key" (fun () ->
            Server.Rcache.key cache ~kind:(W.kind_name r.kind) ~file:r.file
              ~options:"" ~body:r.body)
      in
      match span "rcache.find" (fun () -> Server.Rcache.find cache key) with
      | Some _ -> ()
      | None -> span "rcache.add" (fun () -> Server.Rcache.add cache key expect))
    reqs

(* [Pool.execute] serially on the calling domain: the worker's whole
   request envelope, scanner and jsonout included. *)
let off_path_pool ~scanner (reqs : (W.request * string) array) =
  let pool = Server.Pool.create ~jobs:1 ~queue_capacity:1 ~scanner () in
  Fun.protect
    ~finally:(fun () -> ignore (Server.Pool.shutdown pool))
    (fun () ->
      off_path @@ fun () ->
      Array.iteri
        (fun k (r, _) ->
          ignore
            (span ~bytes:(String.length r.W.body) "pool.execute" (fun () ->
                 Server.Pool.execute pool (Openloop.protocol_request ~id:(string_of_int k) r))))
        reqs)

(* Pack load and per-domain prewarm, each timed on a fresh load. *)
let off_path_pack ~pack_path ~rounds =
  off_path @@ fun () ->
  for _ = 1 to rounds do
    match span "rulepack.load" (fun () -> Rulepack.load ~path:pack_path) with
    | Error e -> raise (Diverged (Rulepack.error_to_string e))
    | Ok pack -> ignore (span "rulepack.prewarm" (fun () -> Rulepack.prewarm pack))
  done
