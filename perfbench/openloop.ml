(* The load generator: one thread and one [Unix.select] loop over a few
   persistent connections.  Open loop, request i is due at start + i/rate
   and is issued when due whether or not earlier replies are outstanding:
   NDJSON lines go out at once and replies are matched by id; HTTP
   requests queue in the generator until a keep-alive connection is free
   (see [backlog]).  Latency runs from the due time, so a stall is charged
   to every request it delays; lateness is how far behind schedule the
   generator itself got to a request.  Closed loop, a request is due as
   soon as fewer than [depth] per connection are in flight, and latency
   runs from its send.  Every reply is byte-compared with the oracle's. *)

type proto = Http | Ndjson

type pacing =
  | Open of float  (** requests per second *)
  | Closed of int
      (** requests in flight per connection; HTTP always keeps one *)

type item = {
  req : Workload.request;
  json : string;  (** the oracle's reply body, shared between repeats *)
}

(* Wire forms of a request.  A window encodes all of its requests before
   it opens, so the generator's own cost per request stays small. *)
let http_wire (r : Workload.request) =
  Proc.http_request ~meth:"POST"
    ~path:("/v1/" ^ Workload.kind_name r.kind)
    ~headers:[ ("x-patchitpy-file", r.file) ]
    r.body

let protocol_request ~id (r : Workload.request) =
  let kind =
    match r.kind with
    | Workload.Scan -> Server.Protocol.Scan { file = r.file; source = r.body }
    | Workload.Patch -> Server.Protocol.Patch { file = r.file; source = r.body }
  in
  { Server.Protocol.id; deadline_steps = None; kind }

let ndjson_wire i r =
  Server.Protocol.encode_request (protocol_request ~id:(string_of_int i) r)
  ^ "\n"

(* The reply line the daemon must send for request [i]: the success
   envelope of {!Server.Protocol.encode_response} around the oracle's
   body, which comes last. *)
let envelope_prefix i (r : Workload.request) =
  Printf.sprintf "{\"schema\":\"%s\",\"id\":\"%d\",\"ok\":true,\"kind\":\"%s\",\"body\":"
    Server.Protocol.schema i (Workload.kind_name r.kind)

(* [s] holds [t] at [off]. *)
let holds_at s off t =
  let n = String.length t in
  off + n <= String.length s
  &&
  let rec go k = k >= n || (s.[off + k] = t.[k] && go (k + 1)) in
  go 0

let http_ok item body =
  String.length body = String.length item.json + 1
  && holds_at body 0 item.json
  && body.[String.length item.json] = '\n'

let ndjson_ok ~prefix item line =
  let p = String.length prefix and j = String.length item.json in
  String.length line = p + j + 1
  && holds_at line 0 prefix && holds_at line p item.json
  && line.[p + j] = '}'

type result = {
  latency_ns : int array;  (** due to reply; -1 when the request failed *)
  late_ns : int array;  (** due to hand-off; -1 when never sent *)
  failed : int;
      (** transport errors, refusals, error replies and wrong bytes *)
  wrong : int;  (** 200/ok replies whose bytes differ from the oracle *)
  replies : int;  (** replies received, error replies included *)
  span_ns : int;  (** the first due time to the last reply *)
}

type conn = {
  fd : Unix.file_descr;
  ib : Proc.inbuf;
  out : string Queue.t;  (* whole messages not yet fully written *)
  mutable off : int;  (* bytes of the queue head already written *)
  fifo : int Queue.t;  (* HTTP: requests awaiting replies, in order *)
  mutable dead : bool;
}

let id_prefix =
  Printf.sprintf "{\"schema\":\"%s\",\"id\":\"" Server.Protocol.schema

(* The request index an NDJSON reply line answers, from its id. *)
let reply_index line =
  let p = String.length id_prefix in
  if String.length line <= p || String.sub line 0 p <> id_prefix then None
  else
    match String.index_from_opt line p '"' with
    | None -> None
    | Some q -> int_of_string_opt (String.sub line p (q - p))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let run ~proto ~connect ~conns ~pacing ~(items : item array) ~drain_s () =
  let n = Array.length items in
  let cs =
    Array.init conns (fun _ ->
        let fd = connect () in
        Unix.set_nonblock fd;
        {
          fd;
          ib = Proc.inbuf ();
          out = Queue.create ();
          off = 0;
          fifo = Queue.create ();
          dead = false;
        })
  in
  let wires =
    Array.mapi
      (fun i it ->
        match proto with
        | Http -> http_wire it.req
        | Ndjson -> ndjson_wire i it.req)
      items
  in
  let prefixes =
    match proto with
    | Http -> [||]
    | Ndjson -> Array.mapi (fun i it -> envelope_prefix i it.req) items
  in
  let latency = Array.make n (-1) and late = Array.make n (-1) in
  let settled = Array.make n false and sent = Array.make n (-1) in
  let outstanding = ref 0 and wrong = ref 0 and last_reply = ref 0 in
  let start = Proc.now_ns () + 2_000_000 in
  (* Closed loop, a request falls due when it is issued. *)
  let issued = Array.make n start in
  let due, deadline =
    match pacing with
    | Open rate ->
      let interval = 1e9 /. rate in
      let due i = start + int_of_float (float_of_int i *. interval) in
      (due, due (max 0 (n - 1)) + int_of_float (drain_s *. 1e9))
    | Closed _ -> ((fun i -> issued.(i)), start + int_of_float (drain_s *. 1e9))
  in
  let in_flight_cap =
    match pacing with Open _ -> max_int | Closed d -> conns * max 1 d
  in
  let settle i ~ok ~is_wrong now =
    if i >= 0 && i < n && (not settled.(i)) && sent.(i) >= 0 then begin
      settled.(i) <- true;
      decr outstanding;
      last_reply := now;
      if ok then latency.(i) <- now - due i;
      if is_wrong then incr wrong
    end
  in
  let kill c =
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let rec write_out c =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some s -> (
      let len = String.length s - c.off in
      match Unix.write_substring c.fd s c.off len with
      | k when k = len ->
        ignore (Queue.pop c.out);
        c.off <- 0;
        write_out c
      | k -> c.off <- c.off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_out c
      | exception Unix.Unix_error _ -> kill c)
  in
  (* Everything queued on a connection goes out in one write. *)
  let flush c =
    if Queue.length c.out > 1 then begin
      let b = Buffer.create 65536 in
      Queue.iter
        (fun s ->
          Buffer.add_substring b s c.off (String.length s - c.off);
          c.off <- 0)
        c.out;
      Queue.clear c.out;
      Queue.add (Buffer.contents b) c.out
    end;
    write_out c
  in
  let parse c now =
    match proto with
    | Http ->
      let rec go () =
        match Proc.take_http c.ib with
        | None -> ()
        | Some (status, body) -> (
          match Queue.take_opt c.fifo with
          | None -> kill c
          | Some i ->
            let ok = status = 200 && http_ok items.(i) body in
            settle i ~ok ~is_wrong:(status = 200 && not ok) now;
            go ())
        | exception Proc.Bad_response _ -> kill c
      in
      go ()
    | Ndjson ->
      let rec go () =
        match Proc.take_line c.ib with
        | None -> ()
        | Some line ->
          (match reply_index line with
          | None -> ()
          | Some i when i < 0 || i >= n -> ()
          | Some i ->
            let ok = ndjson_ok ~prefix:prefixes.(i) items.(i) line in
            settle i ~ok
              ~is_wrong:((not ok) && not (contains line "\"ok\":false"))
              now);
          go ()
      in
      go ()
  in
  (* NDJSON lines are written once per turn of the loop, after every
     request that fell due is queued. *)
  let send c i =
    sent.(i) <- Proc.now_ns ();
    Queue.add wires.(i) c.out;
    if proto = Http then begin
      Queue.add i c.fifo;
      flush c
    end
  in
  (* HTTP requests that fell due wait here, in order, for a connection
     with nothing in flight.  The gateway's accepted sockets keep Nagle's
     algorithm on, so a pipelined reply waits for the client's delayed
     ACK of the previous one; one request in flight per connection keeps
     that stall out of every figure.  The wait in this queue still counts,
     since latency runs from the due time. *)
  let backlog = Queue.create () in
  let dispatch () =
    Array.iter
      (fun c ->
        if (not c.dead) && Queue.is_empty c.fifo && not (Queue.is_empty backlog)
        then send c (Queue.pop backlog))
      cs
  in
  let read c =
    match Proc.fill c.ib c.fd with
    | 0 -> kill c
    | _ ->
      parse c (Proc.now_ns ());
      if proto = Http then dispatch ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> kill c
  in
  let next = ref 0 in
  let rec loop () =
    let now = Proc.now_ns () in
    while
      !next < n
      && (match pacing with
         | Open _ -> due !next <= now
         | Closed _ -> now >= start && !outstanding < in_flight_cap)
    do
      let i = !next in
      issued.(i) <- Proc.now_ns ();
      (* Lateness is the generator's own: how long after its due time the
         loop got to the request. *)
      late.(i) <- max 0 (Proc.now_ns () - due i);
      incr outstanding;
      (match proto with
      | Http -> Queue.add i backlog
      | Ndjson ->
        let c = cs.(i mod conns) in
        if not c.dead then send c i);
      incr next
    done;
    (match proto with
    | Http -> dispatch ()
    | Ndjson -> Array.iter (fun c -> if not c.dead then flush c) cs);
    let live = List.filter (fun c -> not c.dead) (Array.to_list cs) in
    let finished =
      (!next >= n && !outstanding = 0) || now > deadline || live = []
    in
    if not finished then begin
      let wake =
        match pacing with
        | Open _ when !next < n -> due !next
        | Closed _ when now < start -> start
        | Open _ | Closed _ -> deadline
      in
      let timeout = float_of_int (max 0 (wake - now)) /. 1e9 in
      let reads = List.map (fun c -> c.fd) live in
      let writes =
        List.filter_map
          (fun c -> if Queue.is_empty c.out then None else Some c.fd)
          live
      in
      (match Unix.select reads writes [] timeout with
      | r, w, _ ->
        List.iter
          (fun c ->
            if (not c.dead) && List.memq c.fd w then flush c;
            if (not c.dead) && List.memq c.fd r then read c)
          live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> if not c.dead then kill c) cs)
    loop;
  let ok = Array.fold_left (fun a l -> if l >= 0 then a + 1 else a) 0 latency in
  {
    latency_ns = latency;
    late_ns = late;
    failed = n - ok;
    wrong = !wrong;
    replies = Array.fold_left (fun a s -> if s then a + 1 else a) 0 settled;
    span_ns = max 1 (!last_reply - start);
  }

(* Latencies in microseconds of the requests of one kind; a failed
   request reads as infinitely late, so it misses every limit. *)
let latencies_us ?(from = 0) ?upto r (items : item array) kind =
  let upto = Option.value upto ~default:(Array.length items) in
  let acc = ref [] in
  for i = upto - 1 downto from do
    if items.(i).req.kind = kind then
      acc :=
        (if r.latency_ns.(i) < 0 then Float.infinity
         else float_of_int r.latency_ns.(i) /. 1e3)
        :: !acc
  done;
  Array.of_list !acc

let late_p99_us r =
  Stats.percentile
    (Array.map (fun l -> if l < 0 then Float.infinity else float_of_int l /. 1e3)
       r.late_ns)
    0.99
