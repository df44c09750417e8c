(* See gateway.mli.  One thread per connection, fully synchronous:
   read a request, route it, block on the pool's delivery, write the
   whole serialized response with one [Netio.write_all].  Blocking a
   thread costs no worker time — domains do the scanning. *)

type t = {
  pool : Pool.t;
  quota : Quota.t option;
  limits : Http.limits;
}

let create ?quota ?(limits = Http.default_limits) ~pool () =
  { pool; quota; limits }

(* HTTP requests carry no client correlation id; mint one so traces
   and error replies stay correlatable across the pool. *)
let next_id =
  let counter = Atomic.make 0 in
  fun () -> Printf.sprintf "http-%d" (Atomic.fetch_and_add counter 1)

let json_ct = ("content-type", "application/json")

let error_body ~error ~message =
  Printf.sprintf "{\"error\":\"%s\",\"message\":%s}\n"
    (Protocol.error_kind_to_string error)
    ("\"" ^ Patchitpy.Jsonout.escape_string message ^ "\"")

let status_of_error = function
  | Protocol.Invalid -> 400
  | Protocol.Too_large -> 413
  | Protocol.Overloaded -> 503
  | Protocol.Timeout -> 504
  | Protocol.Internal -> 500

(* Submit through the pool (result cache included) and block until the
   delivery callback fires — out-of-order completion is invisible here
   because each connection thread waits for its own request. *)
let await_pool t request =
  let result = ref None in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  Pool.submit t.pool request ~deliver:(fun response ->
      Mutex.protect mutex (fun () ->
          result := Some response;
          Condition.signal cond));
  Mutex.protect mutex (fun () ->
      while !result = None do
        Condition.wait cond mutex
      done;
      Option.get !result)

let respond_pool t ~headers request =
  match await_pool t request with
  | Protocol.Reply { body; _ } ->
    Http.response ~headers:(json_ct :: headers) ~status:200 ~body:(body ^ "\n")
      ()
  | Protocol.Error_reply { error; message; _ } ->
    let extra =
      match error with Protocol.Overloaded -> [ ("retry-after", "1") ] | _ -> []
    in
    Http.response
      ~headers:((json_ct :: extra) @ headers)
      ~status:(status_of_error error)
      ~body:(error_body ~error ~message)
      ()

let scan_like t ~headers req make =
  let file = Option.value ~default:"-" (Http.header req "x-patchitpy-file") in
  match
    match Http.header req "x-patchitpy-deadline-steps" with
    | None -> Ok None
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Ok (Some n)
      | _ -> Error ())
  with
  | Error () ->
    Http.response ~headers:(json_ct :: headers) ~status:400
      ~body:
        (error_body ~error:Protocol.Invalid
           ~message:"x-patchitpy-deadline-steps must be a positive integer")
      ()
  | Ok deadline_steps ->
    respond_pool t ~headers
      {
        Protocol.id = next_id ();
        deadline_steps;
        kind = make ~file ~source:req.Http.body;
      }

let over_quota ~headers retry_after =
  let seconds = max 1 (int_of_float (Float.ceil retry_after)) in
  Http.response
    ~headers:
      ([ json_ct; ("retry-after", string_of_int seconds) ] @ headers)
    ~status:429
    ~body:
      (error_body ~error:Protocol.Overloaded
         ~message:
           (Printf.sprintf "tenant over quota; retry in %ds" seconds))
    ()

let route t ~peer ~headers req =
  let admit () =
    match t.quota with
    | None -> `Admit
    | Some quota ->
      let tenant =
        Option.value ~default:peer (Http.header req "x-patchitpy-tenant")
      in
      Quota.check quota ~tenant
  in
  match (req.Http.meth, req.Http.target) with
  | "POST", "/v1/scan" -> (
    match admit () with
    | `Reject retry_after -> over_quota ~headers retry_after
    | `Admit ->
      scan_like t ~headers req (fun ~file ~source ->
          Protocol.Scan { file; source }))
  | "POST", "/v1/patch" -> (
    match admit () with
    | `Reject retry_after -> over_quota ~headers retry_after
    | `Admit ->
      scan_like t ~headers req (fun ~file ~source ->
          Protocol.Patch { file; source }))
  | "GET", "/v1/health" ->
    respond_pool t ~headers
      { Protocol.id = next_id (); deadline_steps = None; kind = Protocol.Health }
  | "GET", "/v1/stats" ->
    respond_pool t ~headers
      {
        Protocol.id = next_id ();
        deadline_steps = None;
        kind = Protocol.Stats Protocol.Stats_json;
      }
  | "GET", "/metrics" ->
    Http.response
      ~headers:(("content-type", "text/plain; version=0.0.4") :: headers)
      ~status:200
      ~body:(Pool.prometheus_text ())
      ()
  | _, ("/v1/scan" | "/v1/patch" | "/v1/health" | "/v1/stats" | "/metrics") ->
    Http.response ~headers:(json_ct :: headers) ~status:405
      ~body:(error_body ~error:Protocol.Invalid ~message:"method not allowed")
      ()
  | _ ->
    Http.response ~headers:(json_ct :: headers) ~status:404
      ~body:(error_body ~error:Protocol.Invalid ~message:"no such endpoint")
      ()

let handle_connection t ~peer fd =
  let conn =
    Http.conn (fun buf pos len ->
        let rec go () =
          match Unix.read fd buf pos len with
          | n -> n
          | exception Unix.Unix_error (EINTR, _, _) -> go ()
        in
        go ())
  in
  let rec serve () =
    match Http.read_request ~limits:t.limits conn with
    | None -> ()
    | Some (Error e) ->
      (* The byte stream is poisoned; answer and hang up. *)
      let error =
        match e with
        | Http.Too_large _ -> Protocol.Too_large
        | Http.Bad_request _ | Http.Unsupported _
        | Http.Version_not_supported _ ->
          Protocol.Invalid
      in
      Netio.write_all fd
        (Http.response
           ~headers:[ json_ct; ("connection", "close") ]
           ~status:(Http.error_status e)
           ~body:(error_body ~error ~message:(Http.error_message e))
           ())
    | Some (Ok req) ->
      let keep = Http.keep_alive req in
      let headers = if keep then [] else [ ("connection", "close") ] in
      Netio.write_all fd (route t ~peer ~headers req);
      if keep then serve ()
  in
  try serve () with Unix.Unix_error _ -> ()
