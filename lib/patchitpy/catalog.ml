(* The catalog compiles on first use: calling [all] (or [javascript])
   is what runs [Rule.make] over the per-category rule lists, so a
   process that gets its scanner from a rule pack never pays for source
   compilation.  Every list sits in an [Rx.once] cell, which several
   domains may force at once.
   The sanity checks run inside the same force — violations are
   programming errors and surface the first time the catalog is
   actually used (every test forces it). *)

let all =
  Rx.once @@ fun () ->
  let all =
    Catalog_injection.rules () @ Catalog_crypto.rules ()
    @ Catalog_misconfig.rules () @ Catalog_access.rules ()
    @ Catalog_integrity.rules () @ Catalog_disclosure.rules ()
  in
  (* Catalog sanity: ids unique. *)
  let seen = Hashtbl.create 128 in
  List.iter
    (fun (r : Rule.t) ->
      if Hashtbl.mem seen r.Rule.id then
        invalid_arg (Printf.sprintf "duplicate rule id %s" r.Rule.id);
      Hashtbl.replace seen r.Rule.id ())
    all;
  all

let count () = List.length (all ())

let find id = List.find_opt (fun (r : Rule.t) -> r.Rule.id = id) (all ())

let by_owasp cat = List.filter (fun r -> Rule.owasp r = Some cat) (all ())

let by_cwe cwe = List.filter (fun (r : Rule.t) -> r.Rule.cwe = cwe) (all ())

let covered_cwes () =
  List.sort_uniq compare (List.map (fun (r : Rule.t) -> r.Rule.cwe) (all ()))

let fixable_count () = List.length (List.filter Rule.fixable (all ()))

let javascript =
  Rx.once @@ fun () ->
  let js = Catalog_js.rules () in
  (* id namespaces must not collide *)
  List.iter
    (fun (r : Rule.t) ->
      if find r.Rule.id <> None then
        invalid_arg (Printf.sprintf "JS rule id %s collides" r.Rule.id))
    js;
  js
