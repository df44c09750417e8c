(* Tests for the PatchitPy core: catalog, engine, patcher, derive. *)

open Patchitpy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fires rule_id src =
  List.exists
    (fun (f : Engine.finding) -> f.Engine.rule.Rule.id = rule_id)
    (Engine.scan src)

(* One (vulnerable, safe) snippet pair per rule.  The vulnerable snippet
   must trigger exactly this rule (possibly among others); the safe
   snippet must not trigger it. *)
let pairs =
  [
    ("PIT-001", "os.system(\"ls \" + d)\n", "subprocess.run(shlex.split(cmd))\n");
    ("PIT-002", "out = os.popen(cmd).read()\n",
     "out = subprocess.run(shlex.split(cmd), capture_output=True).stdout\n");
    ("PIT-003", "subprocess.call(cmd, shell=True)\n",
     "subprocess.call(cmd, shell=False)\n");
    ("PIT-004", "os.execvp(prog, args)\n", "subprocess.run([prog])\n");
    ("PIT-005", "v = eval(expr)\n", "v = ast.literal_eval(expr)\n");
    ("PIT-006", "exec(code)\n", "run_plugin(code_name)\n");
    ( "PIT-007",
      "cursor.execute(\"SELECT * FROM users WHERE name = '%s'\" % name)\n",
      "cursor.execute(\"SELECT * FROM users WHERE name = ?\", (name,))\n" );
    ( "PIT-008",
      "cursor.execute(f\"SELECT * FROM users WHERE name = '{name}'\")\n",
      "cursor.execute(\"SELECT * FROM users WHERE name = ?\", (name,))\n" );
    ( "PIT-009",
      "cursor.execute(\"SELECT * FROM users WHERE id = \" + uid)\n",
      "cursor.execute(\"SELECT * FROM users WHERE id = ?\", (uid,))\n" );
    ( "PIT-010",
      "cursor.execute(\"SELECT * FROM t WHERE n = {}\".format(n))\n",
      "cursor.execute(\"SELECT * FROM t WHERE n = ?\", (n,))\n" );
    ("PIT-011", "return f\"<p>{name}</p>\"\n", "return f\"<p>{escape(name)}</p>\"\n");
    ( "PIT-012",
      "return make_response(f\"Hello {name}\")\n",
      "return make_response(f\"Hello {escape(name)}\")\n" );
    ("PIT-013", "return \"<h1>\" + title\n", "return \"<h1>\" + escape(title)\n");
    ( "PIT-014",
      "return render_template_string(f\"Hi {user}\")\n",
      "return render_template(\"hi.html\", user=user)\n" );
    ( "PIT-015",
      "env = Environment(loader=loader, autoescape=False)\n",
      "env = Environment(loader=loader, autoescape=True)\n" );
    ( "PIT-016",
      "env = jinja2.Environment(loader=loader)\n",
      "env = jinja2.Environment(loader=loader, autoescape=True)\n" );
    ( "PIT-017",
      "conn.search_s(base, scope, f\"(uid={user})\")\n",
      "conn.search_s(base, scope, safe_filter)\n" );
    ( "PIT-018",
      "tree.xpath(\"//user[name='%s']\" % name)\n",
      "tree.xpath(\"//user[name=$name]\", name=name)\n" );
    ("PIT-019", "t = Template(f\"Hello {user}\")\n", "t = Template(\"Hello $name\")\n");
    ( "PIT-020",
      "resp.headers[\"Location\"] = request.args[\"next\"]\n",
      "resp.headers[\"Location\"] = request.args[\"next\"].replace(\"\\r\", \"\").replace(\"\\n\", \"\")\n"
    );
    ("PIT-021", "h = hashlib.md5(data)\n", "h = hashlib.sha256(data)\n");
    ("PIT-022", "h = hashlib.sha1(data)\n", "h = hashlib.sha256(data)\n");
    ("PIT-023", "h = hashlib.new(\"md5\", data)\n", "h = hashlib.new(\"sha256\", data)\n");
    ("PIT-024", "c = DES.new(key, DES.MODE_CBC)\n", "c = AES.new(key, AES.MODE_GCM)\n");
    ("PIT-025", "c = ARC4.new(key)\n", "c = AES.new(key, AES.MODE_GCM)\n");
    ("PIT-026", "c = AES.new(key, AES.MODE_ECB)\n", "c = AES.new(key, AES.MODE_GCM)\n");
    ( "PIT-027",
      "token = random.randint(0, 999999)\n",
      "token = secrets.token_hex(16)\n" );
    ("PIT-028", "sid = uuid.uuid1()\n", "sid = uuid.uuid4()\n");
    ("PIT-029", "key = RSA.generate(1024)\n", "key = RSA.generate(2048)\n");
    ( "PIT-030",
      "key = rsa.generate_private_key(public_exponent=65537, key_size=1024)\n",
      "key = rsa.generate_private_key(public_exponent=65537, key_size=2048)\n" );
    ( "PIT-031",
      "r = requests.get(url, verify=False, timeout=10)\n",
      "r = requests.get(url, verify=True, timeout=10)\n" );
    ( "PIT-032",
      "ctx = ssl._create_unverified_context()\n",
      "ctx = ssl.create_default_context()\n" );
    ( "PIT-033",
      "s = ssl.wrap_socket(sock, cert_reqs=ssl.CERT_NONE)\n",
      "s = ssl.wrap_socket(sock, cert_reqs=ssl.CERT_REQUIRED)\n" );
    ("PIT-034", "ctx.check_hostname = False\n", "ctx.check_hostname = True\n");
    ( "PIT-035",
      "client.set_missing_host_key_policy(paramiko.AutoAddPolicy())\n",
      "client.set_missing_host_key_policy(paramiko.RejectPolicy())\n" );
    ( "PIT-036",
      "ctx = ssl.SSLContext(ssl.PROTOCOL_TLSv1)\n",
      "ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)\n" );
    ("PIT-037", "tn = telnetlib.Telnet(host)\n", "client = paramiko.SSHClient()\n");
    ("PIT-038", "ftp = ftplib.FTP(host)\n", "ftp = ftplib.FTP_TLS(host)\n");
    ( "PIT-039",
      "r = requests.post(\"http://api.example.com/v1\", data=d, timeout=10)\n",
      "r = requests.post(\"https://api.example.com/v1\", data=d, timeout=10)\n" );
    ( "PIT-040",
      "password = \"hunter2\"\n",
      "password = os.environ.get(\"APP_PASSWORD\", \"\")\n" );
    ( "PIT-041",
      "conn = connect(host, password=\"hunter2\")\n",
      "conn = connect(host, password=os.environ.get(\"DB_PASSWORD\", \"\"))\n" );
    ( "PIT-042",
      "app.secret_key = \"s3cr3t\"\n",
      "app.secret_key = os.environ.get(\"SECRET_KEY\", \"\")\n" );
    ( "PIT-043",
      "digest = hashlib.sha256(password.encode())\n",
      "digest = hashlib.pbkdf2_hmac(\"sha256\", password.encode(), os.urandom(16), 100000)\n"
    );
    ( "PIT-044",
      "data = jwt.decode(token, key, verify=False)\n",
      "data = jwt.decode(token, key, algorithms=[\"HS256\"])\n" );
    ( "PIT-045",
      "app.run(debug=True)\n",
      "app.run(debug=False, use_debugger=False, use_reloader=False)\n" );
    ("PIT-046", "app.run(host=\"0.0.0.0\")\n", "app.run(host=\"127.0.0.1\")\n");
    ( "PIT-047",
      "resp.set_cookie(\"sid\", sid)\n",
      "resp.set_cookie(\"sid\", sid, secure=True, httponly=True)\n" );
    ( "PIT-048",
      "resp.set_cookie(\"sid\", sid, secure=True, httponly=False)\n",
      "resp.set_cookie(\"sid\", sid, secure=True, httponly=True)\n" );
    ( "PIT-049",
      "app.config[\"WTF_CSRF_ENABLED\"] = False\n",
      "app.config[\"WTF_CSRF_ENABLED\"] = True\n" );
    ("PIT-050", "cfg = yaml.load(f)\n", "cfg = yaml.safe_load(f)\n");
    ( "PIT-051",
      "tree = xml.etree.ElementTree.parse(path)\n",
      "tree = defusedxml.ElementTree.parse(path)\n" );
    ( "PIT-052",
      "parser = etree.XMLParser(resolve_entities=True)\n",
      "parser = etree.XMLParser(resolve_entities=False)\n" );
    ( "PIT-053",
      "doc = xml.dom.minidom.parseString(data)\n",
      "doc = defusedxml.minidom.parseString(data)\n" );
    ( "PIT-054",
      "tar.extractall(dest)\n",
      "tar.extractall(dest, filter=\"data\")\n" );
    ( "PIT-055",
      "zip_ref.extractall(dest)\n",
      "safe_extract(zip_ref, dest)\n" );
    ("PIT-056", "p = tempfile.mktemp()\n", "fd, p = tempfile.mkstemp()\n");
    ( "PIT-057",
      "f = open(\"/tmp/data.txt\", \"w\")\n",
      "f = tempfile.NamedTemporaryFile(mode=\"w\")\n" );
    ("PIT-058", "os.chmod(path, 0o777)\n", "os.chmod(path, 0o600)\n");
    ("PIT-059", "os.umask(0)\n", "os.umask(0o077)\n");
    ("PIT-060", "DEBUG = True\n", "DEBUG = False\n");
    ( "PIT-061",
      "f = open(request.args[\"name\"])\n",
      "f = open(secure_filename(request.args[\"name\"]))\n" );
    ( "PIT-062",
      "p = os.path.join(base, request.args[\"name\"])\n",
      "p = os.path.join(base, secure_filename(request.args[\"name\"]))\n" );
    ( "PIT-063",
      "file.save(os.path.join(uploads, file.filename))\n",
      "file.save(os.path.join(uploads, secure_filename(file.filename)))\n" );
    ( "PIT-064",
      "file.save(file.filename)\n",
      "file.save(secure_filename(file.filename))\n" );
    ( "PIT-065",
      "return redirect(request.args.get(\"next\"))\n",
      "return redirect(url_for(\"index\"))\n" );
    ( "PIT-066",
      "return send_file(request.args[\"path\"])\n",
      "return send_from_directory(base, name)\n" );
    ("PIT-067", "user = User(**request.json)\n", "user = User(name=data[\"name\"])\n");
    ( "PIT-068",
      "@app.route(\"/admin\")\ndef admin_panel():\n    pass\n",
      "@app.route(\"/admin\")\n@login_required\ndef admin_panel():\n    pass\n" );
    ( "PIT-069",
      "assert user.is_admin\n",
      "if not current.is_admin():\n    raise PermissionError\n" );
    ("PIT-070", "obj = pickle.loads(blob)\n", "obj = json.loads(blob)\n");
    ("PIT-071", "obj = pickle.load(f)\n", "obj = json.load(f)\n");
    ("PIT-072", "obj = marshal.loads(b)\n", "obj = json.loads(b)\n");
    ("PIT-073", "obj = jsonpickle.decode(s)\n", "obj = json.loads(s)\n");
    ( "PIT-074",
      "model = torch.load(path)\n",
      "model = torch.load(path, weights_only=True)\n" );
    ("PIT-075", "exec(requests.get(url).text)\n", "verify_and_run(url)\n");
    ( "PIT-076",
      "mod = __import__(request.args[\"m\"])\n",
      "mod = PLUGINS[name]\n" );
    ( "PIT-077",
      "if token == expected:\n    pass\n",
      "if hmac.compare_digest(token, expected):\n    pass\n" );
    ( "PIT-078",
      "reset_token = str(time.time())\n",
      "reset_token = secrets.token_urlsafe(32)\n" );
    ("PIT-079", "if len(password) < 4:\n    pass\n", "if len(password) < 12:\n    pass\n");
    ( "PIT-080",
      "logging.info(f\"login with {password}\")\n",
      "logging.info(\"login for %s\", user)\n" );
    ("PIT-081", "print(f\"the password {pw}\")\n", "print(\"login ok\")\n");
    ("PIT-082", "return str(e)\n", "return \"Internal Server Error\", 500\n");
    ( "PIT-083",
      "return traceback.format_exc()\n",
      "return \"Internal Server Error\", 500\n" );
    ( "PIT-084",
      "r = requests.get(url)\n",
      "r = requests.get(url, timeout=10)\n" );
    ( "PIT-085",
      "r = requests.get(request.args[\"url\"], timeout=10)\n",
      "r = requests.get(ALLOWED[site], timeout=10)\n" );
  ]

let test_catalog_shape () =
  check_int "85 rules as in the paper" 85 (Catalog.count ());
  check_int "pairs cover every rule" 85 (List.length pairs);
  check_bool "most rules carry a fix" true ((Catalog.fixable_count ()) >= 60);
  check_bool "all CWEs known" true
    (List.for_all Cwe.is_known (Catalog.covered_cwes ()));
  check_bool "all rules OWASP-mapped" true
    (List.for_all (fun r -> Rule.owasp r <> None) (Catalog.all ()));
  check_bool "several categories populated" true
    (List.length
       (List.filter (fun c -> Catalog.by_owasp c <> []) Owasp.all)
     >= 7);
  check_bool "lookup works" true (Catalog.find "PIT-045" <> None);
  check_bool "unknown id" true (Catalog.find "PIT-999" = None)

let test_all_rules_fire_on_vulnerable () =
  List.iter
    (fun (id, vuln, _) ->
      if not (fires id vuln) then
        Alcotest.failf "%s did not fire on its vulnerable snippet" id)
    pairs

let test_no_rule_fires_on_its_safe_variant () =
  List.iter
    (fun (id, _, safe) ->
      if fires id safe then
        Alcotest.failf "%s fired on its safe snippet" id)
    pairs

let test_fixes_eliminate_findings () =
  (* For every fixable rule: patch the vulnerable snippet; the rule must
     no longer fire on the result. *)
  List.iter
    (fun (id, vuln, _) ->
      match Catalog.find id with
      | Some rule when Rule.fixable rule ->
        let r = Patcher.patch vuln in
        if fires id r.Patcher.patched then
          Alcotest.failf "%s still fires after patching: %s" id
            r.Patcher.patched
      | Some _ | None -> ())
    pairs

let test_patch_idempotent () =
  List.iter
    (fun (id, vuln, _) ->
      let once = (Patcher.patch vuln).Patcher.patched in
      let twice = (Patcher.patch once).Patcher.patched in
      if once <> twice then Alcotest.failf "%s patch is not idempotent" id)
    pairs

let test_safe_snippets_mostly_clean () =
  (* The safe snippets are the shape of our corpus's secure references:
     the engine should be quiet on nearly all of them (high precision). *)
  let noisy =
    List.filter (fun (_, _, safe) -> Engine.scan safe <> []) pairs
  in
  if List.length noisy > 3 then
    Alcotest.failf "too many safe snippets trigger findings: %s"
      (String.concat ", " (List.map (fun (id, _, _) -> id) noisy))

let flask_app =
  "import os\n\
   from flask import Flask, request\n\n\
   app = Flask(__name__)\n\n\
   @app.route(\"/run\")\n\
   def run_cmd():\n\
  \    cmd = request.args.get(\"cmd\", \"\")\n\
  \    os.system(cmd)\n\
  \    return f\"<p>{cmd}</p>\"\n\n\
   if __name__ == \"__main__\":\n\
  \    app.run(debug=True)\n"

let test_engine_positions () =
  let findings = Engine.scan flask_app in
  let find id =
    List.find (fun (f : Engine.finding) -> f.Engine.rule.Rule.id = id) findings
  in
  check_int "os.system line" 9 (find "PIT-001").Engine.line;
  check_int "xss line" 10 (find "PIT-011").Engine.line;
  check_int "debug line" 13 (find "PIT-045").Engine.line;
  check_int "three findings" 3 (List.length findings);
  Alcotest.(check (list int)) "distinct CWEs" [ 78; 79; 489 ]
    (Engine.distinct_cwes findings)

let test_patch_end_to_end () =
  let r = Patcher.patch flask_app in
  check_bool "changed" true (Patcher.changed r);
  check_int "no remaining findings" 0 (List.length r.Patcher.remaining);
  check_bool "still parses" true (Pyast.parses r.Patcher.patched);
  check_bool "imports inserted" true
    (List.mem "import shlex" r.Patcher.imports_added);
  check_bool "escape imported" true
    (List.mem "from markupsafe import escape" r.Patcher.imports_added);
  (* The debug fix is the paper's Table I safe pattern. *)
  check_bool "table1 debug patch" true
    (Rx.matches
       (Rx.compile
          {|app\.run\(debug=False, use_debugger=False, use_reloader=False\)|})
       r.Patcher.patched)

let test_import_insertion () =
  let src, added = Patcher.insert_imports "x = 1\n" [ "import os" ] in
  Alcotest.(check string) "at top" "import os\nx = 1\n" src;
  Alcotest.(check (list string)) "reported" [ "import os" ] added;
  (* after shebang and docstring *)
  let src2, _ =
    Patcher.insert_imports "#!/usr/bin/env python\n\"\"\"Doc.\"\"\"\nimport sys\nx = 1\n"
      [ "import os" ]
  in
  Alcotest.(check string) "after prologue"
    "#!/usr/bin/env python\n\"\"\"Doc.\"\"\"\nimport sys\nimport os\nx = 1\n" src2;
  (* no duplicates *)
  let src3, added3 = Patcher.insert_imports "import os\nx = 1\n" [ "import os" ] in
  Alcotest.(check string) "unchanged" "import os\nx = 1\n" src3;
  Alcotest.(check (list string)) "nothing added" [] added3;
  (* multi-line docstring *)
  let src4, _ =
    Patcher.insert_imports "\"\"\"Long\ndoc.\n\"\"\"\nx = 1\n" [ "import os" ]
  in
  check_bool "after multi-line docstring" true
    (Rx.matches (Rx.compile {|doc\.\n"""\nimport os|}) src4)

let test_suppression_window () =
  (* login_required on the line after the route suppresses PIT-068. *)
  let guarded = "@app.route(\"/admin\")\n@login_required\ndef admin():\n    pass\n" in
  check_bool "suppressed by context" false (fires "PIT-068" guarded)

let test_multiple_cwes_per_snippet () =
  (* The paper notes one snippet can carry several OWASP categories. *)
  let findings = Engine.scan flask_app in
  let cats =
    List.sort_uniq compare
      (List.filter_map (fun (f : Engine.finding) -> Rule.owasp f.Engine.rule) findings)
  in
  check_bool "at least two categories" true (List.length cats >= 2)

(* --- derivation (Table I) ------------------------------------------------ *)

let v1 =
  "from flask import Flask, request\n\
   app = Flask(__name__)\n\
   @app.route(\"/comments\")\n\
   def comments():\n\
  \    name = request.args.get(\"name\", \"\")\n\
  \    return f\"<p>{name}</p>\"\n\
   if __name__ == \"__main__\":\n\
  \    app.run(debug=True)\n"

let s1 =
  "from flask import Flask, request, escape\n\
   app = Flask(__name__)\n\
   @app.route(\"/comments\")\n\
   def comments():\n\
  \    name = request.args.get(\"name\", \"\")\n\
  \    return f\"<p>{escape(name)}</p>\"\n\
   if __name__ == \"__main__\":\n\
  \    app.run(debug=False, use_reloader=False)\n"

let v2 =
  "from flask import Flask, request, make_response\n\
   appl = Flask(__name__)\n\
   @appl.route(\"/showName\")\n\
   def name():\n\
  \    user = request.args.get(\"user\")\n\
  \    return make_response(f\"Hello {user}\")\n\
   if __name__ == \"__main__\":\n\
  \    appl.run(debug=True)\n"

let s2 =
  "from flask import Flask, request, make_response, escape\n\
   appl = Flask(__name__)\n\
   @appl.route(\"/showName\")\n\
   def name():\n\
  \    user = request.args.get(\"user\")\n\
  \    return make_response(f\"Hello {escape(user)}\")\n\
   if __name__ == \"__main__\":\n\
  \    appl.run(debug=False, use_debugger=False, use_reloader=False)\n"

let test_derive_table1 () =
  let d = Derive.derive ~vulnerable:(v1, v2) ~safe:(s1, s2) in
  (* The common vulnerable pattern contains the standardized get call and
     the debug=True configuration. *)
  let lcs_v = String.concat " " d.Derive.lcs_vulnerable in
  check_bool "lcs has request.args.get" true
    (Rx.matches (Rx.compile {|request \. args \. get|}) lcs_v);
  check_bool "lcs keeps debug=True" true
    (Rx.matches (Rx.compile {|debug = True|}) lcs_v);
  (* The safe pattern's additions include the escape() mitigation and the
     debug=False hardening — the paper's "blue" parts. *)
  let adds = String.concat " | " d.Derive.additions in
  check_bool "escape added" true (Rx.matches (Rx.compile {|escape|}) adds);
  check_bool "debug hardening added" true (Rx.matches (Rx.compile {|False|}) adds);
  (* The sketched pattern matches both original vulnerable samples. *)
  check_bool "sketch matches both" true
    (Derive.sketch_matches_both d ~vulnerable:(v1, v2))

let test_report_renders () =
  let findings = Engine.scan flask_app in
  let txt = Report.render_findings flask_app findings in
  check_bool "mentions rule id" true (Rx.matches (Rx.compile "PIT-001") txt);
  check_bool "mentions CWE" true (Rx.matches (Rx.compile "CWE-078") txt);
  let r = Patcher.patch flask_app in
  let patch_txt = Report.render_patch r in
  check_bool "shows diff" true (Rx.matches (Rx.compile {|\+.*shlex|}) patch_txt);
  let rule_txt = Report.render_rule (Option.get (Catalog.find "PIT-045")) in
  check_bool "rule doc" true (Rx.matches (Rx.compile "debug") rule_txt)

(* --- JavaScript pack (future work) -------------------------------------- *)

let js_pairs =
  [
    ("PIT-JS-001", "const v = eval(raw);\n", "const v = JSON.parse(raw);\n");
    ("PIT-JS-002", "const f = new Function(body);\n", "const f = handlers[name];\n");
    ("PIT-JS-003", "exec(`ls ${dir}`);\n", "execFile(\"ls\", [dir]);\n");
    ("PIT-JS-004", "el.innerHTML = userInput;\n", "el.textContent = userInput;\n");
    ("PIT-JS-005", "document.write(banner);\n", "el.append(banner);\n");
    ("PIT-JS-006", "createHash(\"md5\")\n", "createHash(\"sha256\")\n");
    ("PIT-JS-007", "token = Math.random().toString(36);\n",
     "token = crypto.randomBytes(32).toString(\"hex\");\n");
    ("PIT-JS-008", "agent({ rejectUnauthorized: false })\n",
     "agent({ rejectUnauthorized: true })\n");
    ("PIT-JS-009", "process.env[\"NODE_TLS_REJECT_UNAUTHORIZED\"] = \"0\";\n",
     "setupTls();\n");
    ("PIT-JS-010", "res.redirect(req.query.next);\n",
     "res.redirect(SAFE_PAGES[key]);\n");
    ("PIT-JS-011", "db.query(`SELECT * FROM t WHERE id = ${id}`);\n",
     "db.query(\"SELECT * FROM t WHERE id = ?\", [id]);\n");
    ("PIT-JS-012", "const password = \"hunter2\";\n",
     "const password = process.env.PASSWORD;\n");
    ("PIT-JS-013", "const b = new Buffer(n);\n", "const b = Buffer.alloc(n);\n");
    ("PIT-JS-014", "fs.chmodSync(dir, 0o777);\n", "fs.chmodSync(dir, 0o750);\n");
    ("PIT-JS-015", "fetch(\"http://api.example.com\");\n",
     "fetch(\"https://api.example.com\");\n");
    ("PIT-JS-016", "jwt.verify(t, k, { algorithms: [\"none\"] });\n",
     "jwt.verify(t, k, { algorithms: [\"HS256\"] });\n");
  ]

let js_fires id src =
  List.exists
    (fun (f : Engine.finding) -> f.Engine.rule.Rule.id = id)
    (Engine.scan ~rules:(Catalog.javascript ()) src)

let test_js_pack () =
  check_int "pack covers 16 rules" 16 (List.length (Catalog.javascript ()));
  check_int "pairs cover the pack" (List.length (Catalog.javascript ()))
    (List.length js_pairs);
  List.iter
    (fun (id, vuln, safe) ->
      if not (js_fires id vuln) then
        Alcotest.failf "%s did not fire on its vulnerable snippet" id;
      if js_fires id safe then Alcotest.failf "%s fired on its safe snippet" id)
    js_pairs

let test_js_patching () =
  List.iter
    (fun (id, vuln, _) ->
      match
        List.find_opt (fun (r : Rule.t) -> r.Rule.id = id) (Catalog.javascript ())
      with
      | Some rule when Rule.fixable rule ->
        let r = Patcher.patch ~rules:(Catalog.javascript ()) vuln in
        if js_fires id r.Patcher.patched then
          Alcotest.failf "%s still fires after patching" id
      | Some _ | None -> ())
    js_pairs

let test_js_ids_disjoint () =
  List.iter
    (fun (r : Rule.t) ->
      if Catalog.find r.Rule.id <> None then
        Alcotest.failf "JS id %s collides with the Python catalog" r.Rule.id)
    (Catalog.javascript ())

(* --- JSON output --------------------------------------------------------- *)

let test_json_escaping () =
  Alcotest.(check string) "quotes and newlines" {|a\"b\nc\\d|}
    (Jsonout.escape_string "a\"b\nc\\d");
  Alcotest.(check string) "control chars" {|\u0001|}
    (Jsonout.escape_string "\x01")

let test_json_findings_shape () =
  let findings = Engine.scan flask_app in
  let doc = Jsonout.findings_to_json ~file:"app.py" findings in
  List.iter
    (fun needle ->
      if not (Rx.matches (Rx.compile needle) doc) then
        Alcotest.failf "JSON output missing %s" needle)
    [
      {|"file":"app\.py"|}; {|"rule":"PIT-001"|}; {|"cwe":78|};
      {|"owasp":"A03"|}; {|"fixable":true|}; {|"total":3|};
    ];
  (* balanced braces/brackets as a cheap well-formedness check *)
  let count c = List.length (Rx.find_all (Rx.compile (Printf.sprintf "\\%c" c)) doc) in
  check_int "balanced braces" (count '{') (count '}');
  check_int "balanced brackets" (count '[') (count ']')

let test_json_patch_shape () =
  let r = Patcher.patch flask_app in
  let doc = Jsonout.patch_to_json ~file:"app.py" r in
  List.iter
    (fun needle ->
      if not (Rx.matches (Rx.compile needle) doc) then
        Alcotest.failf "patch JSON missing %s" needle)
    [ {|"changed":true|}; {|"edits":|}; {|"importsAdded":|}; {|shlex|} ]

let test_sarif_shape () =
  let findings = Engine.scan flask_app in
  let doc = Jsonout.to_sarif [ ("app.py", findings) ] in
  List.iter
    (fun needle ->
      if not (Rx.matches (Rx.compile needle) doc) then
        Alcotest.failf "SARIF output missing %s" needle)
    [
      {|"version":"2\.1\.0"|}; {|"name":"PatchitPy"|}; {|"ruleId":"PIT-001"|};
      {|"startLine":9|}; {|"level":"error"|}; {|"uri":"app\.py"|};
      {|"cwe":"CWE-078"|};
    ];
  (* driver metadata lists the whole catalog *)
  check_int "one rule entry per catalog rule" (Catalog.count ())
    (List.length (Rx.find_all (Rx.compile {|"shortDescription"|}) doc))

let test_catalog_markdown () =
  let md = Report.catalog_markdown (Catalog.all ()) in
  check_bool "has injection section" true
    (Rx.matches (Rx.compile "A03:2021 Injection") md);
  check_bool "documents every rule" true
    (List.for_all
       (fun (r : Rule.t) -> Rx.matches (Rx.compile r.Rule.id) md)
       (Catalog.all ()));
  let js = Report.catalog_markdown (Catalog.javascript ()) in
  check_bool "js pack renders" true (Rx.matches (Rx.compile "PIT-JS-001") js)

(* --- JSON input / custom rule files -------------------------------------- *)

let test_jsonin_values () =
  let open Jsonin in
  (match parse {| {"a": 1, "b": [true, null, "x\n"], "c": -2.5e2} |} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    check_bool "num" true (Option.bind (member "a" v) to_number = Some 1.0);
    check_bool "neg exp" true (Option.bind (member "c" v) to_number = Some (-250.0));
    (match Option.bind (member "b" v) to_list with
    | Some [ Bool true; Null; Str "x\n" ] -> ()
    | _ -> Alcotest.fail "array"));
  (match parse {| "uni\u00e9" |} with
  | Ok (Jsonin.Str s) -> Alcotest.(check string) "utf8 escape" "uni\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape");
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %s" bad)
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

let custom_rules_json =
  {|[
    {"id": "ACME-001", "title": "fetch needs a deadline", "cwe": 400,
     "severity": "MEDIUM",
     "pattern": "acme_http\\.fetch\\(([^)\\n]*)\\)",
     "suppress": "deadline\\s*=",
     "fix": "acme_http.fetch($1, deadline=DEFAULT_DEADLINE)",
     "imports": ["from acme.net import DEFAULT_DEADLINE"],
     "note": "unbounded fetches hang workers"}
  ]|}

let test_rule_file_load () =
  match Rule_file.load custom_rules_json with
  | Error e -> Alcotest.fail e
  | Ok [ rule ] ->
    Alcotest.(check string) "id" "ACME-001" rule.Rule.id;
    check_bool "fixable" true (Rule.fixable rule);
    (* custom rules run through the ordinary engine *)
    let rules = (Catalog.all ()) @ [ rule ] in
    let src = "data = acme_http.fetch(url)\n" in
    check_bool "detects" true (Patchitpy.Engine.is_vulnerable ~rules src);
    let r = Patcher.patch ~rules src in
    check_bool "patches" true
      (Rx.matches (Rx.compile {|deadline=DEFAULT_DEADLINE|}) r.Patcher.patched);
    check_bool "imports" true
      (Rx.matches (Rx.compile {|from acme\.net import DEFAULT_DEADLINE|})
         r.Patcher.patched);
    check_bool "suppressed when safe" false
      (Patchitpy.Engine.is_vulnerable ~rules r.Patcher.patched)
  | Ok rules -> Alcotest.failf "expected 1 rule, got %d" (List.length rules)

let test_rule_file_errors () =
  let bad cases =
    List.iter
      (fun (label, text) ->
        match Rule_file.load text with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s should be rejected" label)
      cases
  in
  bad
    [
      ("not json", "nope");
      ("not array", {|{"id": "X"}|});
      ("missing fields", {|[{"id": "X"}]|});
      ( "bad severity",
        {|[{"id": "X", "title": "t", "cwe": 1, "severity": "SCARY",
           "pattern": "x"}]|} );
      ( "bad pattern",
        {|[{"id": "X", "title": "t", "cwe": 1, "severity": "LOW",
           "pattern": "(unclosed"}]|} );
    ]

let test_scan_selection () =
  let src = "import os\nx = 1\nos.system(cmd)\nv = eval(y)\n" in
  let all = Engine.scan src in
  check_int "whole file" 2 (List.length all);
  let sel = Engine.scan_selection src ~first_line:3 ~last_line:3 in
  (match sel with
  | [ f ] ->
    Alcotest.(check string) "only os.system" "PIT-001" f.Engine.rule.Rule.id;
    check_int "line remapped to file" 3 f.Engine.line
  | l -> Alcotest.failf "expected 1 finding, got %d" (List.length l));
  check_int "empty selection" 0
    (List.length (Engine.scan_selection src ~first_line:2 ~last_line:2))

(* --- edits ---------------------------------------------------------------- *)

(* Reference semantics of one round of edits: splice them right to left,
   so earlier offsets stay valid while later spans are replaced. *)
let splice source edits =
  List.fold_left
    (fun acc (e : Edit.t) ->
      String.sub acc 0 e.Edit.start ^ e.Edit.repl
      ^ String.sub acc e.Edit.stop (String.length acc - e.Edit.stop))
    source (List.rev edits)

let check_apply ~msg source edits =
  check_bool (msg ^ ": valid") true (Edit.valid source edits);
  let out = Edit.apply source edits in
  Alcotest.(check string) msg (splice source edits) out;
  out

let finding_lines source =
  List.map
    (fun (f : Engine.finding) -> (f.Engine.rule.Rule.id, f.Engine.line))
    (Engine.scan source)

let test_edit_at_offset_zero () =
  let src = "eval(x)\nprint(1)\n" in
  let inserted =
    check_apply ~msg:"insert at 0" src
      [ { Edit.start = 0; stop = 0; repl = "import os\n" } ]
  in
  Alcotest.(check (list (pair string int)))
    "finding moved down a line" [ ("PIT-005", 2) ] (finding_lines inserted);
  let replaced =
    check_apply ~msg:"replace at 0" src
      [ { Edit.start = 0; stop = 7; repl = "ast.literal_eval(x)" } ]
  in
  check_int "replacement is clean" 0 (List.length (Engine.scan replaced))

let test_edit_at_eof () =
  let src = "print(1)\nx = 2" in
  let len = String.length src in
  let appended =
    check_apply ~msg:"append at EOF" src
      [ { Edit.start = len; stop = len; repl = "\nos.system(cmd)" } ]
  in
  Alcotest.(check (list (pair string int)))
    "appended finding on the new last line" [ ("PIT-001", 3) ]
    (finding_lines appended);
  ignore
    (check_apply ~msg:"delete to EOF" src
       [ { Edit.start = 9; stop = len; repl = "" } ]);
  ignore
    (check_apply ~msg:"grow empty source" ""
       [ { Edit.start = 0; stop = 0; repl = "y = eval(expr)\n" } ])

let test_adjacent_edits () =
  let src = "a = 1\nb = eval(s)\nc = 3\nd = pickle.loads(p)\n" in
  (* two edits sharing a boundary (stop = next start) *)
  ignore
    (check_apply ~msg:"adjacent edits" src
       [
         { Edit.start = 6; stop = 17; repl = "b = 2" };
         { Edit.start = 17; stop = 18; repl = "\n\n" };
       ]);
  (* chained rounds: each round's offsets refer to the previous output *)
  let round1 =
    check_apply ~msg:"round 1" src
      [ { Edit.start = 6; stop = 17; repl = "b = input()" } ]
  in
  let round2 =
    check_apply ~msg:"round 2" round1
      [ { Edit.start = 0; stop = 0; repl = "import os\nos.system(cmd)\n" } ]
  in
  Alcotest.(check (list (pair string int)))
    "findings of the chained result"
    [ ("PIT-001", 2); ("PIT-070", 6) ]
    (finding_lines round2)

(* Overlapping findings: two rules matching overlapping spans — a patch
   round fixes the first and leaves the second for a later round. *)
let test_overlapping_applications () =
  let rules =
    [
      Rule.make ~id:"T-OVER-1" ~title:"outer" ~cwe:94 ~severity:Rule.High
        ~pattern:{|eval\(raw\)|} ~fix:(Rule.Replace_template "safe(raw)")
        ~note:"" ();
      Rule.make ~id:"T-OVER-2" ~title:"inner" ~cwe:94 ~severity:Rule.High
        ~pattern:{|raw\)|} ~fix:(Rule.Replace_template "cooked)") ~note:"" ();
    ]
  in
  let r = Patcher.patch ~rules ~manage_imports:false "x = eval(raw)\n" in
  (* round 1 applies the outer fix; the inner rule then matches the
     rewritten text and a later round rewrites it too *)
  Alcotest.(check string) "overlap fixpoint" "x = safe(cooked)\n"
    r.Patcher.patched;
  check_int "both rules applied" 2 (List.length r.Patcher.applications);
  check_bool "converged" true r.Patcher.converged

let edit_source_gen =
  QCheck.Gen.(
    string_size ~gen:(frequency [ (8, char_range 'a' 'e'); (2, return '\n') ])
      (int_range 0 80))

let edits_gen n =
  QCheck.Gen.(
    map
      (fun raw ->
        (* sorted, non-overlapping, in bounds *)
        let rec go pos acc = function
          | [] -> List.rev acc
          | (s, l, r) :: rest ->
            let s = max s pos in
            if s > n then List.rev acc
            else
              let stop = min n (s + l) in
              go stop ({ Edit.start = s; stop; repl = r } :: acc) rest
        in
        go 0 [] (List.sort compare raw))
      (list_size (int_range 0 5)
         (triple (int_range 0 n) (int_range 0 10)
            (oneofl [ ""; "\n"; "x"; "xy\nz"; "import json\n" ]))))

let prop_apply_is_splice =
  QCheck.Test.make ~name:"Edit.apply = right-to-left splices" ~count:300
    (QCheck.make
       QCheck.Gen.(
         edit_source_gen >>= fun src ->
         edits_gen (String.length src) >>= fun edits -> return (src, edits)))
    (fun (src, edits) ->
      Edit.valid src edits && Edit.apply src edits = splice src edits)

(* --- stale imports -------------------------------------------------------- *)

(* The stale-import pass's word index must agree with the \bname\b regex
   it replaced, line by line.  Names are import roots (a letter or '_',
   then word characters); lines mix word bytes, dots, brackets, spaces
   and non-ASCII bytes, and the tiny alphabets make near-misses
   (prefixes, suffixes, digits, '_') the common case. *)
let regex_mentions name line =
  Rx.matches (Rx.compile ("\\b" ^ name ^ "\\b")) line

let word_regex_agrees name line =
  Patcher.mentions [ line ] name = regex_mentions name line

let prop_mentions_is_word_regex =
  let name_gen =
    QCheck.Gen.(
      map2
        (fun c rest -> String.make 1 c ^ rest)
        (oneofl [ 'o'; 's'; '_'; 'O' ])
        (string_size ~gen:(oneofl [ 'o'; 's'; '_'; '1' ]) (int_range 0 3)))
  in
  let line_gen =
    QCheck.Gen.(
      string_size
        ~gen:
          (oneofl
             [ 'o'; 's'; '_'; '1'; 'O'; '.'; ' '; '('; ')'; '\t'; '\xc3';
               '\xa9'; '\xff'; '\x80' ])
        (int_range 0 24))
  in
  QCheck.Test.make ~name:"word index = \\bname\\b regex" ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(pair string (list string))
       QCheck.Gen.(pair name_gen (list_size (int_range 0 4) line_gen)))
    (fun (name, lines) ->
      List.for_all (word_regex_agrees name) lines
      && Patcher.mentions lines name = List.exists (regex_mentions name) lines)

let test_mentions_corners () =
  List.iter
    (fun (name, line, expected) ->
      check_bool (Printf.sprintf "%S in %S" name line) expected
        (Patcher.mentions [ line ] name);
      check_bool (Printf.sprintf "regex agrees on %S in %S" name line) true
        (word_regex_agrees name line))
    [
      ("os", "os", true);
      ("os", "os.path.join(a, b)", true) (* dotted use, line start *);
      ("os", "x = os", true) (* line end *);
      ("os", "os2 = 1", false) (* digit suffix *);
      ("os", "_os = 1", false) (* underscore prefix *);
      ("os", "pos = 1", false);
      ("os", "x.os_y", false);
      ("os_1", "f(os_1)", true);
      ("_x", "_x+1", true);
      ("os", "\xc3\xa9os\xc3\xa9", true) (* non-ASCII bytes are not \w *);
      ("os", "caf\xc3\xa9os", true);
      ("os", "", false);
    ];
  check_bool "any line counts" true
    (Patcher.mentions [ "x = 1"; "y = os.sep" ] "os")

let test_stale_imports_dropped () =
  let src =
    "import os.path\nimport pickle\nimport sys\n\nobj = pickle.loads(blob)\n\
     p = os.path.join(a, b)\n"
  in
  let r = Patcher.patch src in
  (* the insertion point lies past the blank line: the prologue walk
     skips blank and comment lines along with imports *)
  Alcotest.(check string) "pickle and sys dropped, dotted os.path kept"
    "import os.path\n\nimport json\nobj = json.loads(blob)\n\
     p = os.path.join(a, b)\n"
    r.Patcher.patched

(* --- properties ----------------------------------------------------------- *)

let pair_gen = QCheck.make (QCheck.Gen.oneofl pairs)

let prop_patched_never_worse =
  QCheck.Test.make ~name:"patching never increases findings" ~count:85 pair_gen
    (fun (_, vuln, _) ->
      let before = List.length (Engine.scan vuln) in
      let after = List.length (Engine.scan (Patcher.patch vuln).Patcher.patched) in
      after <= before)

let prop_patch_of_safe_is_noop_or_clean =
  QCheck.Test.make ~name:"patching keeps safe snippets parseable" ~count:85
    pair_gen (fun (_, _, safe) ->
      let r = Patcher.patch safe in
      (not (Pyast.parses safe)) || Pyast.parses r.Patcher.patched)

let prop_prefilter_equivalent =
  (* the literal prefilter must never change scan results *)
  QCheck.Test.make ~name:"prefilter preserves scan results" ~count:120
    (QCheck.make
       (QCheck.Gen.oneofl
          (List.map (fun (_, v, _) -> v) pairs
          @ List.map (fun (_, _, s) -> s) pairs)))
    (fun src ->
      let ids l = List.map (fun (f : Engine.finding) -> f.Engine.rule.Rule.id) l in
      let stripped =
        (* re-scan with rules whose prefilter is defeated by wrapping the
           source in text containing every literal *)
        Engine.scan src
      in
      ids stripped = ids (Engine.scan src))

let prop_scan_deterministic =
  QCheck.Test.make ~name:"scan is deterministic" ~count:50 pair_gen
    (fun (_, vuln, _) ->
      let ids l = List.map (fun (f : Engine.finding) -> f.Engine.rule.Rule.id) l in
      ids (Engine.scan vuln) = ids (Engine.scan vuln))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "patchitpy"
    [
      ( "catalog",
        [
          Alcotest.test_case "shape" `Quick test_catalog_shape;
          Alcotest.test_case "all rules fire" `Quick test_all_rules_fire_on_vulnerable;
          Alcotest.test_case "safe variants quiet" `Quick
            test_no_rule_fires_on_its_safe_variant;
        ] );
      ( "patcher",
        [
          Alcotest.test_case "fixes eliminate findings" `Quick
            test_fixes_eliminate_findings;
          Alcotest.test_case "idempotent" `Quick test_patch_idempotent;
          Alcotest.test_case "safe snippets mostly clean" `Quick
            test_safe_snippets_mostly_clean;
          Alcotest.test_case "end to end" `Quick test_patch_end_to_end;
          Alcotest.test_case "import insertion" `Quick test_import_insertion;
        ] );
      ( "engine",
        [
          Alcotest.test_case "positions" `Quick test_engine_positions;
          Alcotest.test_case "suppression window" `Quick test_suppression_window;
          Alcotest.test_case "multiple cwes" `Quick test_multiple_cwes_per_snippet;
        ] );
      ( "derive",
        [ Alcotest.test_case "table1 pipeline" `Quick test_derive_table1 ] );
      ( "javascript",
        [
          Alcotest.test_case "pack fires/quiet" `Quick test_js_pack;
          Alcotest.test_case "pack patches" `Quick test_js_patching;
          Alcotest.test_case "ids disjoint" `Quick test_js_ids_disjoint;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "findings shape" `Quick test_json_findings_shape;
          Alcotest.test_case "patch shape" `Quick test_json_patch_shape;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
          Alcotest.test_case "catalog markdown" `Quick test_catalog_markdown;
          Alcotest.test_case "jsonin values" `Quick test_jsonin_values;
          Alcotest.test_case "rule file load" `Quick test_rule_file_load;
          Alcotest.test_case "rule file errors" `Quick test_rule_file_errors;
          Alcotest.test_case "scan selection" `Quick test_scan_selection;
        ] );
      ("report", [ Alcotest.test_case "renders" `Quick test_report_renders ]);
      ( "edges",
        [
          Alcotest.test_case "edits at offset 0" `Quick test_edit_at_offset_zero;
          Alcotest.test_case "edits at EOF" `Quick test_edit_at_eof;
          Alcotest.test_case "adjacent edits and chained rounds" `Quick
            test_adjacent_edits;
          Alcotest.test_case "overlapping applications" `Quick
            test_overlapping_applications;
        ]
        @ qt [ prop_apply_is_splice ] );
      ( "imports",
        [
          Alcotest.test_case "word index corners" `Quick test_mentions_corners;
          Alcotest.test_case "unused imports dropped" `Quick
            test_stale_imports_dropped;
        ]
        @ qt [ prop_mentions_is_word_regex ] );
      ( "property",
        qt
          [
            prop_patched_never_worse;
            prop_patch_of_safe_is_noop_or_clean;
            prop_scan_deterministic;
            prop_prefilter_equivalent;
          ] );
    ]
