(* Cryptographic-failure rules (OWASP A02): weak algorithms, weak
   randomness, certificate validation, cleartext transport, hard-coded
   credentials.  PIT-021 .. PIT-044. *)

let r = Rule.make

let rules =
  Rx.once @@ fun () ->
  [
    r ~id:"PIT-021" ~title:"MD5 is a broken hash algorithm"
      ~cwe:327 ~severity:Rule.High
      ~pattern:{|hashlib\.md5\(|}
      ~suppress:{|usedforsecurity\s*=\s*False|}
      ~fix:(Rule.Replace_template "hashlib.sha256(")
      ~note:"Use SHA-256 or stronger for any security-relevant hashing." ();
    r ~id:"PIT-022" ~title:"SHA-1 is a broken hash algorithm"
      ~cwe:327 ~severity:Rule.High
      ~pattern:{|hashlib\.sha1\(|}
      ~suppress:{|usedforsecurity\s*=\s*False|}
      ~fix:(Rule.Replace_template "hashlib.sha256(")
      ~note:"Use SHA-256 or stronger for any security-relevant hashing." ();
    r ~id:"PIT-023" ~title:"Weak algorithm selected via hashlib.new()"
      ~cwe:328 ~severity:Rule.High
      ~pattern:{|hashlib\.new\(\s*["'](?:md5|md4|sha1)["']|}
      ~fix:(Rule.Replace_template {|hashlib.new("sha256"|})
      ~note:"Select a strong digest (sha256/sha512) in hashlib.new." ();
    r ~id:"PIT-024" ~title:"DES is obsolete"
      ~cwe:327 ~severity:Rule.High
      ~pattern:{|\bDES3?\.new\(|}
      ~fix:(Rule.Replace_template "AES.new(")
      ~imports:[ "from Crypto.Cipher import AES" ]
      ~note:"Use AES (GCM mode) instead of DES/3DES; check key length." ();
    r ~id:"PIT-025" ~title:"RC4 is obsolete"
      ~cwe:327 ~severity:Rule.High
      ~pattern:{|\bARC4\.new\(|}
      ~fix:(Rule.Replace_template "AES.new(")
      ~imports:[ "from Crypto.Cipher import AES" ]
      ~note:"Use AES (GCM mode) instead of RC4; check key/nonce handling." ();
    r ~id:"PIT-026" ~title:"AES in ECB mode leaks plaintext structure"
      ~cwe:327 ~severity:Rule.High
      ~pattern:{|AES\.new\(([^)\n]*),\s*AES\.MODE_ECB|}
      ~fix:(Rule.Replace_template "AES.new($1, AES.MODE_GCM")
      ~note:"Use an authenticated mode such as GCM." ();
    r ~id:"PIT-027" ~title:"random module used for a security value"
      ~cwe:330 ~severity:Rule.High
      ~pattern:
        {|\b(\w*(?:secret|token|key|password|nonce|salt|otp|session)\w*)\s*=\s*random\.(random|randint|choice|randrange|getrandbits|randbytes)\(|}
      ~fix:(Rule.Replace_template "$1 = secrets.SystemRandom().$2(")
      ~imports:[ "import secrets" ]
      ~note:"Derive security values from the secrets module, not random." ();
    r ~id:"PIT-028" ~title:"uuid1() embeds host and time, not randomness"
      ~cwe:330 ~severity:Rule.Medium
      ~pattern:{|uuid\.uuid1\(\)|}
      ~fix:(Rule.Replace_template "uuid.uuid4()")
      ~note:"uuid4 is random; uuid1 is predictable and identifying." ();
    r ~id:"PIT-029" ~title:"RSA key below 2048 bits"
      ~cwe:326 ~severity:Rule.High
      ~pattern:{|RSA\.generate\(\s*(?:512|768|1024)\b|}
      ~fix:(Rule.Replace_template "RSA.generate(2048")
      ~note:"Generate RSA keys of at least 2048 bits." ();
    r ~id:"PIT-030" ~title:"Key size parameter below 2048 bits"
      ~cwe:326 ~severity:Rule.High
      ~pattern:{|key_size\s*=\s*(?:512|768|1024)\b|}
      ~fix:(Rule.Replace_template "key_size=2048")
      ~note:"Generate asymmetric keys of at least 2048 bits." ();
    r ~id:"PIT-031" ~title:"TLS certificate verification disabled"
      ~cwe:295 ~severity:Rule.High
      ~pattern:
        {|(requests\.(?:get|post|put|delete|head|patch|request)\([^)\n]*)verify\s*=\s*False|}
      ~fix:(Rule.Replace_template "$1verify=True")
      ~note:"Never disable certificate verification in production." ();
    r ~id:"PIT-032" ~title:"Unverified SSL context"
      ~cwe:295 ~severity:Rule.High
      ~pattern:{|ssl\._create_unverified_context\(|}
      ~fix:(Rule.Replace_template "ssl.create_default_context(")
      ~note:"Use ssl.create_default_context, which verifies certificates." ();
    r ~id:"PIT-033" ~title:"Certificate requirement disabled (CERT_NONE)"
      ~cwe:295 ~severity:Rule.High
      ~pattern:{|cert_reqs\s*=\s*ssl\.CERT_NONE|}
      ~fix:(Rule.Replace_template "cert_reqs=ssl.CERT_REQUIRED")
      ~note:"Require certificates on TLS sockets." ();
    r ~id:"PIT-034" ~title:"Hostname checking disabled"
      ~cwe:295 ~severity:Rule.High
      ~pattern:{|\.check_hostname\s*=\s*False|}
      ~fix:(Rule.Replace_template ".check_hostname = True")
      ~note:"Hostname verification must stay on." ();
    r ~id:"PIT-035" ~title:"Paramiko auto-accepts unknown host keys"
      ~cwe:295 ~severity:Rule.High
      ~pattern:{|set_missing_host_key_policy\(\s*paramiko\.AutoAddPolicy\(\)\s*\)|}
      ~fix:
        (Rule.Replace_template
           "set_missing_host_key_policy(paramiko.RejectPolicy())")
      ~note:"Reject unknown host keys; provision known_hosts instead." ();
    r ~id:"PIT-036" ~title:"Obsolete SSL/TLS protocol version"
      ~cwe:326 ~severity:Rule.High
      ~pattern:{|ssl\.PROTOCOL_(?:SSLv2|SSLv3|SSLv23|TLSv1|TLSv1_1)\b|}
      ~fix:(Rule.Replace_template "ssl.PROTOCOL_TLS_CLIENT")
      ~note:"Negotiate TLS 1.2+ via PROTOCOL_TLS_CLIENT." ();
    r ~id:"PIT-037" ~title:"Telnet transmits credentials in cleartext"
      ~cwe:319 ~severity:Rule.High
      ~pattern:{|telnetlib\.Telnet\(|}
      ~note:"Use SSH (paramiko) instead of telnet." ();
    r ~id:"PIT-038" ~title:"Plain FTP transmits credentials in cleartext"
      ~cwe:319 ~severity:Rule.High
      ~pattern:{|ftplib\.FTP\(|}
      ~fix:(Rule.Replace_template "ftplib.FTP_TLS(")
      ~note:"Use FTPS (FTP_TLS) or SFTP." ();
    r ~id:"PIT-039" ~title:"Sensitive request over plain HTTP"
      ~cwe:319 ~severity:Rule.Medium
      ~pattern:{|(requests\.\w+\(\s*f?["'])http://|}
      ~suppress:{|localhost|127\.0\.0\.1|}
      ~fix:(Rule.Replace_template "$1https://")
      ~note:"Use HTTPS endpoints." ();
    r ~id:"PIT-040" ~title:"Hard-coded password assignment"
      ~cwe:798 ~severity:Rule.Critical
      ~pattern:{|^(\s*)(\w*[Pp]assword\w*)\s*=\s*["'][^"'\n]+["']\s*$|}
      ~suppress:{|os\.environ|getpass|input\(|}
      ~fix:(Rule.Replace_template {|$1$2 = os.environ.get("APP_PASSWORD", "")|})
      ~imports:[ "import os" ]
      ~note:"Read credentials from the environment or a secret store." ();
    r ~id:"PIT-041" ~title:"Hard-coded password keyword argument"
      ~cwe:259 ~severity:Rule.Critical
      ~pattern:{|\b(password|passwd|pwd)\s*=\s*["'][^"'\n]+["']\s*([,)])|}
      ~suppress:{|os\.environ|}
      ~fix:(Rule.Replace_template {|$1=os.environ.get("DB_PASSWORD", "")$2|})
      ~imports:[ "import os" ]
      ~note:"Read credentials from the environment or a secret store." ();
    r ~id:"PIT-042" ~title:"Hard-coded application secret key"
      ~cwe:321 ~severity:Rule.Critical
      ~pattern:{|(app\.secret_key|\w*SECRET_KEY\w*)\s*=\s*["'][^"'\n]+["']|}
      ~suppress:{|os\.environ|secrets\.|}
      ~fix:(Rule.Replace_template {|$1 = os.environ.get("SECRET_KEY", "")|})
      ~imports:[ "import os" ]
      ~note:"Load secret keys from the environment." ();
    r ~id:"PIT-043" ~title:"Password hashed with a single fast hash"
      ~cwe:916 ~severity:Rule.High
      ~pattern:{|hashlib\.(?:sha256|sha512|sha1|md5)\(\s*(password\w*)((?:\.encode\(\))?)\s*\)|}
      ~suppress:{|pbkdf2|}
      ~fix:
        (Rule.Replace_template
           {|hashlib.pbkdf2_hmac("sha256", $1.encode(), os.urandom(16), 100000)|})
      ~imports:[ "import os" ]
      ~note:"Use a slow KDF (pbkdf2/bcrypt/scrypt) with a random salt." ();
    r ~id:"PIT-044" ~title:"JWT accepted without signature verification"
      ~cwe:347 ~severity:Rule.High
      ~pattern:{|(jwt\.decode\([^)\n]*?)(verify\s*=\s*False|["']verify_signature["']\s*:\s*False)|}
      ~fix:
        (Rule.Rewrite
           Rewrite.
             [ Str (Grp 1, []);
               Cond
                 ( { subject = Grp 2; via = []; test = Starts_with "v" },
                   [ Lit "verify=True" ],
                   [ Lit {|"verify_signature": True|} ] ) ])
      ~note:"Verify JWT signatures; unverified tokens are attacker input." ();
  ]
