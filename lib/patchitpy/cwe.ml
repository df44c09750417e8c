(* Names follow cwe.mitre.org (shortened where MITRE's title is long). *)
let registry =
  [
    (15, "External Control of System or Configuration Setting");
    (16, "Configuration");
    (20, "Improper Input Validation");
    (22, "Improper Limitation of a Pathname to a Restricted Directory ('Path Traversal')");
    (23, "Relative Path Traversal");
    (59, "Improper Link Resolution Before File Access ('Link Following')");
    (77, "Improper Neutralization of Special Elements used in a Command ('Command Injection')");
    (78, "Improper Neutralization of Special Elements used in an OS Command ('OS Command Injection')");
    (79, "Improper Neutralization of Input During Web Page Generation ('Cross-site Scripting')");
    (80, "Improper Neutralization of Script-Related HTML Tags in a Web Page");
    (88, "Improper Neutralization of Argument Delimiters in a Command");
    (89, "Improper Neutralization of Special Elements used in an SQL Command ('SQL Injection')");
    (90, "Improper Neutralization of Special Elements used in an LDAP Query ('LDAP Injection')");
    (91, "XML Injection");
    (93, "Improper Neutralization of CRLF Sequences ('CRLF Injection')");
    (94, "Improper Control of Generation of Code ('Code Injection')");
    (95, "Improper Neutralization of Directives in Dynamically Evaluated Code ('Eval Injection')");
    (96, "Improper Neutralization of Directives in Statically Saved Code");
    (113, "Improper Neutralization of CRLF Sequences in HTTP Headers ('HTTP Response Splitting')");
    (116, "Improper Encoding or Escaping of Output");
    (117, "Improper Output Neutralization for Logs");
    (200, "Exposure of Sensitive Information to an Unauthorized Actor");
    (209, "Generation of Error Message Containing Sensitive Information");
    (204, "Observable Response Discrepancy");
    (215, "Insertion of Sensitive Information Into Debugging Code");
    (250, "Execution with Unnecessary Privileges");
    (252, "Unchecked Return Value");
    (259, "Use of Hard-coded Password");
    (276, "Incorrect Default Permissions");
    (283, "Unverified Ownership");
    (287, "Improper Authentication");
    (295, "Improper Certificate Validation");
    (306, "Missing Authentication for Critical Function");
    (307, "Improper Restriction of Excessive Authentication Attempts");
    (319, "Cleartext Transmission of Sensitive Information");
    (321, "Use of Hard-coded Cryptographic Key");
    (326, "Inadequate Encryption Strength");
    (327, "Use of a Broken or Risky Cryptographic Algorithm");
    (328, "Use of Weak Hash");
    (330, "Use of Insufficiently Random Values");
    (331, "Insufficient Entropy");
    (338, "Use of Cryptographically Weak Pseudo-Random Number Generator (PRNG)");
    (347, "Improper Verification of Cryptographic Signature");
    (352, "Cross-Site Request Forgery (CSRF)");
    (362, "Concurrent Execution using Shared Resource with Improper Synchronization");
    (367, "Time-of-check Time-of-use (TOCTOU) Race Condition");
    (377, "Insecure Temporary File");
    (379, "Creation of Temporary File in Directory with Insecure Permissions");
    (384, "Session Fixation");
    (400, "Uncontrolled Resource Consumption");
    (406, "Insufficient Control of Network Message Volume");
    (409, "Improper Handling of Highly Compressed Data (Data Amplification)");
    (426, "Untrusted Search Path");
    (434, "Unrestricted Upload of File with Dangerous Type");
    (454, "External Initialization of Trusted Variables or Data Stores");
    (462, "Duplicate Key in Associative List");
    (477, "Use of Obsolete Function");
    (489, "Active Debug Code");
    (494, "Download of Code Without Integrity Check");
    (501, "Trust Boundary Violation");
    (502, "Deserialization of Untrusted Data");
    (521, "Weak Password Requirements");
    (522, "Insufficiently Protected Credentials");
    (532, "Insertion of Sensitive Information into Log File");
    (595, "Comparison of Object References Instead of Object Contents");
    (601, "URL Redirection to Untrusted Site ('Open Redirect')");
    (605, "Multiple Binds to the Same Port");
    (611, "Improper Restriction of XML External Entity Reference");
    (613, "Insufficient Session Expiration");
    (614, "Sensitive Cookie in HTTPS Session Without 'Secure' Attribute");
    (639, "Authorization Bypass Through User-Controlled Key");
    (640, "Weak Password Recovery Mechanism for Forgotten Password");
    (641, "Improper Restriction of Names for Files and Other Resources");
    (643, "Improper Neutralization of Data within XPath Expressions ('XPath Injection')");
    (653, "Improper Isolation or Compartmentalization");
    (668, "Exposure of Resource to Wrong Sphere");
    (676, "Use of Potentially Dangerous Function");
    (703, "Improper Check or Handling of Exceptional Conditions");
    (706, "Use of Incorrectly-Resolved Name or Reference");
    (732, "Incorrect Permission Assignment for Critical Resource");
    (759, "Use of a One-Way Hash without a Salt");
    (760, "Use of a One-Way Hash with a Predictable Salt");
    (776, "Improper Restriction of Recursive Entity References in DTDs ('XML Entity Expansion')");
    (798, "Use of Hard-coded Credentials");
    (827, "Improper Control of Document Type Definition");
    (829, "Inclusion of Functionality from Untrusted Control Sphere");
    (835, "Loop with Unreachable Exit Condition ('Infinite Loop')");
    (841, "Improper Enforcement of Behavioral Workflow");
    (915, "Improperly Controlled Modification of Dynamically-Determined Object Attributes");
    (916, "Use of Password Hash With Insufficient Computational Effort");
    (918, "Server-Side Request Forgery (SSRF)");
    (941, "Incorrectly Specified Destination in a Communication Channel");
    (1004, "Sensitive Cookie Without 'HttpOnly' Flag");
    (1204, "Generation of Weak Initialization Vector (IV)");
    (1236, "Improper Neutralization of Formula Elements in a CSV File");
    (1333, "Inefficient Regular Expression Complexity");
    (1336, "Improper Neutralization of Special Elements Used in a Template Engine");
  ]

let table = Hashtbl.create 128

let () = List.iter (fun (id, nm) -> Hashtbl.replace table id nm) registry

let name id =
  match Hashtbl.find_opt table id with Some nm -> nm | None -> "Unknown CWE"

(* [Printf.sprintf "CWE-%03d"] without the format interpreter: the JSON
   writers label every finding with it. *)
let label id =
  if id < 0 then Printf.sprintf "CWE-%03d" id
  else
    let digits = string_of_int id in
    match String.length digits with
    | 1 -> "CWE-00" ^ digits
    | 2 -> "CWE-0" ^ digits
    | _ -> "CWE-" ^ digits

let known = List.sort compare (List.map fst registry)

let is_known id = Hashtbl.mem table id
