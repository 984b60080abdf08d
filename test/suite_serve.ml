(* pbse-serve/2 tests: strict envelope parsing and frame round-trips,
   transport edges (endpoint parsing, self-pipe wakeup, bounded reads),
   token-bucket admission under an injected clock, store-file residue
   persistence, and an in-process server exercised end-to-end — byte
   identity with the CLI report, progress frames, warm answers across
   jobs widths, structured errors (the retired v1 one-liner included),
   quota exhaustion, oversized lines and mid-request disconnects. *)

module Driver = Pbse.Driver
module Serve = Pbse.Serve
module Session_store = Pbse_session.Session_store
module Report = Pbse_telemetry.Report
module Json = Pbse_telemetry.Json
module Checked_file = Pbse_telemetry.Checked_file
module Protocol = Pbse_serve.Protocol
module Transport = Pbse_serve.Transport
module Admission = Pbse_serve.Admission

let mini_program = Suite_core.mini_program
let pool_seeds = Suite_campaign.pool_seeds
let deadline = 5_000

(* --- protocol ---------------------------------------------------------------- *)

let base_request =
  {
    Protocol.rq_id = None;
    rq_client = None;
    rq_progress = false;
    rq_target = "mini";
    rq_deadline = deadline;
    rq_pool_scheduler = "";
    rq_scheduler = None;
    rq_jobs = None;
    rq_lease = 1;
    rq_share = false;
  }

let expect_error label expected line =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "%s: parsed but should be %s" label
              (Protocol.error_label expected)
  | Error (code, _) ->
    Alcotest.(check string) label
      (Protocol.error_label expected)
      (Protocol.error_label code)

let test_envelope_roundtrip () =
  let req =
    {
      base_request with
      Protocol.rq_id = Some "r1";
      rq_client = Some "ci";
      rq_progress = true;
      rq_deadline = 777;
      rq_pool_scheduler = "coverage-greedy";
      rq_scheduler = Some "round-robin";
      rq_jobs = Some 3;
      rq_lease = 2;
      (* still wire-legal: the server, not the parser, refuses it
         (serve structured errors) *)
      rq_share = true;
    }
  in
  match Protocol.parse_request (Protocol.render_request req) with
  | Error (_, e) -> Alcotest.failf "render/parse roundtrip failed: %s" e
  | Ok parsed -> Alcotest.(check bool) "roundtrips every field" true (parsed = req)

let test_envelope_strictness () =
  expect_error "malformed JSON" Protocol.Bad_json "{\"target\": ";
  expect_error "not an object" Protocol.Bad_request "[1, 2]";
  expect_error "unknown envelope field" Protocol.Bad_request
    "{\"pbse\": 2, \"bogus\": 1, \"params\": {\"target\": \"t\"}}";
  expect_error "duplicate envelope field" Protocol.Bad_request
    "{\"pbse\": 2, \"id\": \"a\", \"id\": \"b\", \"params\": {\"target\": \"t\"}}";
  expect_error "unknown params field" Protocol.Bad_request
    "{\"pbse\": 2, \"params\": {\"target\": \"t\", \"jbos\": 2}}";
  expect_error "duplicate params field" Protocol.Bad_request
    "{\"pbse\": 2, \"params\": {\"target\": \"t\", \"target\": \"u\"}}";
  expect_error "mistyped params field" Protocol.Bad_request
    "{\"pbse\": 2, \"params\": {\"target\": \"t\", \"deadline\": \"soon\"}}";
  expect_error "missing params" Protocol.Bad_request "{\"pbse\": 2}";
  expect_error "missing target" Protocol.Bad_request
    "{\"pbse\": 2, \"params\": {}}";
  expect_error "future version" Protocol.Unsupported_version
    "{\"pbse\": 3, \"params\": {\"target\": \"t\"}}";
  expect_error "retired v1 one-liner" Protocol.Unsupported_version
    "{\"target\": \"t\", \"deadline\": 42}";
  expect_error "non-integer version" Protocol.Bad_request
    "{\"pbse\": \"two\", \"params\": {\"target\": \"t\"}}"

let test_frame_roundtrip () =
  let check_frame label frame =
    let line = Protocol.render_frame frame in
    Alcotest.(check bool)
      (label ^ " newline-terminated")
      true
      (line.[String.length line - 1] = '\n');
    match Protocol.parse_frame (String.trim line) with
    | Ok parsed -> Alcotest.(check bool) (label ^ " roundtrips") true (parsed = frame)
    | Error e -> Alcotest.failf "%s failed to parse: %s" label e
  in
  check_frame "report" (Protocol.Report { id = Some "r"; bytes = 812 });
  check_frame "progress" (Protocol.Progress { id = None; round = 3 });
  check_frame "error"
    (Protocol.Error_frame
       {
         id = Some "r";
         code = Protocol.Over_capacity;
         message = "over capacity: retry after 2s";
         retry_after = Some 2;
       });
  (* retry_after is an integer on the wire — the Json layer has no
     floats, so this is enforced by construction; check the rendering *)
  let line =
    Protocol.render_frame
      (Protocol.Error_frame
         { id = None; code = Protocol.Over_capacity; message = "m"; retry_after = Some 5 })
  in
  Alcotest.(check bool) "retry_after rendered as integer" true
    (let json = Result.get_ok (Json.parse (String.trim line)) in
     Option.bind (Json.member "retry_after" json) Json.to_int = Some 5)

(* --- transport --------------------------------------------------------------- *)

let test_endpoint_parsing () =
  (match Transport.endpoint_of_string "127.0.0.1:7199" with
   | Ok (Transport.Tcp ("127.0.0.1", 7199)) -> ()
   | _ -> Alcotest.fail "HOST:PORT did not parse");
  List.iter
    (fun bad ->
      match Transport.endpoint_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ "no-port"; "host:"; "host:0"; "host:notanumber"; ":7199"; "host:70000" ]

let test_self_pipe_wakeup () =
  (* the accept loop blocks with no timeout; request_stop alone must
     wake it promptly *)
  let control = Transport.control_create () in
  let socket = Filename.temp_file "pbse-test" ".sock" in
  Sys.remove socket;
  let fd = Transport.listen (Transport.Unix_socket socket) in
  let finished = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        Transport.accept_loop control [ fd ] (fun c -> Unix.close c);
        Atomic.set finished true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "loop is blocked" false (Atomic.get finished);
  let t0 = Unix.gettimeofday () in
  Transport.request_stop control;
  Thread.join t;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "woke immediately (not a 200ms poll)" true
    (elapsed < 0.15);
  Transport.close_listener (Transport.Unix_socket socket) fd;
  Transport.control_close control

let test_bounded_reader () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd = Transport.reader a in
  let payload = String.make 100 'x' in
  ignore
    (Unix.write_substring b ("hello\n" ^ payload ^ "rest\n") 0
       (6 + String.length payload + 5));
  (match Transport.read_line rd with
   | Ok "hello" -> ()
   | _ -> Alcotest.fail "first line");
  (match Transport.read_exact rd 100 with
   | Ok s -> Alcotest.(check string) "exact payload" payload s
   | Error _ -> Alcotest.fail "read_exact failed");
  (match Transport.read_line rd with
   | Ok "rest" -> ()
   | _ -> Alcotest.fail "line after payload");
  (* an over-long line is an overflow, not a truncated success *)
  let big = String.make 600 'y' ^ "\n" in
  ignore (Unix.write_substring b big 0 (String.length big));
  (match Transport.read_line ~max:512 rd with
   | Error Transport.Overflow -> ()
   | _ -> Alcotest.fail "oversized line not rejected");
  Unix.close a;
  Unix.close b

(* --- admission --------------------------------------------------------------- *)

let test_admission_quota_bucket () =
  let clock = ref 0.0 in
  let t =
    Admission.create ~quota_burst:2 ~quota_refill:0.5 ~now:(fun () -> !clock) ()
  in
  let admit client =
    match Admission.admit t ~client with
    | Admission.Admit ticket ->
      Admission.release ticket;
      Ok ()
    | Admission.Reject { retry_after } -> Error retry_after
  in
  Alcotest.(check bool) "burst 1 admitted" true (admit "a" = Ok ());
  Alcotest.(check bool) "burst 2 admitted" true (admit "a" = Ok ());
  (* dry bucket: 1 token at 0.5/s is 2 seconds away *)
  (match admit "a" with
   | Error retry -> Alcotest.(check int) "retry_after from refill rate" 2 retry
   | Ok () -> Alcotest.fail "third burst admitted");
  Alcotest.(check int) "rejection counted" 1 (Admission.rejections t);
  (* another identity has its own bucket *)
  Alcotest.(check bool) "client b unaffected" true (admit "b" = Ok ());
  (* the clock refills the bucket *)
  clock := 2.5;
  Alcotest.(check bool) "refilled after 2.5s" true (admit "a" = Ok ());
  (match admit "a" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "refill over-credited the bucket");
  (* a zero refill rate still answers with a positive retry_after *)
  let frozen = Admission.create ~quota_burst:1 ~quota_refill:0.0 ~now:(fun () -> 0.0) () in
  ignore (Admission.admit frozen ~client:"c");
  (match Admission.admit frozen ~client:"c" with
   | Admission.Reject { retry_after } ->
     Alcotest.(check bool) "positive retry_after with no refill" true (retry_after >= 1)
   | Admission.Admit _ -> Alcotest.fail "frozen bucket admitted")

let test_admission_inflight_cap () =
  let t = Admission.create ~max_inflight:2 () in
  let take client =
    match Admission.admit t ~client with
    | Admission.Admit ticket -> ticket
    | Admission.Reject _ -> Alcotest.fail "under-cap admit rejected"
  in
  let t1 = take "a" in
  let t2 = take "b" in
  (match Admission.admit t ~client:"c" with
   | Admission.Reject { retry_after } ->
     Alcotest.(check int) "cap rejection retries in 1s" 1 retry_after
   | Admission.Admit _ -> Alcotest.fail "cap not enforced");
  Admission.release t1;
  (match Admission.admit t ~client:"c" with
   | Admission.Admit t3 -> Admission.release t3
   | Admission.Reject _ -> Alcotest.fail "released capacity not reusable");
  Admission.release t2;
  (* double release is a no-op, not an underflow: exactly two slots free *)
  Admission.release t2;
  ignore (take "d");
  ignore (take "e");
  match Admission.admit t ~client:"f" with
  | Admission.Reject _ -> ()
  | Admission.Admit _ -> Alcotest.fail "double release freed a third slot"

(* --- store-file persistence -------------------------------------------------- *)

let test_store_residue_persistence () =
  let store = Session_store.create () in
  Session_store.put_residue store ~fingerprint:"fp-1" "body one";
  Session_store.put_residue store ~fingerprint:"fp-2" "body two";
  Alcotest.(check bool) "residue recalled" true
    (Session_store.find_residue store ~fingerprint:"fp-1" = Some "body one");
  let path = Filename.temp_file "pbse-test" ".store" in
  Session_store.save store ~path;
  (* a fresh store (a restarted server) reloads both entries *)
  let reborn = Session_store.create () in
  (match Session_store.load reborn ~path with
   | Ok n -> Alcotest.(check int) "two entries reloaded" 2 n
   | Error e -> Alcotest.failf "load failed: %s" e);
  Alcotest.(check int) "reloads counted" 2 (Session_store.reloads reborn);
  let hits_before = Session_store.hits reborn in
  Alcotest.(check bool) "reloaded residue serves" true
    (Session_store.find_residue reborn ~fingerprint:"fp-2" = Some "body two");
  Alcotest.(check bool) "reloaded hit counts as a store hit" true
    (Session_store.hits reborn > hits_before);
  (* a corrupt file is an error and leaves the store unchanged *)
  let oc = open_out path in
  output_string oc "{\"schema\": \"pbse-store/1\", \"checksum\": \"fnv1a64:0000000000000000\", \"payload\": {\"entries\": []}}";
  close_out oc;
  let third = Session_store.create () in
  Session_store.put_residue third ~fingerprint:"fp-3" "body three";
  (match Session_store.load third ~path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "checksum mismatch accepted");
  Alcotest.(check bool) "corrupt load left the store unchanged" true
    (Session_store.find_residue third ~fingerprint:"fp-3" = Some "body three");
  (* a correctly checksummed payload without an entries list is an
     error too, not an empty store *)
  List.iter
    (fun (label, payload) ->
      let oc = open_out path in
      output_string oc (Checked_file.render ~schema:"pbse-store/1" payload);
      close_out oc;
      match Session_store.load third ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "store with %s accepted" label)
    [
      ("no entries list", Json.Obj []);
      ("non-list entries", Json.Obj [ ("entries", Json.Int 3) ]);
    ];
  Sys.remove path;
  (* residue cap evicts LRU *)
  let small = Session_store.create ~cap:2 () in
  Session_store.put_residue small ~fingerprint:"a" "A";
  Session_store.put_residue small ~fingerprint:"b" "B";
  ignore (Session_store.find_residue small ~fingerprint:"a");
  Session_store.put_residue small ~fingerprint:"c" "C";
  Alcotest.(check bool) "LRU residue evicted" true
    (Session_store.find_residue small ~fingerprint:"b" = None);
  Alcotest.(check bool) "touched residue survived" true
    (Session_store.find_residue small ~fingerprint:"a" = Some "A")

(* --- in-process server ------------------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "pbse-serve" ".sock" in
  Sys.remove path;
  path

let lookup name =
  if name = "mini" then Some (mini_program (), pool_seeds ()) else None

let with_server ?store_file ?max_inflight ?quota_burst ?quota_refill f =
  let socket = temp_socket () in
  let endpoint = Transport.Unix_socket socket in
  let control = Transport.control_create () in
  let stats_cell = ref None in
  let server =
    Thread.create
      (fun () ->
        stats_cell :=
          Some
            (Serve.serve ~endpoints:[ endpoint ] ~jobs:2 ?store_file
               ?max_inflight ?quota_burst ?quota_refill ~control ~lookup ()))
      ()
  in
  let rec wait_up n =
    if n = 0 then Alcotest.fail "server socket never came up"
    else if not (Sys.file_exists socket) then begin
      Thread.delay 0.02;
      wait_up (n - 1)
    end
  in
  wait_up 250;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Transport.request_stop control;
        Thread.join server;
        Transport.control_close control)
      (fun () -> f endpoint)
  in
  (result, Option.get !stats_cell)

let local_json () =
  (* same recipe as the server: a fresh runtime over a private enabled
     registry *)
  let pool =
    Driver.run_pool ~runtime:(Suite_telemetry.instrumented ()) (mini_program ())
      ~seeds:(pool_seeds ()) ~deadline
  in
  Report.to_json
    (Driver.pool_run_report
       ~meta:
         [
           ("target", "mini");
           ("seed", "pool");
           ("deadline", string_of_int deadline);
         ]
       pool)

let v2_line ?id ?client ?(progress = false) () =
  Protocol.render_request
    {
      base_request with
      Protocol.rq_id = id;
      rq_client = client;
      rq_progress = progress;
    }

let expect_body label expected = function
  | Ok body -> Alcotest.(check string) label expected body
  | Error e ->
    Alcotest.failf "%s failed: %s: %s" label e.Serve.err_code e.Serve.err_message

let test_serve_v2_identity_and_progress () =
  let expected = local_json () in
  let ((), stats) =
    with_server (fun endpoint ->
        (* cold request with progress: frames stream at round barriers,
           then the report *)
        let rounds = ref [] in
        expect_body "progress response" expected
          (Serve.request ~connect:endpoint
             ~on_progress:(fun r -> rounds := r :: !rounds)
             (v2_line ~id:"t1" ~progress:true ()));
        Alcotest.(check bool) "saw progress frames" true (!rounds <> []);
        Alcotest.(check bool) "rounds count up from 1" true
          (List.rev !rounds = List.init (List.length !rounds) (fun i -> i + 1));
        (* warm: identical bytes, no progress frames *)
        expect_body "warm response" expected
          (Serve.request ~connect:endpoint (v2_line ~id:"t2" ())))
  in
  Alcotest.(check int) "two clients" 2 stats.Serve.sv_clients;
  Alcotest.(check int) "two requests served" 2 stats.Serve.sv_requests;
  Alcotest.(check int) "no errors" 0 stats.Serve.sv_errors;
  Alcotest.(check int) "the warm request hit the store" 1 stats.Serve.sv_store_hits

let test_serve_warm_across_jobs () =
  (* jobs is excluded from the campaign fingerprint (reports are
     jobs-invariant), so the jobs=4 request is answered from the residue
     the jobs=1 campaign left behind *)
  let expected = local_json () in
  let at_jobs jobs =
    Protocol.render_request { base_request with Protocol.rq_jobs = Some jobs }
  in
  let ((), stats) =
    with_server (fun endpoint ->
        expect_body "jobs=1 response" expected
          (Serve.request ~connect:endpoint (at_jobs 1));
        expect_body "jobs=4 response" expected
          (Serve.request ~connect:endpoint (at_jobs 4)))
  in
  Alcotest.(check int) "jobs=1 missed the store" 1 stats.Serve.sv_store_misses;
  Alcotest.(check int) "jobs=4 hit the store" 1 stats.Serve.sv_store_hits;
  Alcotest.(check int) "both served" 2 stats.Serve.sv_requests

let expect_code label expected = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" label
  | Error e -> Alcotest.(check string) label expected e.Serve.err_code

let test_serve_structured_errors () =
  let ((), stats) =
    with_server (fun endpoint ->
        expect_code "malformed JSON" "bad-json"
          (Serve.request ~connect:endpoint "{\"target\": ");
        expect_code "unknown envelope field" "bad-request"
          (Serve.request ~connect:endpoint
             "{\"pbse\": 2, \"bogus\": 1, \"params\": {\"target\": \"mini\"}}");
        expect_code "duplicate envelope field" "bad-request"
          (Serve.request ~connect:endpoint
             "{\"pbse\": 2, \"id\": \"a\", \"id\": \"b\", \"params\": {\"target\": \"mini\"}}");
        expect_code "future version" "unsupported-version"
          (Serve.request ~connect:endpoint
             "{\"pbse\": 3, \"params\": {\"target\": \"mini\"}}");
        (* the retired v1 one-liner gets a v2 error frame *)
        expect_code "v1 one-liner" "unsupported-version"
          (Serve.request ~connect:endpoint
             (Printf.sprintf "{\"target\": \"mini\", \"deadline\": %d}" deadline));
        expect_code "unknown target" "unknown-target"
          (Serve.request ~connect:endpoint
             "{\"pbse\": 2, \"params\": {\"target\": \"nosuch\"}}");
        expect_code "unknown pool scheduler" "unknown-scheduler"
          (Serve.request ~connect:endpoint
             "{\"pbse\": 2, \"params\": {\"target\": \"mini\", \"pool_scheduler\": \"nosuch\"}}");
        (* seedState sharing was removed: true is refused by name *)
        (match
           Serve.request ~connect:endpoint
             "{\"pbse\": 2, \"params\": {\"target\": \"mini\", \"share\": true}}"
         with
         | Ok _ -> Alcotest.fail "\"share\": true was served"
         | Error e ->
           Alcotest.(check string) "share true" "bad-request" e.Serve.err_code;
           let why = e.Serve.err_message in
           Alcotest.(check bool) why true
             (Suite_telemetry.contains ~needle:"sharing was removed" why));
        (* an oversized request line is answered, structured, not dropped *)
        let huge =
          Printf.sprintf "{\"pbse\": 2, \"params\": {\"target\": \"mini\", \"scheduler\": %S}}"
            (String.make (Protocol.max_line + 64) 'x')
        in
        expect_code "oversized request" "oversized-request"
          (Serve.request ~connect:endpoint huge);
        (* after every error the server still serves a real campaign *)
        let expected = local_json () in
        expect_body "pool healthy after errors" expected
          (Serve.request ~connect:endpoint (v2_line ()));
        (* "share": false is still accepted, as the same campaign *)
        expect_body "share false" expected
          (Serve.request ~connect:endpoint
             (Printf.sprintf
                "{\"pbse\": 2, \"params\": {\"target\": \"mini\", \"deadline\": %d, \
                 \"share\": false}}"
                deadline)))
  in
  Alcotest.(check int) "errors counted" 9 stats.Serve.sv_errors;
  Alcotest.(check int) "two successes" 2 stats.Serve.sv_requests

let test_serve_quota_rejection () =
  let ((), stats) =
    with_server ~quota_burst:1 (fun endpoint ->
        expect_body "first request admitted" (local_json ())
          (Serve.request ~connect:endpoint (v2_line ~client:"c1" ()));
        (match Serve.request ~connect:endpoint (v2_line ~client:"c1" ()) with
         | Ok _ -> Alcotest.fail "burst of 2 admitted under quota_burst 1"
         | Error e ->
           Alcotest.(check string) "over-capacity code" "over-capacity"
             e.Serve.err_code;
           Alcotest.(check bool) "structured retry_after" true
             (match e.Serve.err_retry_after with Some s -> s >= 1 | None -> false));
        (* another client identity has its own bucket — and the pool is
           healthy after the rejection *)
        expect_body "other client admitted" (local_json ())
          (Serve.request ~connect:endpoint (v2_line ~client:"c2" ())))
  in
  Alcotest.(check int) "one rejection" 1 stats.Serve.sv_rejections;
  Alcotest.(check int) "two served" 2 stats.Serve.sv_requests

let test_serve_mid_request_disconnect () =
  let ((), stats) =
    with_server (fun endpoint ->
        (* connect, send a valid request, hang up immediately *)
        (match Transport.connect endpoint with
         | Error e -> Alcotest.failf "connect failed: %s" e
         | Ok fd ->
           let line = v2_line ~progress:true () ^ "\n" in
           ignore (Unix.write_substring fd line 0 (String.length line));
           Unix.close fd);
        (* the abandoned campaign completes in the background; the pool
           serves the next client the same bytes *)
        let expected = local_json () in
        expect_body "pool healthy after disconnect" expected
          (Serve.request ~connect:endpoint (v2_line ()));
        (* by the time that response was written the residue was cached,
           so a third request is served warm from the store *)
        expect_body "warm after disconnect" expected
          (Serve.request ~connect:endpoint (v2_line ())))
  in
  Alcotest.(check int) "all connections counted" 3 stats.Serve.sv_clients;
  Alcotest.(check bool) "campaign cached despite disconnect" true
    (stats.Serve.sv_store_hits > 0)

let test_serve_store_file_restart () =
  let store_file = Filename.temp_file "pbse-serve" ".store" in
  Sys.remove store_file;
  let expected = local_json () in
  let ((), cold) =
    with_server ~store_file (fun endpoint ->
        expect_body "cold boot" expected
          (Serve.request ~connect:endpoint (v2_line ())))
  in
  Alcotest.(check int) "cold boot reloaded nothing" 0 cold.Serve.sv_store_reloads;
  Alcotest.(check bool) "store file written" true (Sys.file_exists store_file);
  (* the restarted server serves the same bytes from the reloaded
     residue — a warm cache that survived the "deploy" *)
  let ((), warm) =
    with_server ~store_file (fun endpoint ->
        expect_body "warm reboot" expected
          (Serve.request ~connect:endpoint (v2_line ())))
  in
  Alcotest.(check bool) "residues reloaded at boot" true
    (warm.Serve.sv_store_reloads > 0);
  Alcotest.(check bool) "warm reboot hit the store" true
    (warm.Serve.sv_store_hits > 0);
  Sys.remove store_file;
  try Sys.remove (store_file ^ ".bak") with Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "v2 envelope roundtrip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "v2 strict parse edges" `Quick test_envelope_strictness;
    Alcotest.test_case "response frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "endpoint parsing" `Quick test_endpoint_parsing;
    Alcotest.test_case "self-pipe wakeup" `Quick test_self_pipe_wakeup;
    Alcotest.test_case "bounded reader" `Quick test_bounded_reader;
    Alcotest.test_case "admission quota bucket" `Quick test_admission_quota_bucket;
    Alcotest.test_case "admission in-flight cap" `Quick test_admission_inflight_cap;
    Alcotest.test_case "store residue persistence" `Quick
      test_store_residue_persistence;
    Alcotest.test_case "serve v2 identity + progress" `Slow
      test_serve_v2_identity_and_progress;
    Alcotest.test_case "serve warm across jobs widths" `Slow
      test_serve_warm_across_jobs;
    Alcotest.test_case "serve structured errors" `Slow test_serve_structured_errors;
    Alcotest.test_case "serve quota rejection" `Slow test_serve_quota_rejection;
    Alcotest.test_case "serve mid-request disconnect" `Slow
      test_serve_mid_request_disconnect;
    Alcotest.test_case "serve store-file restart" `Slow test_serve_store_file_restart;
  ]
