(* Crash-durability tests: snapshot serialisation (versioned, checksummed,
   byte-stable), checkpoint rotation and fallback, kill-and-resume report
   identity across every pool scheduler and jobs width, injected turn
   crashes and snapshot corruption, the turn watchdog, and the decoding
   of untrusted snapshot config. *)

module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Snapshot = Pbse_campaign.Snapshot
module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Report = Pbse_telemetry.Report
module Json = Pbse_telemetry.Json
module Checked_file = Pbse_telemetry.Checked_file

let schema = "pbse-snapshot/1"

(* A checkpoint write, as the driver makes it *)
let save ~path sn = Checked_file.write ~path (Snapshot.to_string sn)

let mini_program = Suite_core.mini_program
let pool_seeds = Suite_campaign.pool_seeds

(* --- snapshot documents ----------------------------------------------------- *)

let sample_snapshot () =
  {
    Snapshot.sn_meta = [ ("target", "mini"); ("scheduler", "round-robin") ];
    sn_deadline = 150_000;
    sn_spent = 42_000;
    sn_rounds = 3;
    sn_parallel_turns = 6;
    sn_merge_blocks = 17;
    sn_merge_bugs = 2;
    sn_checkpoints = 2;
    sn_sched_turns = 9;
    sn_sched_rotations = 3;
    sn_sched_retirements = 1;
    sn_sched_state = [ ("pos", 2) ];
    sn_pool_faults = [ ("turn-timeout", 1); ("snapshot-corrupt", 0) ];
    sn_opened = [ 1; 3 ];
    sn_slots =
      [
        {
          Snapshot.sl_ordinal = 1;
          sl_bytes = 6;
          sl_turns = 3;
          sl_granted = 30_000;
          sl_dwell = 28_000;
          sl_new_blocks = 12;
          sl_bugs = 1;
          sl_quarantined = 0;
          sl_strikes = 2;
          sl_timeouts = 1;
          sl_retired = false;
          sl_clock = 28_000;
          sl_coverage = 12;
          sl_crash_draws = 3;
          sl_events =
            [
              Snapshot.Step { deadline = 10_000; budget = 10_000 };
              Snapshot.Crash;
              Snapshot.Step { deadline = 21_000; budget = 10_000 };
            ];
        };
        {
          Snapshot.sl_ordinal = 2;
          sl_bytes = 9;
          sl_turns = 0;
          sl_granted = 0;
          sl_dwell = 0;
          sl_new_blocks = 0;
          sl_bugs = 0;
          sl_quarantined = 0;
          sl_strikes = 0;
          sl_timeouts = 0;
          sl_retired = true;
          sl_clock = 0;
          sl_coverage = 0;
          sl_crash_draws = 1;
          sl_events = [];
        };
      ];
    sn_bugs = [ { Snapshot.br_slot = 1; br_gid = 77; br_kind = "div-by-zero" } ];
  }

let test_snapshot_roundtrip_bytes () =
  let sn = sample_snapshot () in
  let doc = Snapshot.to_string sn in
  match Snapshot.of_string doc with
  | Error e -> Alcotest.fail (Snapshot.error_message e)
  | Ok parsed ->
    (* parse then re-render reproduces the document byte for byte — the
       checksum guards exactly these bytes *)
    Alcotest.(check string) "re-serialises byte-identically" doc
      (Snapshot.to_string parsed);
    Alcotest.(check int) "spent survives" sn.Snapshot.sn_spent
      parsed.Snapshot.sn_spent;
    Alcotest.(check int) "slots survive" 2 (List.length parsed.Snapshot.sn_slots);
    Alcotest.(check (list int)) "opened order survives" [ 1; 3 ]
      parsed.Snapshot.sn_opened;
    let s1 = List.hd parsed.Snapshot.sn_slots in
    Alcotest.(check int) "events survive" 3 (List.length s1.Snapshot.sl_events);
    Alcotest.(check bool) "crash event survives" true
      (List.exists
         (function Snapshot.Crash -> true | Snapshot.Step _ -> false)
         s1.Snapshot.sl_events);
    (* an older writer also stored a "counters" member after "opened";
       the reader ignores it, so such checkpoints still load *)
    let legacy =
      match Checked_file.parse ~schema doc with
      | Ok (Json.Obj members) ->
        Checked_file.render ~schema
          (Json.Obj
             (List.concat_map
                (fun ((k, _) as m) ->
                  if k = "opened" then
                    [ m; ("counters", Json.Obj [ ("pool.rounds", Json.Int 3) ]) ]
                  else [ m ])
                members))
      | _ -> Alcotest.fail "snapshot payload is not an object"
    in
    (match Snapshot.of_string legacy with
     | Ok old -> Alcotest.(check bool) "counters-era payload loads" true (old = sn)
     | Error e -> Alcotest.fail (Snapshot.error_message e))

let test_snapshot_checksum_catches_corruption () =
  let doc = Snapshot.to_string (sample_snapshot ()) in
  (* flip one byte in the payload half of the document *)
  let b = Bytes.of_string doc in
  Bytes.set b (Bytes.length b - 10) '#';
  (match Snapshot.of_string (Bytes.to_string b) with
   | Error (Snapshot.Corrupt _) -> ()
   | Error (Snapshot.Version_mismatch m) -> Alcotest.fail ("wrong error: " ^ m)
   | Ok _ -> Alcotest.fail "corrupted document parsed");
  match Snapshot.of_string "not json at all" with
  | Error (Snapshot.Corrupt _) -> ()
  | _ -> Alcotest.fail "garbage accepted"

let test_snapshot_version_mismatch () =
  let doc = Snapshot.to_string (sample_snapshot ()) in
  (* bump the schema version in place *)
  let idx =
    let rec find i =
      if String.sub doc i 15 = "pbse-snapshot/1" then i else find (i + 1)
    in
    find 0
  in
  let b = Bytes.of_string doc in
  Bytes.set b (idx + 14) '9';
  match Snapshot.of_string (Bytes.to_string b) with
  | Error (Snapshot.Version_mismatch _) -> ()
  | Error (Snapshot.Corrupt m) -> Alcotest.fail ("wrong error: " ^ m)
  | Ok _ -> Alcotest.fail "future-schema document accepted"

let test_save_rotates_and_falls_back () =
  let path = Filename.temp_file "pbse_snap" ".json" in
  let sn1 = sample_snapshot () in
  let sn2 = { sn1 with Snapshot.sn_spent = 43_000 } in
  save ~path sn1;
  save ~path sn2;
  Alcotest.(check bool) "previous checkpoint rotated to .bak" true
    (Sys.file_exists (path ^ ".bak"));
  (match Driver.load_snapshot ~path with
   | Ok (sn, None) ->
     Alcotest.(check int) "primary is the newest" 43_000 sn.Snapshot.sn_spent
   | Ok (_, Some why) -> Alcotest.fail ("unexpected fallback: " ^ why)
   | Error e -> Alcotest.fail e);
  (* corrupt the primary: load falls back to the .bak rotation and
     reports why *)
  let oc = open_out path in
  output_string oc "{\"schema\":\"pbse-snapshot/1\",\"checksum\":\"zzz\"}";
  close_out oc;
  (match Driver.load_snapshot ~path with
   | Ok (sn, Some _) ->
     Alcotest.(check int) "fell back to previous checkpoint" 42_000
       sn.Snapshot.sn_spent
   | Ok (_, None) -> Alcotest.fail "corrupt primary loaded without fallback"
   | Error e -> Alcotest.fail e);
  (* corrupt both: a combined error, never an exception *)
  let oc = open_out (path ^ ".bak") in
  output_string oc "garbage";
  close_out oc;
  match Driver.load_snapshot ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "doubly corrupt checkpoint loaded"

(* --- kill-and-resume report identity ---------------------------------------- *)

let report_meta = [ ("target", "mini") ]

let uninterrupted_json ?config ?(lease = 1) ?prog ?seeds ?(deadline = 150_000)
    ~scheduler ~jobs () =
  let prog = match prog with Some p -> p | None -> mini_program () in
  let seeds = match seeds with Some s -> s | None -> pool_seeds () in
  let pool =
    Driver.run_pool ?config ~scheduler ~runtime:(Suite_telemetry.instrumented ?config ())
      ~jobs ~lease prog ~seeds ~deadline
  in
  Report.to_json (Driver.pool_run_report ~meta:report_meta pool)

(* Run the same campaign but stop at round [kill_at]'s barrier with a
   checkpoint (a deterministic in-process SIGKILL), then resume from the
   file and render the finished campaign's report. *)
let killed_and_resumed_json ?config ?(lease = 1) ?prog ?seeds
    ?(deadline = 150_000) ~scheduler ~jobs ~kill_at () =
  let prog = match prog with Some p -> p | None -> mini_program () in
  let seeds = match seeds with Some s -> s | None -> pool_seeds () in
  let path = Filename.temp_file "pbse_resume" ".json" in
  let ck =
    Driver.checkpoint ~meta:[ ("target", "mini") ] ~halt_after:kill_at ~path ~every:1 ()
  in
  let _killed : Driver.pool_report =
    Driver.run_pool ?config ~scheduler ~runtime:(Suite_telemetry.instrumented ?config ())
      ~jobs ~lease ~checkpoint:ck prog ~seeds ~deadline
  in
  (* the resume turns telemetry back on from the snapshot meta *)
  match Driver.load_snapshot ~path with
  | Error e -> Alcotest.fail e
  | Ok (sn, fallback) -> (
    Alcotest.(check bool) "no fallback needed" true (fallback = None);
    match Driver.resume_pool ~jobs sn prog ~seeds with
    | Error e -> Alcotest.fail e
    | Ok pool -> Report.to_json (Driver.pool_run_report ~meta:report_meta pool))

let test_kill_resume_identity_all_schedulers () =
  (* the headline invariant: kill at a barrier + resume reproduces the
     uninterrupted pool report byte for byte, for every policy *)
  List.iter
    (fun scheduler ->
      let baseline = uninterrupted_json ~scheduler ~jobs:2 () in
      Alcotest.(check string)
        (scheduler ^ ": kill@1+resume matches uninterrupted")
        baseline
        (killed_and_resumed_json ~scheduler ~jobs:2 ~kill_at:1 ()))
    Pool_scheduler.names

let test_kill_resume_identity_across_jobs_and_rounds () =
  let scheduler = "round-robin" in
  let baseline = uninterrupted_json ~scheduler ~jobs:1 () in
  List.iter
    (fun (jobs, kill_at) ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d kill@%d matches jobs=1 uninterrupted" jobs
           kill_at)
        baseline
        (killed_and_resumed_json ~scheduler ~jobs ~kill_at ()))
    [ (1, 1); (2, 2); (4, 3) ]

let test_kill_resume_identity_with_leases () =
  (* snapshots written under multi-turn leases must resume to the same
     bytes: the lease is part of the snapshot meta and the resume picks
     it back up (killed_and_resumed_json never passes it to
     Driver.resume_pool), so the remaining rounds re-plan with the same
     work units *)
  let scheduler = "round-robin" in
  let baseline = uninterrupted_json ~lease:3 ~scheduler ~jobs:1 () in
  List.iter
    (fun (jobs, kill_at) ->
      Alcotest.(check string)
        (Printf.sprintf "lease=3 jobs=%d kill@%d matches jobs=1 uninterrupted"
           jobs kill_at)
        baseline
        (killed_and_resumed_json ~lease:3 ~scheduler ~jobs ~kill_at ()))
    [ (2, 1); (4, 2) ]

let test_kill_resume_identity_under_crash_injection () =
  (* injected turn kills (crash=R) are part of the durable record: the
     per-slot ledgers and RNG-draw counts replay them, so the invariant
     holds even for a campaign that was being actively crash-injected *)
  let inject =
    match Inject.parse "seed=9,crash=0.4" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let config = Session.(with_robust (fun r -> { r with inject }) default_config) in
  let scheduler = "round-robin" in
  let baseline = uninterrupted_json ~config ~scheduler ~jobs:1 () in
  Alcotest.(check string) "crash-injected: jobs=4 matches jobs=1" baseline
    (uninterrupted_json ~config ~scheduler ~jobs:4 ());
  Alcotest.(check string) "crash-injected: kill+resume matches" baseline
    (killed_and_resumed_json ~config ~scheduler ~jobs:2 ~kill_at:1 ());
  (* and the kills actually landed, or this proves nothing *)
  match Report.of_json baseline with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let struck =
      List.fold_left (fun acc (s : Report.seed_row) -> acc + s.Report.timeouts)
        0 r.Report.seeds
    in
    Alcotest.(check bool) "injected crashes struck seeds" true (struck > 0)

let test_kill_resume_rebuilds_interpolant_caches () =
  (* interpolant caches are deliberately not serialized: a resumed
     campaign rebuilds them deterministically by replaying turns. The
     mini program is too small to repeat unsat cores, so this runs a
     registry target. The resumed report must (a) match the
     uninterrupted bytes exactly and (b) show the subsumption layer
     actually at work after the resume — otherwise this proves identity
     of an idle feature *)
  let t =
    match Pbse_targets.Registry.by_name "gif2tiff" with
    | Some t -> t
    | None -> Alcotest.fail "gif2tiff not registered"
  in
  let prog = Pbse_targets.Registry.program t in
  let seeds = List.map snd t.Pbse_targets.Registry.seeds in
  let deadline = 25_000 in
  let scheduler = "round-robin" in
  let baseline =
    uninterrupted_json ~prog ~seeds ~deadline ~scheduler ~jobs:2 ()
  in
  let resumed =
    killed_and_resumed_json ~prog ~seeds ~deadline ~scheduler ~jobs:2 ~kill_at:1
      ()
  in
  Alcotest.(check string) "resume under subsumption is byte-identical" baseline
    resumed;
  match Report.of_json resumed with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "interpolant cache answered queries" true
      (Report.metric r "smt.interpolant_hits" > 0);
    Alcotest.(check bool) "states were subsumed" true
      (Report.metric r "smt.subsumed_states" > 0)

(* A leased, crash-injected, watchdogged campaign halted at round 2 and
   resumed. Every other identity test compares two runs of one binary;
   this one pins the bytes of the round-2 snapshot and of the final
   report, so a change to the pool loop that shifts either (the turn
   ledger, the watchdog's faults, the injection streams) fails here even
   when it shifts both runs alike. The campaign
   ends after round 2: a halt at round 1 resumes into live rounds, a
   halt at round 2 replays every ledger event. *)
let golden_config () =
  let inject =
    match Inject.parse "seed=3,crash=0.25" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Session.(
    default_config
    |> with_concolic (fun c -> { c with time_period = 200 })
    |> with_robust (fun r -> { r with inject; watchdog_factor = 1 }))

let golden_snapshot_digest = "8c5320a6a17e97cc0c6c69510a823091"
let golden_report_digest = "3eb5366bbb8fb3d87a751846d9fbe515"

let test_golden_pool_bytes () =
  let config = golden_config () in
  let scheduler = "round-robin" in
  let lease = 2 in
  let prog = mini_program () in
  let seeds = pool_seeds () in
  let baseline = uninterrupted_json ~config ~lease ~scheduler ~jobs:1 () in
  (* halt at [kill_at]'s barrier, resume at another width: the
     checkpoint document and the resumed report *)
  let halted_and_resumed kill_at =
    let path = Filename.temp_file "pbse_golden" ".json" in
    let ck = Driver.checkpoint ~meta:report_meta ~halt_after:kill_at ~path ~every:1 () in
    let _killed : Driver.pool_report =
      Driver.run_pool ~config ~scheduler
        ~runtime:(Suite_telemetry.instrumented ~config ())
        ~jobs:1 ~lease ~checkpoint:ck prog ~seeds ~deadline:150_000
    in
    let doc =
      match Checked_file.read ~path with Ok d -> d | Error e -> Alcotest.fail e
    in
    match Driver.load_snapshot ~path with
    | Error e -> Alcotest.fail e
    | Ok (sn, _) -> (
      Alcotest.(check int) "halted at the requested barrier" kill_at
        sn.Snapshot.sn_rounds;
      match Driver.resume_pool ~jobs:2 sn prog ~seeds with
      | Error e -> Alcotest.fail e
      | Ok pool -> (doc, Report.to_json (Driver.pool_run_report ~meta:report_meta pool)))
  in
  let _, resumed1 = halted_and_resumed 1 in
  Alcotest.(check string) "halt@1 resume matches uninterrupted" baseline resumed1;
  let doc2, resumed2 = halted_and_resumed 2 in
  Alcotest.(check string) "halt@2 resume matches uninterrupted" baseline resumed2;
  Alcotest.(check string) "round-2 snapshot digest" golden_snapshot_digest
    (Digest.to_hex (Digest.string doc2));
  Alcotest.(check string) "final report digest" golden_report_digest
    (Digest.to_hex (Digest.string baseline));
  (* the pinned campaign takes every turn path, or the pins prove little:
     watchdog overruns, kills of open sessions, a kill before one opened *)
  match Report.of_json baseline with
  | Error e -> Alcotest.fail e
  | Ok r ->
    List.iter
      (fun key ->
        Alcotest.(check bool) (key ^ " > 0") true (Report.metric r key > 0))
      [ "fault.turn-timeout"; "fault.exec-exception"; "pool.fault.exec-exception" ]

(* The same halt@2 checkpoint as written before snapshots dropped each
   slot's prefix cap, the pool's fault score and the detail string of
   crash events. The decoder ignores those members, so the file must
   still resume to the uninterrupted report with no mismatch or
   corruption on record. The path is relative to the test directory
   ([dune runtest]) or to the repository root ([dune exec]). *)
let legacy_golden_path () =
  List.find Sys.file_exists
    [ "fixtures/golden_halt2_legacy.json"; "test/fixtures/golden_halt2_legacy.json" ]

let test_legacy_golden_snapshot_resumes () =
  let legacy_golden_path = legacy_golden_path () in
  let config = golden_config () in
  let baseline =
    uninterrupted_json ~config ~lease:2 ~scheduler:"round-robin" ~jobs:1 ()
  in
  let doc =
    match Checked_file.read ~path:legacy_golden_path with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("fixture carries " ^ key) true
        (Suite_telemetry.contains ~needle:key doc))
    [ "\"prefix_cap\""; "\"crash\":\"injected-crash\"" ];
  match Driver.load_snapshot ~path:legacy_golden_path with
  | Error e -> Alcotest.fail e
  | Ok (sn, fallback) -> (
    Alcotest.(check bool) "no fallback needed" true (fallback = None);
    match Driver.resume_pool ~jobs:2 sn (mini_program ()) ~seeds:(pool_seeds ()) with
    | Error e -> Alcotest.fail e
    | Ok pool ->
      Alcotest.(check string) "resumes to the uninterrupted report" baseline
        (Report.to_json (Driver.pool_run_report ~meta:report_meta pool));
      List.iter
        (fun kind ->
          Alcotest.(check int) (Fault.label kind ^ " on record") 0
            (Fault.count pool.Driver.pool_faults kind))
        [ Fault.Resume_mismatch; Fault.Snapshot_corrupt ])

(* --- contained faults ------------------------------------------------------- *)

let test_certain_crash_retires_pool_without_aborting () =
  (* crash=1.0 kills every turn at entry: every seed strikes out at
     watchdog_strikes and force-retires; the campaign ends cleanly with
     the kills on the pool fault record and no sessions ever opened *)
  let inject =
    match Inject.parse "seed=5,crash=1.0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let config = Session.(with_robust (fun r -> { r with inject }) default_config) in
  let pool =
    Driver.run_pool ~config ~scheduler:"round-robin" (mini_program ())
      ~seeds:(pool_seeds ()) ~deadline:150_000
  in
  Alcotest.(check int) "no session survived to run" 0 (List.length pool.Driver.runs);
  Alcotest.(check bool) "kills recorded at pool level" true
    (Fault.count pool.Driver.pool_faults Fault.Exec_exception > 0);
  List.iter
    (fun (s : Report.seed_row) ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d struck out" s.Report.ordinal)
        3 (* the driver's fixed strike limit *)
        s.Report.timeouts)
    pool.Driver.seed_rows

let test_watchdog_flags_overrunning_turns () =
  (* a tight factor against tiny round-robin turn budgets: the first
     turn's setup (concolic + analysis) dwarfs its budget, so the
     watchdog must fire, strike the seed and stay deterministic *)
  let config =
    Session.default_config
    |> Session.with_concolic (fun c -> { c with Session.time_period = 100 })
    |> Session.with_robust (fun r -> { r with Session.watchdog_factor = 1 })
  in
  let json1 = uninterrupted_json ~config ~scheduler:"round-robin" ~jobs:1 () in
  Alcotest.(check string) "watchdogged campaign identical across jobs" json1
    (uninterrupted_json ~config ~scheduler:"round-robin" ~jobs:4 ());
  match Report.of_json json1 with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "turn timeouts recorded" true
      (Report.metric r "fault.turn-timeout" > 0);
    let struck =
      List.fold_left (fun acc (s : Report.seed_row) -> acc + s.Report.timeouts)
        0 r.Report.seeds
    in
    Alcotest.(check bool) "struck seeds reported" true (struck > 0)

(* The mini pool's round-robin campaign halted at its first barrier,
   and the checkpoint file it wrote. *)
let halted_mini_snapshot name =
  let path = Filename.temp_file name ".json" in
  let ck =
    Driver.checkpoint ~meta:[ ("target", "mini") ] ~halt_after:1 ~path ~every:1 ()
  in
  let _ : Driver.pool_report =
    Driver.run_pool ~scheduler:"round-robin" ~checkpoint:ck (mini_program ())
      ~seeds:(pool_seeds ()) ~deadline:150_000
  in
  match Driver.load_snapshot ~path with
  | Error e -> Alcotest.fail e
  | Ok (sn, _) -> (sn, path)

(* [sn] saved with a valid checksum and read back, as a resume reads it *)
let rewritten ~path sn =
  save ~path sn;
  match Driver.load_snapshot ~path with
  | Ok (sn, None) -> sn
  | Ok (_, Some why) -> Alcotest.fail ("unexpected fallback: " ^ why)
  | Error e -> Alcotest.fail e

let test_resume_pool_shape_mismatch_degrades () =
  (* a snapshot for a different seed pool must not crash the resume: it
     restarts fresh with a Resume_mismatch on the record *)
  let sn, path = halted_mini_snapshot "pbse_shape" in
  let resume_degrades what ~seeds sn =
    match Driver.resume_pool sn (mini_program ()) ~seeds with
    | Error e -> Alcotest.fail e
    | Ok pool ->
      Alcotest.(check bool) (what ^ ": mismatch recorded") true
        (Fault.count pool.Driver.pool_faults Fault.Resume_mismatch > 0);
      pool
  in
  let other_pool = [ Bytes.of_string "XX" ] in
  let pool = resume_degrades "pool shape" ~seeds:other_pool sn in
  Alcotest.(check int) "campaign ran fresh over the new pool" 1
    (List.length pool.Driver.seed_rows);
  (* the fresh start takes nothing from the rejected snapshot, the
     scheduler's counters included *)
  let fresh =
    Driver.run_pool ~scheduler:"round-robin" (mini_program ()) ~seeds:other_pool
      ~deadline:150_000
  in
  List.iter
    (fun key ->
      Alcotest.(check int) ("fresh start's " ^ key)
        (Report.metric (Driver.pool_run_report fresh) key)
        (Report.metric (Driver.pool_run_report pool) key))
    [ "pool.turns"; "pool.rotations" ];
  (* slot numbers are untrusted input: a well-formed, correctly
     checksummed snapshot naming a slot outside the pool degrades the
     same way instead of indexing out of bounds *)
  let rewritten = rewritten ~path in
  let seeds = pool_seeds () in
  ignore
    (resume_degrades "opened slot 99" ~seeds
       (rewritten { sn with Snapshot.sn_opened = sn.Snapshot.sn_opened @ [ 99 ] }));
  ignore
    (resume_degrades "bug in slot 99" ~seeds
       (rewritten
          {
            sn with
            Snapshot.sn_bugs =
              sn.Snapshot.sn_bugs
              @ [ { Snapshot.br_slot = 99; br_gid = 1; br_kind = "div-by-zero" } ];
          }))

let test_resume_repeated_ordinal_is_mismatch () =
  (* an opened ordinal listed twice is replayed once, with one mismatch
     on record, instead of summing that seed's run twice *)
  let sn, path = halted_mini_snapshot "pbse_repeat" in
  Alcotest.(check (list int)) "every seed opened in round 1" [ 1; 2; 3 ]
    sn.Snapshot.sn_opened;
  let repeated = rewritten ~path { sn with Snapshot.sn_opened = [ 1; 2; 3; 1 ] } in
  match Driver.resume_pool repeated (mini_program ()) ~seeds:(pool_seeds ()) with
  | Error e -> Alcotest.fail e
  | Ok pool ->
    Alcotest.(check int) "one run per seed" 3 (List.length pool.Driver.runs);
    Alcotest.(check int) "the repeat is one mismatch" 1
      (Fault.count pool.Driver.pool_faults Fault.Resume_mismatch)

(* The legacy fixture was taken with seedState sharing off and resumes
   (above). Turned on, the retired key names a campaign that would
   replay unshared and diverge, so the resume is refused. *)
let test_resume_refuses_shared_snapshot () =
  let key = "search.share_seed_states" in
  let sn =
    match Driver.load_snapshot ~path:(legacy_golden_path ()) with
    | Ok (sn, _) -> sn
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option string))
    "the fixture has sharing off" (Some "0")
    (List.assoc_opt key sn.Snapshot.sn_meta);
  let meta =
    List.map (fun (k, v) -> if k = key then (k, "1") else (k, v)) sn.Snapshot.sn_meta
  in
  let shared =
    rewritten
      ~path:(Filename.temp_file "pbse_shared" ".json")
      { sn with Snapshot.sn_meta = meta }
  in
  match Driver.resume_pool ~jobs:2 shared (mini_program ()) ~seeds:(pool_seeds ()) with
  | Ok _ -> Alcotest.fail "a snapshot with sharing on resumed"
  | Error e ->
    Alcotest.(check bool) e true
      (Suite_telemetry.contains ~needle:"sharing was removed" e)

let test_resume_rejects_bad_config () =
  (* snapshot meta is untrusted input: with a valid checksum, a config
     value the engine would fail on mid-campaign is a resume error *)
  let path = Filename.temp_file "pbse_badcfg" ".json" in
  List.iter
    (fun (key, value) ->
      let sn = sample_snapshot () in
      save ~path { sn with Snapshot.sn_meta = sn.Snapshot.sn_meta @ [ (key, value) ] };
      match Driver.load_snapshot ~path with
      | Error e -> Alcotest.fail e
      | Ok (sn, _) -> (
        match Driver.resume_pool sn (mini_program ()) ~seeds:(pool_seeds ()) with
        | Ok _ -> Alcotest.failf "%s=%s resumed" key value
        | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s=%s: %s" key value e)
            true
            (String.starts_with ~prefix:("snapshot config: " ^ key) e)))
    [
      ("search.max_k", "0");
      ("search.max_k", "4097");
      ("concolic.interval_length", "0");
      ("search.scheduler", "nope");
      ("search.phase_searcher", "nope");
    ]

let test_resume_extreme_int_keys () =
  (* every integer key a snapshot still carries, at the edges of the
     int range: a resume returns Ok or Error, it never raises *)
  let path = Filename.temp_file "pbse_intcfg" ".json" in
  let raised =
    List.concat_map
      (fun key ->
        List.filter_map
          (fun value ->
            let sn = sample_snapshot () in
            let meta = sn.Snapshot.sn_meta @ [ (key, value) ] in
            save ~path { sn with Snapshot.sn_meta = meta };
            match Driver.load_snapshot ~path with
            | Error e -> Some (Printf.sprintf "%s=%s: %s" key value e)
            | Ok (sn, _) -> (
              match Driver.resume_pool sn (mini_program ()) ~seeds:(pool_seeds ()) with
              | Ok _ | Error _ -> None
              | exception exn ->
                let why = Printexc.to_string exn in
                Some (Printf.sprintf "%s=%s raised %s" key value why)))
          [ "0"; "-1"; string_of_int max_int; string_of_int min_int ])
      [
        "concolic.interval_length";
        "concolic.intervals_target";
        "concolic.time_period";
        "search.max_k";
        "solver.prefix_cap";
        "robust.max_strikes";
        "robust.watchdog_factor";
        "rng_seed";
      ]
  in
  Alcotest.(check (list string)) "no resume raised" [] raised

let test_injected_snapshot_corruption_is_detected () =
  (* snapshot=1.0 corrupts every checkpoint write on disk; loading must
     fail the checksum on both the primary and its rotation, never crash
     or return garbage *)
  let inject =
    match Inject.parse "seed=5,snapshot=1.0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let config = Session.(with_robust (fun r -> { r with inject }) default_config) in
  let path = Filename.temp_file "pbse_corrupt" ".json" in
  let ck = Driver.checkpoint ~path ~every:1 () in
  let _ : Driver.pool_report =
    Driver.run_pool ~config ~scheduler:"round-robin" ~checkpoint:ck
      (mini_program ()) ~seeds:(pool_seeds ()) ~deadline:150_000
  in
  Alcotest.(check bool) "checkpoint file exists" true (Sys.file_exists path);
  (match Snapshot.load ~path with
   | Error (Snapshot.Corrupt _) -> ()
   | Error (Snapshot.Version_mismatch m) -> Alcotest.fail ("wrong error: " ^ m)
   | Ok _ -> Alcotest.fail "corrupted checkpoint passed its checksum");
  match Driver.load_snapshot ~path with
  | Error _ -> () (* every rotation was corrupted too *)
  | Ok _ -> Alcotest.fail "load_snapshot accepted a fully corrupted history"

(* --- config round-trip ------------------------------------------------------- *)

let test_config_kvs_roundtrip () =
  let config =
    Session.default_config
    |> Session.with_concolic (fun c ->
           { c with Session.interval_length = Some 77; Session.time_period = 456 })
    |> Session.with_search (fun s ->
           { s with Session.scheduler = "sequential"; Session.max_k = 9 })
    |> Session.with_solver (fun _ -> { Session.prefix_cap = 64 })
    |> Session.with_robust (fun r ->
           {
             r with
             Session.watchdog_factor = 7;
             Session.inject =
               (match Inject.parse "seed=3,crash=0.25,snapshot=0.5" with
                | Ok p -> p
                | Error e -> Alcotest.fail e);
           })
  in
  let config = { config with Session.rng_seed = 1234 } in
  match Session.config_of_kvs (Session.config_to_kvs config) with
  | Error e -> Alcotest.fail e
  | Ok rebuilt ->
    Alcotest.(check (list (pair string string)))
      "kvs round-trip is exact"
      (Session.config_to_kvs config)
      (Session.config_to_kvs rebuilt)

let test_config_kvs_ignores_unknown_and_rejects_bad () =
  (* snapshot meta keys, and the fields older snapshots still carry (the
     loop-summary switch; the solver budget and retry cap, the live-state
     cap, bug confirmation, the strike limit and the degradation step,
     all fixed constants now), decode to the defaults, whatever their
     value; the retired sharing switch does so only when off *)
  List.iter
    (fun kvs ->
      match Session.config_of_kvs kvs with
      | Ok config ->
        Alcotest.(check (list (pair string string)))
          "unknown keys fall through to defaults"
          (Session.config_to_kvs Session.default_config)
          (Session.config_to_kvs config)
      | Error e -> Alcotest.fail e)
    [
      [ ("target", "mini"); ("scheduler", "round-robin") ];
      [ ("pathcond.loop_summaries", "0") ];
      [ ("pathcond.loop_summaries", "1") ];
      [
        ("solver.budget", string_of_int max_int);
        ("solver.retry_cap", "7");
        ("search.max_live", "99");
        ("robust.confirm_bugs", "0");
        ("robust.watchdog_strikes", "0");
        ("robust.degrade_after", "0");
      ];
      [ ("solver.budget", "lots"); ("robust.confirm_bugs", "maybe") ];
      [ ("search.share_seed_states", "0") ];
      [ ("search.share_seed_states", "false") ];
    ];
  List.iter
    (fun kv ->
      match Session.config_of_kvs [ kv ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s=%s accepted" (fst kv) (snd kv))
    [
      ("solver.prefix_cap", "lots");
      ("search.share_seed_states", "1");
      ("search.share_seed_states", "true");
      ("search.share_seed_states", "maybe");
    ]

let test_inject_parse_new_channels () =
  match Inject.parse "seed=4,crash=0.5,snapshot=0.125" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check bool) "plan is active" true (Inject.is_active plan);
    (* the rendering round-trips through parse *)
    (match Inject.parse (Inject.to_string plan) with
     | Ok plan' ->
       Alcotest.(check string) "to_string/parse round-trip"
         (Inject.to_string plan) (Inject.to_string plan')
     | Error e -> Alcotest.fail e);
    (* rate-1 crash channel fires; rate-0 snapshot-corrupt never does *)
    let t =
      Inject.create
        (match Inject.parse "seed=4,crash=1.0" with
         | Ok p -> p
         | Error e -> Alcotest.fail e)
    in
    Alcotest.(check bool) "crash fires at rate 1" true (Inject.fire_turn_crash t);
    Alcotest.(check bool) "snapshot silent at rate 0" false
      (Inject.fire_snapshot_corrupt t)

let suite =
  [
    Alcotest.test_case "snapshot roundtrip bytes" `Quick test_snapshot_roundtrip_bytes;
    Alcotest.test_case "snapshot checksum catches corruption" `Quick
      test_snapshot_checksum_catches_corruption;
    Alcotest.test_case "snapshot version mismatch" `Quick test_snapshot_version_mismatch;
    Alcotest.test_case "save rotates and falls back" `Quick
      test_save_rotates_and_falls_back;
    Alcotest.test_case "kill+resume identity (all schedulers)" `Slow
      test_kill_resume_identity_all_schedulers;
    Alcotest.test_case "kill+resume identity (jobs x rounds)" `Slow
      test_kill_resume_identity_across_jobs_and_rounds;
    Alcotest.test_case "kill+resume identity under multi-turn leases" `Slow
      test_kill_resume_identity_with_leases;
    Alcotest.test_case "kill+resume identity under crash injection" `Slow
      test_kill_resume_identity_under_crash_injection;
    Alcotest.test_case "kill+resume rebuilds interpolant caches" `Slow
      test_kill_resume_rebuilds_interpolant_caches;
    Alcotest.test_case "golden bytes: leased watchdogged crash-injected resume" `Quick
      test_golden_pool_bytes;
    Alcotest.test_case "legacy golden snapshot resumes" `Quick
      test_legacy_golden_snapshot_resumes;
    Alcotest.test_case "certain crash retires pool gracefully" `Quick
      test_certain_crash_retires_pool_without_aborting;
    Alcotest.test_case "watchdog flags overrunning turns" `Slow
      test_watchdog_flags_overrunning_turns;
    Alcotest.test_case "resume pool-shape mismatch degrades" `Quick
      test_resume_pool_shape_mismatch_degrades;
    Alcotest.test_case "resume repeated opened ordinal is a mismatch" `Quick
      test_resume_repeated_ordinal_is_mismatch;
    Alcotest.test_case "injected snapshot corruption detected" `Quick
      test_injected_snapshot_corruption_is_detected;
    Alcotest.test_case "config kvs roundtrip" `Quick test_config_kvs_roundtrip;
    Alcotest.test_case "resume rejects bad config" `Quick test_resume_rejects_bad_config;
    Alcotest.test_case "resume refuses a snapshot with sharing on" `Quick
      test_resume_refuses_shared_snapshot;
    Alcotest.test_case "resume survives extreme integer keys" `Quick
      test_resume_extreme_int_keys;
    Alcotest.test_case "config kvs unknown/bad keys" `Quick
      test_config_kvs_ignores_unknown_and_rejects_bad;
    Alcotest.test_case "inject crash/snapshot channels" `Quick
      test_inject_parse_new_channels;
  ]
