(* Crash-durability tests: snapshot serialisation (versioned, checksummed,
   byte-stable), checkpoint rotation and fallback, kill-and-resume report
   identity across every pool scheduler and jobs width, injected turn
   crashes and snapshot corruption, the turn watchdog, and the stable
   exception-detail normalization the replay contract depends on. *)

module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Snapshot = Pbse_campaign.Snapshot
module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Report = Pbse_telemetry.Report

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
    sn_degrade_faults = 1;
    sn_sched_turns = 9;
    sn_sched_rotations = 3;
    sn_sched_retirements = 1;
    sn_sched_state = [ ("pos", 2) ];
    sn_pool_faults = [ ("turn-timeout", 1); ("snapshot-corrupt", 0) ];
    sn_opened = [ 1; 3 ];
    sn_counters = [ ("pool.rounds", 3); ("campaign.turns", 9) ];
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
          sl_prefix_cap = 256;
          sl_crash_draws = 3;
          sl_events =
            [
              Snapshot.Step { deadline = 10_000; budget = 10_000 };
              Snapshot.Crash "injected-crash";
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
          sl_prefix_cap = -1;
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
         (function Snapshot.Crash "injected-crash" -> true | _ -> false)
         s1.Snapshot.sl_events)

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
  Snapshot.save ~path sn1;
  Snapshot.save ~path sn2;
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

(* --- graceful degradation --------------------------------------------------- *)

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
        Session.default_config.Session.robust.Session.watchdog_strikes
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

let test_resume_pool_shape_mismatch_degrades () =
  (* a snapshot for a different seed pool must not crash the resume: it
     restarts fresh with a Resume_mismatch on the record *)
  let path = Filename.temp_file "pbse_shape" ".json" in
  let ck =
    Driver.checkpoint ~meta:[ ("target", "mini") ] ~halt_after:1 ~path ~every:1 ()
  in
  let _ : Driver.pool_report =
    Driver.run_pool ~scheduler:"round-robin" ~checkpoint:ck (mini_program ())
      ~seeds:(pool_seeds ()) ~deadline:150_000
  in
  match Driver.load_snapshot ~path with
  | Error e -> Alcotest.fail e
  | Ok (sn, _) -> (
    match
      Driver.resume_pool sn (mini_program ())
        ~seeds:[ Bytes.of_string "XX" ] (* not the checkpointed pool *)
    with
    | Error e -> Alcotest.fail e
    | Ok pool ->
      Alcotest.(check bool) "mismatch recorded" true
        (Fault.count pool.Driver.pool_faults Fault.Resume_mismatch > 0);
      Alcotest.(check int) "campaign ran fresh over the new pool" 1
        (List.length pool.Driver.seed_rows))

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

(* --- config round-trip and fault-detail stability --------------------------- *)

let test_config_kvs_roundtrip () =
  let config =
    Session.default_config
    |> Session.with_concolic (fun c ->
           { c with Session.interval_length = Some 77; Session.time_period = 456 })
    |> Session.with_search (fun s ->
           { s with Session.scheduler = "sequential"; Session.max_live = 99 })
    |> Session.with_solver (fun s -> { s with Session.prefix_cap = 64 })
    |> Session.with_robust (fun r ->
           {
             r with
             Session.watchdog_factor = 7;
             Session.inject =
               (match Inject.parse "seed=3,crash=0.25,snapshot=0.5" with
                | Ok p -> p
                | Error e -> Alcotest.fail e);
           })
    |> Session.with_rng_seed 1234
  in
  match Session.config_of_kvs (Session.config_to_kvs config) with
  | Error e -> Alcotest.fail e
  | Ok rebuilt ->
    Alcotest.(check (list (pair string string)))
      "kvs round-trip is exact"
      (Session.config_to_kvs config)
      (Session.config_to_kvs rebuilt)

let test_config_kvs_ignores_unknown_and_rejects_bad () =
  (match Session.config_of_kvs [ ("target", "mini"); ("scheduler", "round-robin") ] with
   | Ok config ->
     Alcotest.(check (list (pair string string)))
       "unknown keys fall through to defaults"
       (Session.config_to_kvs Session.default_config)
       (Session.config_to_kvs config)
   | Error e -> Alcotest.fail e);
  match Session.config_of_kvs [ ("solver.budget", "lots") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed value accepted"

exception Custom_failure of string

let test_normalize_exn_stable () =
  let check name expected exn =
    Alcotest.(check string) name expected (Fault.normalize_exn exn)
  in
  check "failure" "failure" (Failure "anything: 0x7f33");
  check "invalid-argument" "invalid-argument" (Invalid_argument "x");
  check "not-found" "not-found" Not_found;
  check "division-by-zero" "division-by-zero" Division_by_zero;
  check "end-of-file" "end-of-file" End_of_file;
  check "sys-error" "sys-error" (Sys_error "/tmp/x: No such file");
  (* payloads (which vary run to run) are cut from custom exceptions *)
  let a = Fault.normalize_exn (Custom_failure "addr 0xdeadbeef") in
  let b = Fault.normalize_exn (Custom_failure "addr 0xcafef00d") in
  Alcotest.(check string) "custom payloads do not leak" a b;
  Alcotest.(check bool) "custom label is kebab-case" true
    (String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' || c = '-')
       a)

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
    Alcotest.test_case "certain crash retires pool gracefully" `Quick
      test_certain_crash_retires_pool_without_aborting;
    Alcotest.test_case "watchdog flags overrunning turns" `Slow
      test_watchdog_flags_overrunning_turns;
    Alcotest.test_case "resume pool-shape mismatch degrades" `Quick
      test_resume_pool_shape_mismatch_degrades;
    Alcotest.test_case "injected snapshot corruption detected" `Quick
      test_injected_snapshot_corruption_is_detected;
    Alcotest.test_case "config kvs roundtrip" `Quick test_config_kvs_roundtrip;
    Alcotest.test_case "config kvs unknown/bad keys" `Quick
      test_config_kvs_ignores_unknown_and_rejects_bad;
    Alcotest.test_case "normalize_exn stable" `Quick test_normalize_exn_stable;
    Alcotest.test_case "inject crash/snapshot channels" `Quick
      test_inject_parse_new_channels;
  ]
