(* Campaign layer tests: seed-level scheduling policies and the generic
   campaign loop (lib/campaign) driven directly, plus Driver.run_pool
   edge cases and aggregate-report determinism on the mini target. *)

module Seed_slot = Pbse_campaign.Seed_slot
module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Campaign = Pbse_campaign.Campaign
module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Executor = Pbse_exec.Executor
module Coverage = Pbse_exec.Coverage
module Report = Pbse_telemetry.Report

let slot ?(size = 4) ordinal = Seed_slot.create ~ordinal (Bytes.make size 'a')

let make name slots =
  match Pool_scheduler.by_name name with
  | Some f -> f ~time_period:1000 slots
  | None -> Alcotest.fail ("unknown pool policy " ^ name)

(* A round's plan as (ordinal, budget) pairs, in plan order. *)
let planned ?(remaining = 10_000) sched =
  List.map
    (fun t -> (t.Pool_scheduler.slot.Seed_slot.ordinal, t.Pool_scheduler.budget))
    (sched.Pool_scheduler.plan ~remaining)

(* --- policies -------------------------------------------------------------- *)

let test_smallest_first_equal_share () =
  let s1 = slot 1 and s2 = slot 2 in
  let sched = make "smallest-first" [ s1; s2; slot 3 ] in
  (* one round: every slot, in pool order, an equal share of the balance *)
  Alcotest.(check (list (pair int int)))
    "equal shares in pool order" [ (1, 3000); (2, 3000); (3, 3000) ]
    (planned ~remaining:9000 sched);
  (* one turn per seed: crediting retires the slot, just as retiring does *)
  sched.Pool_scheduler.credit s1;
  sched.Pool_scheduler.retire s2;
  Alcotest.(check int) "retirements counted" 2
    sched.Pool_scheduler.stats.Pool_scheduler.retirements;
  Alcotest.(check (list (pair int int)))
    "only the untouched seed is left" [ (3, 8000) ]
    (planned ~remaining:8000 sched)

let test_round_robin_carries_unused_budget () =
  let s1 = slot 1 and s2 = slot 2 in
  let sched = make "round-robin" [ s1; s2 ] in
  Alcotest.(check (list (pair int int)))
    "quantum turns in pool order" [ (1, 1000); (2, 1000) ] (planned sched);
  (* the campaign loop owns the counters; emulate a round in which s1
     used only 400 of its 1000 grant and s2 used all of it *)
  s1.Seed_slot.granted <- 1000;
  s1.Seed_slot.dwell <- 400;
  sched.Pool_scheduler.credit s1;
  s2.Seed_slot.granted <- 1000;
  s2.Seed_slot.dwell <- 1000;
  sched.Pool_scheduler.credit s2;
  (* s1's unused 600 rolls onto its next turn; s2 overshot and gets none *)
  Alcotest.(check (list (pair int int)))
    "carry added" [ (1, 1600); (2, 1000) ] (planned sched)

let test_coverage_greedy_follows_ratio () =
  let s1 = slot 1 and s2 = slot 2 in
  let sched = make "coverage-greedy" [ s1; s2 ] in
  let order () = List.map fst (planned sched) in
  (* equal ratios: tie to the lower ordinal (the smaller seed) *)
  Alcotest.(check (list int)) "tie to lower ordinal" [ 1; 2 ] (order ());
  (* s2 earns blocks cheaply, s1 dwells for nothing: s2 goes first *)
  s1.Seed_slot.dwell <- 5000;
  s2.Seed_slot.dwell <- 1000;
  s2.Seed_slot.new_blocks <- 10;
  Alcotest.(check (list int)) "productive seed first" [ 2; 1 ] (order ());
  (* budget scales with the slot's own turn count *)
  s2.Seed_slot.turns <- 2;
  Alcotest.(check (list (pair int int)))
    "earned budget" [ (2, 3000); (1, 1000) ] (planned sched);
  (* a dried-up seed loses the lead *)
  s2.Seed_slot.new_blocks <- 0;
  s2.Seed_slot.dwell <- 20_000;
  s1.Seed_slot.new_blocks <- 3;
  Alcotest.(check (list int)) "lead changes with the ratio" [ 1; 2 ] (order ())

let test_pool_by_name_covers_names () =
  List.iter
    (fun name ->
      match Pool_scheduler.by_name name with
      | Some f ->
        let sched = f ~time_period:1000 [ slot 1 ] in
        Alcotest.(check string) (name ^ " self-names") name sched.Pool_scheduler.name
      | None -> Alcotest.fail ("by_name missed " ^ name))
    Pool_scheduler.names;
  Alcotest.(check bool) "default is listed" true
    (List.mem Pool_scheduler.default Pool_scheduler.names);
  Alcotest.(check bool) "unknown name rejected" true
    (Pool_scheduler.by_name "nope" = None)

(* --- campaign loop --------------------------------------------------------- *)

(* The campaign loop on a one-worker pool of its own, with a turn
   callback that reports its own outcome. *)
let run_campaign ~sched ~deadline turn =
  let pool = Pbse_campaign.Domain_pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Pbse_campaign.Domain_pool.shutdown pool) (fun () ->
      Campaign.run_rounds ~pool ~sched ~deadline ~jobs:1 ~run:turn
        ~merge:(fun _ ~budget:_ o -> o)
        ())

let test_campaign_loop_owns_counters () =
  let s1 = slot 1 and s2 = slot 2 in
  let sched = make "round-robin" [ s1; s2 ] in
  let spent =
    run_campaign ~sched ~deadline:3000 (fun _slot ~budget ->
        { Campaign.spent = budget; new_blocks = 2; finished = false })
  in
  Alcotest.(check int) "deadline consumed exactly" 3000 spent;
  Alcotest.(check int) "turns split 2/1" 2 s1.Seed_slot.turns;
  Alcotest.(check int) "second seed got one turn" 1 s2.Seed_slot.turns;
  Alcotest.(check int) "dwell tracked" 2000 s1.Seed_slot.dwell;
  Alcotest.(check int) "blocks credited" 4 s1.Seed_slot.new_blocks;
  (* the last round's balance covered s1 only: s2's clamped share of
     zero skipped it out of the rotation *)
  Alcotest.(check bool) "first seed still live" false s1.Seed_slot.retired;
  Alcotest.(check bool) "zero share retired" true s2.Seed_slot.retired

let test_campaign_retires_finished_and_stuck () =
  let s1 = slot 1 and s2 = slot 2 in
  let sched = make "round-robin" [ s1; s2 ] in
  let spent =
    run_campaign ~sched ~deadline:100_000 (fun slot ~budget:_ ->
        if slot.Seed_slot.ordinal = 1 then
          (* drains on its first turn *)
          { Campaign.spent = 500; new_blocks = 1; finished = true }
        else (* makes no progress: must be retired, not re-granted *)
          { Campaign.spent = 0; new_blocks = 0; finished = false })
  in
  Alcotest.(check int) "only the productive turn spent" 500 spent;
  Alcotest.(check bool) "both retired" true (s1.Seed_slot.retired && s2.Seed_slot.retired);
  Alcotest.(check int) "stuck seed got exactly one turn" 1 s2.Seed_slot.turns;
  Alcotest.(check bool) "rotation drained" true
    (sched.Pool_scheduler.plan ~remaining:100_000 = [])

let test_campaign_zero_deadline () =
  let s1 = slot 1 in
  let sched = make "smallest-first" [ s1 ] in
  let spent =
    run_campaign ~sched ~deadline:0 (fun _ ~budget:_ ->
        Alcotest.fail "no turn should be granted")
  in
  Alcotest.(check int) "nothing spent" 0 spent;
  Alcotest.(check int) "no turns" 0 s1.Seed_slot.turns

(* --- Driver.run_pool edge cases -------------------------------------------- *)

let mini_program = Suite_core.mini_program
let mini_seed = Suite_core.mini_seed

let pool_seeds () =
  [ mini_seed (); Bytes.of_string "S1\002\171ab"; Bytes.of_string "S1\000\000" ]

let test_run_pool_empty_seed_list () =
  let pool = Driver.run_pool (mini_program ()) ~seeds:[] ~deadline:50_000 in
  Alcotest.(check int) "no runs" 0 (List.length pool.Driver.runs);
  Alcotest.(check int) "no coverage" 0 pool.Driver.merged_coverage;
  Alcotest.(check int) "no seed rows" 0 (List.length pool.Driver.seed_rows);
  Alcotest.(check int) "nothing spent" 0 pool.Driver.pool_spent;
  (* the aggregate report is still a valid document *)
  let json = Report.to_json (Driver.pool_run_report pool) in
  match Report.of_json json with
  | Ok r -> Alcotest.(check int) "pool.seeds is zero" 0 (Report.metric r "pool.seeds")
  | Error e -> Alcotest.fail e

let test_run_pool_single_seed () =
  let pool =
    Driver.run_pool (mini_program ()) ~seeds:[ mini_seed () ] ~deadline:100_000
  in
  Alcotest.(check int) "one run" 1 (List.length pool.Driver.runs);
  Alcotest.(check int) "one row" 1 (List.length pool.Driver.seed_rows);
  let row = List.hd pool.Driver.seed_rows in
  Alcotest.(check bool) "the seed got budget" true (row.Report.granted > 0);
  Alcotest.(check bool) "coverage merged" true (pool.Driver.merged_coverage > 0);
  (* a single-seed pool matches a solo run's coverage at the same deadline *)
  let solo = Session.run (mini_program ()) ~seed:(mini_seed ()) ~deadline:100_000 in
  Alcotest.(check int) "same blocks as a solo run"
    (Coverage.count (Executor.coverage solo.Driver.executor))
    pool.Driver.merged_coverage

let test_run_pool_tiny_deadline () =
  (* a deadline smaller than any useful turn: the campaign must
     terminate cleanly, never loop, and report zero-ish rows *)
  let pool = Driver.run_pool (mini_program ()) ~seeds:(pool_seeds ()) ~deadline:10 in
  Alcotest.(check int) "rows for every seed" 3 (List.length pool.Driver.seed_rows);
  Alcotest.(check bool) "spent bounded by grants" true
    (List.for_all
       (fun (s : Report.seed_row) -> s.Report.turns <= 1)
       pool.Driver.seed_rows)

let test_run_pool_unknown_scheduler () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Driver.run_pool ~scheduler:"nope" (mini_program ()) ~seeds:(pool_seeds ())
            ~deadline:1000);
       false
     with Invalid_argument _ -> true)

let test_run_pool_schedulers_merge_alike () =
  (* every policy must run the whole pool on a generous deadline, find
     the planted bug (surfaced concolically by the marker seed), and
     report a merged set at least as large as any single run's *)
  List.iter
    (fun scheduler ->
      let pool =
        Driver.run_pool ~scheduler (mini_program ()) ~seeds:(pool_seeds ())
          ~deadline:300_000
      in
      Alcotest.(check string) "policy recorded" scheduler pool.Driver.pool_scheduler;
      Alcotest.(check int) (scheduler ^ ": all seeds ran") 3
        (List.length pool.Driver.runs);
      Alcotest.(check int) (scheduler ^ ": bug found once") 1
        (List.length pool.Driver.merged_bugs);
      Alcotest.(check bool) (scheduler ^ ": merged at least per-run max") true
        (List.for_all
           (fun (_, r) ->
             pool.Driver.merged_coverage
             >= Coverage.count (Executor.coverage r.Driver.executor))
           pool.Driver.runs))
    Pool_scheduler.names

let test_pool_reports_byte_identical () =
  (* identical seeded campaigns must serialise byte-identically, for
     every policy — the pool counterpart of the single-run determinism
     test *)
  let json scheduler =
    let pool =
      Driver.run_pool ~scheduler ~runtime:(Suite_telemetry.instrumented ())
        (mini_program ()) ~seeds:(pool_seeds ()) ~deadline:150_000
    in
    Report.to_json (Driver.pool_run_report ~meta:[ ("target", "mini") ] pool)
  in
  List.iter
    (fun scheduler ->
      let a = json scheduler in
      let b = json scheduler in
      Alcotest.(check bool) (scheduler ^ ": nonempty") true (String.length a > 0);
      Alcotest.(check string)
        (Printf.sprintf "byte-identical pool reports (%s)" scheduler)
        a b)
    Pool_scheduler.names

let test_pool_report_document () =
  let pool =
    Driver.run_pool ~scheduler:"coverage-greedy" (mini_program ())
      ~seeds:(pool_seeds ()) ~deadline:150_000
  in
  let report = Driver.pool_run_report ~meta:[ ("target", "mini") ] pool in
  let json = Report.to_json report in
  match Report.of_json json with
  | Error e -> Alcotest.fail ("of_json: " ^ e)
  | Ok r ->
    Alcotest.(check string) "roundtrip byte-identical" json (Report.to_json r);
    Alcotest.(check string) "scheduler in meta" "coverage-greedy"
      (match List.assoc_opt "pool_scheduler" r.Report.meta with
       | Some v -> v
       | None -> "(missing)");
    Alcotest.(check int) "pool.seeds" 3 (Report.metric r "pool.seeds");
    Alcotest.(check int) "merged coverage is the metric" pool.Driver.merged_coverage
      (Report.metric r "coverage.blocks");
    Alcotest.(check int) "dedup bugs are the metric"
      (List.length pool.Driver.merged_bugs)
      (Report.metric r "bugs.total");
    Alcotest.(check int) "per-seed rows survive the roundtrip" 3
      (List.length r.Report.seeds);
    (* per-seed new_blocks rows partition the merged set *)
    Alcotest.(check int) "rows sum to merged coverage" pool.Driver.merged_coverage
      (List.fold_left
         (fun acc (s : Report.seed_row) -> acc + s.Report.new_blocks)
         0 r.Report.seeds);
    (* diffing a pool report against itself works and mentions seeds *)
    let d = Report.diff r r in
    Alcotest.(check bool) "self-diff mentions seeds" true
      (Suite_telemetry.contains ~needle:"seeds: 3 -> 3" d)

let test_select_seed_tie_breaks_smallest () =
  (* equal coverage everywhere: the smallest seed wins the tie *)
  let s4 = Bytes.make 4 'a' and s6 = Bytes.make 6 'b' and s8 = Bytes.make 8 'c' in
  (match Driver.select_seed [ s8; s4; s6 ] ~coverage_of:(fun _ -> 7) with
   | Some chosen -> Alcotest.(check bool) "smallest wins ties" true (chosen == s4)
   | None -> Alcotest.fail "expected a seed");
  (* a larger seed must strictly beat the smaller one to take the pick *)
  match Driver.select_seed [ s4; s6 ] ~coverage_of:(fun s -> Bytes.length s) with
  | Some chosen -> Alcotest.(check bool) "strictly better wins" true (chosen == s6)
  | None -> Alcotest.fail "expected a seed"

let suite =
  [
    Alcotest.test_case "smallest-first equal share" `Quick test_smallest_first_equal_share;
    Alcotest.test_case "round-robin carries unused budget" `Quick
      test_round_robin_carries_unused_budget;
    Alcotest.test_case "coverage-greedy follows ratio" `Quick
      test_coverage_greedy_follows_ratio;
    Alcotest.test_case "pool by_name covers names" `Quick test_pool_by_name_covers_names;
    Alcotest.test_case "campaign loop owns counters" `Quick
      test_campaign_loop_owns_counters;
    Alcotest.test_case "campaign retires finished and stuck" `Quick
      test_campaign_retires_finished_and_stuck;
    Alcotest.test_case "campaign zero deadline" `Quick test_campaign_zero_deadline;
    Alcotest.test_case "run_pool empty seed list" `Quick test_run_pool_empty_seed_list;
    Alcotest.test_case "run_pool single seed" `Quick test_run_pool_single_seed;
    Alcotest.test_case "run_pool tiny deadline" `Quick test_run_pool_tiny_deadline;
    Alcotest.test_case "run_pool unknown scheduler" `Quick test_run_pool_unknown_scheduler;
    Alcotest.test_case "run_pool schedulers merge alike" `Quick
      test_run_pool_schedulers_merge_alike;
    Alcotest.test_case "pool reports byte-identical" `Quick
      test_pool_reports_byte_identical;
    Alcotest.test_case "pool report document" `Quick test_pool_report_document;
    Alcotest.test_case "select_seed tie-breaks smallest" `Quick
      test_select_seed_tie_breaks_smallest;
  ]
