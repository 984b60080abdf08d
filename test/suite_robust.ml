(* Robustness pipeline tests: fault-injection plans, final solver
   Unknown answers, quarantine, and crash-freedom of the supervised driver
   under injected faults (docs/robustness.md). *)

module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Registry = Pbse_targets.Registry
module Executor = Pbse_exec.Executor
module Bug = Pbse_exec.Bug
module Solver = Pbse_smt.Solver
module Expr = Pbse_smt.Expr
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Quarantine = Pbse_robust.Quarantine
module T = Pbse_ir.Types

(* --- fault log ------------------------------------------------------------ *)

let test_fault_log () =
  let log = Fault.log_create () in
  Alcotest.(check string) "empty summary" "no faults" (Fault.summary log);
  Fault.record log Fault.Exec_abort;
  Fault.record log Fault.Solver_unknown;
  Fault.record log Fault.Solver_unknown;
  Alcotest.(check int) "count" 2 (Fault.count log Fault.Solver_unknown);
  Alcotest.(check int) "total" 3 (Fault.total log);
  (* summary renders kinds in the fixed taxonomy order *)
  Alcotest.(check string) "summary" "solver-unknown=2 exec-abort=1"
    (Fault.summary log)

(* --- quarantine ----------------------------------------------------------- *)

let test_quarantine_eviction () =
  let q = Quarantine.create ~max_strikes:3 () in
  Alcotest.(check bool) "strike 1" false (Quarantine.strike q 42);
  Alcotest.(check bool) "strike 2" false (Quarantine.strike q 42);
  Alcotest.(check bool) "strike 3 evicts" true (Quarantine.strike q 42);
  Alcotest.(check int) "evicted" 1 (Quarantine.evicted q);
  Alcotest.(check int) "total strikes survive eviction" 3
    (Quarantine.total_strikes q);
  (* independent states have independent strike counts, and an
     eviction clears the state's record *)
  Alcotest.(check bool) "other state" false (Quarantine.strike q 7);
  Alcotest.(check bool) "record cleared" false (Quarantine.strike q 42);
  Alcotest.(check bool) "other state strike 2" false (Quarantine.strike q 7);
  Alcotest.(check bool) "other state strike 3 evicts" true (Quarantine.strike q 7)

let test_quarantine_min_strikes () =
  (* max_strikes is clamped to >= 1: the first strike evicts *)
  let q = Quarantine.create ~max_strikes:0 () in
  Alcotest.(check bool) "immediate eviction" true (Quarantine.strike q 1);
  Alcotest.(check int) "evicted" 1 (Quarantine.evicted q)

let test_quarantine_epoch_site_persistence () =
  let q = Quarantine.create ~max_strikes:3 () in
  ignore (Quarantine.strike q ~site:100 1);
  ignore (Quarantine.strike q ~site:100 1);
  Alcotest.(check bool) "third strike evicts" true (Quarantine.strike q ~site:100 1);
  (* a strike left open on another state *)
  ignore (Quarantine.strike q ~site:200 2);
  Alcotest.(check int) "totals count every strike" 4 (Quarantine.total_strikes q);
  Alcotest.(check int) "evictions counted" 1 (Quarantine.evicted q);
  (* the recorded site lowers the effective limit: two strikes now evict *)
  Alcotest.(check bool) "bad-site strike 1" false (Quarantine.strike q ~site:100 9);
  Alcotest.(check bool) "bad-site strike 2 evicts" true
    (Quarantine.strike q ~site:100 9);
  (* a fresh site still gets the full limit *)
  Alcotest.(check bool) "fresh-site strike 1" false (Quarantine.strike q ~site:300 10);
  Alcotest.(check bool) "fresh-site strike 2" false (Quarantine.strike q ~site:300 10);
  Alcotest.(check bool) "fresh-site strike 3 evicts" true
    (Quarantine.strike q ~site:300 10)

(* --- inject plans --------------------------------------------------------- *)

let test_inject_parse_roundtrip () =
  match Inject.parse "seed=7,solver=0.2,abort=0.1,mem=0.05" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check int) "seed" 7 plan.Inject.seed;
    Alcotest.(check (float 1e-9)) "solver" 0.2 plan.Inject.solver_unknown_rate;
    Alcotest.(check (float 1e-9)) "abort" 0.1 plan.Inject.exec_abort_rate;
    Alcotest.(check (float 1e-9)) "mem" 0.05 plan.Inject.mem_pressure_rate;
    Alcotest.(check bool) "active" true (Inject.is_active plan);
    (match Inject.parse (Inject.to_string plan) with
     | Ok plan' -> Alcotest.(check bool) "round-trips" true (plan = plan')
     | Error e -> Alcotest.fail ("round-trip: " ^ e))

let test_inject_parse_defaults () =
  (match Inject.parse "solver=0.5" with
   | Ok plan ->
     Alcotest.(check int) "default seed" 1 plan.Inject.seed;
     Alcotest.(check (float 1e-9)) "abort default" 0.0 plan.Inject.exec_abort_rate
   | Error e -> Alcotest.fail e);
  match Inject.parse "" with
  | Ok plan -> Alcotest.(check bool) "empty plan inactive" false (Inject.is_active plan)
  | Error e -> Alcotest.fail e

let test_inject_parse_errors () =
  let rejects spec =
    match Inject.parse spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" spec)
    | Error _ -> ()
  in
  rejects "solver=1.5";
  rejects "solver=-0.1";
  rejects "bogus=1";
  rejects "seed=x";
  rejects "solver";
  rejects "solver=0.1=0.2"

let test_inject_streams_deterministic () =
  let plan =
    match Inject.parse "seed=11,solver=0.3,abort=0.2,mem=0.1" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let draw () =
    let t = Inject.create plan in
    let seq = ref [] in
    for _ = 1 to 200 do
      seq :=
        Inject.fire_mem_pressure t :: Inject.fire_exec_abort t
        :: Inject.fire_solver_unknown t :: !seq
    done;
    let seq = List.rev !seq in
    (seq, List.length (List.filter Fun.id seq))
  in
  let s1, f1 = draw () in
  let s2, f2 = draw () in
  Alcotest.(check bool) "same decision sequence" true (s1 = s2);
  Alcotest.(check int) "same fire count" f1 f2;
  Alcotest.(check bool) "some fired" true (f1 > 0);
  Alcotest.(check bool) "not all fired" true (f1 < 600)

let test_inject_zero_rate_never_fires () =
  let t = Inject.create Inject.none in
  for _ = 1 to 100 do
    Alcotest.(check bool) "solver silent" false (Inject.fire_solver_unknown t);
    Alcotest.(check bool) "abort silent" false (Inject.fire_exec_abort t);
    Alcotest.(check bool) "mem silent" false (Inject.fire_mem_pressure t)
  done

let test_inject_concolic_channel () =
  (match Inject.parse "seed=3,concolic=0.5" with
   | Error e -> Alcotest.fail e
   | Ok plan ->
     Alcotest.(check (float 1e-9)) "rate parsed" 0.5 plan.Inject.concolic_drop_rate;
     Alcotest.(check bool) "active" true (Inject.is_active plan);
     (match Inject.parse (Inject.to_string plan) with
      | Ok plan' -> Alcotest.(check bool) "round-trips" true (plan = plan')
      | Error e -> Alcotest.fail ("round-trip: " ^ e));
     let t = Inject.create plan in
     let fired = ref 0 in
     for _ = 1 to 200 do
       if Inject.fire_concolic_drop t then incr fired
     done;
     Alcotest.(check bool) "some fired" true (!fired > 0);
     Alcotest.(check bool) "not all fired" true (!fired < 200));
  (* the concolic stream is split off last: adding the clause must not
     shift the decisions of the existing channels *)
  let draw spec =
    let plan = match Inject.parse spec with Ok p -> p | Error e -> failwith e in
    let t = Inject.create plan in
    let seq = ref [] in
    for _ = 1 to 100 do
      seq :=
        Inject.fire_mem_pressure t :: Inject.fire_exec_abort t
        :: Inject.fire_solver_unknown t :: !seq
    done;
    !seq
  in
  Alcotest.(check bool) "other channels unshifted" true
    (draw "seed=11,solver=0.3,abort=0.2,mem=0.1"
    = draw "seed=11,solver=0.3,abort=0.2,mem=0.1,concolic=0.9")

(* --- an Unknown answer is final ---------------------------------------- *)

(* A satisfiable sum-of-bytes equality, hopeless under a small budget. *)
let hard_query () =
  let rec sum i acc =
    if i >= 8 then acc else sum (i + 1) (Expr.bin T.Add acc (Expr.read i))
  in
  [ Expr.bin T.Eq (sum 1 (Expr.read 0)) (Expr.const 900L) ]

let test_solver_unknown_is_final () =
  (* budget 100 admits the per-query expression walk but is hopeless for
     the search. Every reissue runs under that same budget: none resolves,
     and none spends more than the budget plus the one charge that
     overran it (no charge for this 17-node constraint exceeds 17) *)
  let budget = 100 in
  let solver = Solver.create ~budget () in
  let q = hard_query () in
  for attempt = 1 to 12 do
    match Solver.check_assuming solver ~path:[] q with
    | Solver.Unknown, work ->
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d spends at most the base budget (%d)" attempt work)
        true
        (work <= budget + 17)
    | (Solver.Sat _ | Solver.Unsat), _ ->
      Alcotest.failf "attempt %d: an Unknown query must stay Unknown" attempt
  done;
  let st = Solver.stats solver in
  Alcotest.(check int) "every attempt answered Unknown" 12 st.Solver.unknown

(* --- driver under injection ------------------------------------------------ *)

let mini_program () = Pbse_lang.Frontend.compile Suite_core.mini_target_src
let mini_seed = Suite_core.mini_seed

let plan_of spec =
  match Inject.parse spec with Ok p -> p | Error e -> failwith e

let run_injected ?(deadline = 120_000) ?(max_strikes = 2) spec =
  let config =
    Session.(
      with_robust
        (fun r -> { r with inject = plan_of spec; max_strikes })
        default_config)
  in
  Session.run ~config (mini_program ()) ~seed:(mini_seed ()) ~deadline

let test_driver_quarantines_under_total_solver_failure () =
  (* every solver query gives up: lazily forked seedStates can never
     verify, so each should strike out and be quarantined -- and the run
     must still terminate normally *)
  let report = run_injected ~deadline:60_000 "seed=3,solver=1.0" in
  Alcotest.(check bool) "injected unknowns recorded" true
    (Fault.count report.Driver.faults Fault.Solver_injected > 0);
  Alcotest.(check bool) "states quarantined" true (report.Driver.quarantined > 0);
  Alcotest.(check bool) "strikes recorded" true
    (report.Driver.strikes >= 2 * report.Driver.quarantined)

let test_driver_contains_concolic_drops () =
  (* dropped lazy-fork seedStates are contained faults: the run completes
     and records every drop *)
  let report = run_injected ~deadline:60_000 "seed=4,concolic=0.6" in
  Alcotest.(check bool) "drops recorded" true
    (Fault.count report.Driver.faults Fault.Concolic_injected > 0);
  (* same plan, same drops: the concolic channel is deterministic too *)
  let again = run_injected ~deadline:60_000 "seed=4,concolic=0.6" in
  Alcotest.(check int) "deterministic drop count"
    (Fault.count report.Driver.faults Fault.Concolic_injected)
    (Fault.count again.Driver.faults Fault.Concolic_injected)

let test_driver_report_deterministic_under_injection () =
  let run () = run_injected "seed=9,solver=0.25,abort=0.15,mem=0.1" in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "same fault summary" (Fault.summary a.Driver.faults)
    (Fault.summary b.Driver.faults);
  Alcotest.(check bool) "same coverage samples" true
    (a.Driver.coverage_samples = b.Driver.coverage_samples);
  Alcotest.(check int) "same quarantine count" a.Driver.quarantined
    b.Driver.quarantined;
  Alcotest.(check int) "same strike count" a.Driver.strikes b.Driver.strikes;
  Alcotest.(check bool) "same bugs" true
    (List.map (fun (bug, p) -> (Bug.to_string bug, p)) a.Driver.bugs
    = List.map (fun (bug, p) -> (Bug.to_string bug, p)) b.Driver.bugs)

let test_driver_bug_dedup_survives_faults () =
  let report = run_injected ~deadline:200_000 "seed=5,solver=0.2,abort=0.1" in
  let keys = List.map (fun (bug, _) -> Bug.dedup_key bug) report.Driver.bugs in
  let uniq = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicate bug keys" (List.length uniq) (List.length keys)

let sweep_plan () =
  (* CI can pin a different plan via PBSE_INJECT *)
  let spec =
    match Sys.getenv_opt "PBSE_INJECT" with
    | Some s when String.trim s <> "" -> s
    | Some _ | None -> "seed=5,solver=0.15,abort=0.08,mem=0.05"
  in
  plan_of spec

let test_registry_sweep_never_crashes () =
  (* acceptance criterion: under a plan forcing solver Unknowns and
     executor aborts, Session.run completes on every bundled target *)
  let plan = sweep_plan () in
  let config = Session.(with_robust (fun r -> { r with inject = plan }) default_config) in
  let injected = ref 0 in
  List.iter
    (fun t ->
      let report =
        Session.run ~config (Registry.program t) ~seed:(Registry.default_seed t)
          ~deadline:30_000
      in
      injected :=
        !injected
        + Fault.count report.Driver.faults Fault.Solver_injected
        + Fault.count report.Driver.faults Fault.Exec_injected_abort;
      (* coverage samples stay monotone in time and coverage *)
      let rec monotone = function
        | (t1, c1) :: ((t2, c2) :: _ as rest) ->
          t1 <= t2 && c1 <= c2 && monotone rest
        | _ -> true
      in
      Alcotest.(check bool)
        (t.Registry.name ^ " coverage monotone")
        true
        (monotone report.Driver.coverage_samples))
    Registry.all;
  Alcotest.(check bool) "plan actually fired" true (!injected > 0)

let suite =
  [
    Alcotest.test_case "fault log" `Quick test_fault_log;
    Alcotest.test_case "quarantine eviction" `Quick test_quarantine_eviction;
    Alcotest.test_case "quarantine min strikes" `Quick test_quarantine_min_strikes;
    Alcotest.test_case "quarantine epoch and site persistence" `Quick
      test_quarantine_epoch_site_persistence;
    Alcotest.test_case "inject parse roundtrip" `Quick test_inject_parse_roundtrip;
    Alcotest.test_case "inject parse defaults" `Quick test_inject_parse_defaults;
    Alcotest.test_case "inject parse errors" `Quick test_inject_parse_errors;
    Alcotest.test_case "inject streams deterministic" `Quick
      test_inject_streams_deterministic;
    Alcotest.test_case "inject zero rate never fires" `Quick
      test_inject_zero_rate_never_fires;
    Alcotest.test_case "inject concolic channel" `Quick test_inject_concolic_channel;
    Alcotest.test_case "solver unknown is final" `Quick test_solver_unknown_is_final;
    Alcotest.test_case "driver quarantines under total solver failure" `Quick
      test_driver_quarantines_under_total_solver_failure;
    Alcotest.test_case "driver contains concolic drops" `Quick
      test_driver_contains_concolic_drops;
    Alcotest.test_case "driver report deterministic under injection" `Quick
      test_driver_report_deterministic_under_injection;
    Alcotest.test_case "driver bug dedup survives faults" `Quick
      test_driver_bug_dedup_survives_faults;
    Alcotest.test_case "registry sweep never crashes" `Slow
      test_registry_sweep_never_crashes;
  ]
