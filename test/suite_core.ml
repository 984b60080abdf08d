module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Klee = Pbse.Klee
module Registry = Pbse_targets.Registry
module Coverage = Pbse_exec.Coverage
module Executor = Pbse_exec.Executor
module Bug = Pbse_exec.Bug

(* A miniature staged parser with a deep planted bug: enough structure for
   phases, small enough for quick tests. *)
let mini_target_src =
  "fn stage1() {\n\
  \  if (in(0) != 'S') { return 0; }\n\
  \  if (in(1) != '1') { return 0; }\n\
  \  return 1;\n\
   }\n\
   fn stage2(n) {\n\
  \  var sum = 0;\n\
  \  var i = 0;\n\
  \  while (i < n) { sum = sum + in(4 + i); i = i + 1; }\n\
  \  return sum;\n\
   }\n\
   fn stage3(marker) {\n\
  \  var buf = alloc(8);\n\
  \  if (marker == 0xAB) { buf[12] = 1; }\n\
  \  return buf[0];\n\
   }\n\
   fn main() {\n\
  \  if (stage1() == 0) { return 1; }\n\
  \  var n = in(2);\n\
  \  if (n > 64) { return 2; }\n\
  \  out(stage2(n));\n\
  \  out(stage3(in(3)));\n\
  \  return 0;\n\
   }"

let mini_seed () =
  let b = Buffer.create 16 in
  Buffer.add_string b "S1";
  Buffer.add_char b '\008';
  Buffer.add_char b '\000';
  Buffer.add_string b "abcdefgh";
  Buffer.to_bytes b

let mini_program () = Pbse_lang.Frontend.compile mini_target_src

let test_klee_checkpoints_monotone () =
  let prog = mini_program () in
  let r =
    Klee.run prog ~searcher:"default" ~input:(Bytes.make 16 '\000')
      ~checkpoints:[ 5_000; 20_000; 60_000 ]
  in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "coverage monotone over checkpoints" true (monotone r.Klee.checkpoints);
  Alcotest.(check int) "three checkpoints" 3 (List.length r.Klee.checkpoints)

let test_klee_unknown_searcher () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Klee.run (mini_program ()) ~searcher:"nope" ~input:Bytes.empty ~checkpoints:[]);
       false
     with Invalid_argument _ -> true)

let run_driver ?(config = Session.default_config) ?(deadline = 150_000) () =
  Session.run ~config (mini_program ()) ~seed:(mini_seed ()) ~deadline

let test_driver_report_sane () =
  let report = run_driver () in
  Alcotest.(check bool) "c_time positive" true (report.Driver.c_time > 0);
  Alcotest.(check bool) "p_time positive" true (report.Driver.p_time > 0);
  Alcotest.(check bool) "interval length positive" true (report.Driver.interval_length > 0);
  Alcotest.(check bool) "has phases" true
    (List.length report.Driver.division.Pbse_phase.Phase.phases >= 1);
  Alcotest.(check bool) "has seedStates" true (report.Driver.seed_state_count >= 1);
  Alcotest.(check int) "seed size recorded" (Bytes.length (mini_seed ()))
    report.Driver.seed_size

let test_driver_finds_deep_bug () =
  let report = run_driver () in
  match report.Driver.bugs with
  | [] -> Alcotest.fail "expected the stage3 bug"
  | bugs ->
    List.iter
      (fun ((bug : Bug.t), phase) ->
        Alcotest.(check string) "kind" "oob-write" bug.Bug.kind;
        Alcotest.(check bool) "confirmed" true bug.Bug.confirmed;
        Alcotest.(check bool) "phase attributed" true (phase >= 0);
        Alcotest.(check char) "witness marker byte" '\xAB' (Bytes.get bug.Bug.witness 3))
      bugs

let test_driver_beats_coverage_floor () =
  let report = run_driver () in
  let cov = Coverage.count (Executor.coverage report.Driver.executor) in
  (* concolic alone covers the seed path; pbSE must exceed it *)
  let concolic_only =
    let prog = mini_program () in
    let r = Pbse_exec.Concrete.run prog ~input:(mini_seed ()) in
    r.Pbse_exec.Concrete.blocks_entered
  in
  ignore concolic_only;
  Alcotest.(check bool) "covers most of the program" true (cov > 20)

let test_driver_coverage_at_monotone () =
  let report = run_driver () in
  let c1 = Session.coverage_at report 10_000 in
  let c2 = Session.coverage_at report 100_000 in
  let c3 = Session.coverage_at report max_int in
  Alcotest.(check bool) "monotone" true (c1 <= c2 && c2 <= c3);
  Alcotest.(check int) "final matches executor" c3
    (Coverage.count (Executor.coverage report.Driver.executor))

let test_driver_deterministic () =
  let a = run_driver () in
  let b = run_driver () in
  Alcotest.(check int) "same final coverage"
    (Coverage.count (Executor.coverage a.Driver.executor))
    (Coverage.count (Executor.coverage b.Driver.executor));
  Alcotest.(check int) "same bug count" (List.length a.Driver.bugs)
    (List.length b.Driver.bugs)

let test_driver_config_variants () =
  (* the ablation configurations must all run to completion *)
  List.iter
    (fun config ->
      let report = run_driver ~config ~deadline:60_000 () in
      Alcotest.(check bool) "coverage positive" true
        (Coverage.count (Executor.coverage report.Driver.executor) > 0))
    [
      Session.(
        with_concolic
          (fun c -> { c with mode = Pbse_phase.Phase.Bbv_only })
          default_config);
      Session.(with_search (fun s -> { s with dedup_seed_states = false }) default_config);
      Session.(with_search (fun s -> { s with scheduler = "sequential" }) default_config);
      Session.(with_search (fun s -> { s with phase_searcher = "dfs" }) default_config);
      Session.(with_search (fun s -> { s with max_k = 4 }) default_config);
      Session.(with_concolic (fun c -> { c with interval_length = Some 40 }) default_config);
    ]

let test_driver_unknown_phase_searcher () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (run_driver
            ~config:
              Session.(
                with_search (fun s -> { s with phase_searcher = "zigzag" }) default_config)
            ());
       false
     with Invalid_argument _ -> true)

let test_select_seed_prefers_coverage_among_smallest () =
  (* with fewer than ten seeds the whole pool competes on coverage *)
  let small_bad = Bytes.make 4 'x' in
  let small_good = Bytes.make 6 'y' in
  let huge = Bytes.make 1000 'z' in
  let coverage_of b = if b == small_good then 100 else if b == huge then 50 else 10 in
  (match Driver.select_seed [ small_bad; huge; small_good ] ~coverage_of with
   | Some chosen -> Alcotest.(check bool) "picked small_good" true (chosen == small_good)
   | None -> Alcotest.fail "expected a seed");
  Alcotest.(check bool) "empty pool" true (Driver.select_seed [] ~coverage_of = None)

let test_select_seed_ignores_large_when_ten_smaller () =
  let seeds = List.init 10 (fun i -> Bytes.make (i + 1) 'a') in
  let big = Bytes.make 999 'b' in
  let coverage_of b = Bytes.length b in
  match Driver.select_seed (big :: seeds) ~coverage_of with
  | Some chosen -> Alcotest.(check bool) "big excluded" true (Bytes.length chosen <= 10)
  | None -> Alcotest.fail "expected a seed"

let test_run_pool_merges () =
  let prog = mini_program () in
  let seeds =
    [
      mini_seed ();
      Bytes.of_string "S1\002\171ab";
      (* marker 0xAB: triggers the bug concolically *)
      Bytes.of_string "S1\000\000";
    ]
  in
  let pool = Driver.run_pool prog ~seeds ~deadline:150_000 in
  Alcotest.(check int) "all seeds ran" 3 (List.length pool.Driver.runs);
  Alcotest.(check bool) "merged coverage at least per-run max" true
    (List.for_all
       (fun (_, r) ->
         pool.Driver.merged_coverage
         >= Coverage.count (Executor.coverage r.Driver.executor))
       pool.Driver.runs);
  Alcotest.(check bool) "bug found once across runs" true
    (List.length pool.Driver.merged_bugs = 1);
  (* smallest seed must have run first *)
  match pool.Driver.runs with
  | (first, _) :: _ -> Alcotest.(check int) "smallest first" 4 (Bytes.length first)
  | [] -> Alcotest.fail "no runs"

let test_testcase_generation_replays () =
  let src =
    "fn main() {\n\
    \  var a = in(0);\n\
    \  if (a < 10) { return 1; }\n\
    \  if (a == 200) { return 2; }\n\
    \  return 3;\n\
     }"
  in
  let prog = Pbse_lang.Frontend.compile src in
  let clock = Pbse_util.Vclock.create () in
  let exec = Executor.create ~clock prog ~input:(Bytes.make 1 '\000') in
  Executor.set_record_testcases exec true;
  let s =
    (Option.get (Pbse_exec.Searcher.by_name "dfs"))
      (Pbse_util.Rng.create 1) (Executor.cfg exec) (Executor.coverage exec)
  in
  s.Pbse_exec.Searcher.add (Executor.initial_state exec);
  Executor.explore exec s ~deadline:100_000;
  let cases = Executor.testcases exec in
  Alcotest.(check int) "three paths, three test cases" 3 (List.length cases);
  List.iter
    (fun (input, label) ->
      match (Pbse_exec.Concrete.run prog ~input).Pbse_exec.Concrete.outcome with
      | Pbse_exec.Concrete.Exit code ->
        Alcotest.(check string) "label matches replay"
          (Printf.sprintf "exit-%Ld" code)
          label
      | _ -> Alcotest.fail "testcase replay did not exit")
    cases

(* end-to-end on a real registry target, small budget *)
let test_driver_on_registry_target () =
  let t = Option.get (Registry.by_name "tcpdump") in
  let report =
    Session.run (Registry.program t) ~seed:(Registry.default_seed t) ~deadline:40_000
  in
  Alcotest.(check bool) "tcpdump covers blocks" true
    (Coverage.count (Executor.coverage report.Driver.executor) > 30);
  Alcotest.(check int) "tcpdump has no bugs" 0 (List.length report.Driver.bugs)

let suite =
  [
    Alcotest.test_case "klee checkpoints monotone" `Quick test_klee_checkpoints_monotone;
    Alcotest.test_case "klee unknown searcher" `Quick test_klee_unknown_searcher;
    Alcotest.test_case "driver report sane" `Quick test_driver_report_sane;
    Alcotest.test_case "driver finds deep bug" `Quick test_driver_finds_deep_bug;
    Alcotest.test_case "driver coverage floor" `Quick test_driver_beats_coverage_floor;
    Alcotest.test_case "driver coverage_at monotone" `Quick test_driver_coverage_at_monotone;
    Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
    Alcotest.test_case "driver config variants" `Quick test_driver_config_variants;
    Alcotest.test_case "driver unknown phase searcher" `Quick
      test_driver_unknown_phase_searcher;
    Alcotest.test_case "select_seed heuristic" `Quick
      test_select_seed_prefers_coverage_among_smallest;
    Alcotest.test_case "select_seed smallest ten" `Quick
      test_select_seed_ignores_large_when_ten_smaller;
    Alcotest.test_case "driver on tcpdump" `Quick test_driver_on_registry_target;
    Alcotest.test_case "run_pool merges" `Quick test_run_pool_merges;
    Alcotest.test_case "testcase generation replays" `Quick test_testcase_generation_replays;
  ]
