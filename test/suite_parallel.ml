(* Parallelism tests: the domain-pool turn executor, the byte-identical
   [--jobs N] contract of Driver.run_pool (including under adversarial
   fault injection), the solver's prefix-context LRU bound, per-phase
   report histograms, and expression-arena isolation across domains. *)

module Domain_pool = Pbse_campaign.Domain_pool
module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Runtime = Pbse_session.Runtime
module Report = Pbse_telemetry.Report
module Telemetry = Pbse_telemetry.Telemetry
module Solver = Pbse_smt.Solver
module Expr = Pbse_smt.Expr
module Inject = Pbse_robust.Inject
module T = Pbse_ir.Types
module Registry = Pbse_targets.Registry

let mini_program = Suite_core.mini_program
let pool_seeds = Suite_campaign.pool_seeds

(* --- Domain_pool.map -------------------------------------------------------- *)

(* Deterministic busy work (no wall clock): enough iterations that a
   skewed distribution actually interleaves domain completion order. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

let test_map_results_in_input_order () =
  (* adversarial skew: the first tasks are the slowest, so with several
     workers the later tasks finish first — results must still come back
     in input order *)
  let inputs = List.init 16 (fun i -> i) in
  let f i =
    ignore (spin ((16 - i) * 20_000));
    i * i
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "input order at jobs=%d" jobs)
        (List.map (fun i -> i * i) inputs)
        (Domain_pool.map ~jobs f inputs))
    [ 1; 2; 4 ]

exception Boom of int

let test_map_reraises_earliest_failure () =
  (* two failing tasks; the one earliest in input order wins, regardless
     of which domain hit its exception first *)
  let f i =
    ignore (spin ((8 - i) * 10_000));
    if i = 2 || i = 5 then raise (Boom i);
    i
  in
  List.iter
    (fun jobs ->
      match Domain_pool.map ~jobs f (List.init 8 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "earliest failure at jobs=%d" jobs)
          2 i)
    [ 1; 4 ]

let test_map_clamps_jobs () =
  (* more workers than tasks, and degenerate widths, all behave *)
  let xs = [ 10; 20; 30 ] in
  let double x = x * 2 in
  Alcotest.(check (list int)) "jobs=64 on 3 tasks" [ 20; 40; 60 ]
    (Domain_pool.map ~jobs:64 double xs);
  Alcotest.(check (list int)) "jobs=0 runs inline" [ 20; 40; 60 ]
    (Domain_pool.map ~jobs:0 double xs);
  Alcotest.(check (list int)) "empty input" []
    (Domain_pool.map ~jobs:4 double [])

(* --- byte-identical pool reports across --jobs ------------------------------ *)

let pool_json ?config ?(scheduler = Pool_scheduler.default) ?(lease = 1) ~jobs () =
  let pool =
    Driver.run_pool ?config ~scheduler ~runtime:(Suite_telemetry.instrumented ?config ())
      ~jobs ~lease (mini_program ()) ~seeds:(pool_seeds ()) ~deadline:150_000
  in
  Report.to_json (Driver.pool_run_report ~meta:[ ("target", "mini") ] pool)

let test_pool_reports_identical_across_jobs () =
  (* the determinism contract (docs/parallelism.md): [--jobs N] is
     invisible in the report bytes, for every seed-level policy *)
  List.iter
    (fun scheduler ->
      let baseline = pool_json ~scheduler ~jobs:1 () in
      Alcotest.(check bool) (scheduler ^ ": nonempty") true
        (String.length baseline > 0);
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d matches jobs=1" scheduler jobs)
            baseline
            (pool_json ~scheduler ~jobs ()))
        [ 2; 4 ])
    Pool_scheduler.names

let test_pool_identical_under_fault_injection () =
  (* adversarial turn durations: injected faults skew how long each
     seed's turns take and which states survive, and the plan must still
     merge byte-identically at every width *)
  let inject =
    match Inject.parse "seed=7,solver=0.3,abort=0.2,mem=0.1,concolic=0.1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let config =
    Session.(with_robust (fun r -> { r with inject }) default_config)
  in
  let baseline = pool_json ~config ~jobs:1 () in
  Alcotest.(check string) "faulted campaign: jobs=4 matches jobs=1" baseline
    (pool_json ~config ~jobs:4 ());
  (* and the faults actually fired, or the test proves nothing *)
  match Report.of_json baseline with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let injected =
      List.fold_left
        (fun acc (name, v) ->
          if String.length name > 6 && String.sub name 0 6 = "fault." then
            acc + v
          else acc)
        0 r.Report.metrics
    in
    Alcotest.(check bool) "faults were injected" true (injected > 0)

let test_pool_identical_across_jobs_with_leases () =
  (* multi-turn leases coarsen the work units but must not re-introduce
     width into the report bytes: at any fixed lease, every width merges
     to the same campaign (docs/parallelism.md) *)
  List.iter
    (fun lease ->
      let baseline = pool_json ~lease ~jobs:1 () in
      Alcotest.(check bool)
        (Printf.sprintf "lease=%d: nonempty" lease)
        true
        (String.length baseline > 0);
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "lease=%d: jobs=%d matches jobs=1" lease jobs)
            baseline
            (pool_json ~lease ~jobs ()))
        [ 2; 4 ])
    [ 2; 3 ]

let test_pool_counters_jobs_independent () =
  let metrics json =
    match Report.of_json json with
    | Error e -> Alcotest.fail e
    | Ok r ->
      List.map
        (fun m -> (m, Report.metric r m))
        [
          "pool.rounds";
          "pool.parallel_turns";
          "pool.merge_blocks";
          "pool.merge_bugs";
          "pool.merge_registries";
        ]
  in
  let a = metrics (pool_json ~jobs:1 ()) in
  Alcotest.(check (list (pair string int)))
    "pool.* counters identical at jobs=4" a
    (metrics (pool_json ~jobs:4 ()));
  Alcotest.(check bool) "rounds counted" true
    (List.assoc "pool.rounds" a > 0);
  Alcotest.(check bool) "registries merged per seed" true
    (List.assoc "pool.merge_registries" a >= 3)

(* --- solver prefix-context LRU ---------------------------------------------- *)

(* an [extra] the empty hint model cannot satisfy, so check_assuming
   must actually consult the prefix context *)
let hard_extra k = [ Expr.bin T.Eq (Expr.read 1) (Expr.of_int (1 + (k land 0x7f))) ]

let test_prefix_lru_evicts () =
  (* many distinct path prefixes against the smallest cap (the solver
     clamps [prefix_cap] to at least 16): the LRU must stay bounded and
     count what it dropped *)
  let s = Solver.create ~prefix_cap:16 () in
  for k = 0 to 63 do
    let path = [ Expr.bin T.Eq (Expr.read 0) (Expr.of_int (k land 0xff)) ] in
    ignore (Solver.check_assuming s ~path (hard_extra k))
  done;
  let st = Solver.stats s in
  Alcotest.(check bool) "contexts were built" true (st.Solver.prefix_builds >= 48);
  Alcotest.(check bool) "evictions counted" true (st.Solver.prefix_evictions > 0)

let test_prefix_lru_eviction_metric () =
  let registry = Telemetry.Registry.create ~enabled:true () in
  let s = Solver.create ~prefix_cap:16 ~registry () in
  for k = 0 to 63 do
    let path = [ Expr.bin T.Eq (Expr.read 0) (Expr.of_int k) ] in
    ignore (Solver.check_assuming s ~path (hard_extra k))
  done;
  let evictions = (Solver.stats s).Solver.prefix_evictions in
  Alcotest.(check bool) "stats count evictions" true (evictions > 0);
  Alcotest.(check int) "smt.prefix_evictions mirrors stats" evictions
    (Telemetry.counter_value (Telemetry.Registry.counter registry "smt.prefix_evictions"))

(* --- per-phase report histograms -------------------------------------------- *)

let test_run_report_has_phase_dwell_histograms () =
  let registry = Telemetry.Registry.create ~enabled:true () in
  let runtime = Runtime.create ~registry () in
  let r =
    Session.run ~runtime (mini_program ()) ~seed:(Suite_core.mini_seed ())
      ~deadline:150_000
  in
  let report = Session.run_report r in
  let is_dwell h =
    let n = h.Telemetry.hs_name in
    String.length n > 6
    && String.sub n 0 6 = "phase."
    && String.length n > 11
    && String.sub n (String.length n - 10) 10 = "turn_dwell"
  in
  let dwell = List.filter is_dwell report.Report.histograms in
  Alcotest.(check bool) "per-phase turn_dwell histograms present" true
    (List.length dwell > 0);
  Alcotest.(check bool) "dwell histograms carry observations" true
    (List.exists (fun h -> h.Telemetry.hs_count > 0) dwell)

(* --- expression-arena isolation --------------------------------------------- *)

let test_arena_isolation_across_domains () =
  (* run inside a spawned domain so [use_arena] never disturbs the main
     domain's per-domain default arena *)
  let outcome =
    Domain.spawn (fun () ->
        let a1 = Expr.arena () and a2 = Expr.arena () in
        Expr.use_arena a1;
        let e1 = Expr.bin T.Add (Expr.read 0) (Expr.of_int 7) in
        Expr.use_arena a2;
        let e2 = Expr.bin T.Add (Expr.read 0) (Expr.of_int 7) in
        let e2' = Expr.bin T.Add (Expr.read 0) (Expr.of_int 7) in
        (e1.Expr.id, e2.Expr.id, e2 == e2'))
    |> Domain.join
  in
  let id1, id2, interned = outcome in
  Alcotest.(check bool) "distinct arenas assign distinct ids" true (id1 <> id2);
  Alcotest.(check bool) "same arena hash-conses to the same node" true interned

let test_threads_on_one_domain_match_sequential () =
  (* the arena and id block are per domain, so two campaigns started
     from two threads of one domain (at jobs 1 each runs inline on its
     own thread) preempt each other mid-turn; [Runtime.with_active] must
     keep each session interning into its own arena, or the reports
     drift from the sequential ones *)
  let campaign name () =
    let t = Option.get (Registry.by_name name) in
    let pool =
      Driver.run_pool ~scheduler:"round-robin" ~runtime:(Suite_telemetry.instrumented ())
        ~jobs:1 (Registry.program t)
        ~seeds:(List.map snd t.Registry.seeds)
        ~deadline:60_000
    in
    Report.to_json (Driver.pool_run_report pool)
  in
  let names = [ "gif2tiff"; "tiff2bw" ] in
  let sequential = List.map (fun name -> campaign name ()) names in
  for round = 1 to 2 do
    let out = Array.make (List.length names) "" in
    List.mapi
      (fun i name -> Thread.create (fun () -> out.(i) <- campaign name ()) ())
      names
    |> List.iter Thread.join;
    List.iteri
      (fun i name ->
        Alcotest.(check string)
          (Printf.sprintf "%s, threaded round %d" name round)
          (List.nth sequential i) out.(i))
      names
  done

let test_id_blocks_never_collide () =
  (* expression ids come from per-domain id blocks carved off one shared
     cursor: concurrent interning on several domains must never hand out
     the same id twice *)
  let refills0 = Expr.id_block_refills () in
  let per_domain = 3_000 in
  let ids_of () =
    Expr.use_arena (Expr.arena ());
    List.init per_domain (fun i ->
        (Expr.bin T.Add (Expr.read 0) (Expr.of_int i)).Expr.id)
  in
  let per =
    List.init 4 (fun _ -> Domain.spawn ids_of) |> List.map Domain.join
  in
  let seen = Hashtbl.create (8 * per_domain) in
  List.iter
    (List.iter (fun id ->
         if Hashtbl.mem seen id then
           Alcotest.failf "expression id %d allocated on two domains" id;
         Hashtbl.add seen id ()))
    per;
  Alcotest.(check int) "every interned node got its own id" (4 * per_domain)
    (Hashtbl.length seen);
  (* each spawned domain starts with an empty id cell, so at least one
     block refill per domain must have been counted *)
  Alcotest.(check bool) "block refills were counted" true
    (Expr.id_block_refills () - refills0 >= 4)

(* the same query workload, as a tuple of every observable the solver's
   caches could leak id-sensitivity through *)
let solver_workload () =
  Expr.use_arena (Expr.arena ());
  let s = Solver.create ~prefix_cap:16 () in
  for k = 0 to 31 do
    let path = [ Expr.bin T.Eq (Expr.read 0) (Expr.of_int (k land 7)) ] in
    ignore (Solver.check_assuming s ~path (hard_extra k))
  done;
  let st = Solver.stats s in
  [
    st.Solver.queries; st.Solver.sat; st.Solver.unsat; st.Solver.unknown;
    st.Solver.cache_hits; st.Solver.hint_hits; st.Solver.prefix_hits;
    st.Solver.prefix_builds; st.Solver.prefix_model_hits;
    st.Solver.prefix_evictions;
  ]

let test_solver_caches_invariant_across_id_blocks () =
  (* solver cache keys must be renaming-invariant: re-running the same
     structural workload with every expression id shifted into different
     per-domain id blocks has to hit and miss identically *)
  let plain = Domain.spawn solver_workload |> Domain.join in
  let shifted =
    Domain.spawn (fun () ->
        (* burn through several id blocks first, so the workload's
           expressions intern under entirely different ids *)
        Expr.use_arena (Expr.arena ());
        for i = 0 to 20_000 do
          ignore (Expr.of_int i)
        done;
        solver_workload ())
    |> Domain.join
  in
  Alcotest.(check (list int)) "cache behaviour identical under id renaming"
    plain shifted

let suite =
  [
    Alcotest.test_case "map keeps input order under skew" `Quick
      test_map_results_in_input_order;
    Alcotest.test_case "map re-raises the earliest failure" `Quick
      test_map_reraises_earliest_failure;
    Alcotest.test_case "map clamps the job count" `Quick test_map_clamps_jobs;
    Alcotest.test_case "pool reports byte-identical across jobs" `Slow
      test_pool_reports_identical_across_jobs;
    Alcotest.test_case "pool identical under fault injection" `Slow
      test_pool_identical_under_fault_injection;
    Alcotest.test_case "pool reports byte-identical with leases" `Slow
      test_pool_identical_across_jobs_with_leases;
    Alcotest.test_case "pool counters independent of jobs" `Slow
      test_pool_counters_jobs_independent;
    Alcotest.test_case "prefix LRU evicts at the cap" `Quick
      test_prefix_lru_evicts;
    Alcotest.test_case "prefix eviction metric mirrors stats" `Quick
      test_prefix_lru_eviction_metric;
    Alcotest.test_case "run report has per-phase dwell histograms" `Quick
      test_run_report_has_phase_dwell_histograms;
    Alcotest.test_case "expression arenas are isolated" `Quick
      test_arena_isolation_across_domains;
    Alcotest.test_case "threads on one domain match sequential" `Slow
      test_threads_on_one_domain_match_sequential;
    Alcotest.test_case "per-domain id blocks never collide" `Quick
      test_id_blocks_never_collide;
    Alcotest.test_case "solver caches invariant across id blocks" `Quick
      test_solver_caches_invariant_across_id_blocks;
  ]
