(* Session-layer tests: determinism of cross-seed seedState sharing, the
   share table's prefix-hint roundtrip and the runtime's prefix cap. *)

module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Runtime = Pbse_session.Runtime
module Executor = Pbse_exec.Executor
module Solver = Pbse_smt.Solver
module Registry = Pbse_targets.Registry

let mini_program = Suite_core.mini_program

let test_seedstate_sharing_deterministic () =
  (* two slots over the SAME seed at jobs=1: the first session publishes
     every fork point, the second drops them all as shared — and the
     merged campaign must be indistinguishable from the unshared one *)
  let seeds = [ Suite_core.mini_seed (); Suite_core.mini_seed () ] in
  let run ~share =
    let config =
      if share then
        Session.with_search
          (fun s -> { s with Session.share_seed_states = true })
          Session.default_config
      else Session.default_config
    in
    (* counters only record on enabled registries *)
    Driver.run_pool ~config ~runtime:(Suite_telemetry.instrumented ~config ()) ~jobs:1
      (mini_program ()) ~seeds ~deadline:150_000
  in
  let unshared = run ~share:false in
  let shared = run ~share:true in
  Alcotest.(check bool) "sharing actually fired" true
    (shared.Driver.pool_shared_seedstates > 0);
  Alcotest.(check int) "unshared campaign shares nothing" 0
    unshared.Driver.pool_shared_seedstates;
  Alcotest.(check int) "same merged coverage" unshared.Driver.merged_coverage
    shared.Driver.merged_coverage;
  Alcotest.(check int) "same merged bugs"
    (List.length unshared.Driver.merged_bugs)
    (List.length shared.Driver.merged_bugs);
  (* the duplicated slot drains early once its seedStates are dropped,
     so sharing can only cheapen the campaign, never inflate it *)
  Alcotest.(check bool) "sharing spends no more virtual time" true
    (shared.Driver.pool_spent <= unshared.Driver.pool_spent)

let test_share_prefix_hint_roundtrip () =
  (* hint residue exported from a finished session imports into the
     share and round-trips: first writer per fingerprint wins *)
  let share = Session.share_create () in
  Session.share_publish_hints share [ (42, [ (0, 7); (3, 1) ]); (9, []) ];
  Session.share_publish_hints share [ (42, [ (0, 99) ]); (10, [ (1, 2) ]) ];
  let hints = List.sort compare (Session.share_hints share) in
  Alcotest.(check int) "three fingerprints" 3 (List.length hints);
  Alcotest.(check bool) "first writer wins for fp 42" true
    (List.assoc 42 hints = [ (0, 7); (3, 1) ]);
  Alcotest.(check bool) "published/hit stats start at zero" true
    (Session.share_stats share = (0, 0))

(* The share table's keys, folded in one pass over the trace, against
   the per-state fold they replaced (below, verbatim): over the
   seedStates of every target's concolic pass, in the pass's order and
   reversed, and over a made-up trace whose fork times fall before its
   first point, on points, between them, tied, and after its last. *)
let reference_prefix_key trace (ss : Pbse_concolic.Concolic.seed_state) =
  let module Concolic = Pbse_concolic.Concolic in
  let module Trace = Pbse_concolic.Trace in
  let mix h x = (h * 0x01000193) lxor x in
  let h =
    List.fold_left
      (fun h (p : Trace.point) ->
        if p.Trace.vtime <= ss.Concolic.fork_vtime then mix (mix h p.Trace.vtime) p.Trace.bb
        else h)
      0x811c9dc5 (Trace.points trace)
  in
  mix h ss.Concolic.fork_gid

let test_seedstate_prefix_keys_match_fold () =
  let module Concolic = Pbse_concolic.Concolic in
  let module Trace = Pbse_concolic.Trace in
  let module Registry = Pbse_targets.Registry in
  let check name trace states =
    Alcotest.(check (list int)) name
      (List.map (reference_prefix_key trace) states)
      (Session.seedstate_prefix_keys trace states)
  in
  List.iter
    (fun (t : Registry.t) ->
      let exec =
        Pbse_exec.Executor.create ~clock:(Pbse_util.Vclock.create ())
          (Registry.program t) ~input:(Registry.smallest_seed t)
      in
      let r = Concolic.run ~interval_length:50 ~deadline:30_000 exec (Trace.indexer ()) in
      let states = r.Concolic.seed_states in
      Alcotest.(check bool) (t.Registry.name ^ " forks") true (states <> []);
      check t.Registry.name r.Concolic.trace states;
      check (t.Registry.name ^ " reversed") r.Concolic.trace (List.rev states))
    Registry.all;
  let trace = Trace.create (Trace.indexer ()) in
  List.iter
    (fun (vtime, gid) -> Trace.record trace ~vtime ~gid)
    [ (3, 10); (3, 11); (7, 10); (12, 40); (12, 11); (20, 7) ];
  let state =
    Pbse_exec.State.create ~id:0 ~nregs:0 ~mem:Pbse_exec.Mem.empty
      ~model:Pbse_smt.Model.empty ~fidx:0 ~born:0
  in
  let fork (fork_vtime, fork_gid) = { Concolic.state; fork_vtime; fork_gid } in
  check "made-up trace" trace
    (List.map fork
       [ (12, 1); (0, 2); (3, 3); (25, 4); (12, 5); (5, 6); (20, 7); (3, 3) ]);
  check "no states" trace []

(* The runtime's prefix cap is the bound the session's solver runs
   under: at 16 contexts readelf's small seed evicts within 0.1 h, at the
   default bound it never does. *)
let test_runtime_prefix_cap_reaches_solver () =
  let t = Option.get (Registry.by_name "readelf") in
  let evictions runtime =
    let r =
      Session.run ~runtime (Registry.program t) ~seed:(Registry.default_seed t)
        ~deadline:12_000
    in
    (Solver.stats (Executor.solver r.Session.executor)).Solver.prefix_evictions
  in
  Alcotest.(check bool) "a cap of 16 evicts" true
    (evictions (Runtime.create ~prefix_cap:16 ()) > 0);
  Alcotest.(check int) "the default cap never evicts" 0 (evictions (Runtime.create ()))

let suite =
  [
    Alcotest.test_case "seedState sharing deterministic" `Slow
      test_seedstate_sharing_deterministic;
    Alcotest.test_case "share prefix-hint roundtrip" `Quick
      test_share_prefix_hint_roundtrip;
    Alcotest.test_case "seedState prefix keys = per-state fold" `Quick
      test_seedstate_prefix_keys_match_fold;
    Alcotest.test_case "runtime prefix cap reaches the solver" `Quick
      test_runtime_prefix_cap_reaches_solver;
  ]
