(* Session-layer tests: determinism of cross-seed seedState sharing and
   the share table's prefix-hint roundtrip. *)

module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Telemetry = Pbse_telemetry.Telemetry

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
    (shared.Driver.pool_spent <= unshared.Driver.pool_spent);
  (* the per-session counter surfaces in the merged pool registry *)
  let counter_total registry =
    List.fold_left
      (fun acc (name, v) ->
        if name = "session.seedstate_shared_hits" then acc + v else acc)
      0
      (Telemetry.Registry.snapshot_counters registry)
  in
  Alcotest.(check bool) "session.seedstate_shared_hits > 0" true
    (counter_total shared.Driver.pool_registry > 0)

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

let suite =
  [
    Alcotest.test_case "seedState sharing deterministic" `Slow
      test_seedstate_sharing_deterministic;
    Alcotest.test_case "share prefix-hint roundtrip" `Quick
      test_share_prefix_hint_roundtrip;
  ]
