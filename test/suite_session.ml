(* Session-layer tests: the runtime's prefix cap. *)

module Session = Pbse_session.Session
module Runtime = Pbse_session.Runtime
module Executor = Pbse_exec.Executor
module Solver = Pbse_smt.Solver
module Registry = Pbse_targets.Registry

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
    Alcotest.test_case "runtime prefix cap reaches the solver" `Quick
      test_runtime_prefix_cap_reaches_solver;
  ]
