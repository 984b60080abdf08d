(* Scheduler policy tests: the pluggable phase-scheduling subsystem the
   driver delegates to (lib/sched). Queues are driven directly here with
   dfs searchers holding dummy states, no engine involved. *)

module Scheduler = Pbse_sched.Scheduler
module Phase_queue = Pbse_sched.Phase_queue
module Searcher = Pbse_exec.Searcher
module State = Pbse_exec.State
module Mem = Pbse_exec.Mem

let dummy_state id =
  State.create ~id ~nregs:1 ~mem:Mem.empty ~model:Pbse_smt.Model.empty ~fidx:0
    ~born:0

let queue ?(states = 1) ?(trap = false) ordinal =
  let q = Phase_queue.create ~ordinal ~pid:ordinal ~trap (Searcher.dfs ()) in
  for i = 1 to states do
    Phase_queue.seed q (dummy_state ((100 * ordinal) + i))
  done;
  q

let tp = 1000

let make name qs =
  match Scheduler.by_name name with
  | Some f -> f ~time_period:tp qs
  | None -> Alcotest.fail ("unknown policy " ^ name)

let select_ordinal sched =
  match sched.Scheduler.select () with
  | Some t -> t.Scheduler.queue.Phase_queue.ordinal
  | None -> Alcotest.fail "expected a turn"

let test_queue_basics () =
  let q = queue ~states:3 1 in
  Alcotest.(check int) "seeded counted" 3 q.Phase_queue.seeded;
  Alcotest.(check int) "size tracks searcher" 3 (Phase_queue.size q);
  (match q.Phase_queue.searcher.Searcher.select () with
   | Some st ->
     q.Phase_queue.searcher.Searcher.remove st;
     Alcotest.(check int) "size after remove" 2 (Phase_queue.size q)
   | None -> Alcotest.fail "expected a state")

let test_round_robin_cycles_in_order () =
  let sched = make "round-robin" [ queue 1; queue 2; queue 3 ] in
  let step () =
    let o = select_ordinal sched in
    sched.Scheduler.credit (List.nth (sched.Scheduler.remaining ()) (o - 1));
    o
  in
  Alcotest.(check (list int)) "two full rotations" [ 1; 2; 3; 1; 2; 3 ]
    (List.init 6 (fun _ -> step ()));
  Alcotest.(check int) "turns counted" 6 sched.Scheduler.stats.Scheduler.turns;
  Alcotest.(check int) "rotations counted" 2 sched.Scheduler.stats.Scheduler.rotations

let test_round_robin_budget_grows_per_rotation () =
  let qs = [ queue 1; queue 2 ] in
  let sched = make "round-robin" qs in
  let budget () =
    match sched.Scheduler.select () with
    | Some t ->
      sched.Scheduler.credit t.Scheduler.queue;
      t.Scheduler.budget
    | None -> Alcotest.fail "expected a turn"
  in
  (* Algorithm 3: budget = rotation * time_period *)
  Alcotest.(check (list int)) "budgets over three rotations"
    [ tp; tp; 2 * tp; 2 * tp; 3 * tp; 3 * tp ]
    (List.init 6 (fun _ -> budget ()))

let test_round_robin_evict_keeps_cursor () =
  let sched = make "round-robin" [ queue 1; queue 2; queue 3 ] in
  (* evict the selected head: the next queue shifts into the slot *)
  let o = select_ordinal sched in
  Alcotest.(check int) "head first" 1 o;
  (match sched.Scheduler.select () with
   | Some t -> sched.Scheduler.evict t.Scheduler.queue ~failed:false
   | None -> Alcotest.fail "expected a turn");
  Alcotest.(check int) "cursor stays on the shifted queue" 2 (select_ordinal sched);
  Alcotest.(check int) "evictions counted" 1 sched.Scheduler.stats.Scheduler.evictions;
  Alcotest.(check int) "clean evictions are not failovers" 0
    sched.Scheduler.stats.Scheduler.failovers;
  Alcotest.(check bool) "not drained" false (sched.Scheduler.drained ());
  (* retire the rest *)
  List.iter
    (fun q -> sched.Scheduler.evict q ~failed:true)
    (sched.Scheduler.remaining ());
  Alcotest.(check bool) "drained" true (sched.Scheduler.drained ());
  Alcotest.(check bool) "select on drained" true (sched.Scheduler.select () = None);
  Alcotest.(check int) "failed evictions are failovers" 2
    sched.Scheduler.stats.Scheduler.failovers

let test_sequential_drains_head_first () =
  let sched = make "sequential" [ queue 1; queue 2 ] in
  Alcotest.(check int) "head" 1 (select_ordinal sched);
  Alcotest.(check int) "head again until evicted" 1 (select_ordinal sched);
  (match sched.Scheduler.select () with
   | Some t -> sched.Scheduler.evict t.Scheduler.queue ~failed:false
   | None -> Alcotest.fail "expected a turn");
  Alcotest.(check int) "next queue after eviction" 2 (select_ordinal sched)

let test_by_name_covers_names () =
  List.iter
    (fun name ->
      match Scheduler.by_name name with
      | Some f ->
        let sched = f ~time_period:tp [ queue 1 ] in
        Alcotest.(check string) (name ^ " self-names") name sched.Scheduler.name
      | None -> Alcotest.fail ("by_name missed " ^ name))
    Scheduler.names;
  Alcotest.(check bool) "unknown name rejected" true (Scheduler.by_name "nope" = None)

let suite =
  [
    Alcotest.test_case "phase queue basics" `Quick test_queue_basics;
    Alcotest.test_case "round-robin cycles in order" `Quick
      test_round_robin_cycles_in_order;
    Alcotest.test_case "round-robin budget grows per rotation" `Quick
      test_round_robin_budget_grows_per_rotation;
    Alcotest.test_case "round-robin evict keeps cursor" `Quick
      test_round_robin_evict_keeps_cursor;
    Alcotest.test_case "sequential drains head first" `Quick
      test_sequential_drains_head_first;
    Alcotest.test_case "by_name covers names" `Quick test_by_name_covers_names;
  ]
