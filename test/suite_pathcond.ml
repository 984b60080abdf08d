(* The path-condition layer: structured path conditions (spine sharing,
   bloom signatures), the unsat-core subsumption cache, and end-to-end
   equivalence of subsumption on vs off on a seeded MiniC program. *)

module Expr = Pbse_smt.Expr
module Pathcond = Pbse_pathcond.Pathcond
module Subsume = Pbse_pathcond.Subsume
module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Executor = Pbse_exec.Executor
module Coverage = Pbse_exec.Coverage
module Bug = Pbse_exec.Bug
open Pbse_ir.Types

(* a few distinct interned conditions to thread through the tests *)
let cond i = Expr.bin Ne (Expr.read i) (Expr.const (Int64.of_int (17 + i)))

(* --- Pathcond ---------------------------------------------------------- *)

let test_pathcond_basics () =
  let c0 = cond 0 and c1 = cond 1 and c2 = cond 2 in
  let p = Pathcond.empty in
  Alcotest.(check int) "empty length" 0 (List.length (Pathcond.spine p));
  let p = Pathcond.assume p c0 in
  let p = Pathcond.assume p c1 in
  let p = Pathcond.assume p c2 in
  Alcotest.(check int) "length" 3 (List.length (Pathcond.spine p));
  Alcotest.(check bool) "mem c1" true (Pathcond.mem p c1.Expr.id);
  Alcotest.(check bool) "mem other" false (Pathcond.mem p (cond 5).Expr.id);
  Alcotest.(check bool) "spine newest first" true
    (match Pathcond.spine p with e :: _ -> e == c2 | [] -> false)

let test_pathcond_fork_shares_spine () =
  (* sibling states forked from a common prefix must share the prefix
     spine physically: Prefix_ctx keys contexts on spine tails *)
  let base = Pathcond.assume (Pathcond.assume Pathcond.empty (cond 0)) (cond 1) in
  let left = Pathcond.assume base (cond 2) in
  let right = Pathcond.assume base (cond 3) in
  match (Pathcond.spine left, Pathcond.spine right) with
  | _ :: ltail, _ :: rtail ->
    Alcotest.(check bool) "tails physically equal" true (ltail == rtail)
  | _ -> Alcotest.fail "unexpected spine shapes"

let test_pathcond_signature_superset () =
  let conds = List.init 6 cond in
  let p = List.fold_left Pathcond.assume Pathcond.empty conds in
  (* any subset's signature is covered by the full signature *)
  List.iter
    (fun (c : Expr.t) ->
      let s = Pathcond.signature_of_ids [ c.Expr.id ] in
      Alcotest.(check int) "subset covered" s (s land Pathcond.signature p))
    conds

(* --- Subsume ----------------------------------------------------------- *)

let mem_of (p : Pathcond.t) id = Pathcond.mem p id

let test_subsume_hit_miss_empty () =
  let t = Subsume.create () in
  let core = [ cond 0; cond 1 ] in
  Alcotest.(check bool) "empty before recording" true
    (Subsume.consult t ~block:5 ~sg:max_int ~mem:(fun _ -> true) = `Empty);
  Subsume.record t ~block:5 core;
  (* a path holding a superset of the core is answered Unsat *)
  let super = List.fold_left Pathcond.assume Pathcond.empty [ cond 0; cond 1; cond 2 ] in
  Alcotest.(check bool) "superset hits" true
    (Subsume.consult t ~block:5 ~sg:(Pathcond.signature super) ~mem:(mem_of super)
    = `Hit);
  (* a disjoint path misses without being Empty *)
  let other = List.fold_left Pathcond.assume Pathcond.empty [ cond 3; cond 4 ] in
  Alcotest.(check bool) "disjoint misses" true
    (Subsume.consult t ~block:5 ~sg:(Pathcond.signature other) ~mem:(mem_of other)
    = `Miss);
  (* the cache is bucketed: the same query at another block is Empty *)
  Alcotest.(check bool) "other block empty" true
    (Subsume.consult t ~block:6 ~sg:(Pathcond.signature super) ~mem:(mem_of super)
    = `Empty)

let test_subsume_dedup_and_cap () =
  let t = Subsume.create () in
  let hits ~block conds =
    let p = List.fold_left Pathcond.assume Pathcond.empty conds in
    Subsume.consult t ~block ~sg:(Pathcond.signature p) ~mem:(mem_of p) = `Hit
  in
  Subsume.record t ~block:1 [ cond 0; cond 1 ];
  (* the same id set again, in either order, takes no slot: the first
     core outlives more repeats than a bucket holds *)
  for _ = 0 to 40 do
    Subsume.record t ~block:1 [ cond 3; cond 2 ];
    Subsume.record t ~block:1 [ cond 2; cond 3 ]
  done;
  Alcotest.(check bool) "duplicates dropped" true (hits ~block:1 [ cond 0; cond 1 ]);
  (* overflow a bucket: the oldest cores are dropped, the newest kept *)
  for i = 0 to 40 do
    Subsume.record t ~block:2 [ cond (10 + i); cond (11 + i) ]
  done;
  Alcotest.(check bool) "oldest core evicted" false (hits ~block:2 [ cond 10; cond 11 ]);
  Alcotest.(check bool) "newest core kept" true (hits ~block:2 [ cond 50; cond 51 ])

(* --- subsumption on vs off ----------------------------------------------- *)

(* A seeded MiniC program with a counting loop whose accumulator flows
   into output, and a guarded out-of-bounds write behind an input byte
   the symbolic search must solve for. Subsumption only prunes states
   whose path condition covers a recorded unsat core, so turning it off
   must leave coverage and the bug set unchanged. *)
let equiv_src =
  "fn main() {\n\
   var n = in(0);\n\
   if (n > 40) { return 1; }\n\
   var tag = in(1);\n\
   var acc = 0;\n\
   if (tag == 3) { acc = 1; }\n\
   var i = 0;\n\
   while (i < n) { acc = acc + 3; i = i + 1; }\n\
   out(acc);\n\
   var buf = alloc(8);\n\
   if (tag == 0x7F) { buf[9] = acc; }\n\
   return 0;\n\
   }"

let subsumption_off =
  Session.(with_pathcond (fun _ -> { subsumption = false }) default_config)

let bug_set (r : Driver.report) =
  List.sort_uniq compare
    (List.map (fun ((b : Bug.t), _) -> (b.Bug.gid, b.Bug.kind)) r.Driver.bugs)

let check_subsumption_transparent seed () =
  let run config =
    Session.run ~config
      (Pbse_lang.Frontend.compile equiv_src)
      ~seed:(Bytes.of_string seed) ~deadline:100_000
  in
  let on = run Session.default_config in
  let off = run subsumption_off in
  let st_off = Executor.stats off.Driver.executor in
  Alcotest.(check int) "disabled run consulted no cores" 0
    (st_off.Executor.interpolant_hits + st_off.Executor.interpolant_misses);
  Alcotest.(check int) "identical coverage"
    (Coverage.count (Executor.coverage off.Driver.executor))
    (Coverage.count (Executor.coverage on.Driver.executor));
  Alcotest.(check bool) "found the guarded bug" true (bug_set on <> []);
  Alcotest.(check (list (pair int string))) "identical bug set" (bug_set off)
    (bug_set on)

(* --- counter manifest -------------------------------------------------- *)

let test_manifest_has_pathcond_counters () =
  let names = Pbse_session.Session.scalar_metric_names in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in manifest") true (List.mem n names))
    [
      "smt.subsumed_states";
      "smt.interpolant_hits";
      "smt.interpolant_misses";
    ];
  (* the manifest is the single source for runs.csv: no duplicates *)
  Alcotest.(check int) "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  [
    Alcotest.test_case "pathcond basics" `Quick test_pathcond_basics;
    Alcotest.test_case "pathcond fork shares spine" `Quick
      test_pathcond_fork_shares_spine;
    Alcotest.test_case "pathcond signature superset" `Quick
      test_pathcond_signature_superset;
    Alcotest.test_case "subsume hit/miss/empty" `Quick test_subsume_hit_miss_empty;
    Alcotest.test_case "subsume dedup and cap" `Quick test_subsume_dedup_and_cap;
    Alcotest.test_case "subsumption on vs off: looping seed" `Quick
      (check_subsumption_transparent "\005A");
    Alcotest.test_case "subsumption on vs off: zero-trip seed" `Quick
      (check_subsumption_transparent "\000A");
    Alcotest.test_case "manifest has pathcond counters" `Quick
      test_manifest_has_pathcond_counters;
  ]
