(* The path-condition layer: structured path conditions (spine sharing,
   bloom signatures, block-boundary deltas), the unsat-core subsumption
   cache, the loop-summary template matcher, and end-to-end equivalence
   of summarized vs unrolled execution on seeded MiniC programs. *)

module Expr = Pbse_smt.Expr
module Pathcond = Pbse_pathcond.Pathcond
module Subsume = Pbse_pathcond.Subsume
module Loop_summary = Pbse_pathcond.Loop_summary
module Loop = Pbse_ir.Loop
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
  Alcotest.(check int) "empty length" 0 (Pathcond.length p);
  let p = Pathcond.assume p ~block:7 c0 in
  let p = Pathcond.assume p ~block:7 c1 in
  let p = Pathcond.assume p ~block:9 c2 in
  Alcotest.(check int) "length" 3 (Pathcond.length p);
  Alcotest.(check bool) "mem c1" true (Pathcond.mem p c1.Expr.id);
  Alcotest.(check bool) "mem other" false (Pathcond.mem p (cond 5).Expr.id);
  Alcotest.(check bool) "spine newest first" true
    (match Pathcond.spine p with e :: _ -> Expr.equal e c2 | [] -> false);
  Alcotest.(check bool) "conditions oldest first" true
    (match Pathcond.conditions p with e :: _ -> Expr.equal e c0 | [] -> false)

let test_pathcond_fork_shares_spine () =
  (* sibling states forked from a common prefix must share the prefix
     spine physically: Prefix_ctx keys contexts on spine tails *)
  let base =
    Pathcond.assume (Pathcond.assume Pathcond.empty ~block:1 (cond 0)) ~block:1
      (cond 1)
  in
  let left = Pathcond.assume base ~block:2 (cond 2) in
  let right = Pathcond.assume base ~block:2 (cond 3) in
  match (Pathcond.spine left, Pathcond.spine right) with
  | _ :: ltail, _ :: rtail ->
    Alcotest.(check bool) "tails physically equal" true (ltail == rtail)
  | _ -> Alcotest.fail "unexpected spine shapes"

let test_pathcond_signature_superset () =
  let conds = List.init 6 cond in
  let p =
    List.fold_left (fun p c -> Pathcond.assume p ~block:0 c) Pathcond.empty conds
  in
  (* any subset's signature is covered by the full signature *)
  List.iter
    (fun (c : Expr.t) ->
      let s = Pathcond.signature_of_ids [ c.Expr.id ] in
      Alcotest.(check int) "subset covered" s (s land Pathcond.signature p))
    conds

let test_pathcond_deltas () =
  let c = Array.init 5 cond in
  let p = Pathcond.empty in
  let p = Pathcond.assume p ~block:10 c.(0) in
  let p = Pathcond.assume p ~block:10 c.(1) in
  (* same block consecutively: merged into one delta *)
  let p = Pathcond.assume p ~block:11 c.(2) in
  let p = Pathcond.assume p ~block:10 c.(3) in
  (* revisiting block 10 later: a fresh delta, not merged backwards *)
  let p = Pathcond.assume p ~block:10 c.(4) in
  let ds =
    List.map (fun (g, es) -> (g, List.map (fun e -> e.Expr.id) es)) (Pathcond.deltas p)
  in
  Alcotest.(check (list (pair int (list int))))
    "block-boundary deltas"
    [
      (10, [ c.(0).Expr.id; c.(1).Expr.id ]);
      (11, [ c.(2).Expr.id ]);
      (10, [ c.(3).Expr.id; c.(4).Expr.id ]);
    ]
    ds

(* --- Subsume ----------------------------------------------------------- *)

let mem_of (p : Pathcond.t) id = Pathcond.mem p id

let test_subsume_hit_miss_empty () =
  let t = Subsume.create () in
  let core = [ cond 0; cond 1 ] in
  Alcotest.(check bool) "empty before recording" true
    (Subsume.consult t ~block:5 ~sg:max_int ~mem:(fun _ -> true) = `Empty);
  Subsume.record t ~block:5 core;
  (* a path holding a superset of the core is answered Unsat *)
  let super =
    List.fold_left
      (fun p c -> Pathcond.assume p ~block:5 c)
      Pathcond.empty [ cond 0; cond 1; cond 2 ]
  in
  Alcotest.(check bool) "superset hits" true
    (Subsume.consult t ~block:5 ~sg:(Pathcond.signature super) ~mem:(mem_of super)
    = `Hit);
  (* a disjoint path misses without being Empty *)
  let other =
    List.fold_left
      (fun p c -> Pathcond.assume p ~block:5 c)
      Pathcond.empty [ cond 3; cond 4 ]
  in
  Alcotest.(check bool) "disjoint misses" true
    (Subsume.consult t ~block:5 ~sg:(Pathcond.signature other) ~mem:(mem_of other)
    = `Miss);
  (* the cache is bucketed: the same query at another block is Empty *)
  Alcotest.(check bool) "other block empty" true
    (Subsume.consult t ~block:6 ~sg:(Pathcond.signature super) ~mem:(mem_of super)
    = `Empty)

let test_subsume_dedup_and_cap () =
  let t = Subsume.create () in
  Subsume.record t ~block:1 [ cond 0; cond 1 ];
  Subsume.record t ~block:1 [ cond 1; cond 0 ];
  (* same id set, either order: one core *)
  Alcotest.(check (pair int int)) "duplicates dropped" (1, 1) (Subsume.stats t);
  (* overflow a bucket: the count stays at the cap *)
  for i = 0 to 40 do
    Subsume.record t ~block:2 [ cond (10 + i); cond (11 + i) ]
  done;
  let cores, buckets = Subsume.stats t in
  Alcotest.(check int) "two buckets" 2 buckets;
  Alcotest.(check bool) "bucket capped" true (cores <= 1 + 24)

(* --- Loop_summary ------------------------------------------------------ *)

let counting_loop_src =
  "fn main() {\n\
   var n = in(0);\n\
   var acc = 0;\n\
   var i = 0;\n\
   while (i < n) { acc = acc + 3; i = i + 1; }\n\
   out(acc);\n\
   return 0;\n\
   }"

let test_summary_matches_minic_counting_loop () =
  let prog = Pbse_lang.Frontend.compile counting_loop_src in
  let a = Loop_summary.analyze prog in
  Alcotest.(check int) "no fallbacks" 0 a.Loop_summary.fallbacks;
  Alcotest.(check int) "one summary" 1 (Hashtbl.length a.Loop_summary.summaries);
  Hashtbl.iter
    (fun _ (s : Loop_summary.summary) ->
      Alcotest.(check bool) "signed compare" true (s.Loop_summary.cmp = Slt);
      (* MiniC lowers both advances through a temporary *)
      Alcotest.(check bool) "counter pair" true (s.Loop_summary.counter_tmp <> None);
      match s.Loop_summary.updates with
      | [ u ] ->
        Alcotest.(check int64) "accumulator step" 3L u.Loop_summary.step;
        Alcotest.(check bool) "accumulator pair" true (u.Loop_summary.tmp <> None)
      | ups ->
        Alcotest.fail
          (Printf.sprintf "expected one non-counter update, got %d"
             (List.length ups)))
    a.Loop_summary.summaries

let test_summary_rejects_effectful_body () =
  (* the loop reads input inside the body: a Call is not an advance, so
     the loop must fall back to plain unrolling *)
  let src =
    "fn main() {\n\
     var n = in(0);\n\
     var s = 0;\n\
     var i = 0;\n\
     while (i < n) { s = s + in(i); i = i + 1; }\n\
     out(s);\n\
     return 0;\n\
     }"
  in
  let a = Loop_summary.analyze (Pbse_lang.Frontend.compile src) in
  Alcotest.(check int) "no summaries" 0 (Hashtbl.length a.Loop_summary.summaries);
  Alcotest.(check int) "one fallback" 1 a.Loop_summary.fallbacks

let test_summary_rejects_nested_loops () =
  let src =
    "fn main() {\n\
     var n = in(0);\n\
     var acc = 0;\n\
     var i = 0;\n\
     while (i < n) {\n\
     var j = 0;\n\
     while (j < n) { acc = acc + 1; j = j + 1; }\n\
     i = i + 1;\n\
     }\n\
     out(acc);\n\
     return 0;\n\
     }"
  in
  let prog = Pbse_lang.Frontend.compile src in
  let a = Loop_summary.analyze prog in
  (* the outer loop is multi-block and must fall back; the inner one may
     or may not match depending on lowering, but never the outer *)
  Alcotest.(check bool) "outer loop falls back" true (a.Loop_summary.fallbacks >= 1)

let test_summary_never_fires_on_irreducible () =
  (* a template-shaped outer loop whose body contains an irreducible
     cycle (3 <-> 4, entered at both ends): Loop.analyze reports the
     taint and the matcher must refuse the whole loop *)
  let f =
    {
      fname = "irr";
      nparams = 0;
      nregs = 5;
      blocks =
        [|
          { label = "entry"; insts = [||]; term = Jmp 1 };
          {
            label = "head";
            insts = [| Bin (4, Ult, Reg 3, Reg 1) |];
            term = Br (Reg 4, 2, 6);
          };
          { label = "split"; insts = [||]; term = Br (Reg 0, 3, 4) };
          { label = "left"; insts = [||]; term = Jmp 4 };
          { label = "right"; insts = [||]; term = Br (Reg 0, 3, 5) };
          {
            label = "latch";
            insts = [| Bin (3, Add, Reg 3, Const 1L) |];
            term = Jmp 1;
          };
          { label = "exit"; insts = [||]; term = Ret None };
        |];
    }
  in
  let { Loop.irreducible; loops } = Loop.analyze f in
  Alcotest.(check bool) "irreducibility detected" true (irreducible <> []);
  Alcotest.(check bool) "a natural loop still exists" true (loops <> []);
  let a = Loop_summary.analyze { funcs = [| f |]; main = 0 } in
  Alcotest.(check int) "never summarized" 0 (Hashtbl.length a.Loop_summary.summaries);
  Alcotest.(check bool) "counted as fallback" true (a.Loop_summary.fallbacks >= 1)

(* --- summarized vs unrolled equivalence -------------------------------- *)

(* A seeded MiniC program where the counting loop matters: the
   accumulator flows into output and a guarded out-of-bounds write sits
   behind an input byte the symbolic search must solve for. The [tag]
   branch before the loop matters for the summary: states forked there
   re-enter the loop with the seed's model and traverse it whole, which
   is where the one-step leap fires under the concolic-then-fork flow
   (states forked at the loop header itself only ever add one
   iteration). *)
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

let equiv_seed () = Bytes.of_string "\005A"

let pathcond_off =
  Session.(
    with_pathcond
      (fun _ -> { subsumption = false; loop_summaries = false })
      default_config)

let run_equiv config =
  Session.run ~config (Pbse_lang.Frontend.compile equiv_src) ~seed:(equiv_seed ())
    ~deadline:100_000

let bug_set (r : Driver.report) =
  List.sort_uniq compare
    (List.map (fun ((b : Bug.t), _) -> (b.Bug.gid, b.Bug.kind)) r.Driver.bugs)

let test_summary_equivalent_to_unrolling () =
  let on = run_equiv Session.default_config in
  let off = run_equiv pathcond_off in
  let st_on = Executor.stats on.Driver.executor in
  let st_off = Executor.stats off.Driver.executor in
  Alcotest.(check bool) "summaries fired" true (st_on.Executor.loop_summaries > 0);
  Alcotest.(check int) "disabled run applied none" 0 st_off.Executor.loop_summaries;
  Alcotest.(check int) "disabled run consulted no cores" 0
    (st_off.Executor.interpolant_hits + st_off.Executor.interpolant_misses);
  Alcotest.(check int) "identical coverage"
    (Coverage.count (Executor.coverage off.Driver.executor))
    (Coverage.count (Executor.coverage on.Driver.executor));
  Alcotest.(check bool) "found the guarded bug" true (bug_set on <> []);
  Alcotest.(check (list (pair int string))) "identical bug set" (bug_set off)
    (bug_set on)

let test_summary_covers_zero_iteration_side () =
  (* with a seed that skips the loop entirely the summary must not fire
     on the seed path, yet the two configurations still agree *)
  let seed = Bytes.of_string "\000A" in
  let run config =
    Session.run ~config
      (Pbse_lang.Frontend.compile equiv_src)
      ~seed ~deadline:100_000
  in
  let on = run Session.default_config in
  let off = run pathcond_off in
  Alcotest.(check int) "identical coverage"
    (Coverage.count (Executor.coverage off.Driver.executor))
    (Coverage.count (Executor.coverage on.Driver.executor));
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
      "pathcond.loop_summaries";
      "pathcond.summary_fallbacks";
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
    Alcotest.test_case "pathcond deltas" `Quick test_pathcond_deltas;
    Alcotest.test_case "subsume hit/miss/empty" `Quick test_subsume_hit_miss_empty;
    Alcotest.test_case "subsume dedup and cap" `Quick test_subsume_dedup_and_cap;
    Alcotest.test_case "summary matches counting loop" `Quick
      test_summary_matches_minic_counting_loop;
    Alcotest.test_case "summary rejects effectful body" `Quick
      test_summary_rejects_effectful_body;
    Alcotest.test_case "summary rejects nested loops" `Quick
      test_summary_rejects_nested_loops;
    Alcotest.test_case "summary never fires on irreducible" `Quick
      test_summary_never_fires_on_irreducible;
    Alcotest.test_case "summary equivalent to unrolling" `Quick
      test_summary_equivalent_to_unrolling;
    Alcotest.test_case "summary zero-iteration side" `Quick
      test_summary_covers_zero_iteration_side;
    Alcotest.test_case "manifest has pathcond counters" `Quick
      test_manifest_has_pathcond_counters;
  ]
