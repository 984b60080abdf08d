open Pbse_exec
module Expr = Pbse_smt.Expr
module Vclock = Pbse_util.Vclock
module Rng = Pbse_util.Rng

let compile = Pbse_lang.Frontend.compile

(* --- concrete interpreter faults ------------------------------------------- *)

let run_concrete ?(input = "") src =
  Concrete.run (compile src) ~input:(Bytes.of_string input)

let expect_fault name src kind =
  match (run_concrete src).Concrete.outcome with
  | Concrete.Fault { kind = k; _ } -> Alcotest.(check string) name kind k
  | _ -> Alcotest.fail (name ^ ": expected fault " ^ kind)

let test_concrete_oob_read () =
  expect_fault "oob read" "fn main() { var b = alloc(4); return b[9]; }" "oob-read"

let test_concrete_oob_write () =
  expect_fault "oob write" "fn main() { var b = alloc(4); b[4] = 1; return 0; }" "oob-write"

let test_concrete_underflow_is_fault () =
  (* negative offset borrows into the object id: caught as a memory fault *)
  match (run_concrete "fn main() { var b = alloc(4); return b[0 - 1]; }").Concrete.outcome with
  | Concrete.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault on buffer underflow"

let test_concrete_null_deref () =
  expect_fault "null" "fn main() { var p = 0; return p[3]; }" "null-deref"

let test_concrete_use_after_free () =
  expect_fault "uaf" "fn main() { var b = alloc(4); free(b); return b[0]; }" "use-after-free"

let test_concrete_bad_free () =
  expect_fault "bad free" "fn main() { var b = alloc(4); free(b + 1); return 0; }" "bad-free"

let test_concrete_double_free () =
  expect_fault "double free" "fn main() { var b = alloc(4); free(b); free(b); return 0; }"
    "bad-free"

let test_concrete_div_by_zero () =
  expect_fault "div" "fn main() { var z = 0; return 5 / z; }" "div-by-zero"

let test_concrete_fuel () =
  let prog = compile "fn main() { while (1) { } return 0; }" in
  match (Concrete.run prog ~input:Bytes.empty ~fuel:1000).Concrete.outcome with
  | Concrete.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_concrete_huge_alloc_is_null () =
  expect_fault "huge alloc gives null" "fn main() { var b = alloc(99999999); return b[0]; }"
    "null-deref"

let test_concrete_on_block_hook () =
  let prog = compile "fn main() { var i = 0; while (i < 3) { i = i + 1; } return 0; }" in
  let entries = ref 0 in
  let result = Concrete.run prog ~input:Bytes.empty ~on_block:(fun _ _ -> incr entries) in
  Alcotest.(check int) "hook counts all entries" result.Concrete.blocks_entered !entries;
  Alcotest.(check bool) "several blocks" true (!entries > 5)

(* --- symbolic executor ------------------------------------------------------ *)

let make_executor ?(input = Bytes.make 2 '\000') ?max_live src =
  let prog = compile src in
  let clock = Vclock.create () in
  let exec = Executor.create ?max_live ~clock prog ~input in
  (exec, clock)

let dfs exec =
  (Option.get (Searcher.by_name "dfs")) (Rng.create 7) (Executor.cfg exec)
    (Executor.coverage exec)

let explore_all ?input ?max_live ?(deadline = 2_000_000) src searcher_name =
  let exec, _clock = make_executor ?input ?max_live src in
  let rng = Rng.create 7 in
  let searcher =
    match Searcher.by_name searcher_name with
    | Some make -> make rng (Executor.cfg exec) (Executor.coverage exec)
    | None -> Alcotest.fail ("unknown searcher " ^ searcher_name)
  in
  searcher.Searcher.add (Executor.initial_state exec);
  Executor.explore exec searcher ~deadline;
  exec

(* A program whose exit code depends on two input bytes: 4 behaviours. *)
let branchy_src =
  "fn main() {\n\
  \  var a = in(0);\n\
  \  var b = in(1);\n\
  \  if (a < 10) { if (b == 3) { return 1; } return 2; }\n\
  \  if (b > 200) { return 3; }\n\
  \  return 4;\n\
   }"

let exit_codes exec =
  ignore exec;
  []

let collect_exits src searcher_name =
  let prog = compile src in
  let clock = Vclock.create () in
  let exec = Executor.create ~clock prog ~input:(Bytes.make 2 '\000') in
  let rng = Rng.create 7 in
  let searcher =
    match Searcher.by_name searcher_name with
    | Some make -> make rng (Executor.cfg exec) (Executor.coverage exec)
    | None -> assert false
  in
  let exits = ref [] in
  searcher.Searcher.add (Executor.initial_state exec);
  let rec loop () =
    if Vclock.now clock > 2_000_000 then ()
    else
      match searcher.Searcher.select () with
      | None -> ()
      | Some st -> (
        match Executor.run_slice exec st with
        | Executor.Running -> loop ()
        | Executor.Forked children ->
          List.iter (fun c -> searcher.Searcher.fork ~parent:st c) children;
          loop ()
        | Executor.Finished reason ->
          (match reason with
           | Executor.Exited code -> exits := code :: !exits
           | _ -> ());
          searcher.Searcher.remove st;
          loop ())
  in
  loop ();
  List.sort_uniq Int64.compare !exits

let test_symbolic_finds_all_behaviours () =
  List.iter
    (fun searcher ->
      let exits = collect_exits branchy_src searcher in
      Alcotest.(check (list int64))
        (searcher ^ " finds all four exits")
        [ 1L; 2L; 3L; 4L ] exits)
    [ "dfs"; "bfs"; "random-state"; "random-path"; "covnew"; "md2u"; "default" ]

(* Brute-force ground truth: behaviours reachable symbolically are exactly
   the behaviours reachable by running every 2-byte input concretely. *)
let prop_symbolic_matches_concrete_behaviours =
  QCheck.Test.make ~count:25 ~name:"symbolic exits = concrete exits over all inputs"
    QCheck.(make Gen.(pair (int_range 0 255) (int_range 1 6)))
    (fun (threshold, modulus) ->
      let src =
        Printf.sprintf
          "fn main() {\n\
          \  var a = in(0);\n\
          \  var b = in(1);\n\
          \  if (a == %d) { return 10; }\n\
          \  if ((a %% %d) == 1 && b > a) { return 11; }\n\
          \  if (a > b) { return 12; }\n\
          \  return 13;\n\
           }"
          threshold modulus
      in
      let symbolic = collect_exits src "dfs" in
      let prog = compile src in
      let concrete = Hashtbl.create 4 in
      for a = 0 to 255 do
        for b = 0 to 255 do
          let input = Bytes.create 2 in
          Bytes.set input 0 (Char.chr a);
          Bytes.set input 1 (Char.chr b);
          match (Concrete.run prog ~input).Concrete.outcome with
          | Concrete.Exit code -> Hashtbl.replace concrete code ()
          | _ -> ()
        done
      done;
      let concrete = List.sort Int64.compare (Hashtbl.fold (fun k () l -> k :: l) concrete []) in
      symbolic = concrete)

let test_bug_witness_confirmed () =
  let src =
    "fn main() {\n\
    \  var b = alloc(8);\n\
    \  if (in(0) == 0x42) {\n\
    \    if (in(1) == 0x99) { b[20] = 1; }\n\
    \  }\n\
    \  return 0;\n\
     }"
  in
  let exec = explore_all src "dfs" in
  match Executor.bugs exec with
  | [ bug ] ->
    Alcotest.(check string) "kind" "oob-write" bug.Bug.kind;
    Alcotest.(check bool) "confirmed by replay" true bug.Bug.confirmed;
    Alcotest.(check char) "witness byte 0" '\x42' (Bytes.get bug.Bug.witness 0);
    Alcotest.(check char) "witness byte 1" '\x99' (Bytes.get bug.Bug.witness 1)
  | bugs -> Alcotest.fail (Printf.sprintf "expected exactly one bug, got %d" (List.length bugs))

let test_symbolic_div_bug () =
  let src = "fn main() { var d = in(0); return 100 / d; }" in
  let exec = explore_all src "dfs" in
  match List.filter (fun b -> b.Bug.kind = "div-by-zero") (Executor.bugs exec) with
  | [ bug ] ->
    Alcotest.(check bool) "confirmed" true bug.Bug.confirmed;
    Alcotest.(check char) "witness divisor zero" '\x00' (Bytes.get bug.Bug.witness 0)
  | _ -> Alcotest.fail "expected one div-by-zero bug"

let test_symbolic_oob_via_symbolic_index () =
  (* the access index is symbolic: the OOB oracle must ask the solver *)
  let src =
    "fn main() {\n\
    \  var b = alloc(16);\n\
    \  var i = in(0);\n\
    \  return b[i];\n\
     }"
  in
  let exec = explore_all src "dfs" in
  match List.filter (fun b -> b.Bug.kind = "oob-read") (Executor.bugs exec) with
  | [ bug ] ->
    Alcotest.(check bool) "confirmed" true bug.Bug.confirmed;
    Alcotest.(check bool) "witness index out of bounds" true
      (Char.code (Bytes.get bug.Bug.witness 0) >= 16)
  | _ -> Alcotest.fail "expected one oob-read bug"

let test_no_false_positive_on_guarded_index () =
  let src =
    "fn main() {\n\
    \  var b = alloc(16);\n\
    \  var i = in(0);\n\
    \  if (i <u 16) { return b[i]; }\n\
    \  return 0;\n\
     }"
  in
  let exec = explore_all src "dfs" in
  Alcotest.(check int) "no bugs" 0 (List.length (Executor.bugs exec))

let test_unreachable_bug_not_found () =
  let src =
    "fn main() {\n\
    \  var b = alloc(8);\n\
    \  var a = in(0);\n\
    \  if (a > 10 && a < 5) { b[99] = 1; }\n\
    \  return 0;\n\
     }"
  in
  let exec = explore_all src "dfs" in
  Alcotest.(check int) "no bugs" 0 (List.length (Executor.bugs exec))

let test_deadline_respected () =
  let src = "fn main() { var i = 0; while (i <u in_size() + 1000000) { i = i + 1; } return 0; }" in
  let exec, clock = make_executor src in
  let searcher = dfs exec in
  searcher.Searcher.add (Executor.initial_state exec);
  Executor.explore exec searcher ~deadline:5_000;
  Alcotest.(check bool) "clock stopped promptly" true (Vclock.now clock < 10_000)

let test_max_live_caps_forks () =
  (* an input-bounded loop forks every iteration *)
  let src =
    "fn main() {\n\
    \  var n = in(0) | (in(1) << 8);\n\
    \  var i = 0;\n\
    \  while (i < n) { i = i + 1; }\n\
    \  return 0;\n\
     }"
  in
  let exec, _ = make_executor ~max_live:4 src in
  let searcher = dfs exec in
  searcher.Searcher.add (Executor.initial_state exec);
  Executor.explore exec searcher ~deadline:60_000;
  Alcotest.(check bool) "dropped forks counted" true
    ((Executor.stats exec).Executor.dropped_forks > 0);
  Alcotest.(check bool) "live never exceeded the cap" true (searcher.Searcher.size () <= 4)

let test_coverage_grows_and_dedups () =
  let exec = explore_all branchy_src "bfs" in
  let coverage = Executor.coverage exec in
  Alcotest.(check bool) "some blocks covered" true (Coverage.count coverage > 5);
  Alcotest.(check int) "count matches ids" (Coverage.count coverage)
    (List.length (Coverage.covered_ids coverage))

let test_switch_forks_all_arms () =
  (* switch lowered from if-chains is covered elsewhere; build directly *)
  let open Pbse_ir in
  let fb = Builder.create_func ~name:"main" ~nparams:0 in
  let r = Builder.fresh_reg fb in
  Builder.emit fb (Types.Call (Some r, "in_byte", [ Types.Const 0L ]));
  Builder.switch fb (Types.Reg r) [ (1L, "one"); (2L, "two") ] "other";
  Builder.start_block fb "one";
  Builder.ret fb (Some (Types.Const 101L));
  Builder.start_block fb "two";
  Builder.ret fb (Some (Types.Const 102L));
  Builder.start_block fb "other";
  Builder.ret fb (Some (Types.Const 103L));
  let prog = Builder.program ~main:"main" [ Builder.finish_func fb ] in
  let clock = Vclock.create () in
  let exec = Executor.create ~clock prog ~input:(Bytes.make 1 '\000') in
  let searcher = dfs exec in
  searcher.Searcher.add (Executor.initial_state exec);
  let exits = ref [] in
  let rec loop () =
    match searcher.Searcher.select () with
    | None -> ()
    | Some st -> (
      match Executor.run_slice exec st with
      | Executor.Running -> loop ()
      | Executor.Forked children ->
        List.iter (fun c -> searcher.Searcher.fork ~parent:st c) children;
        loop ()
      | Executor.Finished (Executor.Exited code) ->
        exits := code :: !exits;
        searcher.Searcher.remove st;
        loop ()
      | Executor.Finished _ ->
        searcher.Searcher.remove st;
        loop ())
  in
  loop ();
  Alcotest.(check (list int64)) "all three arms" [ 101L; 102L; 103L ]
    (List.sort Int64.compare !exits)

let test_stats_populated () =
  let exec = explore_all branchy_src "dfs" in
  let stats = Executor.stats exec in
  Alcotest.(check bool) "instructions" true (stats.Executor.instructions > 10);
  Alcotest.(check bool) "forks" true (stats.Executor.forks >= 3);
  Alcotest.(check bool) "exits" true (stats.Executor.term_exit >= 4)

let _ = exit_codes

(* --- copy-on-write state forks ---------------------------------------------- *)

let cow_state () =
  let st =
    State.create ~id:0 ~nregs:4 ~mem:Mem.empty ~model:Pbse_smt.Model.empty ~fidx:0
      ~born:0
  in
  ignore (State.write_reg st 0 (Expr.const 1L));
  st

let reg st i = Expr.is_const (State.current_regs st).(i)

let test_cow_fork_isolation () =
  let parent = cow_state () in
  let child = State.fork parent ~id:1 ~born:0 ~fork_gid:0 in
  Alcotest.(check bool) "regs shared right after fork" true
    (State.current_regs parent == State.current_regs child);
  (* parent's first post-fork write copies; the child must not see it *)
  Alcotest.(check bool) "parent write copies" true
    (State.write_reg parent 0 (Expr.const 7L));
  Alcotest.(check (option int64)) "child unchanged" (Some 1L) (reg child 0);
  Alcotest.(check (option int64)) "parent updated" (Some 7L) (reg parent 0);
  (* the child's array is still marked shared, so its first write copies
     too; after that, writes are in place *)
  Alcotest.(check bool) "child write copies" true
    (State.write_reg child 1 (Expr.const 9L));
  Alcotest.(check bool) "second child write is in place" false
    (State.write_reg child 2 (Expr.const 3L));
  Alcotest.(check (option int64)) "parent reg 1 untouched" (Some 0L) (reg parent 1)

let test_cow_sibling_isolation () =
  let parent = cow_state () in
  let a = State.fork parent ~id:1 ~born:0 ~fork_gid:0 in
  let b = State.fork parent ~id:2 ~born:0 ~fork_gid:0 in
  ignore (State.write_reg a 0 (Expr.const 10L));
  ignore (State.write_reg b 0 (Expr.const 20L));
  Alcotest.(check (option int64)) "sibling a" (Some 10L) (reg a 0);
  Alcotest.(check (option int64)) "sibling b" (Some 20L) (reg b 0);
  Alcotest.(check (option int64)) "parent untouched" (Some 1L) (reg parent 0)

let suite =
  [
    Alcotest.test_case "concrete oob read" `Quick test_concrete_oob_read;
    Alcotest.test_case "concrete oob write" `Quick test_concrete_oob_write;
    Alcotest.test_case "concrete underflow" `Quick test_concrete_underflow_is_fault;
    Alcotest.test_case "concrete null deref" `Quick test_concrete_null_deref;
    Alcotest.test_case "concrete use after free" `Quick test_concrete_use_after_free;
    Alcotest.test_case "concrete bad free" `Quick test_concrete_bad_free;
    Alcotest.test_case "concrete double free" `Quick test_concrete_double_free;
    Alcotest.test_case "concrete div by zero" `Quick test_concrete_div_by_zero;
    Alcotest.test_case "concrete fuel" `Quick test_concrete_fuel;
    Alcotest.test_case "huge alloc null" `Quick test_concrete_huge_alloc_is_null;
    Alcotest.test_case "concrete on_block hook" `Quick test_concrete_on_block_hook;
    Alcotest.test_case "all searchers find all behaviours" `Quick
      test_symbolic_finds_all_behaviours;
    Alcotest.test_case "bug witness confirmed" `Quick test_bug_witness_confirmed;
    Alcotest.test_case "symbolic div bug" `Quick test_symbolic_div_bug;
    Alcotest.test_case "symbolic index oob" `Quick test_symbolic_oob_via_symbolic_index;
    Alcotest.test_case "guarded index has no bug" `Quick test_no_false_positive_on_guarded_index;
    Alcotest.test_case "unreachable bug not reported" `Quick test_unreachable_bug_not_found;
    Alcotest.test_case "deadline respected" `Quick test_deadline_respected;
    Alcotest.test_case "max live caps forks" `Quick test_max_live_caps_forks;
    Alcotest.test_case "coverage grows" `Quick test_coverage_grows_and_dedups;
    Alcotest.test_case "switch forks all arms" `Quick test_switch_forks_all_arms;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "cow fork isolation" `Quick test_cow_fork_isolation;
    Alcotest.test_case "cow sibling isolation" `Quick test_cow_sibling_isolation;
    QCheck_alcotest.to_alcotest prop_symbolic_matches_concrete_behaviours;
  ]
