open Pbse_concolic
module Vclock = Pbse_util.Vclock
module Executor = Pbse_exec.Executor

let test_bbv_builder_intervals () =
  let b = Bbv.builder ~interval_length:100 in
  Bbv.set_coverage_probe b (fun () -> 7);
  Bbv.record b ~vtime:10 ~gid:1;
  Bbv.record b ~vtime:20 ~gid:1;
  Bbv.record b ~vtime:30 ~gid:2;
  Bbv.record b ~vtime:150 ~gid:3;
  (* crossing into interval 1 closed interval 0 *)
  Bbv.flush b ~coverage_at:(fun () -> 9) ~vtime:160;
  match Bbv.bbvs b with
  | [ first; second ] ->
    Alcotest.(check int) "first interval index" 0 first.Bbv.index;
    Alcotest.(check (list (pair int int))) "first counts" [ (1, 2); (2, 1) ]
      (Array.to_list first.Bbv.counts);
    Alcotest.(check int) "first total" 3 first.Bbv.total;
    Alcotest.(check int) "first coverage probed" 7 first.Bbv.coverage;
    Alcotest.(check int) "second interval index" 1 second.Bbv.index;
    Alcotest.(check (list (pair int int))) "second counts" [ (3, 1) ]
      (Array.to_list second.Bbv.counts);
    Alcotest.(check int) "second coverage from flush" 9 second.Bbv.coverage
  | bbvs -> Alcotest.fail (Printf.sprintf "expected 2 BBVs, got %d" (List.length bbvs))

let test_bbv_normalized () =
  let b = Bbv.builder ~interval_length:1000 in
  Bbv.record b ~vtime:1 ~gid:4;
  Bbv.record b ~vtime:2 ~gid:4;
  Bbv.record b ~vtime:3 ~gid:9;
  Bbv.record b ~vtime:4 ~gid:9;
  Bbv.flush b ~coverage_at:(fun () -> 0) ~vtime:5;
  match Bbv.bbvs b with
  | [ bbv ] ->
    let normalized = Bbv.normalized bbv in
    let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 normalized in
    Alcotest.(check (float 1e-9)) "proportions sum to 1" 1.0 total
  | _ -> Alcotest.fail "expected one BBV"

let test_bbv_rejects_bad_interval () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bbv.builder ~interval_length:0);
       false
     with Invalid_argument _ -> true)

let test_trace_indexer_first_execution_order () =
  let ix = Trace.indexer () in
  let trace = Trace.create ix in
  List.iteri (fun vtime gid -> Trace.record trace ~vtime ~gid) [ 500; 123; 500 ];
  (* first block gets 0, the second 1, a repeat keeps its index *)
  Alcotest.(check (list int)) "plot indices" [ 0; 1; 0 ]
    (List.map (fun p -> p.Trace.bb) (Trace.points trace));
  Alcotest.(check int) "assigned" 2 (Trace.assigned ix)

let test_trace_csv () =
  let ix = Trace.indexer () in
  let trace = Trace.create ix in
  Trace.record trace ~vtime:5 ~gid:100;
  Trace.record trace ~vtime:9 ~gid:100;
  Trace.record trace ~vtime:12 ~gid:200;
  Alcotest.(check string) "csv" "vtime,bb\n5,0\n9,0\n12,1\n" (Trace.to_csv trace);
  Alcotest.(check int) "points" 3 (List.length (Trace.points trace))

(* The builder and the indexer keep per-gid state in arrays grown to
   the largest gid seen. The references below are the hash-table
   versions they replaced: large gids arriving out of order must give
   the same intervals, counts and plot indices. *)
module Reference = struct
  let bbvs ~interval_length ~probe entries =
    let counts = Hashtbl.create 256 and current = ref 0 and acc = ref [] in
    let close ~t_end =
      if Hashtbl.length counts > 0 then begin
        let cs =
          Hashtbl.fold (fun gid c acc -> (gid, c) :: acc) counts []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let total = List.fold_left (fun acc (_, c) -> acc + c) 0 cs in
        acc := (!current, !current * interval_length, t_end, cs, total, probe ()) :: !acc;
        Hashtbl.reset counts
      end
    in
    let last = ref 0 in
    List.iter
      (fun (vtime, gid) ->
        last := vtime;
        let interval = vtime / interval_length in
        if interval <> !current then begin
          close ~t_end:((!current * interval_length) + interval_length);
          current := interval
        end;
        Hashtbl.replace counts gid
          (1 + match Hashtbl.find_opt counts gid with Some c -> c | None -> 0))
      entries;
    close ~t_end:!last;
    List.rev !acc

  let plot_indices gids =
    let map = Hashtbl.create 16 and next = ref 0 in
    List.map
      (fun gid ->
        match Hashtbl.find_opt map gid with
        | Some i -> i
        | None ->
          let i = !next in
          incr next;
          Hashtbl.add map gid i;
          i)
      gids
end

(* block entries: non-decreasing times, gids mixing a small hot set with
   large ones that force the per-gid arrays to grow several times, and
   up to 2500 entries, past the trace's first 1024 cells *)
let gen_entries =
  QCheck.Gen.(
    list_size (int_range 0 2500)
      (pair (int_bound 30)
         (frequency
            [
              (4, int_bound 20); (2, int_range 200 5_000); (1, int_range 10_000 70_000);
            ]))
    >|= fun steps ->
    let t = ref 0 in
    List.map
      (fun (dt, gid) ->
        t := !t + dt;
        (!t, gid))
      steps)

let prop_bbv_counts_match_reference =
  QCheck.Test.make ~count:300 ~name:"bbv counts = hash-table reference, large gids"
    QCheck.(make Gen.(pair (int_range 1 60) gen_entries))
    (fun (interval_length, entries) ->
      (* coverage reads count the closes, so it checks their order too *)
      let probe () =
        let calls = ref 0 in
        fun () ->
          incr calls;
          !calls
      in
      let b = Bbv.builder ~interval_length in
      let coverage = probe () in
      Bbv.set_coverage_probe b coverage;
      List.iter (fun (vtime, gid) -> Bbv.record b ~vtime ~gid) entries;
      let last = match List.rev entries with (t, _) :: _ -> t | [] -> 0 in
      Bbv.flush b ~coverage_at:coverage ~vtime:last;
      let got =
        List.map
          (fun (v : Bbv.t) ->
            ( v.Bbv.index,
              v.Bbv.t_start,
              v.Bbv.t_end,
              Array.to_list v.Bbv.counts,
              v.Bbv.total,
              v.Bbv.coverage ))
          (Bbv.bbvs b)
      in
      got = Reference.bbvs ~interval_length ~probe:(probe ()) entries)

let prop_trace_numbering_matches_reference =
  QCheck.Test.make ~count:300 ~name:"trace numbering = hash-table reference, large gids"
    (QCheck.make gen_entries) (fun entries ->
      let ix = Trace.indexer () in
      let trace = Trace.create ix in
      List.iter (fun (vtime, gid) -> Trace.record trace ~vtime ~gid) entries;
      let gids = List.map snd entries in
      List.map (fun (p : Trace.point) -> (p.Trace.vtime, p.Trace.bb)) (Trace.points trace)
      = List.combine (List.map fst entries) (Reference.plot_indices gids)
      && Trace.assigned ix = List.length (List.sort_uniq Int.compare gids))

(* a staged program: header check then an input-bounded loop *)
let staged_src =
  "fn main() {\n\
  \  if (in(0) != 'M') { return 1; }\n\
  \  var n = in(1);\n\
  \  var i = 0;\n\
  \  var sum = 0;\n\
  \  while (i < n) { sum = sum + in(2 + i); i = i + 1; }\n\
  \  out(sum);\n\
  \  if (in(2) == 0x7F) { return 3; }\n\
  \  return 0;\n\
   }"

let run_concolic ?(seed = "M\005abcde") () =
  let prog = Pbse_lang.Frontend.compile staged_src in
  let clock = Vclock.create () in
  let exec = Executor.create ~clock prog ~input:(Bytes.of_string seed) in
  let ix = Trace.indexer () in
  (Concolic.run ~interval_length:20 exec ix, exec)

let test_concolic_follows_seed () =
  let result, _ = run_concolic () in
  (match result.Concolic.outcome with
   | Concolic.Exited 0L -> ()
   | Concolic.Exited c -> Alcotest.fail (Printf.sprintf "wrong exit %Ld" c)
   | _ -> Alcotest.fail "expected clean exit");
  Alcotest.(check bool) "positive c_time" true (result.Concolic.c_time > 0);
  Alcotest.(check bool) "entered blocks" true (result.Concolic.blocks_entered > 5)

let test_concolic_seed_states_at_forks () =
  let result, _ = run_concolic () in
  (* branches on symbolic input: header check, 6 loop checks (n=5),
     final byte check -> at least 7 seedStates *)
  let n = List.length result.Concolic.seed_states in
  Alcotest.(check bool) "several seedStates" true (n >= 7);
  List.iter
    (fun (ss : Concolic.seed_state) ->
      Alcotest.(check bool) "children marked for verification" true
        ss.Concolic.state.Pbse_exec.State.needs_verify;
      Alcotest.(check bool) "fork gid recorded" true (ss.Concolic.fork_gid >= 0))
    result.Concolic.seed_states

let test_concolic_uses_no_solver () =
  let result, exec = run_concolic () in
  ignore result;
  let stats = Pbse_smt.Solver.stats (Executor.solver exec) in
  Alcotest.(check int) "no queries during concolic" 0 stats.Pbse_smt.Solver.queries

let test_concolic_bbvs_cover_run () =
  let result, _ = run_concolic () in
  Alcotest.(check bool) "bbvs gathered" true (List.length result.Concolic.bbvs >= 2);
  let all_sorted =
    List.for_all
      (fun (bbv : Bbv.t) -> bbv.Bbv.t_start <= bbv.Bbv.t_end)
      result.Concolic.bbvs
  in
  Alcotest.(check bool) "interval bounds ordered" true all_sorted

let test_concolic_deterministic () =
  let a, _ = run_concolic () in
  let b, _ = run_concolic () in
  Alcotest.(check int) "same c_time" a.Concolic.c_time b.Concolic.c_time;
  Alcotest.(check int) "same seedState count"
    (List.length a.Concolic.seed_states)
    (List.length b.Concolic.seed_states)

let test_concolic_seed_states_verify () =
  let result, exec = run_concolic () in
  let verified =
    List.filter
      (fun (ss : Concolic.seed_state) ->
        Executor.verify exec ss.Concolic.state = Executor.Verified)
      result.Concolic.seed_states
  in
  (* the not-taken side of the loop-entry check at iteration 0 is n = 0:
     feasible; the header-mismatch side is feasible too; at least half of
     all divergences should verify *)
  Alcotest.(check bool) "most seedStates feasible" true
    (2 * List.length verified >= List.length result.Concolic.seed_states);
  List.iter
    (fun (ss : Concolic.seed_state) ->
      Alcotest.(check bool) "verified state has consistent model" true
        (Pbse_smt.Model.satisfies ss.Concolic.state.Pbse_exec.State.model
           (Pbse_pathcond.Pathcond.spine ss.Concolic.state.Pbse_exec.State.path)))
    verified

let suite =
  [
    Alcotest.test_case "bbv builder intervals" `Quick test_bbv_builder_intervals;
    Alcotest.test_case "bbv normalized" `Quick test_bbv_normalized;
    Alcotest.test_case "bbv rejects bad interval" `Quick test_bbv_rejects_bad_interval;
    Alcotest.test_case "trace indexer order" `Quick test_trace_indexer_first_execution_order;
    Alcotest.test_case "trace csv" `Quick test_trace_csv;
    QCheck_alcotest.to_alcotest prop_bbv_counts_match_reference;
    QCheck_alcotest.to_alcotest prop_trace_numbering_matches_reference;
    Alcotest.test_case "concolic follows seed" `Quick test_concolic_follows_seed;
    Alcotest.test_case "concolic seedStates at forks" `Quick
      test_concolic_seed_states_at_forks;
    Alcotest.test_case "concolic uses no solver" `Quick test_concolic_uses_no_solver;
    Alcotest.test_case "concolic bbvs cover run" `Quick test_concolic_bbvs_cover_run;
    Alcotest.test_case "concolic deterministic" `Quick test_concolic_deterministic;
    Alcotest.test_case "concolic seedStates verify" `Quick test_concolic_seed_states_verify;
  ]
