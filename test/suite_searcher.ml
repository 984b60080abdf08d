open Pbse_exec
module Rng = Pbse_util.Rng

(* Dummy states: the searchers only look at ids, pc fields and flags. *)
let dummy_state id =
  Pbse_exec.State.create ~id ~nregs:1 ~mem:Mem.empty ~model:Pbse_smt.Model.empty ~fidx:0
    ~born:0

(* A small program so heuristic searchers have a CFG and coverage. *)
let cfg_and_coverage () =
  let prog =
    Pbse_lang.Frontend.compile
      "fn main() { var i = 0; while (i < in(0)) { i = i + 1; } if (i > 2) { out(i); } return 0; }"
  in
  let cfg = Pbse_ir.Cfg.build prog in
  (cfg, Coverage.create (Pbse_ir.Cfg.nblocks cfg))

(* A searcher built the way users pick one: by name *)
let searcher ?(rng = Rng.create 1) name =
  let cfg, coverage = cfg_and_coverage () in
  (Option.get (Searcher.by_name name)) rng cfg coverage

let ids_of_drain searcher =
  (* repeatedly select and remove until empty *)
  let rec go acc =
    match searcher.Searcher.select () with
    | None -> List.rev acc
    | Some st ->
      searcher.Searcher.remove st;
      go (st.State.id :: acc)
  in
  go []

let test_dfs_lifo () =
  let s = searcher "dfs" in
  List.iter (fun i -> s.Searcher.add (dummy_state i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "newest first" [ 3; 2; 1 ] (ids_of_drain s)

let test_dfs_fork_goes_deeper () =
  let s = searcher "dfs" in
  let parent = dummy_state 1 in
  s.Searcher.add parent;
  s.Searcher.fork ~parent (dummy_state 2);
  (match s.Searcher.select () with
   | Some st -> Alcotest.(check int) "child selected first" 2 st.State.id
   | None -> Alcotest.fail "empty");
  Alcotest.(check int) "size" 2 (s.Searcher.size ())

let test_bfs_fifo () =
  let s = searcher "bfs" in
  List.iter (fun i -> s.Searcher.add (dummy_state i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (ids_of_drain s)

let test_random_state_selects_live () =
  let rng = Rng.create 5 in
  let s = searcher ~rng "random-state" in
  let states = List.init 10 dummy_state in
  List.iter s.Searcher.add states;
  let removed = List.filteri (fun i _ -> i mod 2 = 0) states in
  List.iter s.Searcher.remove removed;
  Alcotest.(check int) "size" 5 (s.Searcher.size ());
  for _ = 1 to 100 do
    match s.Searcher.select () with
    | Some st ->
      Alcotest.(check bool) "selected state is live" true (st.State.id mod 2 = 1)
    | None -> Alcotest.fail "empty"
  done

let test_random_path_tree () =
  let rng = Rng.create 7 in
  let s = searcher ~rng "random-path" in
  let root = dummy_state 0 in
  s.Searcher.add root;
  (* fork a small tree: 0 -> (0, 1), 1 -> (1, 2), 0 -> (0, 3) *)
  s.Searcher.fork ~parent:root (dummy_state 1);
  s.Searcher.fork ~parent:(dummy_state 1) (dummy_state 2);
  s.Searcher.fork ~parent:root (dummy_state 3);
  Alcotest.(check int) "four live states" 4 (s.Searcher.size ());
  let seen = Hashtbl.create 4 in
  for _ = 1 to 200 do
    match s.Searcher.select () with
    | Some st -> Hashtbl.replace seen st.State.id ()
    | None -> Alcotest.fail "empty"
  done;
  Alcotest.(check int) "every leaf reachable" 4 (Hashtbl.length seen);
  (* removing leaves prunes the tree *)
  s.Searcher.remove (dummy_state 2);
  s.Searcher.remove (dummy_state 3);
  Alcotest.(check int) "two left" 2 (s.Searcher.size ());
  for _ = 1 to 50 do
    match s.Searcher.select () with
    | Some st ->
      Alcotest.(check bool) "only live leaves" true
        (st.State.id = 0 || st.State.id = 1)
    | None -> Alcotest.fail "empty"
  done

let test_weighted_searchers_basic () =
  List.iter
    (fun name ->
      let s = searcher ~rng:(Rng.create 3) name in
      let states = List.init 20 dummy_state in
      List.iter s.Searcher.add states;
      Alcotest.(check int) "size" 20 (s.Searcher.size ());
      let seen = Hashtbl.create 16 in
      for _ = 1 to 400 do
        match s.Searcher.select () with
        | Some st ->
          Hashtbl.replace seen st.State.id ();
          Alcotest.(check bool) "valid id" true (st.State.id >= 0 && st.State.id < 20)
        | None -> Alcotest.fail "empty"
      done;
      Alcotest.(check bool) "spreads over many states" true (Hashtbl.length seen > 5);
      List.iter s.Searcher.remove states;
      Alcotest.(check int) "drained" 0 (s.Searcher.size ());
      Alcotest.(check bool) "select on empty" true (s.Searcher.select () = None))
    [ "covnew"; "md2u" ]

let test_covnew_prefers_fresh_cover () =
  let s = searcher ~rng:(Rng.create 11) "covnew" in
  let stale = List.init 10 dummy_state in
  let fresh = dummy_state 99 in
  fresh.State.fresh_cover <- true;
  List.iter s.Searcher.add stale;
  s.Searcher.add fresh;
  let hits = ref 0 in
  let rounds = 600 in
  for _ = 1 to rounds do
    match s.Searcher.select () with
    | Some st -> if st.State.id = 99 then incr hits
    | None -> Alcotest.fail "empty"
  done;
  (* uniform would give ~1/11 = 55; the 8x boost should give ~4x that *)
  Alcotest.(check bool)
    (Printf.sprintf "boosted state selected often (%d/%d)" !hits rounds)
    true
    (!hits > rounds / 8)

let test_interleave_alternates () =
  let s = Searcher.interleave "both" [ searcher "dfs"; searcher "bfs" ] in
  List.iter (fun i -> s.Searcher.add (dummy_state i)) [ 1; 2; 3 ];
  let first = Option.get (s.Searcher.select ()) in
  let second = Option.get (s.Searcher.select ()) in
  Alcotest.(check int) "dfs first: newest" 3 first.State.id;
  Alcotest.(check int) "bfs second: oldest" 1 second.State.id

let test_interleave_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Searcher.interleave "none" []);
       false
     with Invalid_argument _ -> true)

let test_by_name_covers_names () =
  List.iter
    (fun name ->
      Alcotest.(check bool) ("factory for " ^ name) true (Searcher.by_name name <> None))
    Searcher.names;
  Alcotest.(check bool) "unknown" true (Searcher.by_name "zigzag" = None)

let suite =
  [
    Alcotest.test_case "dfs lifo" `Quick test_dfs_lifo;
    Alcotest.test_case "dfs fork dives" `Quick test_dfs_fork_goes_deeper;
    Alcotest.test_case "bfs fifo" `Quick test_bfs_fifo;
    Alcotest.test_case "random-state live" `Quick test_random_state_selects_live;
    Alcotest.test_case "random-path tree" `Quick test_random_path_tree;
    Alcotest.test_case "weighted searchers" `Quick test_weighted_searchers_basic;
    Alcotest.test_case "covnew boost" `Quick test_covnew_prefers_fresh_cover;
    Alcotest.test_case "interleave alternates" `Quick test_interleave_alternates;
    Alcotest.test_case "interleave rejects empty" `Quick test_interleave_rejects_empty;
    Alcotest.test_case "by_name" `Quick test_by_name_covers_names;
  ]
