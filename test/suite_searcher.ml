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

(* The weighted searcher as it was before its snapshot was rebuilt into
   reused buffers: fresh arrays, a per-state [weight_of] closure and a
   boxed weight per state at every rebuild. Kept as the reference that
   the buffered one must match draw for draw. *)
module Reference_weighted = struct
  module Cfg = Pbse_ir.Cfg

  type pool = {
    mutable arr : State.t option array;
    mutable len : int;
    index : (int, int) Hashtbl.t;
  }

  let pool_create () = { arr = Array.make 64 None; len = 0; index = Hashtbl.create 64 }

  let pool_add p st =
    if p.len >= Array.length p.arr then begin
      let bigger = Array.make (2 * Array.length p.arr) None in
      Array.blit p.arr 0 bigger 0 p.len;
      p.arr <- bigger
    end;
    p.arr.(p.len) <- Some st;
    Hashtbl.replace p.index st.State.id p.len;
    p.len <- p.len + 1

  let pool_remove p st =
    match Hashtbl.find_opt p.index st.State.id with
    | None -> ()
    | Some slot ->
      Hashtbl.remove p.index st.State.id;
      let last = p.len - 1 in
      (match p.arr.(last) with
       | Some moved when slot <> last ->
         p.arr.(slot) <- Some moved;
         Hashtbl.replace p.index moved.State.id slot
       | Some _ | None -> ());
      p.arr.(last) <- None;
      p.len <- last

  let pool_get p i = match p.arr.(i) with Some st -> st | None -> assert false

  type dmap = {
    cfg : Cfg.t;
    coverage : Coverage.t;
    mutable dist : int array;
    mutable at_version : int;
  }

  let dmap_get d gid =
    if d.at_version < 0 || Coverage.version d.coverage > d.at_version + 8 then begin
      d.dist <-
        Cfg.distances_to d.cfg ~targets:(fun g -> not (Coverage.is_covered d.coverage g));
      d.at_version <- Coverage.version d.coverage
    end;
    if Array.length d.dist = 0 then max_int else d.dist.(gid)

  let weighted name rng cfg coverage ~weight_of =
    let p = pool_create () in
    let dmap = { cfg; coverage; dist = [||]; at_version = -1 } in
    let cum = ref [||] in
    let snapshot_states = ref [||] in
    let since_snapshot = ref max_int in
    let rebuild () =
      let n = p.len in
      let states = Array.init n (fun i -> pool_get p i) in
      let weights =
        Array.map
          (fun st ->
            let gid = Cfg.id cfg st.State.fidx st.State.bidx in
            weight_of st (dmap_get dmap gid))
          states
      in
      let acc = ref 0.0 in
      cum :=
        Array.map
          (fun w ->
            acc := !acc +. (w +. 1e-9);
            !acc)
          weights;
      snapshot_states := states;
      since_snapshot := 0
    in
    let select () =
      if p.len = 0 then None
      else begin
        if !since_snapshot >= 64 || Array.length !snapshot_states = 0 then rebuild ();
        incr since_snapshot;
        let cumulative = !cum and states = !snapshot_states in
        let n = Array.length states in
        if n = 0 then None
        else begin
          let total = cumulative.(n - 1) in
          let rec attempt tries =
            if tries = 0 then begin
              rebuild ();
              if p.len = 0 then None else Some (pool_get p (Rng.int rng p.len))
            end
            else begin
              let r = Rng.float rng total in
              let lo = ref 0 and hi = ref (n - 1) in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if cumulative.(mid) > r then hi := mid else lo := mid + 1
              done;
              let st = states.(!lo) in
              if Hashtbl.mem p.index st.State.id then Some st else attempt (tries - 1)
            end
          in
          attempt 8
        end
      end
    in
    {
      Searcher.name;
      add =
        (fun st ->
          pool_add p st;
          since_snapshot := max_int);
      fork =
        (fun ~parent:_ child ->
          pool_add p child;
          since_snapshot := max_int);
      remove = pool_remove p;
      select;
      size = (fun () -> p.len);
    }

  let base dist = if dist = max_int then 1e-6 else 1.0 /. float_of_int (1 + dist)

  let md2u rng cfg coverage =
    weighted "md2u" rng cfg coverage ~weight_of:(fun _st dist -> base dist)

  let covnew rng cfg coverage =
    weighted "covnew" rng cfg coverage ~weight_of:(fun st dist ->
        if st.State.fresh_cover then 8.0 *. base dist else base dist)
end

(* One script of random adds, forks, removals and selects, with states
   moving between blocks, gaining and losing their fresh-cover flag,
   coverage growing and the pool draining in stretches, drives the reference and the buffered searcher; both
   draw from their own copy of one RNG seed and must pick the same state
   at every select. *)
let test_weighted_matches_reference () =
  let prog =
    Pbse_lang.Frontend.compile
      "fn main() { var i = 0; var s = 0; while (i < in(0)) { if (in(i) > 7) { s = s + 1; } \
       else { s = s + 2; } i = i + 1; } if (s > 3) { out(s); } if (s == 9) { out(i); } \
       return 0; }"
  in
  let cfg = Pbse_ir.Cfg.build prog in
  let nblocks = Pbse_ir.Cfg.nblocks cfg in
  List.iter
    (fun (name, reference) ->
      List.iter
        (fun seed ->
          let coverage = Coverage.create nblocks in
          let driver = Rng.create (1000 + seed) in
          let fresh = (Option.get (Searcher.by_name name)) (Rng.create seed) cfg coverage in
          let old = reference (Rng.create seed) cfg coverage in
          let live = ref [||] in
          let next_id = ref 0 in
          let new_state () =
            let st = dummy_state !next_id in
            incr next_id;
            st.State.bidx <- Rng.int driver nblocks;
            st.State.fresh_cover <- Rng.int driver 4 = 0;
            live := Array.append !live [| st |];
            st
          in
          let pick () = !live.(Rng.int driver (Array.length !live)) in
          let selects = ref 0 in
          for step = 1 to 3000 do
            let n = Array.length !live in
            (* every other 500 steps the pool only drains, so snapshots
               go stale and draws land on removed states *)
            let draining = step / 500 mod 2 = 1 in
            match Rng.int driver 100 with
            | r when draining && r < 30 && n > 0 ->
              let st = pick () in
              fresh.Searcher.remove st;
              old.Searcher.remove st;
              live := Array.of_list (List.filter (fun s -> s != st) (Array.to_list !live))
            | r when draining && r < 30 -> ()
            | r when (r < 8 && not draining) || n = 0 ->
              let st = new_state () in
              fresh.Searcher.add st;
              old.Searcher.add st
            | r when r < 20 && not draining ->
              let parent = pick () in
              let child = new_state () in
              fresh.Searcher.fork ~parent child;
              old.Searcher.fork ~parent child
            | r when r < 30 ->
              let st = pick () in
              fresh.Searcher.remove st;
              old.Searcher.remove st;
              live := Array.of_list (List.filter (fun s -> s != st) (Array.to_list !live))
            | r when r < 40 ->
              let st = pick () in
              st.State.bidx <- Rng.int driver nblocks;
              st.State.fresh_cover <- not st.State.fresh_cover
            | r when r < 45 -> ignore (Coverage.cover coverage (Rng.int driver nblocks))
            | _ ->
              incr selects;
              let id = Option.map (fun st -> st.State.id) in
              Alcotest.(check (option int))
                (Printf.sprintf "%s seed %d step %d" name seed step)
                (id (old.Searcher.select ()))
                (id (fresh.Searcher.select ()))
          done;
          Alcotest.(check int) "same size" (old.Searcher.size ()) (fresh.Searcher.size ());
          Alcotest.(check bool) "selects were drawn" true (!selects > 1000))
        [ 1; 2; 3; 4 ])
    [ ("covnew", Reference_weighted.covnew); ("md2u", Reference_weighted.md2u) ]

let suite =
  [
    Alcotest.test_case "dfs lifo" `Quick test_dfs_lifo;
    Alcotest.test_case "dfs fork dives" `Quick test_dfs_fork_goes_deeper;
    Alcotest.test_case "bfs fifo" `Quick test_bfs_fifo;
    Alcotest.test_case "random-state live" `Quick test_random_state_selects_live;
    Alcotest.test_case "random-path tree" `Quick test_random_path_tree;
    Alcotest.test_case "weighted searchers" `Quick test_weighted_searchers_basic;
    Alcotest.test_case "covnew boost" `Quick test_covnew_prefers_fresh_cover;
    Alcotest.test_case "weighted = reference draws" `Quick test_weighted_matches_reference;
    Alcotest.test_case "interleave alternates" `Quick test_interleave_alternates;
    Alcotest.test_case "interleave rejects empty" `Quick test_interleave_rejects_empty;
    Alcotest.test_case "by_name" `Quick test_by_name_covers_names;
  ]
