module Rng = Pbse_util.Rng
module Cfg = Pbse_ir.Cfg

type t = {
  name : string;
  add : State.t -> unit;
  fork : parent:State.t -> State.t -> unit;
  remove : State.t -> unit;
  select : unit -> State.t option;
  size : unit -> int;
}

(* --- dfs / bfs ------------------------------------------------------------ *)

let stacklike name ~push_front =
  let states = ref [] in
  let count = ref 0 in
  let add st =
    states := (if push_front then st :: !states else !states @ [ st ]);
    incr count
  in
  let remove st =
    let before = List.length !states in
    states := List.filter (fun s -> s.State.id <> st.State.id) !states;
    count := !count - (before - List.length !states)
  in
  {
    name;
    add;
    fork = (fun ~parent:_ child -> add child);
    remove;
    select = (fun () -> match !states with [] -> None | st :: _ -> Some st);
    size = (fun () -> !count);
  }

let dfs () = stacklike "dfs" ~push_front:true

(* BFS appends both new and forked states, selecting the oldest. The
   quadratic [@] append is avoided with a two-list queue. *)
let bfs () =
  let front = ref [] and back = ref [] in
  let count = ref 0 in
  let add st =
    back := st :: !back;
    incr count
  in
  let rec head () =
    match !front with
    | st :: _ -> Some st
    | [] ->
      if !back = [] then None
      else begin
        front := List.rev !back;
        back := [];
        head ()
      end
  in
  let remove st =
    let filter l = List.filter (fun s -> s.State.id <> st.State.id) l in
    let before = List.length !front + List.length !back in
    front := filter !front;
    back := filter !back;
    count := !count - (before - (List.length !front + List.length !back))
  in
  {
    name = "bfs";
    add;
    fork = (fun ~parent:_ child -> add child);
    remove;
    select = head;
    size = (fun () -> !count);
  }

(* --- random-state --------------------------------------------------------- *)

(* Dynamic array with swap-removal for O(1) uniform selection. *)
type pool = {
  mutable arr : State.t option array;
  mutable len : int;
  index : (int, int) Hashtbl.t; (* state id -> slot *)
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

let random_state rng =
  let p = pool_create () in
  {
    name = "random-state";
    add = pool_add p;
    fork = (fun ~parent:_ child -> pool_add p child);
    remove = pool_remove p;
    select = (fun () -> if p.len = 0 then None else Some (pool_get p (Rng.int rng p.len)));
    size = (fun () -> p.len);
  }

(* --- random-path ----------------------------------------------------------- *)

(* KLEE's PTree: leaves hold states, internal nodes remember forks.
   Selection walks from a root picking a uniformly random live child, so
   deep subtrees (loops) don't dominate. [live] counts live leaves below. *)
type node = {
  mutable kind : node_kind;
  mutable live : int;
  mutable up : node option;
}

and node_kind =
  | Leaf of State.t
  | Branch of node * node
  | Dead

let random_path rng =
  let roots = ref [] in
  let by_state : (int, node) Hashtbl.t = Hashtbl.create 256 in
  let count = ref 0 in
  let rec bump node delta =
    node.live <- node.live + delta;
    match node.up with Some parent -> bump parent delta | None -> ()
  in
  let add st =
    let leaf = { kind = Leaf st; live = 1; up = None } in
    Hashtbl.replace by_state st.State.id leaf;
    roots := leaf :: !roots;
    incr count
  in
  let fork ~parent child =
    match Hashtbl.find_opt by_state parent.State.id with
    | None -> add child
    | Some node ->
      let left = { kind = Leaf parent; live = 1; up = Some node } in
      let right = { kind = Leaf child; live = 1; up = Some node } in
      node.kind <- Branch (left, right);
      Hashtbl.replace by_state parent.State.id left;
      Hashtbl.replace by_state child.State.id right;
      bump node 1;
      (* the branch node itself now holds two leaves but carried live=1 *)
      incr count
  in
  let remove st =
    match Hashtbl.find_opt by_state st.State.id with
    | None -> ()
    | Some node ->
      Hashtbl.remove by_state st.State.id;
      node.kind <- Dead;
      bump node (-1);
      decr count
  in
  let select () =
    let live_roots = List.filter (fun n -> n.live > 0) !roots in
    (* prune dead roots opportunistically *)
    roots := live_roots;
    match live_roots with
    | [] -> None
    | _ ->
      let root = List.nth live_roots (Rng.int rng (List.length live_roots)) in
      let rec walk node =
        match node.kind with
        | Leaf st -> Some st
        | Dead -> None
        | Branch (l, r) ->
          if l.live = 0 then walk r
          else if r.live = 0 then walk l
          else if Rng.bool rng then walk l
          else walk r
      in
      walk root
  in
  {
    name = "random-path";
    add;
    fork;
    remove;
    select;
    size = (fun () -> !count);
  }

(* --- weighted heuristics (covnew, md2u) ------------------------------------ *)

(* Distance-to-uncovered map, refreshed lazily as coverage grows. *)
type dmap = {
  cfg : Cfg.t;
  coverage : Coverage.t;
  mutable dist : int array;
  mutable at_version : int;
}

let dmap_create cfg coverage =
  { cfg; coverage; dist = [||]; at_version = -1 }

let dmap_refresh d =
  if d.at_version < 0 || Coverage.version d.coverage > d.at_version + 8 then begin
    d.dist <- Cfg.distances_to d.cfg ~targets:(fun g -> not (Coverage.is_covered d.coverage g));
    d.at_version <- Coverage.version d.coverage
  end

(* A state's weight is [1 / (1 + distance to uncovered code)] ([1e-6] when
   nothing uncovered is reachable), times [boost] while the state has
   freshly covered code: 8 for covnew, 1 for md2u. Selection draws from a
   snapshot of the pool: each state's cumulative weight, summed left to
   right in pool order. The snapshot is rebuilt after 64 selects, after
   any add or fork and after 8 draws of removed states, into buffers that
   grow with the pool and are otherwise reused. *)
let weighted name rng cfg coverage ~boost =
  let p = pool_create () in
  let dmap = dmap_create cfg coverage in
  let cum = ref [||] in
  let snapshot_states = ref [||] in
  let snapshot_len = ref 0 in
  let since_snapshot = ref max_int in
  let rebuild () =
    let n = p.len in
    if n > Array.length !cum then begin
      let cap = Int.max n (2 * Array.length !cum) in
      cum := Array.make cap 0.0;
      snapshot_states := Array.make cap None
    end;
    let cumulative = !cum and states = !snapshot_states in
    (* coverage cannot move during a rebuild, so one refresh check stands
       for a check per state *)
    if n > 0 then dmap_refresh dmap;
    let dist = dmap.dist in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let slot = p.arr.(i) in
      states.(i) <- slot;
      let st = match slot with Some st -> st | None -> assert false in
      let dist =
        if Array.length dist = 0 then max_int
        else dist.(Cfg.id cfg st.State.fidx st.State.bidx)
      in
      let base = if dist = max_int then 1e-6 else 1.0 /. float_of_int (1 + dist) in
      let w = if st.State.fresh_cover then boost *. base else base in
      acc := !acc +. (w +. 1e-9);
      cumulative.(i) <- !acc
    done;
    (* drop the last snapshot's surplus, so removed states can be freed *)
    for i = n to !snapshot_len - 1 do
      states.(i) <- None
    done;
    snapshot_len := n;
    since_snapshot := 0
  in
  let select () =
    if p.len = 0 then None
    else begin
      if !since_snapshot >= 64 || !snapshot_len = 0 then rebuild ();
      incr since_snapshot;
      let cumulative = !cum and states = !snapshot_states in
      let n = !snapshot_len in
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
            (* binary search for the first cumulative weight > r *)
            let lo = ref 0 and hi = ref (n - 1) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if cumulative.(mid) > r then hi := mid else lo := mid + 1
            done;
            match states.(!lo) with
            | Some st when Hashtbl.mem p.index st.State.id -> Some st
            | Some _ | None -> attempt (tries - 1)
          end
        in
        attempt 8
      end
    end
  in
  {
    name;
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

let md2u rng cfg coverage = weighted "md2u" rng cfg coverage ~boost:1.0
let covnew rng cfg coverage = weighted "covnew" rng cfg coverage ~boost:8.0

(* --- composition ------------------------------------------------------------ *)

let interleave name subs =
  (match subs with [] -> invalid_arg "Searcher.interleave: no sub-searchers" | _ -> ());
  let subs = Array.of_list subs in
  let turn = ref 0 in
  {
    name;
    add = (fun st -> Array.iter (fun s -> s.add st) subs);
    fork = (fun ~parent child -> Array.iter (fun s -> s.fork ~parent child) subs);
    remove = (fun st -> Array.iter (fun s -> s.remove st) subs);
    select =
      (fun () ->
        let s = subs.(!turn mod Array.length subs) in
        incr turn;
        s.select ());
    size = (fun () -> subs.(0).size ());
  }

let default rng cfg coverage =
  interleave "default" [ random_path (Rng.split rng); covnew (Rng.split rng) cfg coverage ]

let names = [ "default"; "random-path"; "random-state"; "covnew"; "md2u"; "dfs"; "bfs" ]

let by_name name =
  match name with
  | "dfs" -> Some (fun _rng _cfg _cov -> dfs ())
  | "bfs" -> Some (fun _rng _cfg _cov -> bfs ())
  | "random-state" -> Some (fun rng _cfg _cov -> random_state rng)
  | "random-path" -> Some (fun rng _cfg _cov -> random_path rng)
  | "covnew" -> Some covnew
  | "md2u" -> Some md2u
  | "default" -> Some default
  | _ -> None
