(* Incremental prefix contexts.

   Symbolic execution issues nearly every query against a path that
   extends an already-seen prefix by a handful of constraints: the
   state's previous query plus the pins and branch conditions assumed
   since, a sibling fork's shared prefix, a lazy child verified against
   its parent's path, a reissue of the same query. The old
   entry point re-walked the whole path per query to find the
   constraints sharing bytes with [extra].

   A prefix context indexes a path once and is {e extended} — never
   rebuilt — when a query arrives whose path adds constraints on top of
   an indexed prefix. Contexts are persistent (maps, not hash tables),
   so an extension costs O(delta) and shares the rest with its parent:

   - a by-byte index of the prefix constraints, making the component
     closure for a query O(component);
   - learned per-byte intervals (endpoint trimming against each newly
     added constraint), handed to the search as initial domain bounds;
   - the last Sat model produced under the prefix — inherited by an
     extension when it satisfies the added constraints — tried as a
     witness before any solving.

   Lookup is by physical identity of the path list: a state's path is a
   persistent cons-list, physically shared with the parent it forked
   from, so walking the spine finds the deepest indexed prefix without
   comparing constraint sets. Structurally equal but physically distinct
   paths get separate entries (harmless, bounded table). *)

module Imap = Map.Make (Int)

type entry = {
  path : Expr.t list; (* the exact (physical) prefix this entry indexes *)
  depth : int;
  by_var : Expr.t list Imap.t; (* input byte -> prefix constraints reading it *)
  creads : int list Imap.t; (* constraint id -> its reads *)
  bounds : Interval.t Imap.t; (* learned per-byte intervals *)
  mutable model : Model.t option; (* last Sat model under this prefix *)
  mutable last_use : int; (* LRU clock tick of the last lookup hit *)
}

type t = {
  table : (int, entry list) Hashtbl.t; (* head expr id -> entries *)
  mutable entries : int;
  mutable tick : int; (* LRU clock, advanced per lookup/insert *)
  mutable evictions : int; (* entries dropped by the LRU bound *)
  cap : int;
  root : entry;
}

let default_cap = 16_384

let make_root () =
  {
    path = [];
    depth = 0;
    by_var = Imap.empty;
    creads = Imap.empty;
    bounds = Imap.empty;
    model = None;
    last_use = 0;
  }

let create ?(cap = default_cap) () =
  {
    table = Hashtbl.create 1024;
    entries = 0;
    tick = 0;
    evictions = 0;
    cap = Int.max 16 cap;
    root = make_root ();
  }

let evictions t = t.evictions

(* Bounded LRU: at capacity, drop the least-recently-used quarter in one
   batch (instead of the old wholesale reset), so long campaigns keep
   their hot prefixes. O(n log n) every n/4 inserts — amortised O(log n)
   per insert. Survivors keep their ticks; the relative order is all the
   LRU needs, and ticks are per-context, so eviction is deterministic
   for a given query sequence. *)
let evict_lru t =
  let all = Hashtbl.fold (fun _ es acc -> List.rev_append es acc) t.table [] in
  let ages = List.sort Int.compare (List.map (fun e -> e.last_use) all) in
  let drop_target = Int.max 1 (t.entries / 4) in
  (* evict everything at or below the drop-target age; ties share a tick
     (entries built by one extension walk), so the batch can exceed the
     quarter — the condition is per-entry, independent of table order *)
  let threshold = List.nth ages (Int.min (drop_target - 1) (List.length ages - 1)) in
  let dropped = ref 0 in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] in
  List.iter
    (fun k ->
      match Hashtbl.find_opt t.table k with
      | None -> ()
      | Some es -> (
        let kept =
          List.filter
            (fun e ->
              if e.last_use <= threshold then begin
                incr dropped;
                false
              end
              else true)
            es
        in
        match kept with
        | [] -> Hashtbl.remove t.table k
        | _ -> Hashtbl.replace t.table k kept))
    keys;
  t.entries <- t.entries - !dropped;
  t.evictions <- t.evictions + !dropped

(* Endpoint trimming of one byte's interval against one constraint:
   advance the endpoints while the constraint is definitely false there,
   other bytes held at their learned hulls, at most [max_trim_steps]
   values per end. Sound: every removed value provably violates [c], a
   constraint any solve involving this byte must include (see
   [closure]). Runs [c]'s interval tape: the other reads are loaded
   once, then [Tape.first_unfalsified] and [Tape.last_unfalsified] move
   byte [v]'s slot. [cost] pays [c]'s nodes per value probed, the value
   that stops a trim included. *)
let max_trim_steps = 64

let trim_bound tape bounds cost v (iv : Interval.t) (c : Expr.t) =
  let reads = Tape.reads tape in
  let kv = ref 0 in
  for k = 0 to Array.length reads - 1 do
    let i = reads.(k) in
    if i = v then kv := k
    else
      match Imap.find_opt i bounds with
      | Some (b : Interval.t) ->
        Tape.set_interval tape k (Int64.to_int b.Interval.lo) (Int64.to_int b.Interval.hi)
      | None -> Tape.set_interval tape k 0 255
  done;
  let kv = !kv and nodes = c.Expr.nodes in
  let lo = Int64.to_int iv.Interval.lo and hi = Int64.to_int iv.Interval.hi in
  (* the walk up probes [lo, stop] and stops short of [hi] *)
  let stop = Int.min (hi - 1) (lo + max_trim_steps - 1) in
  let lo' = Tape.first_unfalsified tape kv lo stop in
  cost := !cost + (nodes * (Int.min lo' stop - lo + 1));
  let stop = Int.max (lo' + 1) (hi - max_trim_steps + 1) in
  let hi' = Tape.last_unfalsified tape kv stop hi in
  cost := !cost + (nodes * (hi - Int.max hi' stop + 1));
  Interval.make (Int64.of_int lo') (Int64.of_int hi')

(* Extend [parent] with one constraint [c]; [path] is the physical list
   [c :: parent.path]. O(reads of c). *)
let extend ~reads ~tape cost path (c : Expr.t) parent =
  match Expr.is_const c with
  | Some _ ->
    (* constants never join a component; the context only re-anchors *)
    { parent with path; depth = parent.depth + 1; model = parent.model; last_use = 0 }
  | None ->
    let r = reads c in
    cost := !cost + 1 + List.length r;
    let by_var =
      List.fold_left
        (fun m v ->
          let existing = match Imap.find_opt v m with Some l -> l | None -> [] in
          Imap.add v (c :: existing) m)
        parent.by_var r
    in
    let creads = Imap.add c.Expr.id r parent.creads in
    (* learn bounds only for the bytes [c] reads, starting from the
       parent's learned interval — incremental, O(delta) *)
    let bounds =
      if List.length r <= 2 then
        let tape = tape c in
        List.fold_left
          (fun m v ->
            let iv =
              match Imap.find_opt v m with Some b -> b | None -> Interval.make 0L 255L
            in
            let iv' = trim_bound tape parent.bounds cost v iv c in
            if iv'.Interval.lo = iv.Interval.lo && iv'.Interval.hi = iv.Interval.hi
            then m
            else Imap.add v iv' m)
          parent.bounds r
      else parent.bounds
    in
    (* the parent's witness stays valid iff it satisfies the delta *)
    let model =
      match parent.model with
      | Some m ->
        cost := !cost + Int.min c.Expr.nodes 64;
        if Model.satisfies m [ c ] then Some m else None
      | None -> None
    in
    { path; depth = parent.depth + 1; by_var; creads; bounds; model; last_use = 0 }

let head_id (path : Expr.t list) =
  match path with [] -> assert false | e :: _ -> e.Expr.id

(* Physical-identity lookup of an exact path. *)
let lookup t path =
  match Hashtbl.find_opt t.table (head_id path) with
  | None -> None
  | Some entries -> List.find_opt (fun e -> e.path == path) entries

let insert t entry =
  if t.entries >= t.cap then evict_lru t;
  entry.last_use <- t.tick;
  let hid = head_id entry.path in
  let existing = match Hashtbl.find_opt t.table hid with Some l -> l | None -> [] in
  Hashtbl.replace t.table hid (entry :: existing);
  t.entries <- t.entries + 1

type outcome = {
  ctx : entry;
  reused : bool; (* an indexed prefix (exact or ancestor) was reused *)
  built : int; (* entries constructed by this call *)
  cost : int; (* work units the construction spent *)
}

(* Walk the physical spine of [path] down to the deepest indexed prefix
   (or the empty root), then extend back up, caching every intermediate
   context. Amortised O(delta): the common caller pattern — query, pin a
   few constraints, query again — finds the previous query's context
   after a few steps. *)
let find_or_build t ~reads ~tape path =
  t.tick <- t.tick + 1;
  let rec walk path pending =
    match path with
    | [] -> (t.root, false, pending)
    | c :: rest -> (
      match lookup t path with
      | Some e ->
        e.last_use <- t.tick;
        (e, true, pending)
      | None -> walk rest ((path, c) :: pending))
  in
  let base, hit_table, pending = walk path [] in
  let cost = ref 0 in
  let ctx =
    List.fold_left
      (fun parent (sub, c) ->
        let e = extend ~reads ~tape cost sub c parent in
        insert t e;
        e)
      base pending
  in
  {
    ctx;
    (* a reuse means an already-indexed context served as the base —
       an exact hit, a cached ancestor, or the (trivial) empty prefix *)
    reused = hit_table || pending = [];
    built = List.length pending;
    cost = !cost;
  }

let bound e v = Imap.find_opt v e.bounds

let model e = e.model

let note_model e m = e.model <- Some m

(* Component closure: [extra] plus every prefix constraint transitively
   sharing an input byte with it — a BFS over the by-byte index, O(size
   of the component) instead of O(path) per fixpoint round, marking bytes
   and constraints in the solver's workspace [w]. [spend] is charged once
   per selected prefix constraint. *)
let closure w e ~reads ~spend extra =
  Workspace.reset w;
  let selected = ref extra in
  let rec visit_all = function
    | [] -> ()
    | v :: rest ->
      Workspace.visit_byte w v;
      visit_all rest
  in
  List.iter
    (fun (x : Expr.t) ->
      (* never re-select a prefix constraint already present in [extra] *)
      ignore (Workspace.visit_id w x.Expr.id);
      visit_all (reads x))
    extra;
  let rec select_all = function
    | [] -> ()
    | (c : Expr.t) :: rest ->
      if Workspace.visit_id w c.Expr.id then begin
        spend 1;
        selected := c :: !selected;
        match Imap.find_opt c.Expr.id e.creads with
        | Some r -> visit_all r
        | None -> ()
      end;
      select_all rest
  in
  let rec drain () =
    let v = Workspace.next_byte w in
    if v >= 0 then begin
      (match Imap.find_opt v e.by_var with None -> () | Some cs -> select_all cs);
      drain ()
    end
  in
  drain ();
  !selected
