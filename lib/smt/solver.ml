module Telemetry = Pbse_telemetry.Telemetry

type result =
  | Sat of Model.t
  | Unsat
  | Unknown

type stats = {
  mutable queries : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable cache_hits : int;
  mutable hint_hits : int;
  mutable prefix_hits : int;
  mutable prefix_builds : int;
  mutable prefix_model_hits : int;
  mutable search_nodes : int;
  mutable work : int;
  mutable prefix_evictions : int;
}

(* Exhausted group searches, keyed by [Search_core.replay_key]: the
   work spent when the search ran out, and the search nodes it counted. *)
module Replays = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    let rec same i = i >= n || (a.(i) = b.(i) && same (i + 1)) in
    n = Array.length b && same 0

  let hash (a : int array) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001b3) lxor a.(i)
    done;
    !h lxor (!h lsr 29) land max_int
end)

type replay = {
  spent_after : int;
  nodes : int;
}

(* What the solver derives from a constraint, once: its compiled tape
   and the input bytes it reads, which are the tape's. *)
type fact = {
  tape : Tape.t;
  reads : int list; (* sorted, distinct *)
}

module Facts = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (id : int) = id
end)

type t = {
  budget : int;
  st : stats;
  cache : (int list, Search_core.group_result) Hashtbl.t;
  replays : replay Replays.t; (* exhausted searches; Sat and Unsat go to [cache] *)
  work_area : Workspace.t; (* closure, grouping and search scratch *)
  facts : fact Facts.t; (* expr id -> the constraint's tape and reads *)
  prefixes : Prefix_ctx.t;
  (* registry instruments (docs/telemetry.md); mutation is gated on the
     owning registry's enabled flag, so uninstrumented runs pay one
     boolean load *)
  tm_query_work : Telemetry.histogram;
}

exception Out_of_budget = Search_core.Out_of_budget

let create ?(budget = 60_000) ?prefix_cap ?registry () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    budget;
    st =
      {
        queries = 0;
        sat = 0;
        unsat = 0;
        unknown = 0;
        cache_hits = 0;
        hint_hits = 0;
        prefix_hits = 0;
        prefix_builds = 0;
        prefix_model_hits = 0;
        search_nodes = 0;
        work = 0;
        prefix_evictions = 0;
      };
    cache = Hashtbl.create 4096;
    replays = Replays.create 1024;
    work_area = Workspace.create ();
    facts = Facts.create 4096;
    prefixes = Prefix_ctx.create ?cap:prefix_cap ();
    tm_query_work = Telemetry.Registry.histogram registry "solver.query_work";
  }

let stats t = t.st

(* Each constraint is compiled the first time a query meets it. Ids are
   the session arena's, so the table is the session's own; a fact is a
   pure function of its constraint, so a reset changes no answer. *)
let max_facts = 65_536

let fact t (e : Expr.t) =
  match Facts.find_opt t.facts e.id with
  | Some f -> f
  | None ->
    let tape = Tape.compile e in
    let f = { tape; reads = Array.to_list (Tape.reads tape) } in
    if Facts.length t.facts >= max_facts then Facts.reset t.facts;
    Facts.replace t.facts e.id f;
    f

let reads_of t e = (fact t e).reads

let tape_of t e = (fact t e).tape

(* --- group solving -------------------------------------------------------- *)

let max_group_vars = 48

(* A search that runs out of budget is replayed, not rerun, when it is
   asked again with everything it reads unchanged: same constraints,
   hint bytes, bounds and focus, and the same work spent on entry, under
   the solver's one limit. The replay spends what the search spent and
   counts the nodes it counted, so no charge or counter moves. *)
let max_replays = 16_384

let search_group t meter ~on_node ~hint ~focus ~bounds group =
  let key = Search_core.replay_key meter ~hint ~focus ~bounds group in
  match Replays.find_opt t.replays key with
  | Some r ->
    meter.Search_core.spent <- r.spent_after;
    t.st.search_nodes <- t.st.search_nodes + r.nodes;
    Search_core.Gunknown
  | None -> (
    let nodes_before = t.st.search_nodes in
    try Search_core.solve_group t.work_area ~on_node meter ~hint ~focus ~bounds group
    with Out_of_budget ->
      if Replays.length t.replays >= max_replays then Replays.reset t.replays;
      Replays.replace t.replays key
        { spent_after = meter.Search_core.spent; nodes = t.st.search_nodes - nodes_before };
      Search_core.Gunknown)

let solve_groups t meter ~hint ~focus ~bounds ?on_unsat_core groups =
  let model = ref hint in
  let unknown = ref false in
  let unsat = ref false in
  let on_node () = t.st.search_nodes <- t.st.search_nodes + 1 in
  let solve_one exprs =
    if (not !unsat) && not !unknown then begin
      let key = Simplify.cache_key exprs in
      let outcome =
        match Hashtbl.find_opt t.cache key with
        | Some r ->
          t.st.cache_hits <- t.st.cache_hits + 1;
          r
        | None ->
          let group = Search_core.build_group t.work_area ~tape:(tape_of t) exprs in
          let r =
            if Array.length (Search_core.group_vars group) > max_group_vars then
              Search_core.Gunknown
            else
              search_group t meter ~on_node ~hint ~focus ~bounds group
          in
          (* only definitive answers are budget-independent *)
          (match r with
           | Search_core.Gsat _ | Search_core.Gunsat ->
             if Hashtbl.length t.cache > 200_000 then Hashtbl.reset t.cache;
             Hashtbl.replace t.cache key r
           | Search_core.Gunknown -> ());
          r
      in
      match outcome with
      | Search_core.Gsat bindings ->
        model := List.fold_left (fun m (i, v) -> Model.set m i v) !model bindings
      | Search_core.Gunsat ->
        unsat := true;
        (* the failing group is a genuine unsat core: grouping is closed
           under shared bytes, so every constraint justifying the
           search's learned bounds is in [exprs] (see docs/subsumption.md) *)
        (match on_unsat_core with Some f -> f exprs | None -> ())
      | Search_core.Gunknown -> unknown := true
    end
  in
  List.iter solve_one groups;
  if !unsat then Unsat else if !unknown then Unknown else Sat !model

(* Every query runs under the same budget, and an [Unknown] answer is
   final: reissuing the query spends the same allowance again, as KLEE
   does after an STP timeout. *)
let with_meter t body =
  t.st.queries <- t.st.queries + 1;
  let meter = Search_core.meter ~limit:t.budget in
  let result = try body meter with Out_of_budget -> Unknown in
  (match result with
   | Sat _ -> t.st.sat <- t.st.sat + 1
   | Unsat -> t.st.unsat <- t.st.unsat + 1
   | Unknown -> t.st.unknown <- t.st.unknown + 1);
  Telemetry.observe t.tm_query_work meter.Search_core.spent;
  t.st.work <- t.st.work + meter.Search_core.spent;
  (result, meter.Search_core.spent)

let check_assuming t ?(hint = Model.empty) ?on_unsat_core ~path extra =
  with_meter t (fun meter ->
      match Simplify.partition_constants extra with
      | Error () -> Unsat
      | Ok extra ->
        List.iter (fun (e : Expr.t) -> Search_core.spend meter e.Expr.nodes) extra;
        if Model.satisfies hint extra then begin
          t.st.hint_hits <- t.st.hint_hits + 1;
          Sat hint
        end
        else begin
          (* incremental prefix solving: the path is indexed once and
             extended as it grows, so each query pays for its delta and
             its component, not the whole path *)
          let o =
            Prefix_ctx.find_or_build t.prefixes ~reads:(reads_of t) ~tape:(tape_of t) path
          in
          let entry = o.Prefix_ctx.ctx in
          if o.Prefix_ctx.reused then t.st.prefix_hits <- t.st.prefix_hits + 1;
          t.st.prefix_builds <- t.st.prefix_builds + o.Prefix_ctx.built;
          t.st.prefix_evictions <- Prefix_ctx.evictions t.prefixes;
          (* charged after the contexts are cached: if the charge
             exhausts the budget, a reissue hits instead of rebuilding *)
          Search_core.spend meter o.Prefix_ctx.cost;
          (* the prefix's last witness satisfies the whole path; reuse it
             when it also covers the new constraints *)
          let model_hit =
            match Prefix_ctx.model entry with
            | Some m ->
              List.iter
                (fun (e : Expr.t) -> Search_core.spend meter (Int.min e.Expr.nodes 64))
                extra;
              if Model.satisfies m extra then Some m else None
            | None -> None
          in
          match model_hit with
          | Some m ->
            t.st.prefix_model_hits <- t.st.prefix_model_hits + 1;
            Sat m
          | None ->
            (* component closure over the prefix index; only constraints
               sharing bytes with [extra] can be affected by rebinding *)
            let selected =
              Prefix_ctx.closure t.work_area entry ~reads:(reads_of t)
                ~spend:(Search_core.spend meter) extra
            in
            let focus = List.concat_map (reads_of t) extra in
            let result =
              solve_groups t meter ~hint ~focus ~bounds:(Prefix_ctx.bound entry)
                ?on_unsat_core
                (Simplify.group_constraints t.work_area ~reads:(reads_of t) selected)
            in
            (match result with
             | Sat m -> Prefix_ctx.note_model entry m
             | Unsat | Unknown -> ());
            result
        end)
