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
  mutable retries : int;
  mutable escalations : int;
  mutable retry_resolved : int;
  mutable prefix_evictions : int;
}

type t = {
  budget : int;
  retry_cap : int;
  st : stats;
  cache : (int list, Search_core.group_result) Hashtbl.t;
  reads_memo : (int, int list) Hashtbl.t; (* expr id -> sorted input indices *)
  retryable : (int list, int) Hashtbl.t; (* query key -> budget it failed at *)
  prefixes : Prefix_ctx.t;
  (* registry instruments (docs/telemetry.md); mutation is gated on the
     owning registry's enabled flag, so uninstrumented runs pay one
     boolean load *)
  tm_query_work : Telemetry.histogram;
  tm_retry_budget : Telemetry.histogram;
  tm_unknown : Telemetry.counter;
  tm_prefix_hits : Telemetry.counter;
  tm_prefix_evictions : Telemetry.counter;
}

exception Out_of_budget = Search_core.Out_of_budget

let create ?(budget = 60_000) ?retry_cap ?prefix_cap ?registry () =
  let retry_cap =
    match retry_cap with Some c -> max budget c | None -> 8 * budget
  in
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    budget;
    retry_cap;
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
        retries = 0;
        escalations = 0;
        retry_resolved = 0;
        prefix_evictions = 0;
      };
    cache = Hashtbl.create 4096;
    reads_memo = Hashtbl.create 4096;
    retryable = Hashtbl.create 256;
    prefixes = Prefix_ctx.create ?cap:prefix_cap ();
    tm_query_work = Telemetry.Registry.histogram registry "solver.query_work";
    tm_retry_budget = Telemetry.Registry.histogram registry "solver.retry_budget";
    tm_unknown = Telemetry.Registry.counter registry "solver.unknown";
    tm_prefix_hits = Telemetry.Registry.counter registry "solver.prefix_hits";
    tm_prefix_evictions = Telemetry.Registry.counter registry "smt.prefix_evictions";
  }

let stats t = t.st

let retry_cap t = t.retry_cap

let clear_cache t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.reads_memo;
  Hashtbl.reset t.retryable;
  Prefix_ctx.clear t.prefixes

let reads_of t (e : Expr.t) =
  match Hashtbl.find_opt t.reads_memo e.id with
  | Some r -> r
  | None ->
    let r = Expr.reads e in
    Hashtbl.replace t.reads_memo e.id r;
    r

(* --- group solving -------------------------------------------------------- *)

let max_group_vars = 48

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
          let group = Search_core.build_group ~reads:(reads_of t) exprs in
          let r =
            if Array.length (Search_core.group_vars group) > max_group_vars then
              Search_core.Gunknown
            else
              try Search_core.solve_group ~on_node meter ~hint ~focus ~bounds group
              with Out_of_budget -> Search_core.Gunknown
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

let no_bounds _ = None

(* Retry with escalating budgets: a query that went [Unknown] because its
   budget ran out is remembered (keyed on its expression ids) together
   with the budget it failed at. When the same query is issued again, it
   runs with twice that budget, doubling on each failure up to
   [retry_cap] — a deterministic, virtual-budget-based escalation with no
   wall clock. A later definitive answer retires the entry. *)
let with_meter t ?retry_key body =
  t.st.queries <- t.st.queries + 1;
  let key = lazy (match retry_key with Some f -> Some (f ()) | None -> None) in
  let limit =
    if Hashtbl.length t.retryable = 0 then t.budget
    else
      match Lazy.force key with
      | None -> t.budget
      | Some k -> (
        match Hashtbl.find_opt t.retryable k with
        | None -> t.budget
        | Some prev ->
          t.st.retries <- t.st.retries + 1;
          let escalated = min t.retry_cap (2 * prev) in
          if escalated > prev then begin
            t.st.escalations <- t.st.escalations + 1;
            Telemetry.observe t.tm_retry_budget escalated
          end;
          escalated)
  in
  let meter = Search_core.meter ~limit in
  let result = try body meter with Out_of_budget -> Unknown in
  (match result with
   | Sat _ -> t.st.sat <- t.st.sat + 1
   | Unsat -> t.st.unsat <- t.st.unsat + 1
   | Unknown ->
     t.st.unknown <- t.st.unknown + 1;
     Telemetry.incr t.tm_unknown);
  Telemetry.observe t.tm_query_work meter.Search_core.spent;
  (match result with
   | Unknown -> (
     match Lazy.force key with
     | Some k ->
       if Hashtbl.length t.retryable > 65_536 then Hashtbl.reset t.retryable;
       Hashtbl.replace t.retryable k limit
     | None -> ())
   | Sat _ | Unsat ->
     if Hashtbl.length t.retryable > 0 then (
       match Lazy.force key with
       | Some k when Hashtbl.mem t.retryable k ->
         Hashtbl.remove t.retryable k;
         t.st.retry_resolved <- t.st.retry_resolved + 1
       | Some _ | None -> ()));
  t.st.work <- t.st.work + meter.Search_core.spent;
  (result, meter.Search_core.spent)

let check t ?(hint = Model.empty) exprs =
  with_meter t ~retry_key:(fun () -> Simplify.cache_key exprs) (fun meter ->
      match Simplify.partition_constants exprs with
      | Error () -> Unsat
      | Ok symbolic ->
        (* model reuse: the hint satisfies most taken-branch queries *)
        List.iter (fun (e : Expr.t) -> Search_core.spend meter e.Expr.nodes) symbolic;
        if Model.satisfies hint symbolic then begin
          t.st.hint_hits <- t.st.hint_hits + 1;
          Sat hint
        end
        else
          solve_groups t meter ~hint ~focus:[] ~bounds:no_bounds
            (Simplify.group_constraints ~reads:(reads_of t) symbolic))

let check_assuming t ?(hint = Model.empty) ?on_unsat_core ~path extra =
  (* the key identifies the query by its [extra] constraints only: cheap
     to compute on the hot path, and a collision across states merely
     shares the (harmless) budget escalation for that branch *)
  with_meter t ~retry_key:(fun () -> Simplify.cache_key extra) (fun meter ->
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
          let o = Prefix_ctx.find_or_build t.prefixes ~reads:(reads_of t) path in
          let entry = o.Prefix_ctx.ctx in
          if o.Prefix_ctx.reused then begin
            t.st.prefix_hits <- t.st.prefix_hits + 1;
            Telemetry.incr t.tm_prefix_hits
          end;
          t.st.prefix_builds <- t.st.prefix_builds + o.Prefix_ctx.built;
          let ev = Prefix_ctx.evictions t.prefixes in
          if ev > t.st.prefix_evictions then begin
            Telemetry.add t.tm_prefix_evictions (ev - t.st.prefix_evictions);
            t.st.prefix_evictions <- ev
          end;
          (* charged after the contexts are cached: if the charge
             exhausts the budget, the retry hits instead of rebuilding *)
          Search_core.spend meter o.Prefix_ctx.cost;
          (* the prefix's last witness satisfies the whole path; reuse it
             when it also covers the new constraints *)
          let model_hit =
            match Prefix_ctx.model entry with
            | Some m ->
              List.iter
                (fun (e : Expr.t) -> Search_core.spend meter (min e.Expr.nodes 64))
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
              Prefix_ctx.closure entry ~reads:(reads_of t)
                ~spend:(Search_core.spend meter) extra
            in
            let focus = List.concat_map (reads_of t) extra in
            let result =
              solve_groups t meter ~hint ~focus ~bounds:(Prefix_ctx.bound entry)
                ?on_unsat_core
                (Simplify.group_constraints ~reads:(reads_of t) selected)
            in
            (match result with
             | Sat m -> Prefix_ctx.note_model entry m
             | Unsat | Unknown -> ());
            result
        end)

let sat t ?hint exprs =
  match check t ?hint exprs with
  | Sat _, _ -> true
  | (Unsat | Unknown), _ -> false

let export_prefix_hints t = Prefix_ctx.export t.prefixes
let import_prefix_hints t hints = Prefix_ctx.import t.prefixes hints
