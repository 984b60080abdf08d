(* The solving core: budgeted backtracking search over per-byte domains
   with interval propagation, plus the hint-neighbourhood probe that
   short-circuits it. Stateless apart from the caller's meter — solver
   bookkeeping (stats, caches) stays in [Solver]. *)

(* --- work accounting ------------------------------------------------------ *)

exception Out_of_budget

(* Raises [Out_of_budget] when the per-query allowance is exhausted. *)
type meter = {
  mutable spent : int;
  limit : int;
}

let meter ~limit = { spent = 0; limit }

let spend m n =
  m.spent <- m.spent + n;
  if m.spent > m.limit then raise Out_of_budget

(* --- byte domains --------------------------------------------------------- *)

(* Mutable domain of one input byte during a group solve. *)
type domain = {
  allowed : Bytes.t; (* 256 flags *)
  mutable size : int;
  mutable dlo : int;
  mutable dhi : int;
}

let domain_full () = { allowed = Bytes.make 256 '\001'; size = 256; dlo = 0; dhi = 255 }

let domain_mem d v = Bytes.get d.allowed v <> '\000'

let domain_remove d v =
  if domain_mem d v then begin
    Bytes.set d.allowed v '\000';
    d.size <- d.size - 1;
    if d.size > 0 then begin
      while d.dlo < 256 && not (domain_mem d d.dlo) do
        d.dlo <- d.dlo + 1
      done;
      while d.dhi >= 0 && not (domain_mem d d.dhi) do
        d.dhi <- d.dhi - 1
      done
    end
  end

(* Full and singleton domains, the common shapes, share their intervals. *)
let domain_interval d =
  if d.dlo = 0 && d.dhi = 255 then Interval.byte_any
  else if d.dlo = d.dhi then Interval.byte_point d.dlo
  else Interval.make (Int64.of_int d.dlo) (Int64.of_int d.dhi)

(* --- groups --------------------------------------------------------------- *)

type group = {
  constraints : Expr.t array;
  vars : int array; (* sorted input indices *)
  by_var : int list array; (* position -> constraint indices *)
  creads : int list array; (* constraint -> input indices *)
}

(* Position of input index [v] in the sorted [vars], or -1: a binary
   search, cheap at the solver's group sizes (at most 48 variables). A
   top-level loop, so a lookup allocates no closure; typed [int], so its
   comparisons compile inline instead of calling the polymorphic compare. *)
let rec search_sorted (vars : int array) (v : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = vars.(mid) in
    if x = v then mid
    else if x < v then search_sorted vars v (mid + 1) hi
    else search_sorted vars v lo mid

let sorted_position vars v = search_sorted vars v 0 (Array.length vars)

let rec mem_int (v : int) = function [] -> false | x :: rest -> x = v || mem_int v rest

let build_group ~reads exprs =
  let constraints = Array.of_list exprs in
  let creads = Array.map reads constraints in
  let var_set = Hashtbl.create 16 in
  Array.iter (List.iter (fun v -> Hashtbl.replace var_set v ())) creads;
  let vars =
    Hashtbl.fold (fun v () acc -> v :: acc) var_set [] |> List.sort Int.compare
    |> Array.of_list
  in
  let by_var = Array.make (Array.length vars) [] in
  Array.iteri
    (fun ci reads ->
      List.iter
        (fun v ->
          let pos = sorted_position vars v in
          by_var.(pos) <- ci :: by_var.(pos))
        reads)
    creads;
  { constraints; vars; by_var; creads }

let group_vars g = g.vars

type group_result =
  | Gsat of (int * int) list (* input index, value *)
  | Gunsat
  | Gunknown

(* --- hint-neighbourhood probe --------------------------------------------- *)

(* Fast path: most fork queries in loops ask for "one more iteration" —
   a model one small step away from the hint on the newly constrained
   bytes. Probe hint +/- powers of two on each focus byte before any
   domain work; constraints are evaluated lazily and the probe aborts on
   the first falsified one, so failed probes are nearly free. *)
let probe_deltas = [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ]

let probe_neighborhood meter ~hint group focus =
  let satisfied lookup =
    Array.for_all
      (fun (c : Expr.t) ->
        spend meter (Int.min c.Expr.nodes 64);
        Semantics.truthy (Expr.eval lookup c))
      group.constraints
  in
  (* [overrides] holds at most one (input index, value) pair *)
  let try_model overrides =
    let lookup (i : int) =
      match overrides with
      | [ (j, v) ] when j = i -> v land 0xFF
      | _ -> Model.get hint i
    in
    if satisfied lookup then
      Some (Array.to_list (Array.map (fun v -> (v, lookup v)) group.vars))
    else None
  in
  let rec try_var vars =
    match vars with
    | [] -> None
    | v :: rest ->
      let base = Model.get hint v in
      let rec try_delta = function
        | [] -> try_var rest
        | d :: ds ->
          let candidate = base + d in
          if candidate >= 0 && candidate <= 255 then
            match try_model [ (v, candidate) ] with
            | Some bindings -> Some bindings
            | None -> try_delta ds
          else try_delta ds
      in
      try_delta probe_deltas
  in
  match try_model [] with
  | Some bindings -> Some bindings
  | None -> try_var focus

(* --- backtracking search -------------------------------------------------- *)

(* [bounds] supplies externally learned per-byte intervals (the prefix
   context's); they are intersected into the initial domains. Soundness:
   a bound for byte [v] is implied by constraints that read [v], all of
   which the caller includes in [v]'s group, so the pruned values could
   never appear in a solution of this group anyway. [on_node] is the
   caller's search-node counter. *)
let solve_group_search ~on_node meter ~hint ~bounds group =
  let nvars = Array.length group.vars in
  let domains = Array.init nvars (fun _ -> domain_full ()) in
  (* seed the domains with the learned bounds *)
  Array.iteri
    (fun pos v ->
      match bounds v with
      | None -> ()
      | Some (iv : Interval.t) ->
        let lo = Int64.to_int iv.Interval.lo and hi = Int64.to_int iv.Interval.hi in
        if lo > 0 || hi < 255 then begin
          let d = domains.(pos) in
          for x = 0 to 255 do
            if x < lo || x > hi then domain_remove d x
          done
        end)
    group.vars;
  let assignment = Array.make nvars (-1) in
  (* Interval environment: assigned variables are points, unassigned ones
     are the hull of their remaining domain. *)
  let lookup_interval input_index =
    let pos = sorted_position group.vars input_index in
    if pos < 0 then Interval.byte_any
    else if assignment.(pos) >= 0 then Interval.byte_point assignment.(pos)
    else domain_interval domains.(pos)
  in
  let interval_check ci =
    let c = group.constraints.(ci) in
    spend meter c.Expr.nodes;
    not (Interval.definitely_false (Interval.eval lookup_interval c))
  in
  let exact_check ci =
    let c = group.constraints.(ci) in
    spend meter c.Expr.nodes;
    let lookup i =
      let pos = sorted_position group.vars i in
      if pos >= 0 && assignment.(pos) >= 0 then assignment.(pos) else Model.get hint i
    in
    Semantics.truthy (Expr.eval lookup c)
  in
  (* Bound-consistency pass: trim each variable's domain endpoints while
     a constraint is definitely false there (holding the other variables
     at their domain hulls). Trimming is pay-per-prune — a constraint that
     prunes nothing costs two interval evaluations — yet converges fully
     for the monotone loop-bound chains and magic-byte equalities that
     dominate parser path conditions. *)
  let propagate () =
    let changed = ref true in
    let rounds = ref 0 in
    (* multi-byte equalities narrow one byte per round, highest first;
       six rounds cover a u32 field plus slack *)
    while !changed && !rounds < 6 do
      changed := false;
      incr rounds;
      for pos = 0 to nvars - 1 do
        let narrow ci =
          if List.length group.creads.(ci) <= 6 then begin
            let c = group.constraints.(ci) in
            let false_at v =
              spend meter c.Expr.nodes;
              let lookup i =
                let p = sorted_position group.vars i in
                if p = pos then Interval.byte_point v
                else if p >= 0 then domain_interval domains.(p)
                else Interval.byte_any
              in
              Interval.definitely_false (Interval.eval lookup c)
            in
            let d = domains.(pos) in
            while d.size > 0 && false_at d.dlo do
              domain_remove d d.dlo;
              changed := true
            done;
            while d.size > 0 && false_at d.dhi do
              domain_remove d d.dhi;
              changed := true
            done
          end
        in
        List.iter narrow group.by_var.(pos);
        if domains.(pos).size = 0 then raise Exit
      done
    done
  in
  let unassigned ci =
    List.exists
      (fun v -> assignment.(sorted_position group.vars v) < 0)
      group.creads.(ci)
  in
  (* Depth-first search over variables, cheapest domain first, hint value
     tried first. *)
  let order = Array.init nvars (fun i -> i) in
  let finished = ref None in
  let rec assign depth =
    if depth = nvars then begin
      (* all variables assigned: every constraint must hold exactly *)
      let n = Array.length group.constraints in
      let rec all_exact ci = ci >= n || (exact_check ci && all_exact (ci + 1)) in
      if all_exact 0 then begin
        finished :=
          Some
            (Array.to_list
               (Array.mapi (fun pos _ -> (group.vars.(pos), assignment.(pos))) group.vars));
        true
      end
      else false
    end
    else begin
      let pos = order.(depth) in
      let d = domains.(pos) in
      let try_value v =
        if not (domain_mem d v) then false
        else begin
          on_node ();
          spend meter 1;
          assignment.(pos) <- v;
          let consistent =
            List.for_all
              (fun ci -> if unassigned ci then interval_check ci else exact_check ci)
              group.by_var.(pos)
          in
          let found = consistent && assign (depth + 1) in
          if not found then assignment.(pos) <- -1;
          found
        end
      in
      (* neighbourhood-first value order: loop-step queries succeed a small
         delta away from the hint; the tail scan keeps the search complete *)
      let hint_v = Model.get hint group.vars.(pos) land 0xFF in
      let deltas = [ 0; 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ] in
      let near =
        List.filter_map
          (fun delta ->
            let v = hint_v + delta in
            if v >= 0 && v <= 255 then Some v else None)
          deltas
      in
      let rec try_near = function
        | [] ->
          let rec scan v =
            if v > d.dhi then false
            else if (not (mem_int v near)) && try_value v then true
            else scan (v + 1)
          in
          scan d.dlo
        | v :: rest -> if try_value v then true else try_near rest
      in
      try_near near
    end
  in
  match
    (try
       if Array.exists (fun d -> d.size = 0) domains then raise Exit;
       propagate ();
       (* order variables by narrowed domain size *)
       Array.sort (fun a b -> Int.compare domains.(a).size domains.(b).size) order;
       if assign 0 then `Sat else `Unsat
     with
    | Exit -> `Unsat)
  with
  | `Sat -> (
    match !finished with
    | Some bindings -> Gsat bindings
    | None -> Gunknown)
  | `Unsat -> Gunsat

let solve_group ~on_node meter ~hint ~focus ~bounds group =
  let focus = List.filter (fun v -> sorted_position group.vars v >= 0) focus in
  match probe_neighborhood meter ~hint group focus with
  | Some bindings -> Gsat bindings
  | None -> solve_group_search ~on_node meter ~hint ~bounds group
