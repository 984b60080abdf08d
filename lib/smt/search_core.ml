(* The solving core: budgeted backtracking search over per-byte domains
   with interval propagation, plus the hint-neighbourhood probe that
   short-circuits it. Every constraint is evaluated on its compiled tape
   ([Tape]), loaded with the bytes or domain hulls of the group positions
   it reads. Stateless apart from the caller's meter and the tapes'
   registers — solver bookkeeping (stats, caches, the tapes) stays in
   [Solver]. *)

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

(* --- groups --------------------------------------------------------------- *)

type group = {
  constraints : Expr.t array;
  tapes : Tape.t array; (* constraint -> its compiled tape *)
  vars : int array; (* sorted input indices *)
  by_var : int list array; (* position -> constraint indices *)
  cpos : int array array; (* constraint -> position of each of its tape's reads *)
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

let build_group ~tape exprs =
  let constraints = Array.of_list exprs in
  let tapes = Array.map tape constraints in
  let var_set = Hashtbl.create 16 in
  Array.iter
    (fun tp -> Array.iter (fun v -> Hashtbl.replace var_set v ()) (Tape.reads tp))
    tapes;
  let vars =
    Hashtbl.fold (fun v () acc -> v :: acc) var_set [] |> List.sort Int.compare
    |> Array.of_list
  in
  let cpos =
    Array.map (fun tp -> Array.map (sorted_position vars) (Tape.reads tp)) tapes
  in
  let by_var = Array.make (Array.length vars) [] in
  Array.iteri
    (fun ci positions ->
      Array.iter (fun pos -> by_var.(pos) <- ci :: by_var.(pos)) positions)
    cpos;
  { constraints; tapes; vars; by_var; cpos }

let group_vars g = g.vars

type group_result =
  | Gsat of (int * int) list (* input index, value *)
  | Gunsat
  | Gunknown

(* Load constraint [ci]'s exact tape with the byte at each group position. *)
let load_values group ci (vals : int array) =
  let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
  for k = 0 to Array.length positions - 1 do
    Tape.set_value tape k vals.(positions.(k))
  done

(* --- hint-neighbourhood probe --------------------------------------------- *)

(* Fast path: most fork queries in loops ask for "one more iteration" —
   a model one small step away from the hint on the newly constrained
   bytes. Probe hint +/- powers of two on each focus byte before any
   domain work; constraints are evaluated in order and the probe aborts
   on the first falsified one, so failed probes are nearly free. [vals]
   holds the hint's byte at each group position; a probe overwrites one
   and puts it back. *)
let probe_deltas = [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ]

let probe_neighborhood meter group (vals : int array) focus =
  let n = Array.length group.constraints in
  let rec satisfied ci =
    ci >= n
    || begin
      spend meter (Int.min group.constraints.(ci).Expr.nodes 64);
      load_values group ci vals;
      Tape.holds group.tapes.(ci) && satisfied (ci + 1)
    end
  in
  let bindings () =
    Array.to_list (Array.mapi (fun pos v -> (v, vals.(pos))) group.vars)
  in
  (* [focus] holds group positions *)
  let rec try_var = function
    | [] -> None
    | pos :: rest ->
      let base = vals.(pos) in
      let rec try_delta = function
        | [] -> try_var rest
        | d :: ds ->
          let candidate = base + d in
          if candidate >= 0 && candidate <= 255 then begin
            vals.(pos) <- candidate;
            let found = if satisfied 0 then Some (bindings ()) else None in
            vals.(pos) <- base;
            match found with Some _ -> found | None -> try_delta ds
          end
          else try_delta ds
      in
      try_delta probe_deltas
  in
  if satisfied 0 then Some (bindings ()) else try_var focus

(* --- backtracking search -------------------------------------------------- *)

(* [bounds] supplies externally learned per-byte intervals (the prefix
   context's); they are intersected into the initial domains. Soundness:
   a bound for byte [v] is implied by constraints that read [v], all of
   which the caller includes in [v]'s group, so the pruned values could
   never appear in a solution of this group anyway. [on_node] is the
   caller's search-node counter; [hint_vals] holds the hint's byte at
   each group position. *)
let solve_group_search ~on_node meter ~hint_vals ~bounds group =
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
  let interval_check ci =
    spend meter group.constraints.(ci).Expr.nodes;
    let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
    for k = 0 to Array.length positions - 1 do
      let pos = positions.(k) in
      let a = assignment.(pos) in
      if a >= 0 then Tape.set_interval tape k a a
      else
        let d = domains.(pos) in
        Tape.set_interval tape k d.dlo d.dhi
    done;
    not (Tape.falsified tape)
  in
  let exact_check ci =
    spend meter group.constraints.(ci).Expr.nodes;
    let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
    for k = 0 to Array.length positions - 1 do
      let pos = positions.(k) in
      let a = assignment.(pos) in
      Tape.set_value tape k (if a >= 0 then a else hint_vals.(pos))
    done;
    Tape.holds tape
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
          let positions = group.cpos.(ci) in
          if Array.length positions <= 6 then begin
            let nodes = group.constraints.(ci).Expr.nodes in
            let tape = group.tapes.(ci) in
            (* the other reads hold their hulls while [pos]'s endpoints move *)
            let kpos = ref 0 in
            for k = 0 to Array.length positions - 1 do
              let p = positions.(k) in
              if p = pos then kpos := k
              else
                let d = domains.(p) in
                Tape.set_interval tape k d.dlo d.dhi
            done;
            let kpos = !kpos in
            let false_at v =
              spend meter nodes;
              Tape.set_interval tape kpos v v;
              Tape.falsified tape
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
  let unassigned ci = Array.exists (fun pos -> assignment.(pos) < 0) group.cpos.(ci) in
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
      let hint_v = hint_vals.(pos) land 0xFF in
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

(* Everything [solve_group] reads, as one key: the work spent on entry,
   the constraint ids in order (which fix the tapes and the variables),
   then per variable its hint byte and learned bound ([-1, -1] for none),
   then the focus positions in order. The limit is the caller's to fix. *)
let replay_key meter ~hint ~focus ~bounds group =
  let n = Array.length group.constraints and m = Array.length group.vars in
  let nfocus =
    List.fold_left
      (fun k v -> if sorted_position group.vars v >= 0 then k + 1 else k)
      0 focus
  in
  let key = Array.make (2 + n + (3 * m) + nfocus) (-1) in
  key.(0) <- meter.spent;
  key.(1) <- n;
  for i = 0 to n - 1 do
    key.(2 + i) <- group.constraints.(i).Expr.id
  done;
  let hints = 2 + n in
  let bounds_at = hints + m in
  for pos = 0 to m - 1 do
    let v = group.vars.(pos) in
    key.(hints + pos) <- Model.get hint v;
    match bounds v with
    | None -> ()
    | Some (iv : Interval.t) ->
      key.(bounds_at + (2 * pos)) <- Int64.to_int iv.Interval.lo;
      key.(bounds_at + (2 * pos) + 1) <- Int64.to_int iv.Interval.hi
  done;
  let k = ref (bounds_at + (2 * m)) in
  List.iter
    (fun v ->
      let pos = sorted_position group.vars v in
      if pos >= 0 then begin
        key.(!k) <- pos;
        incr k
      end)
    focus;
  key

let solve_group ~on_node meter ~hint ~focus ~bounds group =
  let hint_vals = Array.map (Model.get hint) group.vars in
  let focus =
    List.filter_map
      (fun v ->
        let pos = sorted_position group.vars v in
        if pos >= 0 then Some pos else None)
      focus
  in
  match probe_neighborhood meter group hint_vals focus with
  | Some bindings -> Gsat bindings
  | None -> solve_group_search ~on_node meter ~hint_vals ~bounds group
