(* The solving core: budgeted backtracking search over per-byte domains
   with interval propagation, plus the hint-neighbourhood probe that
   short-circuits it. Every constraint is evaluated on its compiled tape
   ([Tape]), loaded with the bytes or domain hulls of the group positions
   it reads. Stateless apart from the caller's meter, the tapes'
   registers and the caller's workspace, which holds the search's byte
   domains — solver bookkeeping (stats, caches, the tapes) stays in
   [Solver]. *)

(* --- work accounting ------------------------------------------------------ *)

exception Out_of_budget

(* Raises [Out_of_budget] when the per-query allowance is exhausted. *)
type meter = {
  mutable spent : int;
  limit : int;
}

let meter ~limit = { spent = 0; limit }

let[@inline] spend m n =
  m.spent <- m.spent + n;
  if m.spent > m.limit then raise Out_of_budget

(* [n] charges of [nodes] units each, as [n] calls of [spend m nodes]
   make them: past the limit, the meter stops at the first charge that
   crossed it. *)
let spend_runs m nodes n =
  if n > 0 then begin
    let total = m.spent + (nodes * n) in
    if total <= m.limit then m.spent <- total
    else begin
      let first_over =
        if nodes = 0 || m.spent > m.limit then 1 else ((m.limit - m.spent) / nodes) + 1
      in
      m.spent <- m.spent + (nodes * first_over);
      raise Out_of_budget
    end
  end

(* --- byte domains --------------------------------------------------------- *)

(* The domain of the byte at group position [pos] during a group solve
   is the range [dlo, dhi] of the solver's workspace, empty when
   [dlo > dhi]: a search only ever trims its endpoints. *)

let[@inline] domain_mem (d : Workspace.domains) pos v =
  v >= d.dlo.(pos) && v <= d.dhi.(pos)

let[@inline] domain_empty (d : Workspace.domains) pos = d.dlo.(pos) > d.dhi.(pos)

(* Position [pos]'s domain: the bytes [lo <= v <= hi]. *)
let domain_init (d : Workspace.domains) pos lo hi =
  d.dlo.(pos) <- Int.max lo 0;
  d.dhi.(pos) <- Int.min hi 255

(* Neighbourhood-first value order: loop-step queries succeed a small
   delta away from the hint; the tail scan keeps the search complete.
   Position [pos]'s order is the in-range values [hint + delta], the
   hint itself first, then the hint probe's deltas; it sits at
   [16 * pos] of [near], each value flagged in [near_mask] so the scan
   skips it. *)
let probe_deltas = [| 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 |]

let near_deltas = Array.append [| 0 |] probe_deltas

let near_init (d : Workspace.domains) pos hint_v =
  let base = pos lsl 8 in
  Bytes.fill d.near_mask base 256 '\000';
  let n = ref 0 in
  for i = 0 to Array.length near_deltas - 1 do
    let v = hint_v + near_deltas.(i) in
    if v >= 0 && v <= 255 then begin
      d.near.((pos lsl 4) + !n) <- v;
      Bytes.set d.near_mask (base + v) '\001';
      incr n
    end
  done;
  d.near_len.(pos) <- !n

(* --- groups --------------------------------------------------------------- *)

type group = {
  constraints : Expr.t array;
  tapes : Tape.t array; (* constraint -> its compiled tape *)
  vars : int array; (* sorted input indices *)
  by_var : int list array; (* position -> constraint indices, descending *)
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

(* The group's bytes are marked in the workspace [w] as they are met,
   then sorted. *)
let build_group w ~tape exprs =
  let constraints = Array.of_list exprs in
  let tapes = Array.map tape constraints in
  Workspace.reset w;
  for ci = 0 to Array.length tapes - 1 do
    let reads = Tape.reads tapes.(ci) in
    for k = 0 to Array.length reads - 1 do
      Workspace.visit_byte w reads.(k)
    done
  done;
  let vars = Workspace.visited w in
  Array.sort Int.compare vars;
  let by_var = Array.make (Array.length vars) [] in
  let cpos =
    Array.mapi
      (fun ci tp ->
        let reads = Tape.reads tp in
        let positions = Array.make (Array.length reads) 0 in
        for k = 0 to Array.length reads - 1 do
          let pos = sorted_position vars reads.(k) in
          positions.(k) <- pos;
          by_var.(pos) <- ci :: by_var.(pos)
        done;
        positions)
      tapes
  in
  { constraints; tapes; vars; by_var; cpos }

let group_vars g = g.vars

type group_result =
  | Gsat of (int * int) list (* input index, value *)
  | Gunsat
  | Gunknown

(* Each group variable with its value at the same position of [values]. *)
let bindings vars (values : int array) =
  let acc = ref [] in
  for pos = Array.length vars - 1 downto 0 do
    acc := (vars.(pos), values.(pos)) :: !acc
  done;
  !acc

(* --- hint-neighbourhood probe --------------------------------------------- *)

(* Fast path: most fork queries in loops ask for "one more iteration" —
   a model one small step away from the hint on the newly constrained
   bytes. Probe hint +/- powers of two on each focus byte before any
   domain work; constraints are evaluated in order and the probe aborts
   on the first falsified one, so failed probes are nearly free. [vals]
   holds the hint's byte at each group position; a failed probe puts
   back the byte it overwrote, a successful one leaves its value. The
   deltas are [probe_deltas], above. *)

(* Constraints [ci..] hold on [vals], each exactly, charged in order. *)
let rec satisfied meter group (vals : int array) ci =
  ci >= Array.length group.constraints
  || begin
    spend meter (Int.min group.constraints.(ci).Expr.nodes 64);
    let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
    for k = 0 to Array.length positions - 1 do
      Tape.set_value tape k vals.(positions.(k))
    done;
    Tape.holds tape && satisfied meter group vals (ci + 1)
  end

let rec probe_delta meter group vals pos base i =
  i < Array.length probe_deltas
  &&
  let candidate = base + probe_deltas.(i) in
  if candidate >= 0 && candidate <= 255 then begin
    vals.(pos) <- candidate;
    satisfied meter group vals 0
    || begin
      vals.(pos) <- base;
      probe_delta meter group vals pos base (i + 1)
    end
  end
  else probe_delta meter group vals pos base (i + 1)

(* [focus] holds group positions *)
let rec probe_focus meter group vals = function
  | [] -> false
  | pos :: rest ->
    probe_delta meter group vals pos vals.(pos) 0 || probe_focus meter group vals rest

let probe_neighborhood meter group (vals : int array) focus =
  if satisfied meter group vals 0 || probe_focus meter group vals focus then
    Some (bindings group.vars vals)
  else None

(* --- backtracking search -------------------------------------------------- *)

(* One search: its charges, its group, the hint's byte at each group
   position and the domains, assignment and value orders of the group
   positions (in the workspace). The kernels below are top-level
   functions of it, so a probe, a check or an assignment allocates
   nothing. *)
type search = {
  meter : meter;
  on_node : unit -> unit;
  group : group;
  hint_vals : int array;
  d : Workspace.domains;
  order : int array; (* depth -> group position *)
  mutable finished : (int * int) list;
}

(* Interval environment: assigned variables are points, unassigned ones
   are the hull of their remaining domain. *)
let interval_check s ci =
  spend s.meter s.group.constraints.(ci).Expr.nodes;
  let tape = s.group.tapes.(ci) and positions = s.group.cpos.(ci) and d = s.d in
  for k = 0 to Array.length positions - 1 do
    let pos = positions.(k) in
    let a = d.assigned.(pos) in
    if a >= 0 then Tape.set_interval tape k a a
    else Tape.set_interval tape k d.dlo.(pos) d.dhi.(pos)
  done;
  not (Tape.falsified tape)

let exact_check s ci =
  spend s.meter s.group.constraints.(ci).Expr.nodes;
  let tape = s.group.tapes.(ci) and positions = s.group.cpos.(ci) and d = s.d in
  for k = 0 to Array.length positions - 1 do
    let pos = positions.(k) in
    let a = d.assigned.(pos) in
    Tape.set_value tape k (if a >= 0 then a else s.hint_vals.(pos))
  done;
  Tape.holds tape

(* Bound-consistency pass: trim each variable's domain endpoints while
   a constraint is definitely false there (holding the other variables
   at their domain hulls). The charge is still per value, one
   evaluation of the constraint's [nodes] per pruned value plus one for
   the value that stops the trim, as a walk of point runs would pay; the
   wall cost is per range, since [Tape.first_unfalsified] proves a block
   of values false with one interval run. A constraint that prunes
   nothing costs two point runs, yet trimming converges fully for the
   monotone loop-bound chains and magic-byte equalities that dominate
   parser path conditions. *)

(* Trim [pos]'s endpoints against constraint [ci]; [true] iff a value
   went. *)
let narrow s pos ci =
  let positions = s.group.cpos.(ci) and d = s.d in
  Array.length positions <= 6
  && (not (domain_empty d pos))
  && begin
    let nodes = s.group.constraints.(ci).Expr.nodes and tape = s.group.tapes.(ci) in
    (* the other reads hold their hulls while [pos]'s endpoints move *)
    let kpos = ref 0 in
    for k = 0 to Array.length positions - 1 do
      let p = positions.(k) in
      if p = pos then kpos := k else Tape.set_interval tape k d.dlo.(p) d.dhi.(p)
    done;
    let kpos = !kpos and lo = d.dlo.(pos) and hi = d.dhi.(pos) in
    let first = Tape.first_unfalsified tape kpos lo hi in
    if first > hi then begin
      (* every value went, and no value stopped the trim *)
      spend_runs s.meter nodes (hi - lo + 1);
      d.dlo.(pos) <- first;
      true
    end
    else begin
      (* the walk down stops at [first] at the latest *)
      let last = Tape.last_unfalsified tape kpos (first + 1) hi in
      (* every value pruned, and the two that stopped the walks *)
      spend_runs s.meter nodes (first - lo + (hi - last) + 2);
      d.dlo.(pos) <- first;
      d.dhi.(pos) <- last;
      first > lo || last < hi
    end
  end

let rec narrow_all s pos changed = function
  | [] -> changed
  | ci :: rest -> narrow_all s pos (narrow s pos ci || changed) rest

let propagate s =
  let changed = ref true in
  let rounds = ref 0 in
  (* multi-byte equalities narrow one byte per round, highest first;
     six rounds cover a u32 field plus slack *)
  while !changed && !rounds < 6 do
    changed := false;
    incr rounds;
    for pos = 0 to Array.length s.group.vars - 1 do
      if narrow_all s pos false s.group.by_var.(pos) then changed := true;
      if domain_empty s.d pos then raise Exit
    done
  done

let rec unassigned_from s (positions : int array) k =
  k < Array.length positions
  && (s.d.assigned.(positions.(k)) < 0 || unassigned_from s positions (k + 1))

(* Constraints that read a newly assigned byte: as intervals while some
   byte they read is free, exactly once all are assigned. *)
let rec consistent s = function
  | [] -> true
  | ci :: rest ->
    (if unassigned_from s s.group.cpos.(ci) 0 then interval_check s ci
     else exact_check s ci)
    && consistent s rest

let rec all_exact s ci =
  ci >= Array.length s.group.constraints || (exact_check s ci && all_exact s (ci + 1))

(* Depth-first search over variables, cheapest domain first, hint value
   tried first. *)
let rec assign s depth =
  if depth = Array.length s.group.vars then
    (* all variables assigned: every constraint must hold exactly *)
    all_exact s 0
    && begin
      s.finished <- bindings s.group.vars s.d.assigned;
      true
    end
  else
    let pos = s.order.(depth) in
    try_near s depth pos 0

and try_value s depth pos v =
  domain_mem s.d pos v
  && begin
    s.on_node ();
    spend s.meter 1;
    s.d.assigned.(pos) <- v;
    let found = consistent s s.group.by_var.(pos) && assign s (depth + 1) in
    if not found then s.d.assigned.(pos) <- -1;
    found
  end

and try_near s depth pos i =
  if i < s.d.near_len.(pos) then
    try_value s depth pos s.d.near.((pos lsl 4) + i) || try_near s depth pos (i + 1)
  else scan s depth pos s.d.dlo.(pos)

and scan s depth pos v =
  v <= s.d.dhi.(pos)
  && ((Bytes.get s.d.near_mask ((pos lsl 8) + v) = '\000' && try_value s depth pos v)
     || scan s depth pos (v + 1))

let rec any_empty (d : Workspace.domains) n pos =
  pos < n && (domain_empty d pos || any_empty d n (pos + 1))

(* [bounds] supplies externally learned per-byte intervals (the prefix
   context's); they are intersected into the initial domains. Soundness:
   a bound for byte [v] is implied by constraints that read [v], all of
   which the caller includes in [v]'s group, so the pruned values could
   never appear in a solution of this group anyway. [on_node] is the
   caller's search-node counter; [hint_vals] holds the hint's byte at
   each group position. *)
let solve_group_search w ~on_node meter ~hint_vals ~bounds group =
  let nvars = Array.length group.vars in
  let d = Workspace.domains w nvars in
  for pos = 0 to nvars - 1 do
    (match bounds group.vars.(pos) with
     | None -> domain_init d pos 0 255
     | Some (iv : Interval.t) ->
       domain_init d pos (Int64.to_int iv.Interval.lo) (Int64.to_int iv.Interval.hi));
    d.assigned.(pos) <- -1;
    near_init d pos (hint_vals.(pos) land 0xFF)
  done;
  let s =
    { meter; on_node; group; hint_vals; d; order = Array.init nvars Fun.id; finished = [] }
  in
  match
    if any_empty d nvars 0 then raise Exit;
    propagate s;
    (* order variables by narrowed domain size *)
    Array.sort
      (fun a b -> Int.compare (d.dhi.(a) - d.dlo.(a)) (d.dhi.(b) - d.dlo.(b)))
      s.order;
    assign s 0
  with
  | true -> Gsat s.finished
  | false | (exception Exit) -> Gunsat

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

let solve_group w ~on_node meter ~hint ~focus ~bounds group =
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
  | None -> solve_group_search w ~on_node meter ~hint_vals ~bounds group
