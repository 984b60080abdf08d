(* Query preprocessing shared by the solver entry points: constant
   folding of the conjunction and independence slicing. Pure functions —
   no solver state. *)

(* Canonical cache key of a conjunction: its hash-consed expression ids,
   sorted so permutations of the same constraint set collide. *)
let cache_key exprs =
  List.sort Int.compare (List.map (fun (e : Expr.t) -> e.id) exprs)

(* Split constant constraints out; [Error ()] means a constant 0 (the
   conjunction is trivially unsatisfiable). *)
let partition_constants exprs =
  let symbolic = ref [] in
  let contradiction = ref false in
  List.iter
    (fun e ->
      match Expr.is_const e with
      | Some 0L -> contradiction := true
      | Some _ -> ()
      | None -> symbolic := e :: !symbolic)
    exprs;
  if !contradiction then Error () else Ok (List.rev !symbolic)

(* Partition constraints into independence groups by shared input bytes
   (union-find over byte indices, in the solver's workspace [w]).
   [reads c] is [c]'s sorted input bytes, which the solver takes from
   [c]'s tape. *)
let group_constraints w ~reads exprs =
  Workspace.reset w;
  let rec union_all first = function
    | [] -> ()
    | v :: rest ->
      Workspace.union w first v;
      union_all first rest
  in
  List.iter
    (fun e -> match reads e with [] -> () | first :: rest -> union_all first rest)
    exprs;
  List.iter
    (fun e ->
      match reads e with
      | [] -> ()
      | first :: _ -> Workspace.add_to_group w (Workspace.find w first) e)
    exprs;
  Workspace.groups w
