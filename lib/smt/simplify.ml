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
   (union-find over byte indices). [reads] memoises [Expr.reads] for the
   caller. *)
let group_constraints ~reads exprs =
  let parent = Hashtbl.create 64 in
  let rec find (v : int) =
    match Hashtbl.find_opt parent v with
    | None -> v
    | Some p ->
      let root = find p in
      if root <> p then Hashtbl.replace parent v root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun e ->
      match reads e with
      | [] -> ()
      | first :: rest -> List.iter (union first) rest)
    exprs;
  let groups = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match reads e with
      | [] -> ()
      | first :: _ ->
        let root = find first in
        let existing = try Hashtbl.find groups root with Not_found -> [] in
        Hashtbl.replace groups root (e :: existing))
    exprs;
  Hashtbl.fold (fun _ es acc -> es :: acc) groups []
