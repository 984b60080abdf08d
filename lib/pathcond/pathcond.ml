module Expr = Pbse_smt.Expr
module Iset = Set.Make (Int)

type t = {
  spine : Expr.t list; (* newest first; physical identity is load-bearing *)
  len : int;
  ids : Iset.t;
  sg : int;
  marks : (int * int) list; (* (gid, conditions before this delta), newest first *)
}

let empty = { spine = []; len = 0; ids = Iset.empty; sg = 0; marks = [] }

let bloom_bit id = 1 lsl (id mod 63)

let signature_of_ids ids = List.fold_left (fun sg id -> sg lor bloom_bit id) 0 ids

let assume t ~block e =
  let marks =
    match t.marks with
    | (g, _) :: _ when g = block -> t.marks
    | _ -> (block, t.len) :: t.marks
  in
  {
    spine = e :: t.spine;
    len = t.len + 1;
    ids = Iset.add e.Expr.id t.ids;
    sg = t.sg lor bloom_bit e.Expr.id;
    marks;
  }

let spine t = t.spine
let mem t id = Iset.mem id t.ids
let signature t = t.sg

let deltas t =
  (* walk marks (newest first) slicing the spine into per-block runs *)
  let rec slice spine len marks acc =
    match marks with
    | [] -> acc
    | (gid, start) :: rest ->
      let rec take spine len grp =
        if len = start then (spine, grp) else
          match spine with
          | [] -> ([], grp)
          | e :: tl -> take tl (len - 1) (e :: grp)
      in
      let spine, grp = take spine len [] in
      slice spine start rest ((gid, grp) :: acc)
  in
  slice t.spine t.len t.marks []
