module Expr = Pbse_smt.Expr
module Iset = Set.Make (Int)

type t = {
  spine : Expr.t list; (* newest first; physical identity is load-bearing *)
  ids : Iset.t;
  sg : int;
}

let empty = { spine = []; ids = Iset.empty; sg = 0 }

let bloom_bit id = 1 lsl (id mod 63)

let signature_of_ids ids = List.fold_left (fun sg id -> sg lor bloom_bit id) 0 ids

let assume t e =
  {
    spine = e :: t.spine;
    ids = Iset.add e.Expr.id t.ids;
    sg = t.sg lor bloom_bit e.Expr.id;
  }

let spine t = t.spine
let mem t id = Iset.mem id t.ids
let signature t = t.sg
