(** Query preprocessing: constant folding and independence slicing.
    Pure helpers shared by {!Solver}'s entry points. *)

val cache_key : Expr.t list -> int list
(** Sorted hash-consed ids of a conjunction — the canonical group cache
    key (permutation-insensitive). *)

val partition_constants : Expr.t list -> (Expr.t list, unit) result
(** Drop constant-true constraints; [Error ()] on a constant-false one
    (the conjunction is trivially unsatisfiable). Order is preserved. *)

val group_constraints :
  Workspace.t -> reads:(Expr.t -> int list) -> Expr.t list -> Expr.t list list
(** Partition a conjunction into independence groups: constraints land
    in the same group iff they transitively share an input byte
    (union-find, in the workspace). Each group lists its constraints in
    the reverse of their order in the conjunction; the groups come in
    {!Workspace.groups}'s order, which fixes the order a query searches
    them in. Constraints reading no input are dropped (they are
    non-constant but input-independent only for ite-free queries, which
    {!partition_constants} has already folded). *)
