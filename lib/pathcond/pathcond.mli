(** Structured path conditions: the layer between executor and solver.

    A path condition is the conjunction of branch constraints a symbolic
    state has assumed. Historically the executor kept it as a bare
    [Expr.t list] and {!Pbse_smt.Prefix_ctx} reverse-engineered its
    structure; this module makes the structure explicit and the solver
    layer one consumer of it.

    The representation is persistent: forked states share the whole
    prefix physically. The spine — newest-condition-first cons list —
    is exposed verbatim to the solver because [Prefix_ctx] indexes
    prefix entries by the {e physical} identity of spine tails: two
    sibling states share every prefix context their common ancestor
    built. Nothing in this module ever rebuilds or reorders the spine.

    On top of the spine the type tracks, incrementally, the id set of
    the conditions with an order-independent bloom signature, so the
    subsumption layer ({!Subsume}) can decide entailment-by-superset in
    O(core size). *)

type t

val empty : t

val assume : t -> Pbse_smt.Expr.t -> t
(** Extend the path with one condition. O(log n). *)

val spine : t -> Pbse_smt.Expr.t list
(** Newest-first condition list, physically shared across forks — the
    exact value handed to [Solver.check_assuming ~path]. *)

val mem : t -> int -> bool
(** Is the expression with this id one of the conditions? *)

val signature : t -> int
(** Bloom signature over condition ids: for any subset [s] of the
    conditions, [signature_of_ids s land signature t = signature_of_ids s]. *)

val signature_of_ids : int list -> int
(** The bloom signature a set of condition ids would contribute. *)
