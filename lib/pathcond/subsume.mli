(** Per-block-boundary subsumption cache over unsat cores.

    When a feasibility query issued at block [B] comes back Unsat, the
    solver reports the failing constraint group — a genuine unsat core
    (the group is closed under the constraints that justify its learned
    bounds). The cache records the core's id set under [B]. A later
    query at [B] whose constraint ids are a {e superset} of some
    recorded core is Unsat by entailment — the conjunction of a superset
    of an unsatisfiable set is unsatisfiable — and is answered without
    touching the solver. This is the weakened-interpolant scheme of
    docs/subsumption.md: the core is the slice of the path condition the
    search actually used to refute the query.

    Soundness does not depend on where the query was issued; bucketing
    by block id only keeps lookups O(bucket) — queries at the same
    program point are the ones that repeat cores.

    The cache is per-executor (per-session, per-arena): ids are only
    meaningful within one interning arena, and keeping it session-local
    preserves byte-identical pool reports at every [--jobs] width. *)

type t

val create : unit -> t

val record : t -> block:int -> Pbse_smt.Expr.t list -> unit
(** Record the id set of an unsat core learned at [block]. Duplicate
    cores are dropped; buckets are capped (oldest evicted first). *)

val consult : t -> block:int -> sg:int -> mem:(int -> bool) -> [ `Hit | `Miss | `Empty ]
(** Does some recorded core at [block] consist only of ids satisfying
    [mem]? [sg] is the bloom signature of the querying id set
    ({!Pathcond.signature} [lor] the extra constraints' contribution);
    cores whose signature is not covered are skipped without testing.
    [`Hit]: a core is covered — the query is Unsat by entailment.
    [`Miss]: cores exist at [block] but none is covered. [`Empty]: no
    cores recorded at [block] yet. *)
