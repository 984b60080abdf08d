(** Constraint solver over symbolic input bytes.

    Queries are conjunctions of expressions required to be truthy
    (nonzero), exactly like KLEE path conditions. The solver is a complete
    backtracking search over the byte domains of the mentioned input
    positions, accelerated by:

    - model reuse: the caller's hint model (usually the state's last
      model, or the concolic seed) is tried before any search;
    - independence slicing: constraints are partitioned by the input
      bytes they share, and each group is solved separately;
    - interval propagation: per-group arc-consistency passes narrow byte
      domains before and during search;
    - a query cache keyed on hash-consed expression ids.

    Every answer is budgeted. [Sat]/[Unsat] answers are definitive;
    [Unknown] means the work budget ran out. Each call reports the work
    it performed so the engine can charge virtual time for solver effort.

    An [Unknown] answer is final, as an STP timeout is for KLEE:
    re-issuing the same query runs under the same budget again.

    A group search that runs out of budget is remembered, and is
    {e replayed} rather than run again when a later query asks it with
    everything it reads unchanged ({!Search_core.replay_key}): the same
    constraints in the same order, hint bytes, learned bounds and focus,
    and the same work spent on entry. A replayed [Unknown] charges
    exactly the work its search charged and counts exactly its search
    nodes, so it moves no counter, charge or report byte; only the wall
    time of the repeat goes. The memo belongs to the solver, and so to
    one session, and is emptied when it reaches 16,384 searches.

    [check_assuming] additionally solves {e incrementally} against the
    path prefix ({!Prefix_ctx}): the path is indexed once per distinct
    prefix, and each query against it pays only for the component of
    constraints sharing input bytes with its [extra] part, seeded with
    the prefix's learned per-byte bounds and its last satisfying model.
    Bursts of sibling queries (branch pairs, switch arms, verify
    retries) hit the same prefix context. *)

type result =
  | Sat of Model.t
  | Unsat
  | Unknown

type stats = {
  mutable queries : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable cache_hits : int;
  mutable hint_hits : int;
  mutable prefix_hits : int; (* check_assuming calls reusing a prefix context *)
  mutable prefix_builds : int; (* prefix contexts built (prefix misses) *)
  mutable prefix_model_hits : int; (* queries answered by a prefix's cached model *)
  mutable search_nodes : int;
  mutable work : int; (* total work units across all queries *)
  mutable prefix_evictions : int; (* prefix contexts dropped by the LRU bound *)
}

type t

val create :
  ?budget:int ->
  ?prefix_cap:int ->
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  unit ->
  t
(** [budget] is the work allowance of every query (default 60_000).
    [prefix_cap] bounds the prefix-context LRU ({!Prefix_ctx.create}).
    [registry] owns the solver's telemetry instruments (default: a fresh
    private registry, disabled). *)

val stats : t -> stats

val check_assuming :
  t ->
  ?hint:Model.t ->
  ?on_unsat_core:(Expr.t list -> unit) ->
  path:Expr.t list ->
  Expr.t list ->
  result * int
(** [check_assuming t ~hint ~path extra] decides [path @ extra] under the
    caller-guaranteed invariant that [hint] already satisfies every
    constraint in [path]; the integer is the work performed by this
    call. Only the constraints transitively sharing input bytes with
    [extra] are re-examined, which makes the per-branch queries of
    symbolic execution O(component) instead of O(path). The answer is
    definitive for the whole conjunction: disjoint path constraints stay
    satisfied because the returned model only rebinds component bytes.
    With [~path:[]] this decides a plain conjunction.
    Repeated queries against the same prefix reuse its context (counted
    in [prefix_hits]).

    On an [Unsat] answer decided by the group search, [on_unsat_core] is
    called with the failing independence group's constraints — a genuine
    unsat core drawn from [path @ extra] (constraint groups are closed
    under shared input bytes, so the bounds used to refute the group are
    all justified inside it). The callback is {e not} invoked when the
    refutation came from a constant-false constraint in [extra]; such
    queries never reach the search. The path-condition layer
    ({!Pbse_pathcond}-side subsumption) records these cores per block
    boundary and answers superset queries without solving. *)
