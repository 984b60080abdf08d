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

    [Unknown] answers are additionally cached as {e retryable} with the
    budget they failed at: re-issuing the same query retries with twice
    that budget, doubling on each failure up to [retry_cap]. The
    escalation is deterministic (work units, no wall clock), so hard
    queries near phase boundaries eventually resolve instead of silently
    truncating exploration.

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
  mutable retries : int; (* re-issues of a previously Unknown query *)
  mutable escalations : int; (* retries that ran with a raised budget *)
  mutable retry_resolved : int; (* retryable queries later answered *)
  mutable prefix_evictions : int; (* prefix contexts dropped by the LRU bound *)
}

type t

val create :
  ?budget:int ->
  ?retry_cap:int ->
  ?prefix_cap:int ->
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  unit ->
  t
(** [budget] is the work allowance per [check] call (default 60_000).
    [retry_cap] bounds the escalating retry budget (default
    [8 * budget]; clamped to at least [budget]). [prefix_cap] bounds the
    prefix-context LRU ({!Prefix_ctx.create}). [registry] owns the
    solver's telemetry instruments (default: a fresh private registry,
    disabled). *)

val stats : t -> stats

val retry_cap : t -> int

val check : t -> ?hint:Model.t -> Expr.t list -> result * int
(** [check t ~hint cs] decides the conjunction [cs]; the integer is the
    work performed by this call. A [Sat] model binds every input byte
    mentioned in [cs] and inherits [hint] elsewhere. *)

val check_assuming :
  t ->
  ?hint:Model.t ->
  ?on_unsat_core:(Expr.t list -> unit) ->
  path:Expr.t list ->
  Expr.t list ->
  result * int
(** [check_assuming t ~hint ~path extra] decides [path @ extra] under the
    caller-guaranteed invariant that [hint] already satisfies every
    constraint in [path]. Only the constraints transitively sharing input
    bytes with [extra] are re-examined, which makes the per-branch
    queries of symbolic execution O(component) instead of O(path). The
    result is as definitive as [check]'s: disjoint path constraints stay
    satisfied because the returned model only rebinds component bytes.
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

val sat : t -> ?hint:Model.t -> Expr.t list -> bool
(** [sat t cs] is true only on a definitive [Sat] answer ([Unknown]
    counts as unsatisfiable, the engine's conservative choice). *)

val clear_cache : t -> unit

val export_prefix_hints : t -> (int * (int * int) list) list
(** Arena-free prefix-context residue — [(structural path fingerprint,
    witness-model bindings)] pairs ({!Prefix_ctx.export}) — for carrying
    solver facts across sessions. *)

val import_prefix_hints : t -> (int * (int * int) list) list -> unit
(** Install residue exported from another solver as prefix-model hints
    ({!Prefix_ctx.import}): a newly indexed prefix whose structural
    fingerprint matches starts with the exporter's witness, subject to a
    satisfiability check against its own path. *)
