(** The explicit runtime context threaded through every engine layer.

    One [t] bundles everything a session touches: the telemetry registry
    that owns every instrument, the session's RNG, its fault-injection
    plan, its quarantine, the hash-consing arena its expressions intern
    into, and the solver's prefix-context LRU bound. A session holds
    exactly one runtime, and two runtimes share {e no} mutable state:
    each has its own registry, quarantine and arena, and {!with_active}
    keeps two runtimes from being active on one domain at once. That is
    what lets campaign turns run on concurrent domains, and campaigns
    on concurrent threads (docs/parallelism.md).

    [Session.open_session] builds a runtime from its config
    ([Session.runtime_of_config]) when the caller doesn't supply one;
    its registry is then private and disabled. A caller that wants
    telemetry passes a runtime over an enabled registry. *)

type t = {
  registry : Pbse_telemetry.Telemetry.Registry.t;
  rng : Pbse_util.Rng.t;  (** all stochastic choices derive from this *)
  inject : Pbse_robust.Inject.plan;
  quarantine : Pbse_robust.Quarantine.t;
  arena : Pbse_smt.Expr.arena;
  prefix_cap : int;
      (** the solver prefix-context LRU bound the session opens under *)
}

val create :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  ?rng_seed:int ->
  ?inject:Pbse_robust.Inject.plan ->
  ?max_strikes:int ->
  ?prefix_cap:int ->
  unit ->
  t
(** Defaults: a fresh private registry (disabled), RNG seed 1, no fault
    injection, a fresh quarantine with [max_strikes] (default 4), a
    fresh expression arena, and the solver's default prefix cap
    (16 384). *)

val with_active : t -> (unit -> 'a) -> 'a
(** [with_active t f] runs [f] with [t] active on the calling domain:
    it takes the domain's lock, installs the runtime's expression arena
    ({!Pbse_smt.Expr.use_arena}) and runs [f], releasing the lock on
    return or raise. [Session.open_session] and [Session.step_session]
    run under it, so a session migrating between domains across
    campaign rounds always interns into its own arena, and two sessions
    driven from two threads of one domain take turns instead of
    interleaving mid-step. Not reentrant: [f] must not call
    [with_active] again. *)

