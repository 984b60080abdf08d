(** Strike-based quarantine of repeatedly faulting states.

    The phase supervisor charges a strike against a state each time it
    faults without terminating (an undecided verification, a contained
    exception). After [max_strikes] strikes the state is quarantined:
    the caller removes it from its searcher so the rest of the phase
    keeps making progress. Keys are state ids.

    A quarantine can outlive one run: {!epoch} clears the per-state
    strike counts (state ids restart per run) while the cumulative
    totals and the per-site eviction records persist. Callers that run
    seeds sequentially ([Session.run ?quarantine] across invocations) can
    thread one quarantine this way so a fork site that struck out under
    one seed fails fast under the next. [Driver.run_pool] does {e not}:
    each pool session owns a private quarantine inside its runtime
    context, the price of running turns on concurrent domains with
    byte-identical reports at every [--jobs] width
    (docs/parallelism.md). *)

type t

val create : ?registry:Pbse_telemetry.Telemetry.Registry.t -> max_strikes:int -> unit -> t
(** [max_strikes] is clamped to at least 1. [registry] owns the
    strike/eviction counters (default
    {!Pbse_telemetry.Telemetry.Registry.default}). *)

val epoch : t -> unit
(** Start a new run against the same quarantine: per-state strikes are
    cleared; totals, evictions and site records persist. *)

val strike : t -> ?site:int -> int -> bool
(** [strike t ~site id] charges one strike; [true] means the state has
    reached the limit and must be quarantined (its strike record is
    cleared and the eviction is counted). [site] is the state's fork
    site (a global block id, negative when unknown): sites with prior
    evictions lower the state's effective limit — by one per recorded
    eviction, floored at 1 — so known-bad fork points are retired
    faster in later epochs. *)

val strikes_of : t -> int -> int
(** Current strikes charged against a live (not yet evicted) state. *)

val site_evictions : t -> int -> int
(** Evictions recorded against a fork site, across all epochs. *)

val total_strikes : t -> int
(** Strikes charged over the quarantine's lifetime, including evicted
    states and earlier epochs. *)

val evicted : t -> int
(** States quarantined over the quarantine's lifetime. *)

val max_strikes : t -> int
