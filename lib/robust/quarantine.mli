(** Strike-based quarantine of repeatedly faulting states.

    The phase supervisor charges a strike against a state each time it
    faults without terminating (an undecided verification, a contained
    exception). After [max_strikes] strikes the state is quarantined:
    the caller removes it from its searcher so the rest of the phase
    keeps making progress. Keys are state ids.

    A quarantine lives for one session: it sits in the session's runtime
    context, so concurrent campaign turns never share one and reports
    stay byte-identical at every [--jobs] width (docs/parallelism.md).
    Within the session, per-site eviction records make a fork site that
    already struck out fail fast for the states forked there later. *)

type t

val create : ?registry:Pbse_telemetry.Telemetry.Registry.t -> max_strikes:int -> unit -> t
(** [max_strikes] is clamped to at least 1. [registry] owns the
    strike/eviction counters (default: a fresh private registry,
    disabled). *)

val strike : t -> ?site:int -> int -> bool
(** [strike t ~site id] charges one strike; [true] means the state has
    reached the limit and must be quarantined (its strike record is
    cleared and the eviction is counted). [site] is the state's fork
    site (a global block id, negative when unknown): sites with prior
    evictions lower the state's effective limit — by one per recorded
    eviction, floored at 1 — so known-bad fork points are retired
    faster. *)

val strikes_of : t -> int -> int
(** Current strikes charged against a live (not yet evicted) state. *)

val site_evictions : t -> int -> int
(** Evictions recorded against a fork site. *)

val total_strikes : t -> int
(** Strikes charged over the quarantine's lifetime, including evicted
    states. *)

val evicted : t -> int
(** States quarantined over the quarantine's lifetime. *)

val max_strikes : t -> int
