(** Phase division and trap-phase identification (paper §III-B1).

    BBVs are normalised, optionally augmented with a coverage element
    (the paper's improvement, Fig. 4), and clustered with k-means. The k
    in [1, max_k] that yields the most trap phases wins (smallest k on
    ties). A cluster is a trap phase when it owns a run of at least
    [trap_run_threshold] consecutive intervals — code repeating across
    a long stretch of time without coverage progress, exactly the loops
    that trap symbolic execution. *)

type mode =
  | Bbv_only
  | Bbv_with_coverage

type phase = {
  pid : int; (* cluster id *)
  intervals : int array; (* interval indices, ascending *)
  first_vtime : int;
  trap : bool;
  longest_run : int; (* longest consecutive-interval run *)
}

type division = {
  mode : mode;
  k : int;
  assignment : int array; (* per BBV, cluster id *)
  phases : phase list; (* ordered by first_vtime *)
  trap_count : int;
}

val trap_run_threshold : int -> int
(** [trap_run_threshold nbbvs] — 5% of the BBV count, at least 2. *)

val divide :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  ?mode:mode ->
  ?max_k:int ->
  Pbse_util.Rng.t ->
  Pbse_concolic.Bbv.t list ->
  division
(** Total: an empty BBV list yields a degenerate one-phase division
    (pid 0, no trap) instead of raising, so a run whose concolic step
    produced nothing still schedules. [max_k] defaults to 20 (the paper
    tries k in 1..20). [registry] owns the division telemetry
    (default: a fresh private registry, disabled). *)

val phase_of_interval : division -> Pbse_concolic.Bbv.t list -> int -> int option
(** [phase_of_interval division bbvs interval] maps an interval index to
    the id (cluster) of its phase; intervals with no recorded BBV map to
    the nearest earlier recorded interval. Under a degenerate (empty-BBV)
    division every interval maps to the single phase. *)

val render_strip : division -> string
(** One character per BBV: cluster letter, uppercase for trap phases —
    a textual rendition of the paper's Fig. 4 colour strips. *)

val turn_progress : trap:bool -> fresh_cover:bool -> summaries_applied:int -> bool
(** Did a scheduling turn make progress? New coverage always counts;
    for trap phases, applied loop summaries count too — the summarized
    transition is the leap over the trap, so the scheduler consults it
    before retreating ([fresh_cover || (trap && summaries_applied > 0)]). *)
