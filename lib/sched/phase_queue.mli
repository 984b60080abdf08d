(** One schedulable phase: its searcher plus scheduling bookkeeping.

    The mutable counters feed the per-phase rows of the run report; they
    are a few ints per phase, so they are maintained unconditionally.
    The engine loop owns the counters (it executes the slices); the
    {!Scheduler} policies only read them. *)

type t = {
  ordinal : int; (* 1-based position in first-appearance order *)
  pid : int; (* cluster id from the phase division *)
  trap : bool;
  searcher : Pbse_exec.Searcher.t;
  turn_dwell : Pbse_telemetry.Telemetry.histogram;
      (* per-turn dwell distribution, named [phase.<ordinal>.turn_dwell] *)
  mutable seeded : int; (* seedStates initially mapped here *)
  mutable turns : int;
  mutable slices : int;
  mutable new_cover : int; (* slices that covered a new block *)
  mutable dwell : int; (* virtual time spent in this phase's turns *)
  mutable quarantined : int; (* states evicted while this phase ran *)
  mutable subsumed : int; (* states pruned by subsumption in its turns *)
}

val create :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  ordinal:int ->
  pid:int ->
  trap:bool ->
  Pbse_exec.Searcher.t ->
  t
(** All counters start at zero. [registry] owns the per-phase
    [turn_dwell] histogram (default: a fresh private registry, disabled). *)

val seed : t -> Pbse_exec.State.t -> unit
(** Adds a seedState to the phase's searcher and counts it. *)

val size : t -> int
(** Live states in the phase's searcher. *)

val stat_row : t -> Pbse_telemetry.Report.phase_row
(** Snapshot of the counters as a report row. *)
