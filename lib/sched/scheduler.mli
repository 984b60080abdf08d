(** Phase-selection policies behind one interface.

    The engine loop (Session) repeatedly asks [select] for the next
    phase turn, runs states from that phase's searcher until the turn
    budget is exhausted, then reports the outcome back: [credit] when
    the phase stays schedulable, [evict] when it is retired (drained or
    its searcher failed). [drained] ends the loop. All bookkeeping that
    decides {e which} phase runs next lives behind this interface; the
    caller owns the per-phase counters in {!Phase_queue} (it executes
    the slices).

    Policies are deterministic: identical call sequences yield identical
    selections, which the byte-identical-report determinism test relies
    on. *)

type turn = {
  queue : Phase_queue.t;
  budget : int; (* virtual-time allowance for this turn *)
}

type stats = {
  mutable turns : int; (* turns granted *)
  mutable rotations : int; (* full rotations (policy-specific) *)
  mutable evictions : int; (* queues retired *)
  mutable failovers : int; (* retired because their searcher failed *)
}

type t = {
  name : string;
  select : unit -> turn option;
      (** Next phase to run and its budget; [None] when no queues remain. *)
  credit : Phase_queue.t -> unit;
      (** The turn ended and the phase stays schedulable. *)
  evict : Phase_queue.t -> failed:bool -> unit;
      (** Retire the phase ([failed] marks searcher fail-over, as opposed
          to a drained queue). *)
  drained : unit -> bool;  (** No queues left to schedule. *)
  remaining : unit -> Phase_queue.t list;
      (** Queues still schedulable, in policy order. *)
  stats : stats;
}

val round_robin :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Phase_queue.t list ->
  t
(** The paper's Algorithm 3: first-appearance order, budget grows by one
    [time_period] per full rotation. *)

val sequential :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Phase_queue.t list ->
  t
(** Ablation policy: drain each phase to exhaustion in order. *)

val names : string list
(** All policy names accepted by {!by_name}. *)

val by_name :
  string ->
  (?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Phase_queue.t list ->
  t)
  option
(** Factories accept the registry that owns their [sched.*] counters
    (default: a fresh private registry, disabled). *)
