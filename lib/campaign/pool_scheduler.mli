(** Seed-pool scheduling policies behind one interface.

    The seed-level mirror of {!Pbse_sched.Scheduler}: the campaign loop
    ({!Campaign.run_rounds}) asks [plan] for a whole round of seed turns
    and their budgets, runs them, then reports back per seed — [credit]
    when the seed stays schedulable, [retire] when it leaves the pool
    (engine drained, zero budget, or no progress). Policies read the counters on
    {!Seed_slot} (the campaign loop owns them) and are deterministic:
    identical call sequences yield identical selections, which the
    byte-identical aggregate-report test relies on. *)

type turn = {
  slot : Seed_slot.t;
  budget : int; (* virtual-time allowance for this turn *)
}

type stats = {
  mutable turns : int; (* turns granted *)
  mutable rotations : int; (* full rotations (policy-specific) *)
  mutable retirements : int; (* slots retired from the rotation *)
}

type t = {
  name : string;
  plan : remaining:int -> turn list;
      (** The whole next {e round} at once: one turn per live slot, in
          policy order, budgets fixed from the state at the barrier.
          Because the plan never depends on the outcomes of turns inside
          the round, the turns can run concurrently (one domain each)
          and merge deterministically — every [--jobs] width sees the
          same plans. An empty list means the pool is drained. *)
  credit : Seed_slot.t -> unit;
      (** The turn ended and the seed stays schedulable (under
          [smallest-first] the seed's single share is spent, so credit
          also retires it). *)
  retire : Seed_slot.t -> unit;  (** Remove the seed from the rotation. *)
  drained : unit -> bool;  (** No slots left to schedule. *)
  active : unit -> Seed_slot.t list;
      (** Slots still schedulable, in policy order. *)
  stats : stats;
  state : unit -> (string * int) list;
      (** Policy-internal position beyond [stats] and the live-slot set
          (campaign snapshots persist it): [round-robin] exposes its
          rotation cursor, the other policies are stateless. *)
  restore_state : (string * int) list -> unit;
      (** Reinstate a {!state} capture on a freshly built instance over
          the same live slots (campaign resume). Unknown keys are
          ignored. *)
}

val smallest_first :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t
(** The paper's Algorithm 1: one round in which each seed, smallest
    first, gets one turn sized to an equal share of the budget; a seed
    that stops early leaves the rest of its share unspent.
    [time_period] is unused. *)

val round_robin :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t
(** Fair rotation: [time_period]-sized turns in pool order, per-seed
    unused budget rolled forward onto the seed's next turn. *)

val coverage_greedy :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t
(** Adaptive reallocation: each round runs the seeds best
    new-blocks-per-dwell ratio first (integer cross-multiplied, ties to
    the lower ordinal), budgets growing with the slot's own turn
    count. *)

val default : string
(** ["smallest-first"] — the paper's behaviour. *)

val names : string list
(** All policy names accepted by {!by_name}. *)

val by_name :
  string ->
  (?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t)
  option
(** Factories accept the registry that owns their [campaign.*] counters
    (default: a fresh private registry, disabled). *)
