(** Deterministic fault injection.

    A plan names the fault rates to force on a run: solver queries that
    return Unknown, executor slices that abort, fork attempts that hit
    simulated [max_live] memory pressure, and lazy forks of the concolic
    pass whose seedState is dropped. Decisions are drawn from a
    seeded RNG, so a given plan against a given (deterministic) engine
    run fires at exactly the same points every time — the test suite
    relies on this to assert crash-freedom and byte-identical reports
    under faults.

    Flag grammar (the CLI's [--inject] and the [PBSE_INJECT] variable):

    {v seed=N,solver=R,abort=R,mem=R,concolic=R,crash=R,snapshot=R v}

    where each clause is optional, [N] is an integer RNG seed (default
    1) and each [R] is a rate in [0, 1] (default 0). *)

type plan = {
  seed : int;
  solver_unknown_rate : float;
  exec_abort_rate : float;
  mem_pressure_rate : float;
  concolic_drop_rate : float; (* lazy-fork seedStates dropped (concolic pass) *)
  turn_crash_rate : float; (* campaign turns killed at entry (pool driver) *)
  snapshot_corrupt_rate : float; (* checkpoint writes corrupted on disk *)
}

val none : plan
(** All rates zero: injection disabled. *)

val is_active : plan -> bool

val parse : string -> (plan, string) result
(** Parses the flag grammar above. *)

val to_string : plan -> string
(** Round-trips through {!parse}. *)

type t
(** An instantiated plan: the plan plus one RNG stream per channel. *)

val create : plan -> t

val plan : t -> plan

val fire_solver_unknown : t -> bool
val fire_exec_abort : t -> bool
val fire_mem_pressure : t -> bool
val fire_concolic_drop : t -> bool
val fire_turn_crash : t -> bool
val fire_snapshot_corrupt : t -> bool
(** Each call draws one decision from the stream (no draw when the
    corresponding rate is zero, so disabled channels cost nothing and do
    not perturb the others). *)
