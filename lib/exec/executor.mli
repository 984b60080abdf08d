(** The symbolic executor (the KLEE analog).

    Executes IR over symbolic input bytes. The input file has a fixed
    concrete size; its content is symbolic, seeded by the creation-time
    buffer (all zeros for KLEE's [--sym-files]-style runs, the seed file
    for concolic/pbSE runs).

    Execution is sliced: {!run_slice} advances one state until it has
    executed exactly one terminator, forking at symbolic branches.
    Oracles fire along the way:

    - memory-safety: out-of-bounds, null, use-after-free, bad free —
      both on concrete faults and, for symbolic addresses, by querying
      whether any model pushes the access out of bounds;
    - division by zero, likewise checked symbolically;
    - explicit program aborts ([Halt]).

    Every report carries a witness input obtained from the solver model
    and is replay-confirmed through the concrete interpreter.

    Virtual time advances one unit per executed instruction plus a
    charge proportional to solver work, so "an hour" of symbolic
    execution includes its solver stalls, as in the paper. *)

type finish_reason =
  | Exited of int64
  | Buggy of Bug.t
  | Infeasible (* the path condition became unsatisfiable *)
  | Aborted of string (* halt instruction, stack overflow, ... *)

type slice =
  | Running
  | Forked of State.t list (* new siblings; the original state still runs *)
  | Finished of finish_reason

type stats = {
  mutable instructions : int;
  mutable slices : int;
  mutable forks : int;
  mutable dropped_forks : int; (* suppressed by the live-state cap *)
  mutable cow_copies : int; (* register arrays copied by the CoW write barrier *)
  mutable term_exit : int;
  mutable term_bug : int;
  mutable term_abort : int;
  mutable term_infeasible : int;
  mutable concretized_addrs : int;
  mutable verify_verified : int; (* {!verify} verdicts on pending states *)
  mutable verify_infeasible : int;
  mutable verify_undecided : int;
  mutable subsumed_states : int;
  (* would-be states pruned because their path condition covered a
     recorded unsat core: suppressed fork sides plus pending states
     discarded at verification *)
  mutable interpolant_hits : int; (* queries answered Unsat from recorded cores *)
  mutable interpolant_misses : int;
  (* consults that scanned a non-empty core bucket without a match *)
}

type t

val create :
  ?max_live:int ->
  ?solver_prefix_cap:int ->
  ?inject:Pbse_robust.Inject.plan ->
  ?subsumption:bool ->
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  clock:Pbse_util.Vclock.t ->
  Pbse_ir.Types.program ->
  input:bytes ->
  t
(** [create ~clock program ~input] prepares an engine whose symbolic file
    has the size and seed content of [input]. [max_live] caps live states
    (forks beyond it continue on the taken side only; default 8192).
    [solver_prefix_cap] bounds the solver's prefix-context LRU. [inject]
    activates deterministic fault injection (default: none). [subsumption]
    (default true) enables the per-block-boundary unsat-core cache that
    prunes subsumed states. The cache is engine-local, so pool
    determinism is unaffected.
    [registry] owns the engine's telemetry instruments (default: a
    fresh private registry, disabled). *)

val cfg : t -> Pbse_ir.Cfg.t
val coverage : t -> Coverage.t
val clock : t -> Pbse_util.Vclock.t
val solver : t -> Pbse_smt.Solver.t
val stats : t -> stats
val bugs : t -> Bug.t list
(** Deduplicated on (location, kind), discovery order. *)

val faults : t -> Pbse_robust.Fault.log
(** Every contained component failure of this engine: solver Unknowns,
    aborts (genuine and injected), fork suppressions. The driver adds
    its own supervisor-level faults to the same log. *)

val state_count : t -> int
(** States ever created by this engine (initial states plus forks). *)

val set_trace : t -> (int -> unit) option -> unit
(** Hook invoked with the global block id on every block entry of every
    state (used to record the paper's Fig. 1 scatter data). *)

val set_live_counter : t -> (unit -> int) -> unit
(** How many states are currently schedulable; consulted by the fork cap.
    {!explore} sets this automatically. *)

val set_lazy_fork : t -> bool -> unit
(** In lazy-fork (concolic) mode, divergent branch sides are recorded as
    states without a feasibility query; such states carry
    [needs_verify = true] and must pass {!verify} before being sliced.
    This is the paper's Algorithm 2: concolic execution records fork
    points but explores nothing. *)

type verdict =
  | Verified
  | Infeasible_state (* the newest path constraint is unsatisfiable *)
  | Undecided (* the solver gave up; a later call asks again *)

val verify : t -> State.t -> verdict
(** Checks a lazily forked state's newest path constraint, repairing its
    witness model. [Infeasible_state] states must be discarded;
    [Undecided] states keep [needs_verify] set so a later call reissues
    the query at the same budget.
    Returns [Verified] immediately on already-verified states. *)

val set_record_testcases : t -> bool -> unit
(** When enabled, every terminated path contributes a test case: the
    witness input generated from its model, labelled with the outcome
    ("exit-N", "bug-<kind>", "abort") — KLEE's test-case generation.
    Capped at 4096 per engine. *)

val testcases : t -> (bytes * string) list
(** Recorded test cases, oldest first. *)

val initial_state : t -> State.t

val run_slice : t -> State.t -> slice

val explore : t -> Searcher.t -> deadline:int -> unit
(** KLEE-style driver loop: add nothing, repeatedly select from the
    searcher and slice until the deadline (virtual time) passes or no
    states remain. Initial states must already be in the searcher. *)
