(** The session layer — one seed's resumable pbSE engine, extracted
    from the driver so a campaign can grant it budget in turns and a
    server can multiplex many of them.

    Pipeline per session: concolic execution of the seed (gathering
    BBVs and seedStates), phase division with trap identification, then
    phase-scheduled symbolic execution:

    - seedStates are mapped to the phase of the interval in which their
      fork point was reached, deduplicated per fork location (keeping the
      earliest, §III-B3);
    - phase turns are granted by a pluggable scheduling policy
      ({!Pbse_sched.Scheduler}); the default is the paper's round-robin
      in order of first appearance, with the turn budget growing by one
      [time_period] per full rotation;
    - a phase's turn ends when it exhausts its budget and its latest
      slice covered no new code; empty phases leave the rotation.

    Scheduling is supervised: executor and solver failures inside a turn
    are contained, recorded in a {!Pbse_robust.Fault.log}, and charged a
    clock tick so fault loops still converge on the deadline. A state
    that faults repeatedly is quarantined (removed from its searcher)
    after [max_strikes]; a searcher that raises forfeits its whole phase
    (the rotation fails over to the remaining queues). Degenerate phase
    division (no BBVs) falls back to a single phase instead of raising.

    The campaign layer ([Pbse.Driver]) builds seed-pool campaigns on
    these sessions; single-seed callers use {!run} directly. *)

(** {1 Configuration}

    The configuration is grouped by concern. Build one from
    {!default_config} with the [with_*] helpers:
    {[
      Session.default_config
      |> Session.with_concolic (fun c -> { c with time_period = 500 })
      |> Session.with_search (fun s -> { s with scheduler = "sequential" })
    ]} *)

type concolic_config = {
  interval_length : int option; (* BBV interval; None sizes it from a
                                   concrete pre-run of the seed *)
  intervals_target : int; (* BBVs aimed for when auto-sizing (default 120) *)
  time_period : int; (* Algorithm 3's TimePeriod; also the seed-level
                        turn quantum of pool schedulers *)
  mode : Pbse_phase.Phase.mode; (* BBV-only or coverage-augmented vectors *)
}
(** The concolic pass and phase-division inputs. *)

type search_config = {
  phase_searcher : string; (* searcher used inside each phase *)
  scheduler : string; (* scheduling policy (Pbse_sched.Scheduler.names);
                         "round-robin" is the paper's Algorithm 3,
                         "sequential" the ablation *)
  dedup_seed_states : bool; (* keep earliest per fork point (paper) *)
  max_k : int; (* k-means upper bound (paper: 20) *)
}
(** State search and phase scheduling. The live-state cap is the
    executor's fixed 8192 ({!Pbse_exec.Executor.create}). *)

type solver_config = {
  prefix_cap : int; (* prefix-context LRU bound (Pbse_smt.Prefix_ctx) *)
}
(** The per-query work budget (60 000 units) is the solver's fixed
    default ({!Pbse_smt.Solver.create}). [prefix_cap] reaches the solver
    only through {!runtime_of_config}: a session's solver runs under its
    runtime's [prefix_cap]. *)

type robust_config = {
  max_strikes : int; (* faults a state survives before quarantine *)
  inject : Pbse_robust.Inject.plan; (* deterministic fault injection *)
  watchdog_factor : int; (* a campaign turn spending more than
                            factor x budget records a Turn_timeout and
                            strikes its seed; 0 disables the watchdog *)
}
(** Fault containment. Every bug witness is replay-confirmed through
    the concrete interpreter; a pool seed is force-retired after 3
    watchdog or crash strikes (docs/robustness.md). *)

type pathcond_config = {
  subsumption : bool; (* block-boundary unsat-core subsumption cache *)
}
(** The path-condition layer's pruning (docs/subsumption.md). On by
    default; [pbse --no-subsumption] turns it off for A-B runs. It is
    semantically transparent — merged coverage and bug sets are
    unchanged — so it only trades solver work. *)

type config = {
  concolic : concolic_config;
  search : search_config;
  solver : solver_config;
  robust : robust_config;
  pathcond : pathcond_config;
  rng_seed : int;
}

val default_config : config

val with_concolic : (concolic_config -> concolic_config) -> config -> config
val with_search : (search_config -> search_config) -> config -> config
val with_solver : (solver_config -> solver_config) -> config -> config
val with_robust : (robust_config -> robust_config) -> config -> config
val with_pathcond : (pathcond_config -> pathcond_config) -> config -> config

val config_to_kvs : config -> (string * string) list
(** Flat [(key, value)] rendering of every config field (e.g.
    [("solver.prefix_cap", "256")]), stored in campaign snapshots so a
    resumed process rebuilds the exact configuration. *)

val config_of_kvs : (string * string) list -> (config, string) result
(** Inverse of {!config_to_kvs} over {!default_config}. Unknown keys
    are ignored (snapshot metadata carries non-config entries such as
    the target name, and older snapshots carry fields that have since
    become constants); a malformed value for a known key is an error, as
    is one the engine would fail on later: [search.max_k] or
    [concolic.interval_length] below 1, [search.max_k] above 4096, or a
    [search.scheduler] or [search.phase_searcher] not in
    {!Pbse_sched.Scheduler.names} or {!Pbse_exec.Searcher.names}. The
    retired key [search.share_seed_states] is accepted when off and is
    an error when on: cross-seed seedState sharing was removed, and a
    snapshot taken with it on would replay unshared and diverge. *)

val config_fingerprint : config -> string
(** Hex digest of {!config_to_kvs}; two configs fingerprint equal iff
    every field renders equal. {!Session_store} keys cache entries on
    it, so a config change can never alias a cached session. *)

val interval_length_for :
  config -> Pbse_ir.Types.program -> seed:bytes -> int
(** The BBV interval the driver will use for [seed]: the configured
    [interval_length] if set, otherwise sized from a concrete pre-run so
    the run yields about [intervals_target] BBVs. *)

(** {1 Single runs} *)

type report = {
  config : config;
  seed_size : int;
  c_time : int; (* virtual time of the concolic step *)
  p_time : int; (* virtual time charged for phase analysis *)
  division : Pbse_phase.Phase.division;
  bbvs : Pbse_concolic.Bbv.t list;
  trace : Pbse_concolic.Trace.t; (* concrete block-entry trace *)
  seed_state_count : int; (* after mapping, dedup and verification *)
  interval_length : int; (* BBV interval actually used *)
  coverage_samples : (int * int) list; (* (virtual time, blocks covered) *)
  bugs : (Pbse_exec.Bug.t * int) list; (* bug, 1-based phase ordinal (0 = concolic) *)
  executor : Pbse_exec.Executor.t; (* for stats and coverage queries *)
  faults : Pbse_robust.Fault.log; (* contained failures, by kind *)
  quarantined : int; (* states evicted this run ([max_strikes] faults) *)
  strikes : int; (* faults charged against states this run *)
  sched_stats : Pbse_sched.Scheduler.stats; (* turns/rotations/evictions *)
  phase_stats : Pbse_telemetry.Report.phase_row list;
      (* per-phase scheduling stats in ordinal order: turns granted,
         slices run, new-cover slices, dwell time, quarantine evictions.
         Always collected (a few ints per phase). *)
  registry : Pbse_telemetry.Telemetry.Registry.t;
      (* the session's instruments; {!run_report} snapshots its spans
         and histograms *)
}

val coverage_at : report -> int -> int
(** [coverage_at report t] — blocks covered by virtual time [t]
    (monotone interpolation of the samples). *)

val runtime_of_config :
  ?registry:Pbse_telemetry.Telemetry.Registry.t -> config -> Runtime.t
(** The runtime a session of [config] runs in when the caller supplies
    none: RNG seed, inject plan, strike limit and prefix cap from the
    config, over [registry] (default: a fresh private registry,
    disabled). Callers that want telemetry pass an enabled registry. *)

val run :
  ?config:config ->
  ?runtime:Runtime.t ->
  Pbse_ir.Types.program ->
  seed:bytes ->
  deadline:int ->
  report
(** End-to-end pbSE on one seed. The deadline is in virtual time and
    includes the concolic and analysis steps. [runtime] is the explicit
    context the run executes in ({!Runtime}; default
    [runtime_of_config config]). Its registry's spans and histograms
    are what {!run_report} snapshots, so a fresh enabled registry per
    run gives a report of that run only. *)

(** {1 Resumable sessions}

    [run] is [open_session] + one [step_session] + [finish_session]. The
    split lets a caller (the campaign layer) grant a seed's engine
    budget in turns rather than one deadline: the scheduling policy's
    rotation state survives between steps, so a resumed session
    continues exactly where it paused. *)

type t
(** One seed's engine with setup done (concolic pass, phase division,
    seeded queues) and scheduling state live. *)

val open_session :
  ?config:config ->
  ?runtime:Runtime.t ->
  Pbse_ir.Types.program ->
  seed:bytes ->
  deadline:int ->
  t
(** Runs the concolic and phase-analysis steps (charged to the
    session's clock) and seeds the phase queues; [deadline] bounds the
    concolic pass only. [runtime] is the session's context — registry,
    RNG, inject plan, quarantine, expression arena, the solver's prefix
    cap — and the steps run
    under {!Runtime.with_active}; omitted, it is
    [runtime_of_config config]. *)

val step_session : t -> deadline:int -> unit
(** Phase-scheduled symbolic execution until [deadline] on the
    session's own clock (an absolute virtual time, not a delta), under
    {!Runtime.with_active}. Returns early if the scheduler drains. *)

val step_contained : t -> deadline:int -> [ `Stepped | `Failed ]
(** {!step_session} with escaping exceptions contained: a raise is
    recorded as an [Exec_exception] fault on the session (with a clock
    tick charged) and reported as [`Failed]. The campaign layer uses it
    so one faulting turn can strike its seed instead of killing the
    pool. Deterministic in virtual time — replaying the same turn after
    a resume re-contains the same fault. *)

val record_crash : t -> unit
(** Charge one clock tick and record an [Exec_exception] fault — the
    footprint of an injected turn kill, identical live and on replay. *)

val session_time : t -> int
(** Current virtual time of the session's clock. *)

val session_drained : t -> bool
(** True when every phase queue has left the rotation; further steps
    are no-ops. *)

val session_executor : t -> Pbse_exec.Executor.t

val session_bug_phase : t -> Pbse_exec.Bug.t -> int
(** 1-based ordinal of the phase whose turn first surfaced this bug's
    dedup key; 0 when unknown (found by the concolic step). *)

val finish_session : t -> report
(** Assemble the run report from the session's current state. The
    session stays usable; finishing again after more steps is valid. *)

val run_report :
  ?meta:(string * string) list -> report -> Pbse_telemetry.Report.t
(** Assemble the structured run report: solver query and answer
    counts, executor and verification totals, per-phase turn/coverage
    stats, fault and quarantine totals, plus span and histogram
    snapshots from the run's registry (populated only when that
    registry is enabled). Deterministic: identical seeded runs
    yield byte-identical {!Pbse_telemetry.Report.to_json} output. *)

val scalar_metrics : report -> (string * int) list
(** The fixed-order scalar metric families of a run report — the
    aggregate pool report sums these same families across runs. Derived
    from {!scalar_metric_names}'s manifest, so every consumer (CLI
    reports, serve frames, bench runs.csv) sees the same families. *)

val scalar_metric_names : string list
(** The names of {!scalar_metrics}'s families in emission order — the
    counter manifest. Bench and tests validate their column lists
    against it so metrics cannot drift between surfaces. *)

val span_metrics : Pbse_telemetry.Telemetry.Registry.t -> (string * int) list
(** [span.NAME.count] / [span.NAME.total] pairs from a registry
    snapshot. *)
