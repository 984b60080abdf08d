(** The pbSE campaign layer — Algorithm 1's outer loop over a seed
    pool.

    The single-run lifecycle (configuration, [run], resumable sessions,
    run reports) lives in {!Pbse_session.Session}; callers use it
    directly. What the driver owns is the campaign: {!run_pool} drives
    a seed pool through seed-level scheduling policies
    ({!Pbse_campaign.Pool_scheduler}) built on resumable sessions —
    checkpointed, resumable and shared-seedState-aware — and
    {!pool_run_report} renders the aggregate into the same
    [pbse-report/1] document single runs use. *)

type report = Pbse_session.Session.report = {
  config : Pbse_session.Session.config;
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
  registry : Pbse_telemetry.Telemetry.Registry.t;
}
(** One seed's run report ({!Pbse_session.Session.report}), re-exported
    because {!pool_report}'s [runs] carry it. *)

val select_seed : bytes list -> coverage_of:(bytes -> int) -> bytes option
(** The paper's seed-selection heuristic (§III-B4): consider the 10
    smallest seeds, pick the one with the best coverage. *)

(** {1 Seed-pool campaigns} *)

type pool_report = {
  runs : (bytes * report) list; (* in first-turn order *)
  merged_coverage : int; (* union of covered blocks across runs *)
  merged_bugs : (Pbse_exec.Bug.t * int) list; (* deduplicated, with the
                                                 phase ordinal of the run
                                                 that first found each *)
  pool_scheduler : string; (* policy that drove the campaign *)
  seed_rows : Pbse_telemetry.Report.seed_row list; (* ordinal order,
                                                      every seed (also
                                                      never-run ones) *)
  pool_stats : Pbse_campaign.Pool_scheduler.stats;
  pool_deadline : int;
  pool_spent : int; (* virtual time actually consumed *)
  pool_rounds : int; (* campaign rounds executed *)
  pool_parallel_turns : int; (* turns in rounds that planned >= 2 turns *)
  pool_merge_blocks : int; (* blocks added to the union at merge barriers *)
  pool_merge_bugs : int; (* deduplicated bugs harvested at merge barriers *)
  pool_merge_registries : int; (* session registries folded into the pool's *)
  pool_faults : Pbse_robust.Fault.log;
      (* pool-level faults: turn watchdog kills before a session opened,
         snapshot corruption, resume divergence *)
  pool_registry : Pbse_telemetry.Telemetry.Registry.t;
      (* campaign-wide instruments: pool counters plus every session
         registry, merged in ordinal order *)
  pool_steal_count : int;
      (* turns executed by a non-home pool worker. Wall-clock-side
         diagnostic: depends on [jobs] and scheduling luck, so it is
         deliberately absent from the byte-identical pool-report JSON
         (the bench CSV and CLI surface it) *)
  pool_pinned_turns : int; (* turns executed by their slot's home worker *)
  pool_id_refills : int;
      (* expression id-block refills during the campaign
         ({!Pbse_smt.Expr.id_block_refills}) *)
  pool_shared_seedstates : int;
      (* seedStates skipped because another session of this campaign
         already published their fork point
         ({!Pbse_session.Session.share_stats}
         hits, as a delta over this campaign). Diagnostic like the
         above: 0 unless [search.share_seed_states] is on *)
}

type checkpoint
(** Where and how often a campaign checkpoints itself
    (docs/robustness.md). *)

val checkpoint :
  ?meta:(string * string) list ->
  ?halt_after:int ->
  ?note_ms:(int -> unit) ->
  path:string ->
  every:int ->
  unit ->
  checkpoint
(** Checkpoint to [path] every [every] campaign turns (clamped to at
    least 1), atomically (tmp + rename, previous checkpoint rotated to
    [path].bak). [meta] is carried verbatim in the snapshot — callers
    store what they need to reconstruct the campaign (the CLI stores the
    target name). [halt_after] stops the campaign at the first round
    barrier once that many rounds have run, after writing a final
    checkpoint — a deterministic in-process "kill" for tests and the
    crash-resume bench. [note_ms] receives each write's serialisation
    cost in milliseconds. *)

val campaign_fingerprint :
  ?config:Pbse_session.Session.config ->
  ?scheduler:string ->
  ?lease:int ->
  target:string ->
  seeds:bytes list ->
  deadline:int ->
  unit ->
  string
(** The digest under which the serve layer caches (and persists) a
    campaign's rendered report: target, config fingerprint, pool
    policy, lease, deadline and the seed digests (size-ordered). [jobs]
    is deliberately excluded — reports are jobs-invariant, so any width
    may reuse any width's campaign. Defaults mirror {!run_pool}'s. *)

val run_pool :
  ?config:Pbse_session.Session.config ->
  ?scheduler:string ->
  ?runtime:Pbse_session.Runtime.t ->
  ?jobs:int ->
  ?lease:int ->
  ?checkpoint:checkpoint ->
  ?resume:Pbse_campaign.Snapshot.t * string option ->
  ?preload_faults:(Pbse_robust.Fault.kind * string) list ->
  ?pool:Pbse_campaign.Domain_pool.t ->
  ?share:Pbse_session.Session.share ->
  ?round_wrap:((unit -> unit) -> unit) ->
  Pbse_ir.Types.program ->
  seeds:bytes list ->
  deadline:int ->
  pool_report
(** Algorithm 1's outer loop over a seed pool, generalised into a
    scheduled campaign run in deterministic rounds. Seeds are ordered
    smallest-first and become slots of the named seed-level policy
    ({!Pbse_campaign.Pool_scheduler.names}; default
    {!Pbse_campaign.Pool_scheduler.default}, the paper's equal-share
    smallest-first pass). Each round the policy plans one turn per live
    seed; the turns execute on up to [jobs] domains (default 1) via
    {!Pbse_campaign.Campaign.run_rounds} — a persistent, domain-affine
    worker pool: each slot is homed on one domain for the whole
    campaign, with work-stealing only when a worker runs dry — each
    seed's session under its own private {!Pbse_session.Runtime}
    (registry, RNG, quarantine, arena), and results merge at the round
    barrier in plan order: coverage into a global block union, bugs deduplicated on
    (location, kind) and attributed to the seed whose turn first
    surfaced them. [lease] (default 1) grants each planned turn up to
    that many consecutive same-budget sub-turns, run unbroken on the
    slot's worker and merged sub-turn by sub-turn at the barrier, so
    barrier and merge overhead amortises (docs/parallelism.md). When
    the campaign ends, per-session registries fold into [runtime]'s
    registry in ordinal order (default runtime:
    [Session.runtime_of_config config], whose registry is private and
    disabled; each session registry is enabled exactly when the pool
    registry is). Every field of the result — and the
    byte-exact {!pool_run_report} JSON — is identical for every [jobs]
    value at any fixed [lease] (docs/parallelism.md); the
    [pool_steal_count]/[pool_pinned_turns]/[pool_id_refills]/
    [pool_shared_seedstates] diagnostics are the deliberate exception.
    Raises [Invalid_argument] on an unknown policy name.

    Robustness (docs/robustness.md): [checkpoint] snapshots the campaign
    at round barriers; [resume] reinstates a snapshot — with an optional
    fallback detail recorded as a [Snapshot_corrupt] fault when the
    primary checkpoint was bad — and replays each opened session's
    granted-turn ledger, so kill-and-resume reproduces the uninterrupted
    run's report byte for byte (use {!resume_pool} rather than passing
    [resume] directly). A turn overrunning [watchdog_factor] x budget,
    an injected turn kill ([crash=R]) or a contained turn exception
    strikes its seed toward forced retirement; accumulated faults step
    the effective [jobs] and prefix cap down without aborting the
    campaign. [preload_faults] enters faults on the pool record before
    the first round — the CLI uses it when a campaign restarts fresh
    because every checkpoint was unusable.

    Session layer (docs/architecture.md): [pool] runs the campaign on a
    caller-owned {!Pbse_campaign.Domain_pool} (left running afterwards;
    by default the campaign creates and shuts down its own), and
    [round_wrap] brackets each executed round (dispatch through merges)
    — together they let a server multiplex several campaigns onto one
    shared pool with round-granular fair sharing. With
    [config.search.share_seed_states] on, every session of the campaign
    publishes and consults a shared seedState table — [share] when
    given (the serve layer passes one that spans its campaigns), a
    fresh one otherwise: fork points already published by another
    session are scheduled once campaign-wide, and finished sessions'
    solver prefix residue seeds fresh ones. *)

val load_snapshot :
  path:string -> (Pbse_campaign.Snapshot.t * string option, string) result
(** Load a checkpoint for resumption, degrading gracefully: a corrupt or
    version-mismatched [path] falls back to [path].bak (the previous
    checkpoint), returning the primary's failure message alongside so
    the resumed campaign records it. [Error] only when no usable
    checkpoint exists at either location. *)

val resume_pool :
  ?jobs:int ->
  ?lease:int ->
  ?checkpoint:checkpoint ->
  ?fallback:string ->
  Pbse_campaign.Snapshot.t ->
  Pbse_ir.Types.program ->
  seeds:bytes list ->
  (pool_report, string) result
(** Continue a checkpointed campaign: rebuild the config and pool
    scheduler from the snapshot's metadata ([Error] if the metadata is
    malformed or names an unknown policy), then {!run_pool} with the
    snapshot's own deadline, replaying up to the checkpointed barrier
    and running the remainder. [jobs] defaults to the snapshot's
    recorded width and [lease] to its recorded lease — a snapshot
    written under multi-turn leases must resume under the same lease or
    the remaining rounds would plan different work units and diverge
    from the uninterrupted run. [fallback] is the failure message of a
    corrupt primary checkpoint this snapshot replaced
    ({!load_snapshot}). The pool registry is enabled exactly when the
    snapshot's ["telemetry"] metadata key says the original campaign's
    was, so the resumed report matches the uninterrupted one. *)

val pool_run_report :
  ?meta:(string * string) list -> pool_report -> Pbse_telemetry.Report.t
(** Aggregate campaign report in the same [pbse-report/1] document
    single runs use, so [--report], [report --diff] and [--fail-on]
    work unchanged on pool runs: [pool.*] metrics (seeds, runs, turns,
    rotations, retirements, deadline, spent), merged [coverage.blocks]
    and deduplicated [bugs.*], the element-wise sum of every per-run
    scalar metric family, and a [seeds] section of per-seed rows. The
    pool scheduler's name is recorded in the metadata. Deterministic:
    identical seeded campaigns yield byte-identical JSON. *)
