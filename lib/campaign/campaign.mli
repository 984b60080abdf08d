(** The campaign loop: scheduled, budget-reallocating execution over a
    seed pool, in deterministic rounds.

    Generic over both the policy ({!Pool_scheduler.t}) and the engine:
    caller-supplied [run]/[merge] callbacks execute one seed for one
    budgeted turn and report what happened. The loop owns all
    {!Seed_slot} counter updates (turns, granted, dwell, new_blocks,
    retired); the callbacks only execute and merge.

    [Pbse.Driver.run_pool] supplies callbacks that open a resumable
    session per seed on its first turn and step it on later ones,
    keeping this library free of any engine dependency. *)

type outcome = {
  spent : int; (* virtual time the turn consumed (may overshoot budget) *)
  new_blocks : int; (* blocks the turn added to the merged coverage set *)
  finished : bool; (* the seed's engine drained; no more turns wanted *)
}

val run_rounds :
  ?on_round:(int -> unit) ->
  ?after_round:(unit -> bool) ->
  ?lease:int ->
  ?round_wrap:((unit -> unit) -> unit) ->
  ?pool:Domain_pool.t ->
  sched:Pool_scheduler.t ->
  deadline:int ->
  jobs:(unit -> int) ->
  run:(Seed_slot.t -> budget:int -> 'r) ->
  merge:(Seed_slot.t -> budget:int -> 'r -> outcome) ->
  unit ->
  int
(** [run_rounds ~sched ~deadline ~jobs ~run ~merge ()] grants turns
    until the budget is spent or every slot is retired, and returns the
    total virtual time spent. Each iteration asks the policy to
    {!Pool_scheduler.t.plan} a whole round, clamps the round's budgets
    against the opening balance in plan order (zero shares skip-retire
    their slot without running), executes the surviving turns with
    {!Domain_pool.run} on up to [jobs] domains — each slot homed on its
    ordinal, so a seed's turns stick to one worker domain across rounds
    — then merges results at the barrier {e in plan order}: [merge]
    turns each [run] result into an {!outcome} (performing any
    shared-state merging — coverage union, bug harvest — as a side
    effect), after which the loop updates the slot's counters and
    credits the slot, or retires it when its turn finished or made no
    progress. Zero shares and progress-free turns retire their slot,
    never the campaign, so the loop always terminates. Because plans,
    clamps and merges never observe intra-round outcomes or completion
    order, the spent total, every slot counter and every merge effect
    are identical for every [jobs] value, including 1 — the
    byte-identical pool-report contract (docs/parallelism.md).

    [lease] (default 1, clamped to at least 1) coarsens work units: each
    planned turn becomes up to [lease] consecutive same-budget sub-turns
    (bounded by the remaining balance, claimed in plan order), which run
    unbroken on one worker — [run] is called once per sub-turn, in order
    — and merge sub-turn by sub-turn at the barrier. The scheduler sees
    one aggregated credit-or-retire decision per lease, so policy
    decisions and barrier overhead amortise over [lease] engine turns.
    Reports remain byte-identical across [jobs] at any fixed [lease];
    different leases are different (equally deterministic) campaigns.

    [run] executes on a worker domain and must touch only the slot's own
    session state (its runtime context); [merge] runs on the calling
    domain. [on_round] fires before each executed round with the number
    of runnable leases in it.

    [pool] is the campaign's worker pool; when omitted a private pool is
    created for the call and shut down before it returns. [jobs] is
    consulted once per round, so a caller may narrow the pool width
    mid-campaign (graceful degradation) — the width is invisible to
    plans and merges, so reports are unaffected. [after_round] fires
    after each executed round's merges; returning [false] stops the
    campaign at that barrier (checkpoint-and-halt), leaving all slot
    state consistent for a later resume.

    [round_wrap] (default [fun f -> f ()]) brackets each executed round,
    from dispatch through the last merge — a server multiplexing several
    campaigns onto one shared pool passes a fair-share arbiter here, so
    pool occupancy changes hands only at round granularity and the
    barriers inside a round (hence per-round determinism) are untouched.
    [after_round] runs outside the wrap. *)
