(** Persistent domain pool with home-queue affinity and work-stealing.

    The turn executor behind {!Campaign.run_rounds}: worker domains are
    spawned once per campaign ({!create}) and reused for every round
    ({!run}), so a round barrier costs a condition-variable handshake
    instead of a spawn-and-join. Each round's tasks are distributed into
    per-worker queues by a caller-supplied [home] key — a seed slot that
    keeps the same key keeps the same domain, so its session's arena and
    caches stop migrating — and a worker steals from the other queues
    only after its own runs dry. {!pinned} and {!steals} count the
    split.

    Results are returned in {e input} order — completion order, worker
    identity and pinned-vs-stolen are all invisible to the caller, which
    is the determinism contract (docs/parallelism.md) — and the barrier
    handshake publishes everything the tasks wrote before {!run}
    returns.

    Tasks must not share mutable state with each other; each should own
    its session's runtime context ({!Pbse}'s [Runtime]). *)

type t
(** A pool of worker domains. The pool spawns at most
    [Domain.recommended_domain_count () - 1] domains regardless of the
    requested width — extra domains only add minor-GC synchronisation
    overhead — and must be released with {!shutdown}. *)

val create : jobs:int -> t
(** [create ~jobs] spawns a pool of up to [jobs] workers (the calling
    domain counts as one), clamped to at least 1 and at most the
    hardware's recommended domain count. *)

val run : t -> jobs:int -> home:('a -> int) -> ('a -> 'b) -> 'a list -> 'b list
(** [run t ~jobs ~home f xs] applies [f] to every element of [xs] on the
    pool's workers and returns the results in input order. At most
    [jobs] of the pool's workers participate; [jobs <= 1] runs inline on
    the calling domain. Each element is queued on worker
    [home x mod active]: tasks sharing a home key run on the same
    worker, in input order, unless another worker runs dry and steals
    them. If any application raises, the round still completes on every
    worker and then the exception of the earliest failing input is
    re-raised with its backtrace; the pool remains usable. Not
    reentrant: one [run] at a time per pool. *)

val pinned : t -> int
(** Tasks executed by their home worker since {!create} (reported as
    [pool_pinned_turns]). *)

val steals : t -> int
(** Tasks executed by a non-home worker since {!create} (reported as
    [pool_steal_count]): a high ratio of steals to pinned means home
    queues are chronically unbalanced. *)

val shutdown : t -> unit
(** Join the pool's domains. Idempotent; the pool must not be used
    afterwards. *)
