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
    (default: a fresh private registry, disabled).

    The vectors live in compact coordinates: only the block ids some BBV
    mentions, renumbered in increasing order. Each distinct vector is
    stored and measured once, and one {!Kmeans.workspace} serves every
    k. All of that is exact: the division equals the one over the full
    [1 + largest id] dimensions, bit for bit. *)

type shape = {
  blocks : int; (* block ids some BBV mentions: the compact dimensions *)
  block_span : int; (* 1 + the largest block id: the dimensions before compaction *)
  distinct : int; (* distinct vectors *)
  bbvs : int;
}

val shape : Pbse_concolic.Bbv.t list -> shape
(** The reductions [divide] relies on in its default mode,
    [Bbv_with_coverage], for the given BBVs (without the coverage
    element in [blocks] and [block_span]). *)

val phase_of_interval : division -> Pbse_concolic.Bbv.t list -> int -> int option
(** [phase_of_interval division bbvs interval] maps an interval index to
    the id (cluster) of its phase; intervals with no recorded BBV map to
    the nearest earlier recorded interval; an index recorded twice maps
    to the first such BBV's cluster. Under a degenerate (empty-BBV)
    division every interval maps to the single phase. Partially applied
    to [division] and [bbvs] it builds a table over the recorded index
    range once; each interval then costs O(1). *)

val render_strip : division -> string
(** One character per BBV: cluster letter, uppercase for trap phases —
    a textual rendition of the paper's Fig. 4 colour strips. *)
