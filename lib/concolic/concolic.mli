(** Concolic execution (the paper's Algorithm 2).

    Runs the program once, following the seed input exactly (the
    symbolic executor's state model is the seed, so the model-preferred
    side of every branch is the concrete path), while:

    - gathering one {!Bbv.t} per virtual-time interval;
    - recording a {!Trace.t} of block entries for the Fig. 1 plots;
    - capturing every feasible not-taken branch side as a seedState — a
      ready-to-run symbolic state whose path prefix encodes "reach this
      fork along the seed path, then diverge" (paper §III-B2: this is how
      later phases are entered without re-exploring earlier ones).

    The virtual time consumed is the paper's "c-time" column. *)

type seed_state = {
  state : Pbse_exec.State.t;
  fork_vtime : int; (* when the fork point was reached *)
  fork_gid : int; (* global block id of the forking branch *)
}

type outcome =
  | Exited of int64
  | Stopped of string (* fault, abort or infeasibility *)
  | Deadline

type result = {
  bbvs : Bbv.t list;
  seed_states : seed_state list; (* chronological *)
  trace : Trace.t;
  outcome : outcome;
  c_time : int;
  blocks_entered : int;
}

val run :
  ?interval_length:int ->
  ?deadline:int ->
  Pbse_exec.Executor.t ->
  Trace.indexer ->
  result
(** [run exec ix] drives [exec]'s initial state to completion. The
    executor must have been created with the seed as its input buffer.
    [interval_length] defaults to 2000 virtual-time units; [deadline]
    bounds runaway seeds (default 5,000,000). The executor's trace hook
    is used during the run and cleared afterwards. *)
