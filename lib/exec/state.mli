(** Symbolic execution state, the unit the searchers schedule.

    A state is a program counter, a call stack of symbolic register
    frames, a persistent symbolic heap, the path condition collected so
    far, and a concrete model witnessing that condition (KLEE keeps the
    same invariant implicitly via its solver; we keep the witness inline
    so taken-branch queries are free).

    The path condition is a structured {!Pbse_pathcond.Pathcond.t}:
    forks share it persistently, and its id-set view feeds the
    block-boundary subsumption cache. *)

type frame = {
  mutable regs : Pbse_smt.Expr.t array;
  mutable shared : bool;
  (* the regs array may be visible from another state's frame; copy
     before writing ([own_frame]) *)
  ret_reg : int option;
  ret_to : (int * int * int) option; (* fidx, bidx, next instruction *)
}

type t = {
  id : int;
  mutable frames : frame list; (* innermost first; never empty while live *)
  mutable mem : Mem.t;
  mutable path : Pbse_pathcond.Pathcond.t; (* structured path condition *)
  mutable model : Pbse_smt.Model.t; (* always satisfies [path] *)
  mutable fidx : int;
  mutable bidx : int;
  mutable iidx : int;
  mutable cur_gid : int;
  (* global id of the block being executed, maintained by the executor at
     block entry; -1 before the first block. New path conditions are
     tagged with it. *)
  mutable depth : int; (* number of forks on this path *)
  mutable steps : int;
  mutable fresh_cover : bool; (* covered new code on its last slice *)
  born : int; (* virtual time of creation *)
  fork_gid : int; (* global block id of the fork that created it, -1 for roots *)
  mutable phase : int; (* pbSE phase tag; -1 when unassigned *)
  mutable needs_verify : bool;
  (* created by a lazy fork: the newest path constraint has not been
     checked for satisfiability and [model] may violate it *)
  mutable entered : bool;
  (* whether the current block's entry has been counted; false for fresh
     roots and forked children until their first slice actually runs *)
}

val create :
  id:int -> nregs:int -> mem:Mem.t -> model:Pbse_smt.Model.t -> fidx:int -> born:int -> t
(** Root state at block 0, instruction 0 of function [fidx]. *)

val fork : t -> id:int -> born:int -> fork_gid:int -> t
(** Copy-on-write fork: O(call depth), no register-array copies. Parent
    and child share regs arrays (both marked [shared]) until either side
    writes; the persistent heap and path are shared structurally as
    before (the caller then diverges the copies). *)

val own_frame : frame -> bool
(** Copy-on-write barrier: ensure the frame's regs array is exclusively
    owned, copying it if it is shared. Returns [true] iff a copy was
    made. Must be called before any in-place write to [frame.regs]. *)

val write_reg : t -> int -> Pbse_smt.Expr.t -> bool
(** Write a register of the innermost frame through the CoW barrier.
    Returns [true] iff the barrier copied the array (for stats). Raises
    [Invalid_argument] on a state with no frames. *)

val current_regs : t -> Pbse_smt.Expr.t array
(** Registers of the innermost frame, for {e reads}: the array may be
    shared with other states, so writes must go through {!write_reg} or
    {!own_frame}. Raises [Invalid_argument] on a state with no frames. *)

val assume : t -> Pbse_smt.Expr.t -> unit
(** Appends a constraint to the path condition; no feasibility check —
    callers are responsible for keeping [model] consistent. *)

val path_spine : t -> Pbse_smt.Expr.t list
(** Newest first — the physically shared spine handed to the solver
    ({!Pbse_pathcond.Pathcond.spine}). *)
