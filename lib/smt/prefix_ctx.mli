(** Incremental prefix contexts for {!Solver.check_assuming}.

    Nearly every query of symbolic execution extends an already-seen
    path prefix by a handful of constraints (the pins and branch
    conditions assumed since the state's previous query, a sibling
    fork's shared prefix, a verify retry). A prefix context indexes a
    path once and is {e extended} — never rebuilt — as paths grow;
    contexts are persistent maps, so an extension costs O(delta) and
    shares the rest with its parent. Each context carries:

    - a by-byte index for O(component) closure computation (a
      constraint's own reads are not stored: {!closure} asks [reads]);
    - learned per-byte intervals (endpoint trimming against each added
      constraint), used as initial search domains;
    - the last Sat model produced under the prefix (inherited across
      extensions while it satisfies the delta, checked on the added
      constraint's tape), a candidate witness.

    Lookup walks the path's physical spine: paths are persistent
    cons-lists shared between a state and its forks, so identity
    comparison finds the deepest indexed prefix without comparing
    constraint sets. The table is a bounded LRU: at [cap] entries the
    least-recently-used quarter is dropped in one batch, so long
    campaigns keep their hot prefixes instead of resetting wholesale.
    Eviction is deterministic for a given query sequence (the LRU clock
    is per-context, never wall time). *)

type entry

type t

val create : ?cap:int -> unit -> t
(** [cap] bounds the number of cached contexts (default 16384, floor 16). *)

val evictions : t -> int
(** Total contexts dropped by the LRU bound since creation. *)

type outcome = {
  ctx : entry;
  reused : bool; (* an indexed prefix (exact or ancestor) served as base *)
  built : int; (* contexts constructed by this call *)
  cost : int; (* work units construction spent (charge to the meter) *)
}

val find_or_build :
  t -> reads:(Expr.t -> int list) -> tape:(Expr.t -> Tape.t) -> Expr.t list -> outcome
(** Context for this exact path (newest first, as stored on states).
    [reads c] is [c]'s sorted, distinct input bytes and [tape c] its
    compiled tape, on which an added constraint's learned bounds are
    trimmed and the parent's witness is checked.
    Walks down to the deepest indexed prefix, then extends upward,
    caching every intermediate context; [cost] is reported rather than
    charged so the caller can meter it {e after} the contexts are safely
    cached (an out-of-budget retry then hits instead of rebuilding). *)

val closure :
  Workspace.t ->
  entry ->
  reads:(Expr.t -> int list) ->
  spend:(int -> unit) ->
  Expr.t list ->
  Expr.t list
(** [closure w e ~reads ~spend extra] — [extra] plus every prefix
    constraint transitively sharing an input byte with it (BFS over the
    by-byte index, marking in the workspace [w]), newest selection
    first. [reads c] gives the bytes a selected constraint adds to the
    search; it must be the function [e] was built with. [spend] is charged once per selected prefix constraint. *)

val bound : entry -> int -> Interval.t option
(** Learned interval for an input byte, if any tightening was found.
    Sound for any query whose constraint set includes the prefix
    constraints reading that byte — which {!closure} guarantees. *)

val model : entry -> Model.t option
(** Last Sat model produced under this prefix (or inherited from an
    ancestor whose model satisfies the delta). It satisfies the whole
    prefix by construction, so it is a valid witness whenever it also
    satisfies the new query's extra constraints. *)

val note_model : entry -> Model.t -> unit
