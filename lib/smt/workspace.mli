(** Reused scratch for a solver's query preprocessing and group search:
    {!Prefix_ctx.closure}, {!Simplify.group_constraints} and
    {!Search_core}.

    One workspace belongs to one solver, and so to one session: two
    callers must not use it at once. Each call starts with {!reset},
    which opens a new epoch; a mark, parent link, queue entry or group
    of an earlier epoch counts as absent, so a call that
    [Out_of_budget] interrupted leaves nothing behind. Nothing is
    allocated per call once the buffers have grown to the largest query
    seen, apart from the groups' lists. *)

type domains = {
  mutable allowed : Bytes.t;
      (** 256 flags per group position: the value is in its domain *)
  mutable near_mask : Bytes.t;
      (** 256 flags per group position: the value is in its [near] order *)
  mutable size : int array;  (** values in the domain *)
  mutable dlo : int array;  (** lowest value in the domain *)
  mutable dhi : int array;  (** highest value in the domain *)
  mutable assigned : int array;  (** the value assigned, or [-1] *)
  mutable near : int array;
      (** 16 per group position: the values near the hint, in the order
          the search tries them *)
  mutable near_len : int array;  (** entries of [near] in use *)
}
(** The group search's per-position state, indexed by position in the
    group's sorted variables. *)

type t

val create : unit -> t

val reset : t -> unit
(** Start a new epoch: no byte or id is visited, the queue is empty,
    every byte is its own root and there are no groups. *)

(** {2 Closure} *)

val visit_byte : t -> int -> unit
(** Mark input byte [v] visited and queue it, unless it already is. *)

val visited : t -> int array
(** The bytes visited since {!reset}, in visit order, as a fresh array. *)

val next_byte : t -> int
(** The oldest queued byte, removed from the queue; [-1] when empty. *)

val visit_id : t -> int -> bool
(** Mark expression id [id] visited; [true] iff it was not yet. *)

(** {2 Grouping} *)

val find : t -> int -> int
(** Union-find root of input byte [v], compressing the path. *)

val union : t -> int -> int -> unit
(** [union t a b] links [a]'s root under [b]'s. *)

val add_to_group : t -> int -> Expr.t -> unit
(** [add_to_group t root e] puts [e] at the front of [root]'s group,
    opening the group on its first constraint. *)

val groups : t -> Expr.t list list
(** The groups, in the order [Hashtbl.fold] lists a fresh
    [Hashtbl.create 16] that maps each root to its group and gained
    each root when its group opened. *)

(** {2 Group search} *)

val domains : t -> int -> domains
(** The search scratch, grown to hold [n] group positions. Its contents
    are stale: a search sets every entry it reads. *)
