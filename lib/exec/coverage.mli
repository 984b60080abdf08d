(** Global basic-block coverage, the paper's headline metric.

    Tracks which global block ids (see {!Pbse_ir.Cfg}) have ever been
    entered by any execution state, plus a version counter the heuristic
    searchers use to know when to refresh their distance maps. *)

type t

val create : int -> t
(** [create nblocks]. *)

val cover : t -> int -> bool
(** Marks a block covered; returns whether it was new. *)

val is_covered : t -> int -> bool
val count : t -> int

val version : t -> int
(** Increments every time a new block is covered. *)

val covered_ids : t -> int list
(** Sorted ids of covered blocks. *)
