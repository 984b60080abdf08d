(** Block-entry traces with the paper's Fig. 1 numbering.

    Blocks are labelled in order of first execution during the concrete
    run; a block first seen later (e.g. only by symbolic execution) gets
    the next free label. Plotting label against entry time reproduces the
    paper's basic-block distribution scatter plots. *)

type indexer

val indexer : unit -> indexer
(** A fresh numbering: each global block id gets the next plot index on
    first sight, and keeps it. *)

val assigned : indexer -> int
(** Number of distinct blocks seen. *)

type point = {
  vtime : int;
  bb : int; (* plot index *)
}

type t

val create : indexer -> t
val record : t -> vtime:int -> gid:int -> unit
(** Raises [Invalid_argument] on a negative [gid]. *)

val points : t -> point list
(** Chronological. *)

val to_csv : t -> string
(** "vtime,bb" lines, with header. *)
