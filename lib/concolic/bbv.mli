(** Basic block vectors (BBVs).

    A BBV counts, for one virtual-time interval of a concrete execution,
    how many times each basic block was entered (Sherwood-style basic
    block distribution analysis, as used by the paper for phase
    detection). The coverage field records global block coverage at
    gathering time — the extra vector element pbSE adds so that phase
    clustering can tell "same loop, no progress" apart from "new code"
    (paper §III-B1, Fig. 4). *)

type t = {
  index : int; (* interval number, 0-based *)
  t_start : int; (* virtual time at interval start *)
  t_end : int;
  counts : (int * int) array; (* (global block id, entries), sorted by id *)
  total : int; (* sum of counts *)
  coverage : int; (* blocks covered when the interval closed *)
}

val normalized : t -> (int * float) array
(** Counts as proportions of the interval total (the paper normalises
    BBVs because only the mix of blocks matters, not the raw rate). *)

type builder

val builder : interval_length:int -> builder

val record : builder -> vtime:int -> gid:int -> unit
(** Called on every block entry; closes intervals automatically as
    [vtime] crosses interval boundaries. Counts live in an array indexed
    by [gid], grown to the largest gid seen; raises [Invalid_argument]
    on a negative [gid]. *)

val flush : builder -> coverage_at:(unit -> int) -> vtime:int -> unit
(** Force-close the current interval (used at end of execution). *)

val set_coverage_probe : builder -> (unit -> int) -> unit
(** Where to read coverage when an interval closes. *)

val bbvs : builder -> t list
(** Intervals gathered so far, oldest first. *)
