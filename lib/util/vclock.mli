(** Virtual clock.

    The paper measures everything in wall-clock hours on a 12-core Xeon.
    We replace wall time with a deterministic counter of engine work units:
    one unit per executed instruction (concrete or symbolic) plus the
    solver's reported search effort. All pbSE mechanisms that reference
    time (BBV gathering intervals, phase turn periods, hour budgets) read
    this clock, which makes every experiment deterministic and
    hardware-independent while preserving all time ratios. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in work units. *)

val tick : t -> unit
(** Advance by one unit. *)

val advance : t -> int -> unit
(** [advance t n] adds [n >= 0] units. *)
