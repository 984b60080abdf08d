(** Structural validation of IR programs.

    Every program produced by the MiniC frontend or the builder is checked
    before execution: the engines assume these invariants and index arrays
    without bounds checks on the hot path. *)

val check_exn : Types.program -> unit
(** Validates program-level invariants (a valid [main] index, unique
    function names) and, in every function, register ranges, block
    targets and call targets (a callee must be a function of the program
    or an intrinsic). Raises [Invalid_argument] with every error, each
    rendered as ["func/.block: message"], when validation fails. *)
