(** Human-readable rendering of IR values and programs, used by tests,
    debugging output and golden files. *)

val binop_to_string : Types.binop -> string
val unop_to_string : Types.unop -> string

val program_to_string : Types.program -> string
(** Each function in turn: a signature line, then one indented line per
    instruction, blocks introduced by [label:]. *)
