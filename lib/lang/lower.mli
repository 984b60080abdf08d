(** Lowering from the MiniC AST to IR.

    Performs the semantic checks (unknown identifiers and functions, arity
    mismatches, duplicate definitions, break/continue outside loops,
    builtin misuse) and emits IR through {!Pbse_ir.Builder}. Short-circuit
    [&&]/[||] and [assert] become control flow; builtin calls become the
    corresponding instructions (see the table in the library README). *)

exception Error of string * Ast.pos

val lower_program : Ast.program -> Pbse_ir.Types.program
(** Raises [Error] on a semantic error and [Invalid_argument] when there
    is no [main] function. *)
