(** One-call MiniC compilation pipeline: lex, parse, check, lower,
    validate. *)

exception Error of string
(** Carries a rendered message including the source position. *)

val compile : string -> Pbse_ir.Types.program
(** [compile src] compiles a MiniC source string whose entry function is
    [main]. Raises {!Error}. *)

val compile_result : string -> (Pbse_ir.Types.program, string) result
