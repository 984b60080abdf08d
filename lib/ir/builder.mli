(** Programmatic IR construction with symbolic block labels.

    Used by the MiniC lowering pass and by tests that need hand-crafted
    control flow. Blocks are referred to by string label while building;
    [finish_func] resolves labels to indices and fails on dangling
    references or unterminated blocks. *)

type fb

val create_func : name:string -> nparams:int -> fb
(** Starts a function whose parameters occupy registers [0..nparams-1];
    an initial block labelled ["entry"] is open. *)

val fresh_reg : fb -> int
(** Allocates a new register slot. *)

val start_block : fb -> string -> unit
(** Closes nothing; begins a new block with the given (unique) label. The
    previous block must already be terminated. *)

val emit : fb -> Types.inst -> unit
(** Appends an instruction to the current block. *)

val jmp : fb -> string -> unit
val br : fb -> Types.operand -> string -> string -> unit
val switch : fb -> Types.operand -> (int64 * string) list -> string -> unit
val ret : fb -> Types.operand option -> unit
val halt : fb -> string -> unit

val is_terminated : fb -> bool
(** Whether the current block already has a terminator. *)

val finish_func : fb -> Types.func
(** Resolves labels. Raises [Invalid_argument] on a dangling label, a
    duplicate label or an unterminated block. *)

val program : main:string -> Types.func list -> Types.program
(** Assembles and validates a program. Raises [Invalid_argument] when
    [main] is missing or validation fails. *)
