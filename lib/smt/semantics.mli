(** Scalar semantics of IR operators over 64-bit values.

    This is the single definition shared by the concrete interpreter, the
    symbolic expression constant-folder and the solver's evaluator, so the
    three can never disagree. All operations are total:

    - division by zero yields 0, remainder by zero yields the dividend
      (the executors raise a division bug before ever evaluating these);
    - shifts by 64 or more yield 0 (arithmetic right shift yields the
      smeared sign bit);
    - [Int64.min_int / -1] yields [Int64.min_int] (two's-complement wrap);
    - comparisons yield 1 or 0. *)

val binop : Pbse_ir.Types.binop -> int64 -> int64 -> int64
val unop : Pbse_ir.Types.unop -> int64 -> int64

val unsigned_div : int64 -> int64 -> int64
(** [Int64.unsigned_div] by a nonzero divisor, inlined where the caller
    is compiled with cross-module inlining, so its operands stay
    unboxed. *)

val truthy : int64 -> bool
(** Branch-condition interpretation: any nonzero value is true. *)
