(** Sound unsigned interval analysis over symbolic expressions.

    An interval [{lo; hi}] denotes all 64-bit values [v] with
    [lo <=u v <=u hi]. The analysis is the solver's pruning engine: if a
    path constraint's interval is exactly [0, 0] under the current
    domains, the constraint is definitely violated. Signed operators are
    handled precisely when operands provably stay in the non-negative
    half-range and conservatively otherwise. *)

type t = private {
  lo : int64;
  hi : int64;
}

val make : int64 -> int64 -> t
(** Raises [Invalid_argument] unless [lo <=u hi]. *)

val point : int64 -> t
val byte_any : t
(** The interval [0, 255]: any input byte. *)

val byte_point : int -> t
(** [byte_point v] is [point v] for a byte [v] in [0, 255], returned from
    one shared table, so byte lookups allocate nothing. Raises
    [Invalid_argument] outside that range. *)

val hull : t -> t -> t

val definitely_true : t -> bool
(** The interval excludes 0, so any expression with this interval is a
    satisfied condition. *)

val definitely_false : t -> bool
(** The interval is exactly [0, 0]. *)

val binop : Pbse_ir.Types.binop -> t -> t -> t
val unop : Pbse_ir.Types.unop -> t -> t

val eval : (int -> t) -> Expr.t -> t
(** [eval lookup e] where [lookup i] bounds input byte [i]. An
    [Expr.walkable] expression (at most 256 tree nodes) costs at most
    [e.nodes] steps; any other is memoised across shared subexpressions
    within the call. Both walks compute the same
    interval: the analysis is pure and total, so skipping the memo
    changes no value. *)
