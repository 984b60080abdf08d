(** Symbolic byte-object memory.

    Memory is a set of objects, each a fixed-size byte buffer whose cells
    hold symbolic expressions. Pointers are ordinary 64-bit values: the
    object id lives in bits 40..62 and the byte offset in bits 0..39, so
    pointer arithmetic is plain integer arithmetic and an out-of-bounds
    offset (including a negative one, which borrows into the id field) is
    detected at access time — the engine's memory-safety oracle.

    The store is persistent: forking a state shares the whole heap, and a
    write copies only the path to one object cell. *)

module Ptr : sig
  val make : int -> int -> int64
  (** [make obj off] encodes a pointer. *)

  val obj : int64 -> int
  val off : int64 -> int
  val null : int64

  val is_null : int64 -> bool
  (** True for offset-0 of object 0 — and for any "pointer" whose object
      field is 0, which is how stray small integers used as addresses are
      caught. *)
end

type fault =
  | Out_of_bounds of { obj : int; off : int; size : int; write : bool }
  | Unallocated of { obj : int; write : bool }
  | Use_after_free of { obj : int }
  | Null_access of { write : bool }
  | Bad_free of { addr : int64 }

val fault_to_string : fault -> string

type t

val empty : t

val alloc : t -> size:int -> t * int64
(** Fresh zero-initialised object; returns its base pointer. Sizes larger
    than {!max_object_size} or negative yield a null pointer and no
    allocation, modelling a failed [malloc]. *)

val max_object_size : int

val free : t -> int64 -> (t, fault) result
(** Freeing null is a no-op; freeing a non-base pointer, an unknown or an
    already-freed object is a fault. *)

val size_of : t -> int64 -> int option
(** Size of the live object the pointer refers to. *)

val load : t -> int64 -> Pbse_ir.Types.width -> (Pbse_smt.Expr.t, fault) result
(** Little-endian load at a concrete address; the result is zero-extended
    to 64 bits. *)

val store : t -> int64 -> Pbse_ir.Types.width -> Pbse_smt.Expr.t -> (t, fault) result
