(** Assignments of symbolic input bytes, i.e. solver models and seeds.

    A model maps input-byte indices to values in [0, 255]; unmentioned
    indices default to 0 (the engine's symbolic files are zero-filled,
    like KLEE's). Persistent, so states can share and extend models. *)

type t

val empty : t

val of_bytes : bytes -> t
(** Every byte of the buffer becomes a binding (index 0 upwards). *)

val get : t -> int -> int
val set : t -> int -> int -> t

val eval : t -> Expr.t -> int64

val satisfies : t -> Expr.t list -> bool
(** Whether every constraint evaluates truthy under the model. *)

val to_bytes : size:int -> t -> bytes
(** Concrete input file of [size] bytes (default 0). *)
