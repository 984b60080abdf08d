(** Unsigned 64-bit intervals: learned per-byte bounds.

    An interval [{lo; hi}] denotes all 64-bit values [v] with
    [lo <=u v <=u hi]. The solver learns such bounds for input bytes
    ({!Prefix_ctx.bound}) and seeds its search domains with them. The
    interval analysis itself runs on a constraint's compiled tape
    ({!Tape}), whose step holds the interval rules in unboxed registers. *)

type t = private {
  lo : int64;
  hi : int64;
}

val make : int64 -> int64 -> t
(** Raises [Invalid_argument] unless [lo <=u hi]. *)
