(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the engine (random searchers, k-means++
    initialisation, seed-pool sampling) draws from an explicit [Rng.t] so
    that whole experiments replay bit-for-bit from a single integer seed. *)

type t

val create : int -> t
(** [create seed] makes a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
