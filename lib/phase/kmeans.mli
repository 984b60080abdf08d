(** k-means clustering over sparse vectors.

    Deterministic (seeded k-means++ initialisation, Lloyd iterations to a
    fixed point or an iteration cap). Used to group per-interval BBVs
    into program phases.

    A {!workspace} holds the vectors once per distinct vector (bitwise:
    same dimensions, same float bits) in a flat layout, plus every array
    a clustering writes, sized for the largest k it will be asked for.
    Identical vectors are at the same distance from every centroid, so
    each distance is computed once per distinct vector, and kept between
    Lloyd passes: a pass measures again only the centroids whose members
    changed. One workspace serves any number of {!run}s. *)

type vector = (int * float) array
(** Sparse: (dimension, value), sorted by dimension, no duplicates. *)

type workspace

val workspace : max_k:int -> dim:int -> vector array -> workspace
(** Raises [Invalid_argument] when [max_k < 1], [dim < 1], there are no
    vectors or a vector has a dimension outside [\[0, dim)]. *)

val distinct : workspace -> int
(** The number of distinct vectors. *)

val distance2 : workspace -> int -> float array -> float
(** [distance2 ws p c] is the squared Euclidean distance from distinct
    vector [p] (numbered in order of first occurrence) to the dense
    centroid [c] of [dim] floats. It is the kernel {!run} applies to
    every (distinct vector, centroid) pair: [|c|^2] summed in dimension
    order, then [(acc +. d*.d) -. c_i*.c_i] over the vector's entries. *)

type clustering = {
  k : int;
  assignment : int array; (* vector index -> cluster in [0, k) *)
  inertia : float; (* sum of squared distances to assigned centroids *)
}

val run : workspace -> Pbse_util.Rng.t -> k:int -> clustering
(** Raises [Invalid_argument] unless [1 <= k <= max_k]. When there are
    fewer vectors than [k], surplus clusters stay empty. The result owns
    its assignment: a later [run] does not write through it. *)
