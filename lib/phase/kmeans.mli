(** k-means clustering over sparse vectors.

    Deterministic (seeded k-means++ initialisation, Lloyd iterations to a
    fixed point or an iteration cap). Used to group per-interval BBVs
    into program phases. *)

type vector = (int * float) array
(** Sparse: (dimension, value), sorted by dimension, no duplicates. *)

val norm2 : float array -> float
(** Squared norm of a dense centroid, summed in dimension order. O(dim). *)

val distance2_with_norm : vector -> float array -> float -> float
(** [distance2_with_norm v c (norm2 c)] is the squared Euclidean
    distance between the sparse vector [v] and the dense centroid [c],
    in O(nnz(v)): [cluster] computes each centroid's norm once per pass
    and calls this for every (vector, centroid) pair. *)

type clustering = {
  k : int;
  assignment : int array; (* vector index -> cluster in [0, k) *)
  centroids : float array array;
  inertia : float; (* sum of squared distances to assigned centroids *)
}

val cluster :
  Pbse_util.Rng.t -> k:int -> dim:int -> vector array -> clustering
(** Raises [Invalid_argument] when [k < 1], [dim < 1] or there are no
    vectors. When there are fewer vectors than [k], surplus clusters stay
    empty. *)
