(** Whole-program control-flow graph over basic blocks.

    Blocks are given dense global identifiers so that coverage sets,
    BBVs and searcher heuristics can use plain arrays. Edges are the
    terminator successors of each block plus an edge from any block
    containing a call to the callee's entry block — the approximation the
    md2u/covnew searchers need for distance-to-uncovered estimates. *)

type t

val build : Types.program -> t

val nblocks : t -> int
(** Total number of basic blocks in the program. *)

val id : t -> int -> int -> int
(** [id t func_index block_index] is the global block id. *)

val label : t -> int -> string
(** [label t gid] is ["func/.n"], for reports. *)

val distances_to : t -> targets:(int -> bool) -> int array
(** [distances_to t ~targets] gives, for every block, the minimum number
    of CFG edges to reach any block satisfying [targets] ([max_int] when
    none is reachable). This is the static metric behind KLEE's
    "minimum distance to uncovered" heuristics. *)
