(** Baseline KLEE-style runs: one searcher, a zero-filled symbolic file of
    a chosen size, coverage sampled at virtual-time checkpoints. This is
    the comparator for the paper's Tables I and II. *)

type result = {
  searcher : string;
  checkpoints : (int * int) list; (* (virtual time, blocks covered), ascending *)
  bugs : Pbse_exec.Bug.t list;
  forks : int;
  instructions : int;
}

val run :
  Pbse_ir.Types.program ->
  searcher:string ->
  input:bytes ->
  checkpoints:int list ->
  result
(** [run prog ~searcher ~input ~checkpoints] explores with the named
    searcher until the largest checkpoint, recording coverage as each
    checkpoint passes. [input] is the symbolic file (KLEE's
    [--sym-files 1 N] corresponds to [Bytes.make n '\000']). Raises
    [Invalid_argument] on an unknown searcher name. *)
