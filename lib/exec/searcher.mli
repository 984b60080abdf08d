(** State-selection strategies (KLEE's "searchers").

    The executor asks the searcher which state to run next; the searcher
    learns about new, forked and finished states through callbacks. All
    strategies from the paper's Table I are implemented, selected by
    name ({!by_name}):

    - ["dfs"] / ["bfs"]: newest / oldest state first;
    - ["random-state"]: uniform over pending states;
    - ["random-path"]: KLEE's execution-tree walk — from the root, pick
      a random child at every branch until a leaf state is reached,
      which biases towards shallow, rarely-visited subtrees;
    - ["covnew"] and ["md2u"]: weighted-random heuristics based on the
      static minimum distance to uncovered code (md2u), with [covnew]
      boosting states that recently covered new instructions;
    - ["default"]: KLEE's default, random-path interleaved with covnew
      ({!interleave}). *)

type t = {
  name : string;
  add : State.t -> unit;
  fork : parent:State.t -> State.t -> unit;
  remove : State.t -> unit;
  select : unit -> State.t option;
  size : unit -> int;
}

val interleave : string -> t list -> t
(** Round-robin over sub-searchers: shares the state set across them,
    alternating selection. *)

val default : Pbse_util.Rng.t -> Pbse_ir.Cfg.t -> Coverage.t -> t
(** KLEE's default: random-path and covnew, interleaved. *)

val names : string list
(** All selectable searcher names. *)

val by_name :
  string -> (Pbse_util.Rng.t -> Pbse_ir.Cfg.t -> Coverage.t -> t) option
(** Factory lookup: "dfs", "bfs", "random-state", "random-path",
    "covnew", "md2u", "default". *)
