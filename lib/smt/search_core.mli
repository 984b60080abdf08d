(** The solving core: budgeted backtracking over per-byte domains.

    Every constraint is evaluated on its compiled {!Tape}: exactly in the
    hint probe and once all the bytes it reads are assigned, as intervals
    while domains are narrowed and while some of its bytes are free.
    Stateless apart from the caller's {!meter}, the tapes' registers and
    the caller's {!Workspace}: the probe and search mutate nothing else,
    so {!Solver} keeps all caches (the tapes included) and statistics. *)

exception Out_of_budget

type meter = {
  mutable spent : int;
  limit : int;
}

val meter : limit:int -> meter

val spend : meter -> int -> unit
(** Charge work units; raises {!Out_of_budget} past [limit]. *)

type group
(** A set of constraints over the input bytes they mention, with each
    constraint's tape and the group position of each byte the tape
    reads, indexed for propagation by byte. *)

val build_group : Workspace.t -> tape:(Expr.t -> Tape.t) -> Expr.t list -> group
(** [tape e] is [e]'s compiled tape, usually from the solver's
    per-session cache; the probe and search load and run it in place.
    The group's bytes are collected in the workspace, so this starts a
    new workspace epoch. *)

val group_vars : group -> int array
(** Sorted input indices the group constrains. *)

type group_result =
  | Gsat of (int * int) list (* input index, value *)
  | Gunsat
  | Gunknown

val solve_group :
  Workspace.t ->
  on_node:(unit -> unit) ->
  meter ->
  hint:Model.t ->
  focus:int list ->
  bounds:(int -> Interval.t option) ->
  group ->
  group_result
(** Probe the hint's neighbourhood on the [focus] bytes first, then run
    interval propagation plus depth-first search. [bounds] supplies
    externally learned per-byte intervals (e.g. a prefix context's),
    intersected into the initial domains; sound as long as each bound is
    implied by constraints present in the group. [on_node] fires once
    per search-tree node (the caller's statistics hook). The search
    keeps its byte domains in the workspace, so a probe, a check or an
    assignment allocates nothing. *)

val replay_key :
  meter ->
  hint:Model.t ->
  focus:int list ->
  bounds:(int -> Interval.t option) ->
  group ->
  int array
(** Everything {!solve_group} reads apart from the meter's limit, so
    two calls under one limit with equal keys spend the same work, count
    the same nodes and end the same way. The layout is
    [[| spent; n; id_1; ...; id_n; h_1; ...; h_m; lo_1; hi_1; ...;
    lo_m; hi_m; f_1; ...; f_k |]]: the work spent on entry, the
    constraint count and ids in order, then for each of the [m] group
    variables (ascending) its hint byte, then its learned bound
    ([-1], [-1] when there is none), then the group positions of the
    focus bytes that are in the group, in order. *)
