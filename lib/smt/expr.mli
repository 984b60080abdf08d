(** Hash-consed symbolic expressions over 64-bit values.

    Leaves are 64-bit constants and [Read i] — the i-th byte of the
    symbolic input file, always in [0, 255]. Operators are exactly the IR
    operators (their semantics is {!Semantics}), plus if-then-else.

    Hash-consing gives every structurally distinct expression a unique
    [id]; equality is O(1), and sets of expressions (path conditions,
    solver caches) key on ids. Smart constructors constant-fold and apply
    algebraic simplifications, so a fully concrete computation never
    allocates a symbolic node. {!const} looks in a small direct-mapped
    cache of the arena's constants before the hash-consing table; a hit
    is the node the table holds, so the cache changes no id. *)

type t = private {
  id : int;
  node : node;
  max_read : int; (* largest input index read; -1 when concrete *)
  nodes : int;
  (* tree size (a shared subterm counts once per occurrence), for
     budget heuristics; wraps around on deep self-sharing DAGs *)
  walkable : bool;
  (* at most 256 tree nodes: {!eval} walks the tree with no memo table,
     in at most [nodes] steps. False whenever [nodes] wrapped around,
     even back into range. *)
  bits : int64;
  (* sound superset of the bits the value can have set; when non-negative
     it doubles as an unsigned upper bound. Lets the solver treat
     disjoint-bit [Or] compositions (little-endian field reads) exactly. *)
}

and node =
  | Const of int64
  | Read of int
  | Bin of Pbse_ir.Types.binop * t * t
  | Un of Pbse_ir.Types.unop * t
  | Ite of t * t * t

val const : int64 -> t
val of_int : int -> t
val zero : t
val one : t

val read : int -> t
(** [read i] is input byte [i]; raises [Invalid_argument] on negative [i]. *)

val bin : Pbse_ir.Types.binop -> t -> t -> t
val un : Pbse_ir.Types.unop -> t -> t
val ite : t -> t -> t -> t

val lognot : t -> t
(** Boolean negation: comparison nodes flip to their complements, any
    other expression [e] becomes [e == 0]. [lognot (lognot e)] is truthy
    exactly when [e] is. *)

val is_const : t -> int64 option

val eval : (int -> int) -> t -> int64
(** [eval lookup e] evaluates under the byte assignment [lookup]
    (values are masked to [0, 255]); of an [Ite], only the taken branch
    is evaluated. A [walkable] expression (at most 256 tree nodes) costs
    at most [e.nodes] steps; any other is memoised across shared
    subexpressions within the call. Both walks compute the same value:
    the semantics is pure and total, so skipping the memo changes no
    value. *)

val to_string : t -> string

(** {1 Arenas}

    Interning is arena-scoped: every expression is hash-consed in the
    arena currently installed in the running domain (each domain starts
    with a private default arena). A driver session owns one arena and
    re-installs it before every turn, so its interning — and therefore
    every id-keyed solver cache — behaves identically no matter which
    domain executes the turn. Ids are allocated in per-domain blocks
    (the hot interning path bumps a domain-local cell; only a block
    refill touches the process-wide cursor): blocks are disjoint, so
    ids are globally unique and id equality implies physical equality
    even for expressions crossing arenas (the module-level constants) —
    but ids are not dense or allocation-ordered across domains, so
    id-keyed structures must be renaming-invariant, using only id
    equality, never id order or contiguity (all solver caches are). *)

type arena

val arena : unit -> arena
(** A fresh, empty interning arena. *)

val use_arena : arena -> unit
(** Install [a] as the running domain's interning arena. *)

val id_block_refills : unit -> int
(** Process-wide count of id-block refills since startup: how many times
    any domain exhausted its private id range and claimed a fresh block
    from the shared cursor. One refill per [8192] interned nodes per
    domain — a hot-path contention diagnostic (reported as the pool
    report's [pool_id_refills]). Monotonic; diff two readings to scope a
    campaign. *)
