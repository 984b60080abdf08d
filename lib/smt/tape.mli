(** A path constraint compiled once into a flat evaluation tape.

    Compilation numbers the constraint's input bytes (its sorted
    {!Expr.reads}), its constants and every other distinct DAG node with
    one slot each, and lists the computed slots in postorder. An
    evaluation sets the read slots, then runs the list once: each step
    reads its operands' slots and writes its own. Values live unboxed in
    register buffers that every evaluation of the tape reuses, so an
    evaluation allocates nothing and one tape must not be evaluated by two
    callers at once (the solver keeps one tape cache per session).

    Two evaluations share the tape:

    - {b exact}: 64-bit values under {!Semantics}, the one definition of
      the operators, so the tape agrees with {!Expr.eval};
    - {b interval}: a sound unsigned interval analysis. A slot holds every
      value [v] with [lo <=u v <=u hi]; signed operators are precise when
      both operands provably stay in the non-negative half-range and
      conservative otherwise; an [Or] of operands with disjoint possible
      bits ({!Expr.bits}) is bounded as an addition, which keeps
      multi-byte little-endian field reads exact.

    Every slot is evaluated once per run, both arms of an [Ite]
    included: the semantics is pure and total, so the root's value is the
    one a walk of the taken arm gives. *)

type t

val compile : Expr.t -> t

val reads : t -> int array
(** The input indices the constraint reads, sorted and distinct. Read [k]
    of the setters below is input byte [(reads t).(k)]. *)

val set_interval : t -> int -> int -> int -> unit
(** [set_interval t k lo hi]: read [k] ranges over the bytes
    [lo <= v <= hi], with [0 <= lo <= hi <= 255]. *)

val set_value : t -> int -> int -> unit
(** [set_value t k v]: read [k] is the byte [v land 0xFF]. *)

val falsified : t -> bool
(** Run the interval tape: the constraint's interval is exactly [0, 0],
    so it is violated under every assignment within the read intervals. *)

val interval : t -> Interval.t
(** Run the interval tape and return the constraint's interval. *)

val first_unfalsified : t -> int -> int -> int -> int
(** [first_unfalsified t k lo hi], with every read but [k] already set:
    the least byte [v] in [lo, hi] at which {!falsified} is false once
    read [k] is set to the point [v, v]; [hi + 1] when there is none
    ([lo] when the range is empty). It answers what that walk upward
    from [lo] answers, but proves a block of bytes falsified with one
    interval run over the block whenever every [Add], [Sub] and
    disjoint-bits [Or] operand of that run lies in one sign half, below
    [2^63] or strictly above it: every other interval step is
    inclusion-isotone, and those three pick their arithmetic from their
    operands' signs. After two point runs it gallops over doubling
    blocks and halves a block it cannot prove, so a trim of [n] bytes
    whose blocks the intervals prove costs O(log n) runs. Read [k]'s
    interval is left as the last run set it. *)

val last_unfalsified : t -> int -> int -> int -> int
(** The mirror of {!first_unfalsified}, walking down from [hi]: the
    greatest such byte in [lo, hi]; [lo - 1] when there is none ([hi]
    when the range is empty). *)

val holds : t -> bool
(** Run the exact tape: the constraint is truthy under the read values. *)

val value : t -> int64
(** Run the exact tape and return the constraint's value. *)
