(** Zero-dependency metrics substrate.

    Registries of named instruments: monotonic counters, gauges, latency
    histograms with fixed log-scale buckets, and span timers. A
    {!Registry.t} is a first-class value — every context-threaded layer
    (docs/parallelism.md) owns a private registry, so parallel campaign
    turns never share instrument state; {!Registry.merge_into} folds
    per-session registries into an aggregate under commutative,
    associative merge laws. Instruments are created once (per name, per
    registry) and mutated on hot paths; every mutation is gated on the
    owning registry's enabled flag, so the zero-telemetry path costs one
    boolean load and allocates nothing.

    All quantities are integers measured in deterministic units (counts,
    work units, virtual-clock ticks) — never wall clock — so two runs
    with the same seed produce byte-identical snapshots. Snapshots are
    sorted by instrument name, making serialisation order independent of
    creation order.

    Registries (and their instruments) are not thread-safe: each domain
    must mutate only registries it owns, merging at a barrier. *)

(** {1 Instruments} *)

type counter
type gauge
type histogram
type span

type histogram_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : int;
  hs_min : int; (* 0 when empty *)
  hs_max : int; (* 0 when empty *)
  hs_buckets : (int * int) list; (* (bucket index, count), nonzero only *)
}

(** {1 Registries} *)

module Registry : sig
  type t

  val create : ?enabled:bool -> unit -> t
  (** A fresh, empty registry (disabled unless [enabled]). Enablement is
      fixed at creation: a run that wants instruments is handed an
      enabled registry. *)

  val enabled : t -> bool

  val counter : t -> string -> counter
  (** Registers (or returns the existing) counter under [name]. *)

  val gauge : t -> string -> gauge
  val histogram : t -> string -> histogram
  val span : t -> string -> span

  val merge_into : into:t -> t -> unit
  (** Fold [src] into [into], creating missing instruments: counters and
      spans add, gauges keep the max, histograms add bucket-wise with
      min/max hulls. Commutative and associative; ignores the enabled
      gates. *)

  val snapshot_counters : t -> (string * int) list
  (** Every registered counter, sorted by name (zeros included). *)

  val restore_counters : t -> (string * int) list -> unit
  (** Reinstate values captured by {!snapshot_counters} (campaign
      resume), creating missing counters. Like {!merge_into} this
      bypasses the enabled gate: the snapshot is authoritative. *)

  val snapshot_gauges : t -> (string * int) list

  val snapshot_spans : t -> (string * int * int) list
  (** (name, count, total elapsed), sorted by name. *)

  val snapshot_histograms : t -> histogram_snapshot list
  (** Sorted by name; empty histograms are skipped. *)
end

(** {1 Mutation}

    Gated on the owning registry's enabled flag. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** {2 Histograms}

    Fixed log2-scale buckets: bucket 0 holds values [<= 0]; bucket [i]
    ([i >= 1]) holds values in [[2^(i-1), 2^i - 1]]. The top bucket
    absorbs everything above its lower bound, so [max_int] lands in
    bucket [nbuckets - 1]. *)

val nbuckets : int

val bucket_index : int -> int
(** Total: negative values and 0 map to bucket 0; huge values clamp to
    the top bucket. *)

val bucket_lo : int -> int
(** Inclusive lower bound of a bucket (0 for bucket 0). *)

val observe : histogram -> int -> unit
val histogram_snapshot : histogram -> histogram_snapshot

(** {2 Spans}

    A span accumulates the duration of a timed section under a
    caller-supplied monotonic clock (virtual time in this codebase; a
    span never reads the wall clock itself). *)

val with_span : span -> now:(unit -> int) -> (unit -> 'a) -> 'a
(** Runs the thunk, charging [now () - now ()] elapsed units to the span
    (also on exception). When the owning registry is disabled this is
    exactly [f ()]. *)

val span_count : span -> int
val span_total : span -> int
