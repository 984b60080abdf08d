(** Structured per-run reports.

    A report is a flat, ordered bag of integer metrics plus string
    metadata, per-phase rows, and histogram snapshots. The driver builds
    one at the end of an instrumented run; the CLI serialises it with
    [--report FILE] and compares two with [report --diff A B].

    Serialisation is deterministic: field order is the construction
    order, integers only, no timestamps — two runs with the same seed
    render byte-identical JSON (the telemetry determinism test pins
    this). Schema documented in docs/telemetry.md. *)

type phase_row = {
  ordinal : int; (* 1-based scheduling order *)
  pid : int; (* cluster id from the phase division *)
  trap : bool;
  seeded : int; (* seedStates initially mapped into the phase *)
  turns : int; (* scheduler turns granted *)
  slices : int; (* state slices executed during those turns *)
  new_cover : int; (* slices that covered a new block *)
  dwell : int; (* virtual time spent inside the phase's turns *)
  quarantined : int; (* states evicted while this phase ran *)
  subsumed : int; (* states pruned by the subsumption cache in its turns *)
}
(** [subsumed] defaults to 0 when parsing pre-pathcond documents, and
    keys the row no longer has are ignored, so old reports stay
    readable. *)

type seed_row = {
  ordinal : int; (* 1-based pool order (smallest seed first) *)
  bytes : int; (* seed size *)
  turns : int; (* campaign turns granted *)
  granted : int; (* budget granted across those turns *)
  dwell : int; (* virtual time actually consumed *)
  new_blocks : int; (* blocks this seed added to the merged set *)
  bugs : int; (* merged bugs first found under this seed *)
  faults : int; (* contained faults in this seed's engine *)
  quarantined : int; (* quarantine evictions during its turns *)
  strikes : int; (* quarantine strikes during its turns *)
  timeouts : int; (* watchdog strikes: overran or crashed turns *)
}
(** Per-seed row of an aggregate pool report ([Driver.pool_run_report]).
    Single-run reports leave [seeds] empty and serialise exactly as
    before the pool extension. *)

type t = {
  meta : (string * string) list;
  metrics : (string * int) list;
  phases : phase_row list;
  seeds : seed_row list;
  histograms : Telemetry.histogram_snapshot list;
}

val to_json : t -> string
(** Pretty-printed JSON document, schema ["pbse-report/1"] (trailing
    newline). *)

val of_json : string -> (t, string) result
(** Parses what {!to_json} emitted; unknown fields are ignored, a wrong
    schema string is an error. *)

val metric : t -> string -> int
(** Metric lookup; 0 when absent (so diffs treat a missing metric as a
    zero baseline). *)

val diff : t -> t -> string
(** Human-readable regression summary between two reports: changed
    metadata, every changed metric with absolute and percent delta,
    per-phase dwell/coverage movement, and — for aggregate pool
    reports — per-seed turn/dwell/new-block movement. *)

type gate
(** One regression threshold on a metric: [+N] fails when the metric
    grows by more than N% from A to B, [-N] when it drops by more. *)

val parse_gates : string -> (gate list, string) result
(** Parses a comma-separated spec like
    ["coverage.blocks:-10%,solver.work:+75%"]; the [%] suffix is
    optional, a zero threshold is an error. *)

val check_gates : gate list -> t -> t -> string list
(** Violation messages for each gate B breaks relative to A (empty list:
    all gates hold). Integer arithmetic throughout, so CI gating is
    deterministic. An absent metric counts as zero on either side. *)
