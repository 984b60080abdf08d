(** Structured fault taxonomy for the fault-contained pipeline.

    Every component failure the engine survives — a solver query giving
    up, an executor abort, a contained exception, fork suppression under
    memory pressure, a degenerate phase division — is recorded here
    instead of being silently swallowed or allowed to crash the run. The
    log is deterministic: counts are kept per kind in a fixed order, so
    two runs with the same virtual-clock history render byte-identical
    summaries. *)

type kind =
  | Solver_unknown (* a solver query exhausted its work budget *)
  | Solver_injected (* an injected solver Unknown (fault injection) *)
  | Exec_abort (* the executor aborted a state (halt, overflow, ...) *)
  | Exec_injected_abort (* an injected executor abort *)
  | Exec_exception (* an exception contained by the phase supervisor *)
  | Mem_pressure (* a fork suppressed by the live-state cap *)
  | Concolic_injected (* an injected concolic seedState drop *)
  | Degenerate_phase (* phase division fell back to one phase *)
  | Turn_timeout (* a campaign turn overran its watchdog deadline *)
  | Snapshot_corrupt (* a checkpoint failed its checksum or schema check *)
  | Resume_mismatch (* resumed state diverged from the snapshot's record *)

val all : kind list
(** Every kind, in the fixed summary order. *)

val label : kind -> string
(** Stable kebab-case name, e.g. ["solver-unknown"]. *)

val normalize_exn : exn -> string
(** Stable kebab-case label for an exception — the constructor name
    without its payload (e.g. [Failure "x"] is ["failure"]) — so fault
    details are byte-identical across runs and resumes. *)

type t = {
  kind : kind;
  detail : string;
  vtime : int; (* virtual time of the fault *)
}

type log

val log_create : ?registry:Pbse_telemetry.Telemetry.Registry.t -> unit -> log
(** [registry] owns the per-kind fault counters (default: a fresh
    private registry, disabled). *)

val record : log -> ?detail:string -> vtime:int -> kind -> unit

val count : log -> kind -> int

val total : log -> int

val recent : log -> t list
(** Most recent faults, oldest first (capped at 256). *)

val summary : log -> string
(** Deterministic one-line rendering: ["kind=count ..."] for every kind
    with a nonzero count, or ["no faults"]. *)

val restore_counts : log -> (string * int) list -> unit
(** Reinstate per-kind counts from [(label, count)] pairs recorded in a
    campaign snapshot. Unknown labels are ignored; the recent-entry ring
    is left empty (counts are the durable record) and mirrored registry
    counters are the caller's responsibility. *)
