(** The catalogue of target programs: the analogs of the paper's test
    subjects, with their MiniC sources, seed pools, bug-trigger seeds and
    planted-bug ground truth. *)

type t = {
  name : string; (* test driver, e.g. "readelf" *)
  package : string; (* e.g. "binutils-2.26" *)
  source : string; (* complete MiniC source *)
  seeds : (string * bytes) list; (* labelled benign seeds *)
  buggy_seeds : (string * bytes) list; (* seeds that trigger a planted bug *)
  planted_bugs : (string * string) list; (* (label, expected fault kind) *)
  cves : (string * string) list; (* (bug label, CVE id analog) *)
}

val all : t list
val by_name : string -> t option

val program : t -> Pbse_ir.Types.program
(** Compiles (and memoizes) the target's MiniC source. *)

val seed : t -> string -> bytes
(** Raises [Not_found] when the label is unknown (checks both benign and
    buggy pools). *)

val default_seed : t -> bytes
(** The paper's heuristic applied to the benign pool: among the 10
    smallest seeds, the one with the best concrete block coverage —
    approximated here as the first labelled "small". *)

val smallest_seed : t -> bytes
(** The smallest benign seed by byte length, the first listed among
    equals. *)
