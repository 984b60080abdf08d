type kind =
  | Solver_unknown
  | Solver_injected
  | Exec_abort
  | Exec_injected_abort
  | Exec_exception
  | Mem_pressure
  | Concolic_injected
  | Degenerate_phase
  | Turn_timeout
  | Snapshot_corrupt
  | Resume_mismatch

let all =
  [
    Solver_unknown;
    Solver_injected;
    Exec_abort;
    Exec_injected_abort;
    Exec_exception;
    Mem_pressure;
    Concolic_injected;
    Degenerate_phase;
    Turn_timeout;
    Snapshot_corrupt;
    Resume_mismatch;
  ]

let nkinds = List.length all

let rank = function
  | Solver_unknown -> 0
  | Solver_injected -> 1
  | Exec_abort -> 2
  | Exec_injected_abort -> 3
  | Exec_exception -> 4
  | Mem_pressure -> 5
  | Concolic_injected -> 6
  | Degenerate_phase -> 7
  | Turn_timeout -> 8
  | Snapshot_corrupt -> 9
  | Resume_mismatch -> 10

let label = function
  | Solver_unknown -> "solver-unknown"
  | Solver_injected -> "solver-injected"
  | Exec_abort -> "exec-abort"
  | Exec_injected_abort -> "exec-injected-abort"
  | Exec_exception -> "exec-exception"
  | Mem_pressure -> "mem-pressure"
  | Concolic_injected -> "concolic-injected"
  | Degenerate_phase -> "degenerate-phase"
  | Turn_timeout -> "turn-timeout"
  | Snapshot_corrupt -> "snapshot-corrupt"
  | Resume_mismatch -> "resume-mismatch"

type log = int array (* per-kind counts, indexed by [rank] *)

let log_create () = Array.make nkinds 0

let record log kind = log.(rank kind) <- log.(rank kind) + 1

let count log kind = log.(rank kind)

let total log = Array.fold_left ( + ) 0 log

let summary log =
  let parts =
    List.filter_map
      (fun k ->
        let c = count log k in
        if c = 0 then None else Some (Printf.sprintf "%s=%d" (label k) c))
      all
  in
  match parts with [] -> "no faults" | _ -> String.concat " " parts

let restore_counts log pairs =
  (* campaign resume: reinstate per-kind counts from a snapshot *)
  List.iter
    (fun (lbl, c) ->
      match List.find_opt (fun k -> label k = lbl) all with
      | Some k -> log.(rank k) <- c
      | None -> ())
    pairs
