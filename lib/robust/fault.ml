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

(* Fault details feed dedup keys and resume replay, so they must not
   depend on Printexc's payload rendering (addresses, arguments, ...):
   map an exception to a stable kebab-case label instead. *)
let normalize_exn exn =
  match exn with
  | Failure _ -> "failure"
  | Invalid_argument _ -> "invalid-argument"
  | Not_found -> "not-found"
  | Division_by_zero -> "division-by-zero"
  | Stack_overflow -> "stack-overflow"
  | Out_of_memory -> "out-of-memory"
  | Assert_failure _ -> "assert-failure"
  | Match_failure _ -> "match-failure"
  | End_of_file -> "end-of-file"
  | Sys_error _ -> "sys-error"
  | exn ->
    (* constructor name only: cut the payload, kebab-case the rest *)
    let s = Printexc.to_string exn in
    let cut =
      match String.index_opt s '(' with Some i -> i | None -> String.length s
    in
    let s = String.trim (String.sub s 0 cut) in
    let b = Bytes.of_string (String.lowercase_ascii s) in
    Bytes.iteri
      (fun i c ->
        let keep =
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' || c = '-'
        in
        if not keep then Bytes.set b i '-')
      b;
    let s = Bytes.to_string b in
    if s = "" then "exception" else s

type t = {
  kind : kind;
  detail : string;
  vtime : int;
}

(* Recent entries are a two-block ring (newest-first): [cur] fills to
   [max_recent], then displaces [older] wholesale. Records stay O(1) and
   {!recent} always has the latest [max_recent..2*max_recent) entries to
   pick from. *)
type log = {
  counts : int array;
  mutable cur : t list; (* newest first *)
  mutable cur_len : int;
  mutable older : t list; (* previous full block, newest first *)
}

let max_recent = 256

let log_create () = { counts = Array.make nkinds 0; cur = []; cur_len = 0; older = [] }

let record log ?(detail = "") ~vtime kind =
  log.counts.(rank kind) <- log.counts.(rank kind) + 1;
  log.cur <- { kind; detail; vtime } :: log.cur;
  log.cur_len <- log.cur_len + 1;
  if log.cur_len >= max_recent then begin
    log.older <- log.cur;
    log.cur <- [];
    log.cur_len <- 0
  end

let count log kind = log.counts.(rank kind)

let total log = Array.fold_left ( + ) 0 log.counts

let recent log =
  let newest_first = log.cur @ log.older in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  List.rev (take max_recent newest_first)

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
  (* campaign resume: reinstate per-kind counts from a snapshot. The
     recent-entry ring is not restored (counts are the durable record). *)
  List.iter
    (fun (lbl, c) ->
      match List.find_opt (fun k -> label k = lbl) all with
      | Some k -> log.counts.(rank k) <- c
      | None -> ())
    pairs
