(* pbse — command-line front end.

   Subcommands:
     targets            list bundled target programs
     run TARGET         phase-based symbolic execution (the paper's system)
     resume SNAPSHOT    continue a checkpointed --pool campaign
     klee TARGET        baseline run with one KLEE-style searcher
     phases TARGET      concolic execution + phase division only
     bugs TARGET        bug hunt, printing each witness as a hex dump
     report FILE [B]    print a JSON run report, or diff two of them
     serve              campaign server on a Unix-domain socket
     request            client for a running `pbse serve'
     compile FILE       compile a MiniC source file and print its IR
     exec FILE          run a MiniC source file concretely on an input *)

open Cmdliner
module Registry = Pbse_targets.Registry
module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Klee = Pbse.Klee
module Executor = Pbse_exec.Executor
module Coverage = Pbse_exec.Coverage
module Bug = Pbse_exec.Bug
module Phase = Pbse_phase.Phase
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report
module Checked_file = Pbse_telemetry.Checked_file

let default_hour = 120_000

let lookup_target name =
  match Registry.by_name name with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown target %s (try: %s)" name
         (String.concat ", " (List.map (fun t -> t.Registry.name) Registry.all)))

let lookup_seed t label =
  match Registry.seed t label with
  | seed -> Ok seed
  | exception Not_found ->
    let labels = List.map fst (t.Registry.seeds @ t.Registry.buggy_seeds) in
    Error (Printf.sprintf "unknown seed %s (available: %s)" label (String.concat ", " labels))

(* --- shared arguments -------------------------------------------------------- *)

let target_arg =
  let doc = "Target program (see `pbse targets')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let seed_arg =
  let doc = "Seed label from the target's pool." in
  Arg.(value & opt string "small" & info [ "seed" ] ~docv:"LABEL" ~doc)

let hours_arg =
  let doc = "Virtual-time budget in paper-hours (one hour = 120k work units)." in
  Arg.(value & opt float 1.0 & info [ "hours" ] ~docv:"H" ~doc)

let deadline_of_hours h = int_of_float (h *. float_of_int default_hour)

let inject_arg =
  let doc =
    "Deterministic fault-injection plan: comma-separated clauses of \
     seed=N, solver=RATE, abort=RATE, mem=RATE, concolic=RATE, \
     crash=RATE (campaign turns killed at entry), snapshot=RATE \
     (checkpoint writes corrupted on disk); rates in [0,1]; see \
     docs/robustness.md."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"PLAN" ~doc)

let scheduler_arg =
  let doc =
    Printf.sprintf "Phase scheduling policy: %s."
      (String.concat ", " Pbse_sched.Scheduler.names)
  in
  Arg.(
    value
    & opt string Session.default_config.Session.search.Session.scheduler
    & info [ "scheduler" ] ~docv:"POLICY" ~doc)

let max_strikes_arg =
  let doc = "Faults a state survives before it is quarantined." in
  Arg.(
    value
    & opt int Session.default_config.Session.robust.Session.max_strikes
    & info [ "max-strikes" ] ~docv:"N" ~doc)

let intervals_target_arg =
  let doc = "BBVs aimed for when auto-sizing the concolic interval." in
  Arg.(
    value
    & opt int Session.default_config.Session.concolic.Session.intervals_target
    & info [ "intervals-target" ] ~docv:"N" ~doc)

let prefix_cap_arg =
  let doc =
    "Bound on the solver's prefix-context LRU (distinct path prefixes \
     cached per session); evictions are counted as smt.prefix_evictions."
  in
  Arg.(
    value
    & opt int Session.default_config.Session.solver.Session.prefix_cap
    & info [ "prefix-cap" ] ~docv:"N" ~doc)

let no_subsumption_arg =
  let doc =
    "Disable the block-boundary subsumption cache (unsat-core \
     interpolants; see docs/subsumption.md). Coverage and bugs are \
     unchanged either way; use for solver-work A-B comparisons."
  in
  Arg.(value & flag & info [ "no-subsumption" ] ~doc)

let no_loop_summaries_arg =
  let doc =
    "Disable closed-form loop summaries (counting-loop templates; see \
     docs/subsumption.md). Coverage and bugs are unchanged either way."
  in
  Arg.(value & flag & info [ "no-loop-summaries" ] ~doc)

let report_arg =
  let doc =
    "Enable telemetry and write the JSON run report to $(docv) \
     (schema pbse-report/1; see docs/telemetry.md). With --pool this is \
     the aggregate campaign report. Compare two reports with \
     `pbse report --diff A B'."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

(* Exit status of the command: a report that cannot be written fails
   it, even after a successful run. *)
let write_report_json ~path json =
  match Out_channel.with_open_bin path (fun oc -> output_string oc json) with
  | () ->
    Printf.printf "run report written to %s\n" path;
    0
  | exception Sys_error e ->
    (* open errors name the file, the others do not *)
    prerr_endline
      ("cannot write report: "
      ^ if String.starts_with ~prefix:path e then e else path ^ ": " ^ e);
    1

let write_report_opt report_file render =
  match report_file with
  | Some path -> write_report_json ~path (Report.to_json (render ()))
  | None -> 0

(* Telemetry is on exactly when a report will be written. *)
let report_runtime report_file config =
  Session.runtime_of_config
    ~registry:(Telemetry.Registry.create ~enabled:(report_file <> None) ())
    config

(* One shared term assembles the driver configuration for every
   subcommand that runs the engine, so flags compose identically
   everywhere and new ones are added in exactly one place. Evaluates to
   a [(Session.config, string) result]. *)
let config_term =
  let combine inject max_strikes scheduler intervals_target prefix_cap
      no_subsumption no_loop_summaries =
    if not (List.mem scheduler Pbse_sched.Scheduler.names) then
      Error
        (Printf.sprintf "unknown scheduler %s (available: %s)" scheduler
           (String.concat ", " Pbse_sched.Scheduler.names))
    else
      let config =
        Session.default_config
        |> Session.with_search (fun s -> { s with Session.scheduler })
        |> Session.with_robust (fun r -> { r with Session.max_strikes })
        |> Session.with_concolic (fun c -> { c with Session.intervals_target })
        |> Session.with_solver (fun s -> { s with Session.prefix_cap })
        |> Session.with_pathcond (fun p ->
               {
                 Session.subsumption = p.Session.subsumption && not no_subsumption;
                 loop_summaries = p.Session.loop_summaries && not no_loop_summaries;
               })
      in
      match inject with
      | None -> Ok config
      | Some spec -> (
        match Inject.parse spec with
        | Ok plan ->
          Ok (Session.with_robust (fun r -> { r with Session.inject = plan }) config)
        | Error e -> Error (Printf.sprintf "bad --inject plan: %s" e))
  in
  Term.(
    const combine $ inject_arg $ max_strikes_arg $ scheduler_arg
    $ intervals_target_arg $ prefix_cap_arg $ no_subsumption_arg
    $ no_loop_summaries_arg)

(* --- targets ------------------------------------------------------------------ *)

let targets_cmd =
  let run () =
    let table = Pbse_util.Tablefmt.create [ "name"; "package"; "blocks"; "seeds"; "planted bugs" ] in
    List.iter
      (fun t ->
        let prog = Registry.program t in
        Pbse_util.Tablefmt.add_row table
          [
            t.Registry.name;
            t.Registry.package;
            string_of_int (Pbse_ir.Types.block_count prog);
            String.concat " "
              (List.map
                 (fun (l, s) -> Printf.sprintf "%s(%dB)" l (Bytes.length s))
                 t.Registry.seeds);
            string_of_int (List.length t.Registry.planted_bugs);
          ])
      Registry.all;
    Pbse_util.Tablefmt.print table;
    0
  in
  Cmd.v (Cmd.info "targets" ~doc:"List bundled target programs")
    Term.(const run $ const ())

(* --- run (pbSE) ---------------------------------------------------------------- *)

let print_report (report : Session.report) =
  Printf.printf "seed: %d bytes; BBV interval: %d units\n" report.Session.seed_size
    report.Session.interval_length;
  Printf.printf "concolic time (c-time): %d; phase analysis (p-time): %d\n"
    report.Session.c_time report.Session.p_time;
  let division = report.Session.division in
  Printf.printf "phases: k=%d, %d trap phase(s); strip: %s\n" division.Phase.k
    division.Phase.trap_count
    (Phase.render_strip division);
  Printf.printf "seedStates scheduled: %d\n" report.Session.seed_state_count;
  Printf.printf "blocks covered: %d\n"
    (Coverage.count (Executor.coverage report.Session.executor));
  Printf.printf "faults contained: %s\n" (Fault.summary report.Session.faults);
  Printf.printf "quarantine: %d state(s) evicted, %d strike(s)\n"
    report.Session.quarantined report.Session.strikes;
  match report.Session.bugs with
  | [] -> print_endline "no bugs found"
  | bugs ->
    Printf.printf "%d bug(s):\n" (List.length bugs);
    List.iter
      (fun ((bug : Bug.t), phase) ->
        Printf.printf "  phase %d: %s\n" phase (Bug.to_string bug))
      bugs

let print_seed_rows rows =
  let table =
    Pbse_util.Tablefmt.create
      [ "seed"; "bytes"; "turns"; "granted"; "dwell"; "new-blocks"; "bugs";
        "faults"; "evicted"; "strikes"; "timeouts" ]
  in
  List.iter
    (fun (s : Report.seed_row) ->
      Pbse_util.Tablefmt.add_row table
        [
          string_of_int s.Report.ordinal;
          string_of_int s.Report.bytes;
          string_of_int s.Report.turns;
          string_of_int s.Report.granted;
          string_of_int s.Report.dwell;
          string_of_int s.Report.new_blocks;
          string_of_int s.Report.bugs;
          string_of_int s.Report.faults;
          string_of_int s.Report.quarantined;
          string_of_int s.Report.strikes;
          string_of_int s.Report.timeouts;
        ])
    rows;
  Pbse_util.Tablefmt.print table

let print_pool_campaign (report : Driver.pool_report) =
  Printf.printf "%s campaign: %d of %d seed(s) run; merged coverage: %d blocks\n"
    report.Driver.pool_scheduler
    (List.length report.Driver.runs)
    (List.length report.Driver.seed_rows)
    report.Driver.merged_coverage;
  (match Fault.summary report.Driver.pool_faults with
   | "no faults" -> ()
   | faults -> Printf.printf "pool faults: %s\n" faults);
  (* wall-clock-side contention diagnostics; deliberately absent from the
     byte-identical report JSON (docs/parallelism.md) *)
  Printf.printf "pool workers: %d turn(s) pinned, %d stolen; %d id-block refill(s)\n"
    report.Driver.pool_pinned_turns report.Driver.pool_steal_count
    report.Driver.pool_id_refills;
  if report.Driver.pool_shared_seedstates > 0 then
    Printf.printf "seedStates shared across seeds: %d skipped\n"
      report.Driver.pool_shared_seedstates;
  print_seed_rows report.Driver.seed_rows;
  List.iter
    (fun ((bug : Bug.t), phase) ->
      Printf.printf "  phase %d: %s\n" phase (Bug.to_string bug))
    report.Driver.merged_bugs

(* --checkpoint/--checkpoint-every, shared by `run --pool' and `resume' *)
let checkpoint_args =
  let path_arg =
    let doc =
      "Checkpoint the campaign to $(docv) at round barriers (schema \
       pbse-snapshot/1; previous checkpoint kept as $(docv).bak). Resume \
       with `pbse resume $(docv)'."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let every_arg =
    let doc = "Campaign turns between checkpoint writes." in
    Arg.(value & opt int 8 & info [ "checkpoint-every" ] ~docv:"K" ~doc)
  in
  let combine path every = (path, every) in
  Term.(const combine $ path_arg $ every_arg)

let build_checkpoint ~target (path, every) =
  Option.map
    (fun path -> Driver.checkpoint ~meta:[ ("target", target) ] ~path ~every ())
    path

let run_cmd =
  let pool_arg =
    let doc = "Run the whole benign seed pool as a scheduled campaign." in
    Arg.(value & flag & info [ "pool" ] ~doc)
  in
  let pool_scheduler_arg =
    let doc =
      Printf.sprintf "Seed-level scheduling policy for --pool: %s."
        (String.concat ", " Pool_scheduler.names)
    in
    Arg.(
      value
      & opt string Pool_scheduler.default
      & info [ "pool-scheduler" ] ~docv:"POLICY" ~doc)
  in
  let jobs_arg =
    let doc =
      "Domains running --pool campaign turns concurrently. Reports are \
       byte-identical for every value (docs/parallelism.md)."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let lease_arg =
    let doc =
      "Consecutive same-budget turns granted per campaign dispatch: turns \
       run unbroken on the seed's home domain and merge at the round \
       barrier, amortising barrier overhead. Recorded in checkpoints so \
       `pbse resume' continues under the same lease."
    in
    Arg.(value & opt int 1 & info [ "lease" ] ~docv:"K" ~doc)
  in
  let share_arg =
    let doc =
      "With --pool: share seedStates and solver prefix residue across the \
       campaign's sessions (a fork point another seed already published is \
       scheduled once campaign-wide). Per-run reports are only \
       jobs-invariant with sharing off; the merged campaign report stays \
       deterministic at --jobs 1."
    in
    Arg.(value & flag & info [ "share-seedstates" ] ~doc)
  in
  let run name seed_label hours pool pool_scheduler jobs lease share ck config
      report_file =
    match (lookup_target name, config) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | _, _ when pool && jobs < 1 ->
      prerr_endline "--jobs must be at least 1";
      1
    | _, _ when pool && lease < 1 ->
      prerr_endline "--lease must be at least 1";
      1
    | _, _ when pool && not (List.mem pool_scheduler Pool_scheduler.names) ->
      Printf.eprintf "unknown pool scheduler %s (available: %s)\n" pool_scheduler
        (String.concat ", " Pool_scheduler.names);
      1
    | _, _ when (not pool) && fst ck <> None ->
      prerr_endline "--checkpoint needs --pool (single runs are not checkpointed)";
      1
    | _, _ when share && not pool ->
      prerr_endline "--share-seedstates needs --pool (sharing is across a campaign's seeds)";
      1
    | Ok t, Ok config ->
      let deadline = deadline_of_hours hours in
      let meta seed_label =
        [ ("target", name); ("seed", seed_label); ("deadline", string_of_int deadline) ]
      in
      if pool then begin
        let config =
          if share then
            Session.with_search
              (fun s -> { s with Session.share_seed_states = true })
              config
          else config
        in
        let report =
          Driver.run_pool ~config ~scheduler:pool_scheduler
            ~runtime:(report_runtime report_file config)
            ~jobs ~lease
            ?checkpoint:(build_checkpoint ~target:name ck)
            (Registry.program t)
            ~seeds:(List.map snd t.Registry.seeds)
            ~deadline
        in
        print_pool_campaign report;
        write_report_opt report_file (fun () ->
            Driver.pool_run_report ~meta:(meta "pool") report)
      end
      else begin
        match lookup_seed t seed_label with
        | Error e ->
          prerr_endline e;
          1
        | Ok seed ->
          let report =
            Session.run ~config ~runtime:(report_runtime report_file config)
              (Registry.program t) ~seed ~deadline
          in
          print_report report;
          write_report_opt report_file (fun () ->
              Session.run_report ~meta:(meta seed_label) report)
      end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Phase-based symbolic execution on a target")
    Term.(
      const run $ target_arg $ seed_arg $ hours_arg $ pool_arg
      $ pool_scheduler_arg $ jobs_arg $ lease_arg $ share_arg $ checkpoint_args
      $ config_term $ report_arg)

(* --- resume ---------------------------------------------------------------------- *)

let resume_cmd =
  let snapshot_arg =
    let doc = "Campaign checkpoint written by `pbse run --pool --checkpoint'." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SNAPSHOT" ~doc)
  in
  let jobs_arg =
    let doc = "Domain-pool width; defaults to the width the snapshot records." in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let fresh_target_arg =
    let doc =
      "Fallback target when the snapshot (and its .bak) is unusable: \
       restart the campaign fresh on $(docv), recording the lost \
       checkpoint as a snapshot-corrupt fault instead of failing."
    in
    Arg.(value & opt (some string) None & info [ "fresh-target" ] ~docv:"TARGET" ~doc)
  in
  let fresh_hours_arg =
    let doc = "Virtual-time budget for a --fresh-target restart." in
    Arg.(value & opt float 1.0 & info [ "fresh-hours" ] ~docv:"H" ~doc)
  in
  let finish ~meta report_file report =
    print_pool_campaign report;
    write_report_opt report_file (fun () -> Driver.pool_run_report ~meta report)
  in
  (* total checkpoint loss: restart from nothing, fault on record *)
  let fresh_start ~detail target hours ck jobs report_file =
    match lookup_target target with
    | Error e ->
      prerr_endline e;
      1
    | Ok t ->
      let deadline = deadline_of_hours hours in
      let report =
        Driver.run_pool
          ~runtime:(report_runtime report_file Session.default_config)
          ~jobs:(Option.value jobs ~default:1)
          ?checkpoint:(build_checkpoint ~target ck)
          ~preload_faults:[ (Fault.Snapshot_corrupt, detail) ]
          (Registry.program t)
          ~seeds:(List.map snd t.Registry.seeds)
          ~deadline
      in
      finish
        ~meta:
          [ ("target", target); ("seed", "pool"); ("deadline", string_of_int deadline) ]
        report_file report
  in
  let run path jobs ck fresh_target fresh_hours report_file =
    match Driver.load_snapshot ~path with
    | Error e -> (
      match fresh_target with
      | Some target ->
        Printf.eprintf "checkpoint unusable (%s); restarting fresh on %s\n" e target;
        fresh_start ~detail:e target fresh_hours ck jobs report_file
      | None ->
        Printf.eprintf "cannot resume %s: %s\n" path e;
        1)
    | Ok (sn, fallback) -> (
      (match fallback with
       | Some why -> Printf.eprintf "primary checkpoint bad (%s); resuming from %s.bak\n" why path
       | None -> ());
      let meta_of key = List.assoc_opt key sn.Pbse_campaign.Snapshot.sn_meta in
      match meta_of "target" with
      | None ->
        prerr_endline "snapshot records no target name; cannot rebuild the campaign";
        1
      | Some target -> (
        match lookup_target target with
        | Error e ->
          prerr_endline e;
          1
        | Ok t ->
          let meta =
            [
              ("target", target);
              ("seed", "pool");
              ("deadline", Option.value (meta_of "deadline") ~default:"0");
            ]
          in
          (match
             Driver.resume_pool ?jobs
               ?checkpoint:(build_checkpoint ~target ck)
               ?fallback sn (Registry.program t)
               ~seeds:(List.map snd t.Registry.seeds)
           with
           | Ok report -> finish ~meta report_file report
           | Error e ->
             prerr_endline ("cannot resume: " ^ e);
             1)))
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Continue a checkpointed --pool campaign (crash recovery)")
    Term.(
      const run $ snapshot_arg $ jobs_arg $ checkpoint_args $ fresh_target_arg
      $ fresh_hours_arg $ report_arg)

(* --- klee ----------------------------------------------------------------------- *)

let klee_cmd =
  let searcher_arg =
    let doc = "Searcher: default, random-path, random-state, covnew, md2u, dfs, bfs." in
    Arg.(value & opt string "default" & info [ "searcher" ] ~docv:"NAME" ~doc)
  in
  let sym_size_arg =
    let doc = "Symbolic file size in bytes." in
    Arg.(value & opt int 100 & info [ "sym-size" ] ~docv:"N" ~doc)
  in
  let run name searcher sym_size hours =
    match lookup_target name with
    | Error e ->
      prerr_endline e;
      1
    | Ok t -> (
      let deadline = deadline_of_hours hours in
      match
        Klee.run (Registry.program t) ~searcher ~input:(Bytes.make sym_size '\000')
          ~checkpoints:[ deadline ]
      with
      | r ->
        Printf.printf "searcher %s, sym-%d, %.1fh: %d blocks covered, %d fork(s)\n"
          searcher sym_size hours
          (List.assoc deadline r.Klee.checkpoints)
          r.Klee.forks;
        List.iter (fun bug -> print_endline ("  " ^ Bug.to_string bug)) r.Klee.bugs;
        0
      | exception Invalid_argument msg ->
        prerr_endline msg;
        1)
  in
  Cmd.v
    (Cmd.info "klee" ~doc:"Baseline symbolic execution with one searcher")
    Term.(const run $ target_arg $ searcher_arg $ sym_size_arg $ hours_arg)

(* --- phases ---------------------------------------------------------------------- *)

let phases_cmd =
  let run name seed_label config =
    match (lookup_target name, config) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok t, Ok config -> (
      match lookup_seed t seed_label with
      | Error e ->
        prerr_endline e;
        1
      | Ok seed ->
        let prog = Registry.program t in
        let clock = Pbse_util.Vclock.create () in
        let exec = Executor.create ~clock prog ~input:seed in
        (* same interval sizing as the driver, honouring --intervals-target *)
        let interval_length = Session.interval_length_for config prog ~seed in
        let concolic =
          Pbse_concolic.Concolic.run ~interval_length exec
            (Pbse_concolic.Trace.indexer ())
        in
        let division =
          Phase.divide ~mode:config.Session.concolic.Session.mode
            ~max_k:config.Session.search.Session.max_k
            (Pbse_util.Rng.create config.Session.rng_seed)
            concolic.Pbse_concolic.Concolic.bbvs
        in
        Printf.printf "concolic run: %d virtual time units, %d BBVs, %d seedStates\n"
          concolic.Pbse_concolic.Concolic.c_time
          (List.length concolic.Pbse_concolic.Concolic.bbvs)
          (List.length concolic.Pbse_concolic.Concolic.seed_states);
        Printf.printf "division: k=%d, %d trap phase(s)\n" division.Phase.k
          division.Phase.trap_count;
        Printf.printf "strip: %s\n" (Phase.render_strip division);
        List.iter
          (fun (p : Phase.phase) ->
            Printf.printf "  phase %d: %d interval(s), longest run %d%s, first seen t=%d\n"
              p.Phase.pid (Array.length p.Phase.intervals) p.Phase.longest_run
              (if p.Phase.trap then " (TRAP)" else "")
              p.Phase.first_vtime)
          division.Phase.phases;
        0)
  in
  Cmd.v
    (Cmd.info "phases" ~doc:"Concolic execution and phase division only")
    Term.(const run $ target_arg $ seed_arg $ config_term)

(* --- bugs ------------------------------------------------------------------------- *)

let hexdump bytes =
  let buf = Buffer.create 256 in
  Bytes.iteri
    (fun i c ->
      if i mod 16 = 0 then Buffer.add_string buf (Printf.sprintf "\n    %04x: " i);
      Buffer.add_string buf (Printf.sprintf "%02x " (Char.code c)))
    bytes;
  Buffer.contents buf

let bugs_cmd =
  let run name seed_label hours config =
    match (lookup_target name, config) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok t, Ok config -> (
      match lookup_seed t seed_label with
      | Error e ->
        prerr_endline e;
        1
      | Ok seed ->
        let report =
          Session.run ~config (Registry.program t) ~seed
            ~deadline:(deadline_of_hours hours)
        in
        (match report.Session.bugs with
         | [] -> print_endline "no bugs found"
         | bugs ->
           List.iter
             (fun ((bug : Bug.t), phase) ->
               Printf.printf "phase %d: %s\n" phase (Bug.to_string bug);
               Printf.printf "  witness:%s\n" (hexdump bug.Bug.witness))
             bugs);
        0)
  in
  Cmd.v
    (Cmd.info "bugs" ~doc:"Hunt bugs with pbSE and print witness inputs")
    Term.(const run $ target_arg $ seed_arg $ hours_arg $ config_term)

(* --- report ---------------------------------------------------------------------- *)

let load_report path =
  Result.bind (Checked_file.read ~path) (fun text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (Report.of_json text))

let print_report_summary (r : Report.t) =
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) r.Report.meta;
  List.iter (fun (k, v) -> Printf.printf "%-28s %d\n" k v) r.Report.metrics;
  (match r.Report.seeds with [] -> () | rows -> print_seed_rows rows);
  match r.Report.phases with
  | [] -> ()
  | phases ->
    let table =
      Pbse_util.Tablefmt.create
        [
          "phase"; "pid"; "trap"; "seeded"; "turns"; "slices"; "new-cover";
          "dwell"; "evicted"; "subsumed"; "summarized";
        ]
    in
    List.iter
      (fun (p : Report.phase_row) ->
        Pbse_util.Tablefmt.add_row table
          [
            string_of_int p.Report.ordinal;
            string_of_int p.Report.pid;
            (if p.Report.trap then "yes" else "no");
            string_of_int p.Report.seeded;
            string_of_int p.Report.turns;
            string_of_int p.Report.slices;
            string_of_int p.Report.new_cover;
            string_of_int p.Report.dwell;
            string_of_int p.Report.quarantined;
            string_of_int p.Report.subsumed;
            string_of_int p.Report.summarized;
          ])
      phases;
    Pbse_util.Tablefmt.print table

let report_cmd =
  let file_a =
    let doc = "Run report (JSON, written by `pbse run --report')." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc)
  in
  let file_b =
    let doc = "Second report to compare against (new side of the diff)." in
    Arg.(value & pos 1 (some file) None & info [] ~docv:"B" ~doc)
  in
  let diff_flag =
    let doc = "Print a regression summary between reports $(i,A) and $(i,B)." in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let fail_on_arg =
    let doc =
      "Regression gates for a diff, e.g. \
       `coverage.blocks:-10%,solver.work:+75%': exit 1 when a metric in \
       $(i,B) drops (-N%) or grows (+N%) past its threshold relative to \
       $(i,A)."
    in
    Arg.(value & opt (some string) None & info [ "fail-on" ] ~docv:"SPEC" ~doc)
  in
  let run path_a path_b diff fail_on =
    match (path_b, diff || fail_on <> None) with
    | None, true ->
      prerr_endline "report --diff needs two report files (A and B)";
      1
    | None, false -> (
      match load_report path_a with
      | Error e ->
        prerr_endline e;
        1
      | Ok r ->
        print_report_summary r;
        0)
    | Some path_b, _ -> (
      match (load_report path_a, load_report path_b) with
      | Error e, _ | _, Error e ->
        prerr_endline e;
        1
      | Ok a, Ok b -> (
        print_string (Report.diff a b);
        match fail_on with
        | None -> 0
        | Some spec -> (
          match Report.parse_gates spec with
          | Error e ->
            prerr_endline ("bad --fail-on spec: " ^ e);
            1
          | Ok gates -> (
            match Report.check_gates gates a b with
            | [] -> 0
            | violations ->
              List.iter (fun v -> prerr_endline ("gate violated: " ^ v)) violations;
              1))))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Print a JSON run report, or diff two of them (`report --diff A B')")
    Term.(const run $ file_a $ file_b $ diff_flag $ fail_on_arg)

(* --- serve / request ----------------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the campaign server." in
  Arg.(value & opt string "/tmp/pbse.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let jobs_arg =
    let doc = "Worker domains in the server's shared campaign pool." in
    Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let store_cap_arg =
    let doc = "Rendered responses kept in the server's response store (LRU)." in
    Arg.(value & opt (some int) None & info [ "store-cap" ] ~docv:"N" ~doc)
  in
  let listen_arg =
    let doc = "Also listen on TCP $(docv) (e.g. 127.0.0.1:7199)." in
    Arg.(
      value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let store_file_arg =
    let doc =
      "Persist rendered responses to $(docv) (pbse-store/1): reloaded at \
       boot, checkpointed after each request and at shutdown, so the warm \
       cache survives a restart."
    in
    Arg.(
      value & opt (some string) None & info [ "store-file" ] ~docv:"FILE" ~doc)
  in
  let max_inflight_arg =
    let doc = "Concurrently admitted campaigns across all clients (0 = unlimited)." in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let quota_arg =
    let doc =
      "Per-client token-bucket quota: burst of $(docv) requests, refilling \
       at $(docv) per minute (0 = no quotas). Clients are keyed by the \
       request envelope's \"client\" identity."
    in
    Arg.(value & opt int 0 & info [ "quota" ] ~docv:"N" ~doc)
  in
  let run socket listen jobs store_cap store_file max_inflight quota =
    if jobs < 1 then begin
      prerr_endline "--jobs must be at least 1";
      1
    end
    else begin
      let endpoints =
        match listen with
        | None -> Ok [ Pbse_serve.Transport.Unix_socket socket ]
        | Some spec -> (
          match Pbse_serve.Transport.endpoint_of_string spec with
          | Ok tcp -> Ok [ Pbse_serve.Transport.Unix_socket socket; tcp ]
          | Error e -> Error e)
      in
      match endpoints with
      | Error e ->
        prerr_endline e;
        1
      | Ok endpoints ->
        let control = Pbse_serve.Transport.control_create () in
        let quit =
          Sys.Signal_handle
            (fun _ -> Pbse_serve.Transport.request_stop control)
        in
        Sys.set_signal Sys.sigterm quit;
        Sys.set_signal Sys.sigint quit;
        let lookup name =
          Option.map
            (fun t -> (Registry.program t, List.map snd t.Registry.seeds))
            (Registry.by_name name)
        in
        Printf.printf "pbse serve: listening on %s (%d job(s))\n%!"
          (String.concat ", "
             (List.map Pbse_serve.Transport.endpoint_to_string endpoints))
          jobs;
        let stats =
          Pbse.Serve.serve ~endpoints ~jobs ?store_cap ?store_file
            ~max_inflight ~quota_burst:quota
            ~quota_refill:(float_of_int quota /. 60.0)
            ~control ~lookup ()
        in
        Printf.printf
          "pbse serve: %d client(s), %d request(s), %d error(s), %d \
           rejection(s); store: %d hit(s), %d miss(es), %d eviction(s), %d \
           reload(s)\n"
          stats.Pbse.Serve.sv_clients stats.Pbse.Serve.sv_requests
          stats.Pbse.Serve.sv_errors stats.Pbse.Serve.sv_rejections
          stats.Pbse.Serve.sv_store_hits stats.Pbse.Serve.sv_store_misses
          stats.Pbse.Serve.sv_store_evictions stats.Pbse.Serve.sv_store_reloads;
        0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Campaign server speaking pbse-serve/2 over a Unix-domain socket \
          and optionally TCP (--listen). pbse-report/1 responses \
          byte-identical to `run --pool --report' on every transport; \
          admission control via --max-inflight/--quota; --store-file keeps \
          the response cache warm across restarts. Stops immediately on \
          SIGTERM/SIGINT.")
    Term.(
      const run $ socket_arg $ listen_arg $ jobs_arg $ store_cap_arg
      $ store_file_arg $ max_inflight_arg $ quota_arg)

let request_cmd =
  let json_arg =
    let doc =
      "Raw pbse-serve/2 request envelope (one JSON object; see \
       docs/serve.md). Overrides the individual request flags."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"JSON" ~doc)
  in
  let target_arg =
    let doc = "Target program to request a campaign for." in
    Arg.(value & opt (some string) None & info [ "target" ] ~docv:"TARGET" ~doc)
  in
  let deadline_arg =
    let doc = "Virtual-time budget of the requested campaign (work units)." in
    Arg.(value & opt int default_hour & info [ "deadline" ] ~docv:"N" ~doc)
  in
  let pool_scheduler_arg =
    let doc = "Seed-level scheduling policy for the requested campaign." in
    Arg.(
      value
      & opt string Pool_scheduler.default
      & info [ "pool-scheduler" ] ~docv:"POLICY" ~doc)
  in
  let lease_arg =
    let doc = "Consecutive same-budget turns per campaign dispatch." in
    Arg.(value & opt int 1 & info [ "lease" ] ~docv:"K" ~doc)
  in
  let out_arg =
    let doc = "Write the report JSON to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let connect_arg =
    let doc = "Connect over TCP to $(docv) instead of the Unix socket." in
    Arg.(
      value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let timeout_arg =
    let doc = "Bound the connect and every read by $(docv) seconds." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let id_arg =
    let doc = "Request id, echoed in every response frame." in
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)
  in
  let client_arg =
    let doc = "Client identity for the server's per-client quotas." in
    Arg.(value & opt (some string) None & info [ "client" ] ~docv:"NAME" ~doc)
  in
  let progress_arg =
    let doc = "Print a progress line to stderr at each campaign round." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let run socket connect json target deadline pool_scheduler lease id client
      progress timeout out =
    let line =
      match (json, target) with
      | Some json, _ -> Ok json
      | None, Some target ->
        Ok
          (Pbse_serve.Protocol.render_request
             {
               Pbse_serve.Protocol.rq_id = id;
               rq_client = client;
               rq_progress = progress;
               rq_target = target;
               rq_deadline = deadline;
               rq_pool_scheduler = pool_scheduler;
               rq_scheduler = None;
               rq_jobs = None;
               rq_lease = lease;
               rq_share = false;
             })
      | None, None -> Error "request needs --target NAME or --json REQUEST"
    in
    let endpoint =
      match connect with
      | None -> Ok (Pbse_serve.Transport.Unix_socket socket)
      | Some spec -> Pbse_serve.Transport.endpoint_of_string spec
    in
    match (line, endpoint) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok line, Ok endpoint -> (
      let on_progress round =
        if progress then Printf.eprintf "pbse request: round %d\n%!" round
      in
      match Pbse.Serve.request ?timeout ~on_progress ~connect:endpoint line with
      | Error e ->
        let retry =
          match e.Pbse.Serve.err_retry_after with
          | Some s -> Printf.sprintf " (retry after %ds)" s
          | None -> ""
        in
        Printf.eprintf "pbse request: error %s: %s%s\n" e.Pbse.Serve.err_code
          e.Pbse.Serve.err_message retry;
        1
      | Ok body -> (
        match out with
        | Some path -> write_report_json ~path body
        | None ->
          print_string body;
          0))
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one campaign request to a running `pbse serve' (pbse-serve/2 \
          envelope). Errors are structured `code: message' lines on stderr \
          with a non-zero exit.")
    Term.(
      const run $ socket_arg $ connect_arg $ json_arg $ target_arg
      $ deadline_arg $ pool_scheduler_arg $ lease_arg $ id_arg $ client_arg
      $ progress_arg $ timeout_arg $ out_arg)

(* --- compile / exec ------------------------------------------------------------------ *)

let file_arg =
  let doc = "MiniC source file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let compile_source path =
  Result.bind (Checked_file.read ~path) (fun src -> Pbse_lang.Frontend.compile_result src)

let compile_cmd =
  let run path =
    match compile_source path with
    | Ok prog ->
      print_string (Pbse_ir.Printer.program_to_string prog);
      0
    | Error msg ->
      prerr_endline msg;
      1
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a MiniC file and print its IR")
    Term.(const run $ file_arg)

let exec_cmd =
  let input_arg =
    let doc = "Input file fed to the in()/in_size() intrinsics." in
    Arg.(value & opt (some file) None & info [ "input" ] ~docv:"FILE" ~doc)
  in
  let run path input =
    match
      ( compile_source path,
        match input with
        | Some path -> Result.map Bytes.of_string (Checked_file.read ~path)
        | None -> Ok Bytes.empty )
    with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      1
    | Ok prog, Ok input ->
      let r = Pbse_exec.Concrete.run prog ~input in
      List.iter (fun v -> Printf.printf "out: %Ld\n" v) r.Pbse_exec.Concrete.output;
      (match r.Pbse_exec.Concrete.outcome with
       | Pbse_exec.Concrete.Exit code ->
         Printf.printf "exit %Ld (%d steps)\n" code r.Pbse_exec.Concrete.steps;
         Int64.to_int code land 0xFF
       | Pbse_exec.Concrete.Fault { kind; detail; _ } ->
         Printf.printf "fault: %s (%s)\n" kind detail;
         2
       | Pbse_exec.Concrete.Halted { message; _ } ->
         Printf.printf "halted: %s\n" message;
         3
       | Pbse_exec.Concrete.Out_of_fuel ->
         print_endline "out of fuel";
         4)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Run a MiniC file concretely")
    Term.(const run $ file_arg $ input_arg)

let () =
  let info =
    Cmd.info "pbse" ~version:"1.0.0"
      ~doc:"Phase-based symbolic execution (DSN 2017 reproduction)"
  in
  let group =
    Cmd.group info
      [
        targets_cmd; run_cmd; resume_cmd; klee_cmd; phases_cmd; bugs_cmd; report_cmd;
        serve_cmd; request_cmd; compile_cmd; exec_cmd;
      ]
  in
  exit (Cmd.eval' group)
