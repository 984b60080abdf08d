(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-III, Figures 1, 4, 5) and the ablations listed in
   DESIGN.md, checks their shapes against EXPERIMENTS.md ([claims]), and
   times the engine's layers ([kernels]).

   Wall-clock hours are modelled by a virtual-time budget: one "hour" is
   PBSE_HOUR work units (default 120_000; see DESIGN.md "Virtual time
   model"). Absolute numbers therefore differ from the paper; the shapes
   (who wins, by what factor, where coverage plateaus) are the
   reproduction target. *)

module Registry = Pbse_targets.Registry
module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Klee = Pbse.Klee
module Executor = Pbse_exec.Executor
module Coverage = Pbse_exec.Coverage
module Searcher = Pbse_exec.Searcher
module Bug = Pbse_exec.Bug
module Concolic = Pbse_concolic.Concolic
module Trace = Pbse_concolic.Trace
module Phase = Pbse_phase.Phase
module Vclock = Pbse_util.Vclock
module Rng = Pbse_util.Rng
module Tablefmt = Pbse_util.Tablefmt
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report

let hour =
  match Sys.getenv_opt "PBSE_HOUR" with
  | Some v -> (try int_of_string v with Failure _ -> 120_000)
  | None -> 120_000

let ten_hours = 10 * hour

let results_dir = "results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755

let write_file path contents =
  ensure_results_dir ();
  let oc = open_out (Filename.concat results_dir path) in
  output_string oc contents;
  close_out oc

(* The runtime of an instrumented run: a fresh, enabled registry, so the
   run's report carries its spans and histograms and nothing else. *)
let instrumented ?(config = Session.default_config) () =
  Session.runtime_of_config ~registry:(Telemetry.Registry.create ~enabled:true ()) config

let target name =
  match Registry.by_name name with
  | Some t -> t
  | None -> failwith ("unknown target " ^ name)

let heading title =
  Printf.printf "\n=== %s ===\n%!" title

(* --- per-run telemetry rows (results/runs*.csv) -------------------------------- *)

(* Every pbSE driver run performed by the harness contributes one CSV row
   of solver/fault/phase telemetry, harvested through the same
   Session.run_report mapping the CLI's --report uses (docs/telemetry.md
   documents the column <-> metric correspondence). *)
let run_csv_metrics =
  [
    "coverage.blocks"; "bugs.total"; "bugs.confirmed"; "solver.queries";
    "solver.unknown"; "solver.work"; "solver.prefix_hits"; "smt.subsumed_states";
    "smt.interpolant_hits"; "smt.interpolant_misses"; "fault.solver-unknown";
    "fault.exec-abort"; "fault.mem-pressure"; "quarantine.evicted"; "quarantine.strikes";
    "phase.turns"; "phase.new_cover"; "phase.dwell"; "phase.trap_dwell"; "sched.turns";
    "exec.cow_copies";
  ]

(* every CSV column must name a family in the session layer's counter
   manifest (Session.scalar_metric_names) — a typo or a renamed metric
   is a startup failure here, not a silently-zero column *)
let () =
  List.iter
    (fun m ->
      if not (List.mem m Session.scalar_metric_names) then
        failwith ("runs.csv column not in the counter manifest: " ^ m))
    run_csv_metrics

(* jobs / lease / wall_ms / speedup_pct / snapshot_ms / resumes /
   pool_steals / pool_pinned / id_refills / session_hits /
   session_evictions / serve_clients / serve_rejections / store_reloads
   close every row: single runs are always jobs=1, lease=1 and
   unmeasured (0), the pool --jobs sweep fills in the timing and
   contention columns, the crash-resume drill the durability ones, and
   the serve drill the response-store and server ones (including
   admission rejections and warm-restart store reloads). The contention
   and serve columns come from the pool-report diagnostics and the
   server stats, which are wall-clock-side and deliberately absent
   from the byte-identical report JSON (docs/parallelism.md). *)
let run_csv_header =
  String.concat ","
    ([ "suite"; "target"; "seed_bytes"; "deadline" ]
    @ List.map (fun m -> String.map (function '.' -> '_' | c -> c) m) run_csv_metrics
    @ [ "jobs"; "lease"; "wall_ms"; "speedup_pct"; "snapshot_ms"; "resumes";
        "pool_steals"; "pool_pinned"; "id_refills"; "session_hits";
        "session_evictions"; "serve_clients"; "serve_rejections";
        "store_reloads" ])

let run_rows : string list ref = ref []

let note_run ~suite ~name ~deadline report =
  let rr = Session.run_report report in
  let row =
    String.concat ","
      ([
         suite;
         name;
         string_of_int report.Driver.seed_size;
         string_of_int deadline;
       ]
      @ List.map (fun m -> string_of_int (Report.metric rr m)) run_csv_metrics
      @ [ "1"; "1"; "0"; "0"; "0"; "0"; "0"; "0"; "0"; "0"; "0"; "0"; "0"; "0" ])
  in
  run_rows := row :: !run_rows

(* Pool campaigns contribute the same CSV columns, harvested through the
   aggregate Driver.pool_run_report (merged coverage, deduplicated bugs,
   summed engine totals); seed_bytes is the whole pool's size. *)
let note_pool_run ?(jobs = 1) ?(lease = 1) ?(wall_ms = 0) ?(speedup_pct = 0)
    ?(snapshot_ms = 0) ?(resumes = 0) ?(session_hits = 0)
    ?(session_evictions = 0) ?(serve_clients = 0) ?(serve_rejections = 0)
    ?(store_reloads = 0) ~suite ~name ~deadline pool =
  let rr = Driver.pool_run_report pool in
  let pool_bytes =
    List.fold_left
      (fun acc (s : Report.seed_row) -> acc + s.Report.bytes)
      0 pool.Driver.seed_rows
  in
  let row =
    String.concat ","
      ([ suite; name; string_of_int pool_bytes; string_of_int deadline ]
      @ List.map (fun m -> string_of_int (Report.metric rr m)) run_csv_metrics
      @ [
          string_of_int jobs; string_of_int lease; string_of_int wall_ms;
          string_of_int speedup_pct; string_of_int snapshot_ms;
          string_of_int resumes;
          string_of_int pool.Driver.pool_steal_count;
          string_of_int pool.Driver.pool_pinned_turns;
          string_of_int pool.Driver.pool_id_refills;
          string_of_int session_hits;
          string_of_int session_evictions;
          string_of_int serve_clients;
          string_of_int serve_rejections;
          string_of_int store_reloads;
        ])
  in
  run_rows := row :: !run_rows

let subcommand = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all"

(* The checked-in results/runs.csv holds the paper experiments' rows, so
   only [claims] and [all] write it; every other subcommand writes
   results/runs_<subcommand>.csv and leaves that record alone. *)
let runs_file =
  match subcommand with
  | "claims" | "all" -> "runs.csv"
  | other -> Printf.sprintf "runs_%s.csv" other

let flush_runs () =
  match !run_rows with
  | [] -> ()
  | rows ->
    write_file runs_file (String.concat "\n" (run_csv_header :: List.rev rows) ^ "\n");
    Printf.printf "per-run telemetry: %d row(s) -> results/%s\n%!" (List.length rows)
      runs_file;
    run_rows := []

(* --- Table I ----------------------------------------------------------------- *)

(* (cov@1h, cov@10h) of KLEE with one searcher on a target's symbolic
   file of [sym_size] zero bytes, memoised per process: Table II reruns
   Table I's readelf random-path and covnew cells. *)
let klee_cells : (string * string * int, int * int) Hashtbl.t = Hashtbl.create 64

let klee_cell name searcher sym_size =
  let key = (name, searcher, sym_size) in
  match Hashtbl.find_opt klee_cells key with
  | Some cell -> cell
  | None ->
    let r =
      Klee.run (Registry.program (target name)) ~searcher
        ~input:(Bytes.make sym_size '\000') ~checkpoints:[ hour; ten_hours ]
    in
    let cell =
      (List.assoc hour r.Klee.checkpoints, List.assoc ten_hours r.Klee.checkpoints)
    in
    Hashtbl.replace klee_cells key cell;
    cell

let pbse_row ~suite ~name prog seed =
  let report = Session.run prog ~seed ~deadline:ten_hours in
  note_run ~suite ~name ~deadline:ten_hours report;
  let cov1 = Session.coverage_at report hour in
  let cov10 = Coverage.count (Executor.coverage report.Driver.executor) in
  (report, cov1, cov10)

let klee_sizes = [ 10; 100; 1000; 10000 ]

type pbse_cell = { c_time : int; p_time : int; cov1 : int }

type table1 = {
  t1_klee : (string * (int * (int * int)) list) list;
      (* searcher -> symbolic size -> (cov@1h, cov@10h) *)
  t1_pbse : pbse_cell list; (* the small seed, then the large one *)
}

let table1 () =
  heading "Table I: basic blocks covered on readelf, per searcher";
  Printf.printf "(1h = %d virtual time units; symbolic file sizes as in the paper)\n" hour;
  let t = target "readelf" in
  let prog = Registry.program t in
  let table =
    Tablefmt.create
      ([ "searcher" ]
      @ List.concat_map
          (fun s -> [ Printf.sprintf "sym-%d 1h" s; Printf.sprintf "sym-%d 10h" s ])
          klee_sizes)
  in
  let klee =
    List.map
      (fun searcher ->
        let cells =
          List.map (fun size -> (size, klee_cell "readelf" searcher size)) klee_sizes
        in
        Tablefmt.add_row table
          (searcher
          :: List.concat_map
               (fun (_, (c1, c10)) -> [ string_of_int c1; string_of_int c10 ])
               cells);
        Printf.printf "  ... %s done\n%!" searcher;
        (searcher, cells))
      Searcher.names
  in
  Tablefmt.print table;
  (* pbSE rows: a small and a large seed, as in the paper (576 / 7981 B) *)
  let pbse_table = Tablefmt.create [ "pbSE"; "c-time"; "p-time"; "1h"; "10h" ] in
  let pbse =
    List.map
      (fun label ->
        let seed = Registry.seed t label in
        let report, cov1, cov10 = pbse_row ~suite:"table1" ~name:"readelf" prog seed in
        let c_time = report.Driver.c_time and p_time = report.Driver.p_time in
        Tablefmt.add_row pbse_table
          [
            Printf.sprintf "seed(%d)" (Bytes.length seed);
            string_of_int c_time;
            string_of_int p_time;
            string_of_int cov1;
            string_of_int cov10;
          ];
        { c_time; p_time; cov1 })
      [ "small"; "large" ]
  in
  Tablefmt.print pbse_table;
  { t1_klee = klee; t1_pbse = pbse }

(* --- Table II ---------------------------------------------------------------- *)

type table2_row = { t2_target : string; best_klee : int; pbse10 : int }

let table2 () =
  heading "Table II: basic blocks covered on readelf/gif2tiff/pngtest/dwarfdump";
  let table =
    Tablefmt.create
      ([ "program" ]
      @ List.concat_map
          (fun searcher ->
            List.concat_map
              (fun s ->
                [
                  Printf.sprintf "%s sym-%d 1h" searcher s;
                  Printf.sprintf "%s sym-%d 10h" searcher s;
                ])
              klee_sizes)
          [ "rp"; "cn" ]
      @ [ "pbSE 1h"; "pbSE 10h"; "inc" ])
  in
  let rows =
    List.map
      (fun name ->
        let t = target name in
        let cells =
          List.concat_map
            (fun searcher -> List.map (klee_cell name searcher) klee_sizes)
            [ "random-path"; "covnew" ]
        in
        let best = List.fold_left (fun acc (c1, c10) -> max acc (max c1 c10)) 0 cells in
        let _, cov1, cov10 =
          pbse_row ~suite:"table2" ~name (Registry.program t) (Registry.default_seed t)
        in
        let inc =
          if best = 0 then "n/a" else Printf.sprintf "%d%%" (100 * (cov10 - best) / best)
        in
        Tablefmt.add_row table
          ((t.Registry.package ^ " " ^ name)
          :: (List.concat_map
                (fun (c1, c10) -> [ string_of_int c1; string_of_int c10 ])
                cells
             @ [ string_of_int cov1; string_of_int cov10; inc ]));
        Printf.printf "  ... %s done\n%!" name;
        { t2_target = name; best_klee = best; pbse10 = cov10 })
      [ "readelf"; "gif2tiff"; "pngtest"; "dwarfdump" ]
  in
  Tablefmt.print table;
  rows

(* --- Table III --------------------------------------------------------------- *)

(* Planted-bug label for a report: the faulting function plus the fault
   kind identify the label (declaration order breaks the rare ties, e.g.
   the two line-program overflows in dwarfdump). *)
let bug_label_table =
  [
    ("readelf", "read_name", "oob-read", "strtab-name-oob-read");
    ("readelf", "process_symbols", "oob-write", "symbol-version-oob-write");
    ("readelf", "process_dynamic", "oob-read", "dynamic-strtab-oob-read");
    ("readelf", "process_note", "oob-write", "note-alloc-overflow");
    ("pngtest", "handle_time", "oob-read", "time-month-oob-read");
    ("pngtest", "check_keyword", "oob-read", "keyword-trim-underflow");
    ("gif2tiff", "write_tiff", "oob-read", "colormap-oob-read");
    ("gif2tiff", "lzw_decode_block", "oob-write", "lzw-stack-oob-write");
    ("tiff2rgba", "put_cielab", "oob-read", "cielab-oob-read");
    ("tiff2bw", "average_samples", "oob-read", "spp-oob-read");
    ("tiff2bw", "invert_min_is_white", "oob-write", "invert-row-oob-write");
    (* parse_die carries two oob-reads: the abbrev lookup faults in an
       earlier block than the sibling reference; table3 assigns the labels
       in block order *)
    ("dwarfdump", "parse_die", "oob-read", "abbrev-code-oob-read");
    ("dwarfdump", "parse_die", "oob-read", "sibling-ref-oob-read");
    ("dwarfdump", "parse_die", "null-deref", "null-abbrev-table-deref");
    ("dwarfdump", "main", "oob-read", "cu-name-oob-read");
    ("dwarfdump", "read_str", "oob-read", "form-string-oob-read");
    ("dwarfdump", "parse_line_program", "oob-read", "line-file-index-oob-read");
    ("dwarfdump", "parse_line_program", "oob-write", "line-ftable-alloc-overflow");
  ]

let bug_function (bug : Bug.t) =
  match String.index_opt bug.Bug.location '/' with
  | Some i -> String.sub bug.Bug.location 0 i
  | None -> bug.Bug.location

(* [nth_match] distinguishes multiple same-kind bugs in one function; the
   caller passes the bug's rank among its (function, kind) group, ordered
   by faulting block. *)
let bug_label target (bug : Bug.t) ~nth_match =
  let func = bug_function bug in
  let candidates =
    List.filter_map
      (fun (t, f, k, label) ->
        if t = target && f = func && k = bug.Bug.kind then Some label else None)
      bug_label_table
  in
  List.nth_opt candidates (min nth_match (max 0 (List.length candidates - 1)))

type table3 = {
  t3_reports : string list; (* the target of each report *)
  t3_distinct : (string * string option) list; (* target, planted-bug label *)
}

let table3 () =
  heading "Table III: bugs found by pbSE";
  let table =
    Tablefmt.create
      [ "package"; "test-driver"; "s-size"; "t-p"; "b-p"; "kind"; "bug"; "CVE ID" ]
  in
  let reports = ref [] in
  let distinct : (string * int * string, string option) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (name, seed_labels) ->
      let t = target name in
      let prog = Registry.program t in
      List.iter
        (fun label ->
          let seed = Registry.seed t label in
          let report = Session.run prog ~seed ~deadline:ten_hours in
          note_run ~suite:"table3" ~name ~deadline:ten_hours report;
          let traps = report.Driver.division.Phase.trap_count in
          (* rank same-(function, kind) bugs by faulting block so labels
             with shared functions resolve deterministically *)
          let sorted =
            List.sort
              (fun ((a : Bug.t), _) ((b : Bug.t), _) -> Int.compare a.Bug.gid b.Bug.gid)
              report.Driver.bugs
          in
          List.iter
            (fun ((bug : Bug.t), phase_ordinal) ->
              let func = bug_function bug in
              let rank =
                List.length
                  (List.filter
                     (fun ((b : Bug.t), _) ->
                       b.Bug.gid < bug.Bug.gid
                       && b.Bug.kind = bug.Bug.kind
                       && bug_function b = func)
                     sorted)
              in
              let planted = bug_label name bug ~nth_match:rank in
              reports := name :: !reports;
              Hashtbl.replace distinct (name, bug.Bug.gid, bug.Bug.kind) planted;
              let cve =
                match planted with
                | Some label -> (
                  match List.assoc_opt label t.Registry.cves with
                  | Some cve -> cve
                  | None -> "N")
                | None -> "N"
              in
              Tablefmt.add_row table
                [
                  t.Registry.package;
                  name;
                  string_of_int (Bytes.length seed);
                  string_of_int traps;
                  string_of_int phase_ordinal;
                  bug.Bug.kind;
                  Option.value planted ~default:"-";
                  cve;
                ])
            sorted;
          Printf.printf "  ... %s/%s done (%d reports so far)\n%!" name label
            (List.length !reports))
        seed_labels)
    [
      ("pngtest", [ "small" ]);
      ("gif2tiff", [ "small"; "large" ]);
      ("tiff2rgba", [ "small" ]);
      ("tiff2bw", [ "small" ]);
      ("dwarfdump", [ "small"; "mid"; "wide" ]);
      ("readelf", [ "small"; "medium" ]);
      ("tcpdump", [ "small" ]);
    ];
  Tablefmt.print table;
  Printf.printf "%d reports over the seed pool; %d distinct bugs (19 planted; paper found 21)\n"
    (List.length !reports) (Hashtbl.length distinct);
  {
    t3_reports = List.rev !reports;
    t3_distinct =
      Hashtbl.fold (fun (name, _, _) planted acc -> (name, planted) :: acc) distinct [];
  }

(* --- Fig 1: block distribution, concrete vs symbolic ------------------------- *)

let ascii_scatter ~width ~height points =
  (* points: (x, y); normalise into a width x height grid *)
  match points with
  | [] -> "(no points)\n"
  | _ ->
    let max_x = List.fold_left (fun acc (x, _) -> max acc x) 1 points in
    let max_y = List.fold_left (fun acc (_, y) -> max acc y) 1 points in
    let grid = Array.make_matrix height width ' ' in
    List.iter
      (fun (x, y) ->
        let gx = min (width - 1) (x * width / (max_x + 1)) in
        let gy = min (height - 1) (y * height / (max_y + 1)) in
        grid.(height - 1 - gy).(gx) <- '*')
      points;
    let buf = Buffer.create (width * height) in
    Buffer.add_string buf
      (Printf.sprintf "  y: bb index 0..%d, x: virtual time 0..%d\n" max_y max_x);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.contents buf

let trace_points trace = List.map (fun p -> (p.Trace.vtime, p.Trace.bb)) (Trace.points trace)

let fig1_one name =
  let t = target name in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  (* concrete execution trace (paper Fig 1 a/c/e) *)
  let ix = Trace.indexer () in
  let clock = Vclock.create () in
  let exec = Executor.create ~clock prog ~input:seed in
  let concolic = Concolic.run exec ix in
  let concrete_points = trace_points concolic.Concolic.trace in
  (* symbolic execution trace with the default searcher (Fig 1 b/d/f),
     reusing the indexer so block numbering matches the paper's method *)
  let clock2 = Vclock.create () in
  let exec2 = Executor.create ~clock:clock2 prog ~input:(Bytes.make 100 '\000') in
  let symbolic_trace = Trace.create ix in
  Executor.set_trace exec2
    (Some (fun gid -> Trace.record symbolic_trace ~vtime:(Vclock.now clock2) ~gid));
  let searcher = Searcher.default (Rng.create 1) (Executor.cfg exec2) (Executor.coverage exec2) in
  searcher.Searcher.add (Executor.initial_state exec2);
  Executor.explore exec2 searcher ~deadline:hour;
  let symbolic_points = trace_points symbolic_trace in
  Printf.printf "\nFig 1 (%s): concrete execution, %d block entries, %d distinct blocks\n"
    name (List.length concrete_points) (Trace.assigned ix);
  print_string (ascii_scatter ~width:64 ~height:16 concrete_points);
  Printf.printf "Fig 1 (%s): symbolic execution (default searcher, 1h)\n" name;
  print_string (ascii_scatter ~width:64 ~height:16 symbolic_points);
  let concrete_max = List.fold_left (fun acc (_, y) -> max acc y) 0 concrete_points in
  let symbolic_max = List.fold_left (fun acc (_, y) -> max acc y) 0 symbolic_points in
  Printf.printf
    "highest concrete bb index: %d; highest symbolic bb index within 1h: %d\n"
    concrete_max symbolic_max;
  write_file (Printf.sprintf "fig1_%s_concrete.csv" name)
    (Trace.to_csv concolic.Concolic.trace);
  write_file (Printf.sprintf "fig1_%s_symbolic.csv" name) (Trace.to_csv symbolic_trace)

let fig1 () =
  heading "Fig 1: basic-block distribution, concrete vs symbolic";
  List.iter fig1_one [ "readelf"; "gif2tiff"; "pngtest" ]

(* --- Fig 4: phase division with and without the coverage element ------------- *)

let fig4 () =
  heading "Fig 4: gif2tiff phase division, BBV-only vs BBV+coverage";
  let t = target "gif2tiff" in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  let ix = Trace.indexer () in
  let clock = Vclock.create () in
  let exec = Executor.create ~clock prog ~input:seed in
  let probe = Pbse_exec.Concrete.run prog ~input:seed in
  let interval_length = max 50 (probe.Pbse_exec.Concrete.steps / 120) in
  let concolic = Concolic.run ~interval_length exec ix in
  let bbvs = concolic.Concolic.bbvs in
  let show label mode =
    let division = Phase.divide ~mode (Rng.create 1) bbvs in
    Printf.printf "%s: k=%d, %d trap phases\n  strip: %s\n" label division.Phase.k
      division.Phase.trap_count (Phase.render_strip division);
    division.Phase.trap_count
  in
  let plain = show "(a) BBVs only          " Phase.Bbv_only in
  let augmented = show "(b) BBVs + coverage    " Phase.Bbv_with_coverage in
  Printf.printf
    "coverage-augmented vectors identified %s trap phases (paper: 2 vs 4)\n"
    (if augmented > plain then "more"
     else if augmented = plain then "as many"
     else "fewer");
  (plain, augmented)

(* --- Fig 5: tiff2rgba, normal vs buggy seed ----------------------------------- *)

type fig5 = {
  normal_outcome : Concolic.outcome;
  buggy_outcome : Concolic.outcome;
  pbse_cielab : (int * int) option; (* phase, virtual time of pbSE's CIELab read *)
  klee_bugs : string list; (* planted-bug labels (or locations) KLEE default found *)
}

let fig5 () =
  heading "Fig 5: tiff2rgba concrete block distribution, normal vs buggy seed";
  let t = target "tiff2rgba" in
  let prog = Registry.program t in
  let run_seed label seed =
    let ix = Trace.indexer () in
    let clock = Vclock.create () in
    let exec = Executor.create ~clock prog ~input:seed in
    let probe = Pbse_exec.Concrete.run prog ~input:seed in
    let interval_length = max 20 (probe.Pbse_exec.Concrete.steps / 60) in
    let concolic = Concolic.run ~interval_length exec ix in
    Printf.printf "\n(%s seed, %d bytes): %s\n" label (Bytes.length seed)
      (match concolic.Concolic.outcome with
       | Concolic.Exited _ -> "ran to completion"
       | Concolic.Stopped reason -> "stopped: " ^ reason
       | Concolic.Deadline -> "deadline");
    print_string (ascii_scatter ~width:64 ~height:12 (trace_points concolic.Concolic.trace));
    write_file (Printf.sprintf "fig5_%s.csv" label) (Trace.to_csv concolic.Concolic.trace);
    concolic
  in
  let normal = run_seed "normal" (Registry.seed t "large") in
  let division = Phase.divide (Rng.create 1) normal.Concolic.bbvs in
  Printf.printf "phases of the normal run (top strip of Fig 5a): %s (%d traps)\n"
    (Phase.render_strip division) division.Phase.trap_count;
  let buggy = run_seed "buggy" (Registry.seed t "buggy-cielab") in
  (* the case study: pbSE finds the CIELab bug; KLEE's default searcher
     does not, even in 10x the budget *)
  let report = Session.run prog ~seed:(Registry.seed t "small") ~deadline:ten_hours in
  note_run ~suite:"fig5" ~name:"tiff2rgba" ~deadline:ten_hours report;
  let pbse_found =
    List.filter (fun ((b : Bug.t), _) -> b.Bug.kind = "oob-read") report.Driver.bugs
  in
  let klee =
    Klee.run prog ~searcher:"default" ~input:(Bytes.make 100 '\000')
      ~checkpoints:[ ten_hours ]
  in
  Printf.printf
    "case study: pbSE found %d oob-read bug(s)%s; KLEE default found %d bug(s) in 10h\n"
    (List.length pbse_found)
    (match pbse_found with
     | ((b : Bug.t), phase) :: _ ->
       Printf.sprintf " (first in phase %d at t=%d: %s)" phase b.Bug.vtime b.Bug.location
     | [] -> "")
    (List.length klee.Klee.bugs);
  {
    normal_outcome = normal.Concolic.outcome;
    buggy_outcome = buggy.Concolic.outcome;
    pbse_cielab =
      List.find_map
        (fun ((b : Bug.t), phase) ->
          if bug_label "tiff2rgba" b ~nth_match:0 = Some "cielab-oob-read" then
            Some (phase, b.Bug.vtime)
          else None)
        report.Driver.bugs;
    klee_bugs =
      List.map
        (fun (b : Bug.t) ->
          Option.value (bug_label "tiff2rgba" b ~nth_match:0) ~default:b.Bug.location)
        klee.Klee.bugs;
  }

(* --- Ablations ----------------------------------------------------------------- *)

let ablate () =
  heading "Ablations (DESIGN.md): pbSE design choices on dwarfdump";
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  let table = Tablefmt.create [ "variant"; "traps"; "cov 1h"; "cov 10h"; "bugs" ] in
  let run (label, config) =
    let report = Session.run ~config prog ~seed ~deadline:ten_hours in
    note_run ~suite:"ablate" ~name:label ~deadline:ten_hours report;
    let traps = report.Driver.division.Phase.trap_count in
    Tablefmt.add_row table
      [
        label;
        string_of_int traps;
        string_of_int (Session.coverage_at report hour);
        string_of_int (Coverage.count (Executor.coverage report.Driver.executor));
        string_of_int (List.length report.Driver.bugs);
      ];
    Printf.printf "  ... %s done\n%!" label;
    (label, traps)
  in
  let traps =
    List.map run
      Session.
        [
          ("pbSE (default)", default_config);
          ( "BBV-only vectors",
            with_concolic (fun c -> { c with mode = Phase.Bbv_only }) default_config );
          ( "no seedState dedup",
            with_search (fun s -> { s with dedup_seed_states = false }) default_config );
          ( "sequential phases",
            with_search (fun s -> { s with scheduler = "sequential" }) default_config );
          ("fixed k = 4", with_search (fun s -> { s with max_k = 4 }) default_config);
        ]
  in
  Tablefmt.print table;
  traps

(* --- Robustness: fault-injected sweep ------------------------------------------- *)

let robust () =
  heading
    "Robustness sweep: every target under a fixed fault-injection plan \
     (docs/robustness.md)";
  let plan =
    match Inject.parse "seed=7,solver=0.2,abort=0.1,mem=0.05,concolic=0.05" with
    | Ok p -> p
    | Error e -> failwith e
  in
  Printf.printf "  plan: %s\n%!" (Inject.to_string plan);
  let config = Session.(with_robust (fun r -> { r with inject = plan }) default_config) in
  let table =
    Tablefmt.create
      [ "target"; "cov clean"; "cov injected"; "bugs"; "faults"; "evicted" ]
  in
  List.iter
    (fun t ->
      let prog = Registry.program t in
      let seed = Registry.default_seed t in
      let clean = Session.run prog ~seed ~deadline:hour in
      note_run ~suite:"robust-clean" ~name:t.Registry.name ~deadline:hour clean;
      let faulty = Session.run ~config prog ~seed ~deadline:hour in
      note_run ~suite:"robust-injected" ~name:t.Registry.name ~deadline:hour faulty;
      Tablefmt.add_row table
        [
          t.Registry.name;
          string_of_int (Coverage.count (Executor.coverage clean.Driver.executor));
          string_of_int (Coverage.count (Executor.coverage faulty.Driver.executor));
          Printf.sprintf "%d/%d"
            (List.length faulty.Driver.bugs)
            (List.length clean.Driver.bugs);
          string_of_int (Fault.total faulty.Driver.faults);
          string_of_int faulty.Driver.quarantined;
        ];
      Printf.printf "  ... %s done (%s)\n%!" t.Registry.name
        (Fault.summary faulty.Driver.faults))
    Registry.all;
  Tablefmt.print table

(* --- Per-layer kernels ----------------------------------------------------------- *)

(* The cost of one call of [run]: wall time in ns, Bechamel's OLS
   estimate over repeated runs ("-" where it fits none), and minor-heap
   words, counted with [Gc.minor_words] over [calls] calls. Bechamel's
   own estimate of minor words under-reads on OCaml 5.1: it read 0 for
   calls that allocate a few thousand words. *)
let kernel_cost ~calls ~limit name run =
  let open Bechamel in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    run ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second 0.5) ~kde:(Some 8) () in
  let test = Test.make_grouped ~name:"g" [ Test.make ~name (Staged.stage run) ] in
  let clock = Toolkit.Instance.monotonic_clock in
  let results = Benchmark.all cfg [ clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let ns =
    Hashtbl.fold
      (fun _ result _ ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.sprintf "%.0f" est
        | _ -> "-")
      (Analyze.all ols clock results)
      "-"
  in
  (ns, words)

(* The solver's search alone: wall time and minor-heap words per
   [Search_core.solve_group] on one fixed group of 16 sparse input bytes,
   shaped like a parser's path condition: a little-endian u32 length
   equality, a loop bound (a u16 count and eight entry bytes below their
   limits) and two magic bytes. Every hint byte is 0xFF, so the hint
   misses every constraint and the probe falls through to the search.
   Three more groups split the search's kernels: [propagate] is dominated
   by interval propagation (four magic-byte equalities, each trimmed
   from both ends, and a 2-byte little-endian loop bound),
   [propagate-field] by propagation through field reads (a u32
   little-endian equality, trimmed one byte per round, highest first,
   and a signed bound on a u16 field), [assign] by assignment (a
   product residue and a sum residue of two bytes, which intervals
   cannot narrow, so the search tries value after value, each with its
   exact checks). Then one evaluation of one parser-shaped constraint
   on its tape, the step the search repeats: a length read in the byte order a magic byte
   selects, less its header, below a limit. [tape-ivl] loads the
   interval of each read (the magic byte a point, the length bytes
   partly narrowed) and runs [Tape.falsified]; [tape-exact] loads a value
   per read and runs [Tape.holds]. *)
let search_core_kernel () =
  let module Expr = Pbse_smt.Expr in
  let module Model = Pbse_smt.Model in
  let module Search_core = Pbse_smt.Search_core in
  let module Tape = Pbse_smt.Tape in
  let module T = Pbse_ir.Types in
  let bytes =
    [| 4; 9; 17; 30; 44; 61; 80; 101; 125; 151; 180; 211; 245; 282; 321; 363 |]
  in
  let const v = Expr.const (Int64.of_int v) in
  (* little-endian field over [idx], lowest byte first *)
  let field idx =
    let acc = ref (Expr.read idx.(0)) in
    for k = 1 to Array.length idx - 1 do
      acc := Expr.bin T.Or !acc (Expr.bin T.Shl (Expr.read idx.(k)) (const (8 * k)))
    done;
    !acc
  in
  let below i limit = Expr.bin T.Ult (Expr.read i) (const limit) in
  let constraints =
    [
      Expr.bin T.Eq (field (Array.sub bytes 0 4)) (const 0x0412);
      Expr.bin T.Ult (field (Array.sub bytes 4 2)) (const 40);
    ]
    @ List.map (fun i -> below i 32) (Array.to_list (Array.sub bytes 6 8))
    @ [
        Expr.bin T.Eq (Expr.read bytes.(14)) (const 0x89);
        Expr.bin T.Eq (Expr.read bytes.(15)) (const 0x50);
      ]
  in
  let ws = Pbse_smt.Workspace.create () in
  let group = Search_core.build_group ws ~tape:Tape.compile constraints in
  let hint = Array.fold_left (fun m i -> Model.set m i 0xFF) Model.empty bytes in
  let focus = [ bytes.(14); bytes.(15) ] in
  let solve () =
    Search_core.solve_group ws ~on_node:ignore
      (Search_core.meter ~limit:max_int)
      ~hint ~focus
      ~bounds:(fun _ -> None)
      group
  in
  (match solve () with
   | Search_core.Gsat _ -> ()
   | Search_core.Gunsat | Search_core.Gunknown ->
     failwith "search-core kernel: the group must be sat");
  let byte_eq i v = Expr.bin T.Eq (Expr.read i) (const v) in
  let residue e m k = Expr.bin T.Eq (Expr.bin T.Urem e (const m)) (const k) in
  let solver_of name constraints =
    let group = Search_core.build_group ws ~tape:Tape.compile constraints in
    let vars = Search_core.group_vars group in
    let hint = Array.fold_left (fun m i -> Model.set m i 0xFF) Model.empty vars in
    let solve () =
      Search_core.solve_group ws ~on_node:ignore
        (Search_core.meter ~limit:max_int)
        ~hint ~focus:[ vars.(0) ]
        ~bounds:(fun _ -> None)
        group
    in
    (match solve () with
     | Search_core.Gsat _ -> ()
     | Search_core.Gunsat | Search_core.Gunknown ->
       failwith (name ^ " kernel: the group must be sat"));
    (Array.length vars, solve)
  in
  let propagate =
    solver_of "propagate"
      [
        byte_eq 8 0x89;
        byte_eq 9 0x50;
        byte_eq 10 0x4E;
        byte_eq 11 0x47;
        Expr.bin T.Ult (field [| 20; 21 |]) (const 300);
      ]
  in
  let propagate_field =
    solver_of "propagate-field"
      [
        Expr.bin T.Eq (field [| 40; 41; 42; 43 |]) (const 0x0A1B2C3D);
        Expr.bin T.Sle (field [| 44; 45 |]) (const 0x1234);
      ]
  in
  let assign =
    let x = Expr.read 30 and y = Expr.read 31 in
    solver_of "assign"
      [ residue (Expr.bin T.Mul x y) 251 13; residue (Expr.bin T.Add x y) 16 5 ]
  in
  (* bytes 0-2: the magic byte, then a u16 length in either byte order *)
  let length =
    Expr.ite
      (Expr.bin T.Eq (Expr.read 0) (const 0x49))
      (field [| 1; 2 |])
      (Expr.bin T.Or (Expr.bin T.Shl (Expr.read 1) (const 8)) (Expr.read 2))
  in
  let tape =
    Tape.compile (Expr.bin T.Ult (Expr.bin T.Sub length (const 8)) (const 504))
  in
  let intervals = [| (0x49, 0x49); (0, 255); (0, 7) |] in
  let values = [| 0x49; 0x20; 0x01 |] in
  let eval_interval () =
    for k = 0 to 2 do
      let lo, hi = intervals.(k) in
      Tape.set_interval tape k lo hi
    done;
    Tape.falsified tape
  in
  let eval_exact () =
    for k = 0 to 2 do
      Tape.set_value tape k values.(k)
    done;
    Tape.holds tape
  in
  if eval_interval () || not (eval_exact ()) then
    failwith "tape kernel: the constraint must hold on the values and their intervals";
  Printf.printf "\n  %-15s %5s %14s %18s   %s\n%!" "kernel" "vars" "ns/call"
    "minor words/call" "(a call: one solve, or one tape evaluation)";
  List.iter
    (fun (name, vars, run) ->
      let ns, words = kernel_cost ~calls:1000 ~limit:500 name run in
      Printf.printf "  %-15s %5d %14s %18.0f\n%!" name vars ns words)
    [
      ( "search",
        Array.length (Search_core.group_vars group),
        fun () -> ignore (solve ()) );
      ("propagate", fst propagate, fun () -> ignore (snd propagate ()));
      ("propagate-field", fst propagate_field, fun () -> ignore (snd propagate_field ()));
      ("assign", fst assign, fun () -> ignore (snd assign ()));
      ("tape-ivl", Array.length (Tape.reads tape), fun () -> ignore (eval_interval ()));
      ("tape-exact", Array.length (Tape.reads tape), fun () -> ignore (eval_exact ()));
    ]

(* State selection after a fork: a covnew searcher over [live] states of
   gif2tiff's program, spread over its blocks with every fifth state
   freshly covering, on a coverage map with every third block covered. A
   call forks one child (which voids the snapshot), selects (which
   rebuilds it over [live] + 1 states) and removes the child again. *)
let select_kernel () =
  let module Cfg = Pbse_ir.Cfg in
  let module State = Pbse_exec.State in
  let prog = Registry.program (target "gif2tiff") in
  let cfg = Cfg.build prog in
  let coverage = Coverage.create (Cfg.nblocks cfg) in
  for gid = 0 to Cfg.nblocks cfg - 1 do
    if gid mod 3 = 0 then ignore (Coverage.cover coverage gid)
  done;
  let funcs = prog.Pbse_ir.Types.funcs in
  let state id =
    let fidx = id mod Array.length funcs in
    let st =
      State.create ~id ~nregs:1 ~mem:Pbse_exec.Mem.empty ~model:Pbse_smt.Model.empty ~fidx
        ~born:0
    in
    st.State.bidx <- id mod Array.length funcs.(fidx).Pbse_ir.Types.blocks;
    st.State.fresh_cover <- id mod 5 = 0;
    st
  in
  Printf.printf "\n  %-10s %5s %14s %18s   %s\n%!" "select" "live" "ns/call"
    "minor words/call" "(a call: one fork, one covnew select, one removal)";
  List.iter
    (fun live ->
      let s = (Option.get (Searcher.by_name "covnew")) (Rng.create 1) cfg coverage in
      let states = List.init live state in
      List.iter s.Searcher.add states;
      let parent = List.hd states and child = state live in
      let call () =
        s.Searcher.fork ~parent child;
        ignore (s.Searcher.select ());
        s.Searcher.remove child
      in
      let ns, words = kernel_cost ~calls:1000 ~limit:500 "covnew" call in
      Printf.printf "  %-10s %5d %14s %18.0f\n%!" "covnew" live ns words)
    [ 100; 1_000 ]

(* A query whose one group exhausts the solver's default budget: two
   contradictory residues of a product of two bytes, which interval
   propagation cannot refute, so the search walks until the budget runs
   out. [fresh] asks it of a solver that has never seen it (one solver
   per call, made before the clock starts) and so searches; [replayed]
   asks it again of one solver, which answers from its memo of exhausted
   searches with the same charge. Both are timed over a loop, the median
   of five rounds. *)
let exhaust_kernel () =
  let module Expr = Pbse_smt.Expr in
  let module Solver = Pbse_smt.Solver in
  let module T = Pbse_ir.Types in
  let residue k =
    Expr.bin T.Eq
      (Expr.bin T.Urem (Expr.bin T.Mul (Expr.read 0) (Expr.read 1)) (Expr.const 251L))
      (Expr.const k)
  in
  let query = [ residue 13L; residue 14L ] in
  let ask solver =
    match Solver.check_assuming solver ~path:[] query with
    | Solver.Unknown, work -> work
    | (Solver.Sat _ | Solver.Unsat), _ -> failwith "exhaust kernel: the query must exhaust"
  in
  let warm = Solver.create () in
  let work = ask warm in
  if ask warm <> work then failwith "exhaust kernel: a replay must charge what its search did";
  let round calls run =
    let solvers = Array.init calls (fun _ -> run ()) in
    let words = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun f -> ignore (f ())) solvers;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int calls in
    (ns, (Gc.minor_words () -. words) /. float_of_int calls)
  in
  let median rounds =
    let sorted = List.sort compare rounds in
    List.nth sorted (List.length sorted / 2)
  in
  Printf.printf "\n  %-10s %5s %14s %18s   %s\n%!" "exhausted" "work" "ns/call"
    "minor words/call" "(a call: one query whose one group runs out of budget)";
  List.iter
    (fun (name, calls, prepare) ->
      let ns, words = median (List.init 5 (fun _ -> round calls prepare)) in
      Printf.printf "  %-10s %5d %14.0f %18.0f\n%!" name work ns words)
    [
      ( "fresh",
        16,
        fun () ->
          let solver = Solver.create () in
          fun () -> ask solver );
      ("replayed", 1_000, fun () () -> ask warm);
    ]

(* Phase division alone, timed per target on the BBVs of its smallest
   seed's one-hour concolic pass: wall time and minor-heap words per
   [Phase.divide] (k-means for every k in 1..20), beside the two
   reductions its kernel relies on (block ids that occur against
   1 + the largest, distinct BBVs against all); then that concolic pass
   itself, in a fresh arena on a fresh executor as a session opens it
   ([concolic_kernel]); then the solver's search on a fixed group and
   one constraint's tape ([search_core_kernel]), covnew's select after a
   fork ([select_kernel]) and a query that exhausts its budget, searched
   and replayed ([exhaust_kernel]). *)
let concolic_kernel passes =
  let module Expr = Pbse_smt.Expr in
  Printf.printf "\n  %-10s %8s %14s %18s\n%!" "concolic" "interval" "ns/pass"
    "minor words/pass";
  List.iter
    (fun (name, prog, seed, interval_length) ->
      let pass () =
        Expr.use_arena (Expr.arena ());
        let exec = Executor.create ~clock:(Vclock.create ()) prog ~input:seed in
        ignore (Concolic.run ~interval_length ~deadline:hour exec (Trace.indexer ()))
      in
      let ns, words = kernel_cost ~calls:3 ~limit:200 name pass in
      Printf.printf "  %-10s %8d %14s %18.0f\n%!" name interval_length ns words)
    passes

let kernels () =
  heading
    "Per-layer kernels: Phase.divide and the concolic pass on each target's \
     smallest seed, Search_core.solve_group on three groups, one constraint's tape, a covnew \
     select after a fork, an exhausted search fresh and replayed";
  Printf.printf "  %-10s %5s %14s %18s %11s %11s\n%!" "target" "bbvs" "ns/division"
    "minor words/div" "dims" "distinct";
  let passes =
    List.map
      (fun (t : Registry.t) ->
        let prog = Registry.program t and seed = Registry.smallest_seed t in
        let session = Session.open_session prog ~seed ~deadline:hour in
        let report = Session.finish_session session in
        let bbvs = report.Session.bbvs in
        let ns, words =
          kernel_cost ~calls:10 ~limit:500 t.Registry.name (fun () ->
              ignore (Phase.divide (Rng.create 1) bbvs))
        in
        let shape = Phase.shape bbvs in
        Printf.printf "  %-10s %5d %14s %18.0f %11s %11s\n%!" t.Registry.name
          (List.length bbvs) ns words
          (Printf.sprintf "%d/%d" shape.Phase.blocks shape.Phase.block_span)
          (Printf.sprintf "%d/%d" shape.Phase.distinct shape.Phase.bbvs);
        (t.Registry.name, prog, seed, report.Session.interval_length))
      Registry.all
  in
  concolic_kernel passes;
  search_core_kernel ();
  select_kernel ();
  exhaust_kernel ()

(* --- Pool campaigns ---------------------------------------------------------------- *)

(* Seed-level scheduling policies compared on one multi-seed target: the
   whole benign pool under the same deadline, one campaign per policy.
   The acceptance bar (results/runs_pool.csv rows, suite "pool") is that
   coverage-greedy reaches merged coverage at least equal to the paper's
   equal-split smallest-first pass. *)
let pool_bench () =
  heading "Pool campaigns: seed schedulers on dwarfdump's benign pool";
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seeds = List.map snd t.Registry.seeds in
  let deadline = ten_hours in
  let table =
    Tablefmt.create
      [ "policy"; "runs"; "turns"; "merged cov"; "bugs"; "spent" ]
  in
  let merged = ref [] in
  List.iter
    (fun scheduler ->
      let pool = Driver.run_pool ~scheduler prog ~seeds ~deadline in
      note_pool_run ~suite:"pool" ~name:(t.Registry.name ^ "/" ^ scheduler) ~deadline
        pool;
      merged := (scheduler, pool.Driver.merged_coverage) :: !merged;
      Tablefmt.add_row table
        [
          scheduler;
          string_of_int (List.length pool.Driver.runs);
          string_of_int pool.Driver.pool_stats.Pbse_campaign.Pool_scheduler.turns;
          string_of_int pool.Driver.merged_coverage;
          string_of_int (List.length pool.Driver.merged_bugs);
          string_of_int pool.Driver.pool_spent;
        ];
      Printf.printf "  ... %s done\n%!" scheduler)
    Pbse_campaign.Pool_scheduler.names;
  Tablefmt.print table;
  let cov name = try List.assoc name !merged with Not_found -> 0 in
  Printf.printf "  coverage-greedy vs smallest-first: %d vs %d (%s)\n%!"
    (cov "coverage-greedy") (cov "smallest-first")
    (if cov "coverage-greedy" >= cov "smallest-first" then "OK" else "BEHIND");
  (* A-B leg: the same campaign with the path-condition layer off. The
     merged bug count must match and merged coverage must not regress
     with subsumption on (docs/subsumption.md). *)
  let off_config =
    Session.(
      with_pathcond (fun _ -> { subsumption = false }) default_config)
  in
  let scheduler = List.hd Pbse_campaign.Pool_scheduler.names in
  let off_pool =
    Driver.run_pool ~config:off_config ~scheduler prog ~seeds ~deadline
  in
  note_pool_run ~suite:"pool" ~name:(t.Registry.name ^ "/pathcond-off") ~deadline
    off_pool;
  let on_pool = Driver.run_pool ~scheduler prog ~seeds ~deadline in
  let on_bugs = List.length on_pool.Driver.merged_bugs
  and off_bugs = List.length off_pool.Driver.merged_bugs in
  if on_bugs <> off_bugs then begin
    Printf.eprintf
      "pathcond A-B (pool): merged bug sets diverged (on %d, off %d)\n" on_bugs
      off_bugs;
    exit 1
  end;
  (* Bug-set identity is hard; coverage gets a 1% band. At a fixed
     virtual-time deadline the work subsumption saves is reinvested in
     *different* exploration, so final pool coverage can move a block
     either way from scheduling alone — the strict outcome gate is
     pathcond-ab's work-to-outcome parity scan above. *)
  let slack = off_pool.Driver.merged_coverage / 100 in
  if on_pool.Driver.merged_coverage < off_pool.Driver.merged_coverage - slack
  then begin
    Printf.eprintf
      "pathcond A-B (pool): merged coverage regressed with subsumption on (%d < \
       %d - %d)\n"
      on_pool.Driver.merged_coverage off_pool.Driver.merged_coverage slack;
    exit 1
  end;
  Printf.printf
    "  pathcond A-B (%s): merged cov %d (on) vs %d (off, 1%% band), %d bug(s) \
     both ways\n%!"
    scheduler on_pool.Driver.merged_coverage off_pool.Driver.merged_coverage
    on_bugs

(* --- Pathcond A-B: subsumption on vs off -------------------------------------- *)

(* The path-condition layer's acceptance gate (docs/subsumption.md): on
   dwarfdump, the engine with subsumption on must reach the
   baseline run's final coverage and bug set with at least 15% less
   solver work. No seeded target drains — every run fills its
   virtual-time deadline, so *total* work at a fixed deadline is
   deadline-bound by construction and cannot drop. The honest
   comparison is work-to-outcome: the solver work the ON run had spent
   when it first covered everything the OFF run ever covered (and had
   found every bug), interpolated from the coverage samples. Work
   accrues linearly in virtual time on deadline-filled runs, so work at
   virtual time t is w_total * t / deadline. *)
let pathcond_ab () =
  heading "Pathcond A-B: dwarfdump, subsumption on vs off";
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  let deadline = ten_hours in
  let off_config =
    Session.(
      with_pathcond (fun _ -> { subsumption = false }) default_config)
  in
  let on_r = Session.run prog ~seed ~deadline in
  note_run ~suite:"pathcond-ab" ~name:(t.Registry.name ^ "/on") ~deadline on_r;
  let off_r = Session.run ~config:off_config prog ~seed ~deadline in
  note_run ~suite:"pathcond-ab" ~name:(t.Registry.name ^ "/off") ~deadline off_r;
  let bug_set r =
    List.sort_uniq compare
      (List.map (fun ((b : Bug.t), _) -> (b.Bug.gid, b.Bug.kind)) r.Driver.bugs)
  in
  if bug_set on_r <> bug_set off_r then begin
    prerr_endline "pathcond A-B: bug sets diverged between on and off";
    exit 1
  end;
  let cov r = Coverage.count (Executor.coverage r.Driver.executor) in
  let cov_on = cov on_r and cov_off = cov off_r in
  if cov_on < cov_off then begin
    Printf.eprintf "pathcond A-B: coverage regressed with subsumption on (%d < %d)\n"
      cov_on cov_off;
    exit 1
  end;
  (* earliest virtual time at which the ON run had matched the OFF run's
     outcome: its whole final coverage and its own last bug *)
  let cov_parity_t =
    let rec scan = function
      | [] -> deadline
      | (vt, c) :: rest -> if c >= cov_off then vt else scan rest
    in
    scan (List.sort compare on_r.Driver.coverage_samples)
  in
  let last_bug_t =
    List.fold_left
      (fun acc ((b : Bug.t), _) -> max acc b.Bug.vtime)
      0 on_r.Driver.bugs
  in
  let parity_t = max cov_parity_t last_bug_t in
  let work r = Report.metric (Session.run_report r) "solver.work" in
  let w_on = work on_r and w_off = work off_r in
  let w_parity = w_on * parity_t / deadline in
  let reduction_pct =
    if w_off = 0 then 0 else 100 * (w_off - w_parity) / w_off
  in
  let est = Executor.stats on_r.Driver.executor in
  Printf.printf
    "  off: cov %d, %d bug(s), %d work to deadline\n\
    \  on:  cov %d at deadline; outcome parity at t=%d/%d -> %d work\n\
    \  interpolant hits %d / misses %d, %d state(s) subsumed\n\
    \  solver work to the off run's outcome: -%d%% (gate: >=15%%)\n%!"
    cov_off (List.length (bug_set off_r)) w_off cov_on parity_t deadline w_parity
    est.Executor.interpolant_hits est.Executor.interpolant_misses
    est.Executor.subsumed_states reduction_pct;
  if reduction_pct < 15 then begin
    Printf.eprintf
      "pathcond A-B: work-to-outcome reduction %d%% is below the 15%% gate\n"
      reduction_pct;
    exit 1
  end

(* --- Pool --jobs sweep ------------------------------------------------------------- *)

(* The domain-pool determinism-and-throughput sweep: the same campaign at
   --jobs 1/2/4, wall-clocked, with the byte-identical report contract
   checked inline (docs/parallelism.md). Speedup is reported honestly:
   on a single-core runner the widths tie (modulo domain overhead), and
   the column exists so multi-core runs of the same harness show the
   scaling. *)
let pool_jobs_bench ?(lease = 1) () =
  heading "Pool campaign at --jobs 1/2/4: determinism and wall-clock";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  (host reports %d recognisable core(s))\n%!" cores;
  if cores < 4 then
    Printf.printf
      "  warning: host has fewer than 4 cores, so --jobs 4 is clamped to %d \
       worker domain(s); expect speedup ~1.0x there (the CI pool-speedup \
       gate skips such runners)\n%!"
      cores;
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seeds = List.map snd t.Registry.seeds in
  let deadline = ten_hours in
  let sweep ~lease =
    let table =
      Tablefmt.create
        [ "jobs"; "lease"; "merged cov"; "rounds"; "wall ms"; "speedup"; "report" ]
    in
    let base_json = ref "" and base_wall = ref 0 in
    List.iter
      (fun jobs ->
        let t0 = Unix.gettimeofday () in
        let pool = Driver.run_pool ~jobs ~lease prog ~seeds ~deadline in
        let wall_ms =
          int_of_float (1000. *. (Unix.gettimeofday () -. t0))
        in
        let json = Report.to_json (Driver.pool_run_report pool) in
        let verdict =
          if jobs = 1 then begin
            base_json := json;
            base_wall := wall_ms;
            "baseline"
          end
          else if json = !base_json then "identical"
          else "MISMATCH"
        in
        let speedup_pct =
          if wall_ms <= 0 then 0 else 100 * !base_wall / wall_ms
        in
        let name =
          if lease = 1 then Printf.sprintf "%s/jobs-%d" t.Registry.name jobs
          else Printf.sprintf "%s/jobs-%d-lease-%d" t.Registry.name jobs lease
        in
        note_pool_run ~jobs ~lease ~wall_ms ~speedup_pct ~suite:"pool-jobs"
          ~name ~deadline pool;
        Tablefmt.add_row table
          [
            string_of_int jobs;
            string_of_int lease;
            string_of_int pool.Driver.merged_coverage;
            string_of_int pool.Driver.pool_rounds;
            string_of_int wall_ms;
            Printf.sprintf "%d.%02dx" (speedup_pct / 100) (speedup_pct mod 100);
            verdict;
          ];
        Printf.printf "  ... jobs=%d lease=%d done (%d ms, %s)\n%!" jobs lease
          wall_ms verdict;
        if verdict = "MISMATCH" then begin
          prerr_endline "pool reports diverged across --jobs; determinism bug";
          exit 1
        end)
      [ 1; 2; 4 ];
    Tablefmt.print table
  in
  sweep ~lease;
  if lease = 1 then begin
    (* the same identity check with coarse work units: a different (but
       equally deterministic) campaign, so it gets its own jobs=1
       baseline *)
    Printf.printf "  re-running the sweep with 3-turn leases\n%!";
    sweep ~lease:3
  end;
  Printf.printf
    "  every width produced byte-identical reports; speedup only reflects \
     the host's core count\n%!"

(* --- Crash-resume durability ------------------------------------------------------ *)

(* The crash-durability drill the CI crash-resume job also drives with a
   real SIGKILL: here the kill is simulated in-process (the checkpoint
   halts the campaign at a round barrier), the latest snapshot is loaded
   back and resumed, and the resumed pool report must be byte-identical
   to an uninterrupted run of the same campaign (docs/robustness.md).
   The results/runs_crash-resume.csv row carries the serialisation cost
   (snapshot_ms) and the resume count. *)
let crash_resume_bench ?(jobs = 2) ?(lease = 2) () =
  heading "Crash-resume: checkpoint every turn, kill at a barrier, resume, compare";
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seeds = List.map snd t.Registry.seeds in
  let deadline = ten_hours in
  let scheduler = "round-robin" in
  let baseline =
    Driver.run_pool ~scheduler ~runtime:(instrumented ()) ~jobs ~lease prog ~seeds
      ~deadline
  in
  let base_json = Report.to_json (Driver.pool_run_report baseline) in
  let path = Filename.temp_file "pbse_bench_ck" ".json" in
  let snapshot_ms = ref 0 in
  let ck =
    Driver.checkpoint ~halt_after:2
      ~note_ms:(fun ms -> snapshot_ms := !snapshot_ms + ms)
      ~path ~every:1 ()
  in
  let _killed : Driver.pool_report =
    Driver.run_pool ~scheduler ~runtime:(instrumented ()) ~jobs ~lease ~checkpoint:ck
      prog ~seeds ~deadline
  in
  Printf.printf "  ... halted at the round-2 barrier (%d ms in snapshot writes)\n%!"
    !snapshot_ms;
  match Driver.load_snapshot ~path with
  | Error e ->
    Printf.eprintf "checkpoint unreadable: %s\n" e;
    exit 1
  | Ok (sn, fallback) ->
    (match fallback with
     | Some why -> Printf.printf "  ... resumed from the .bak rotation: %s\n%!" why
     | None -> ());
    (* no ~lease here on purpose: the resume must pick the lease back up
       from the snapshot meta, or leased checkpoints would re-plan with
       different work units and diverge; telemetry too comes back on
       from the meta *)
    let resumed =
      match Driver.resume_pool ~jobs sn prog ~seeds with
      | Ok pool -> pool
      | Error e ->
        Printf.eprintf "resume failed: %s\n" e;
        exit 1
    in
    let resumed_json = Report.to_json (Driver.pool_run_report resumed) in
    if resumed_json <> base_json then begin
      prerr_endline "resumed pool report diverged from the uninterrupted run";
      exit 1
    end;
    note_pool_run ~jobs ~lease ~snapshot_ms:!snapshot_ms ~resumes:1
      ~suite:"crash-resume" ~name:(t.Registry.name ^ "/" ^ scheduler) ~deadline
      resumed;
    Printf.printf
      "  kill@round-2 + resume reproduced the uninterrupted report byte for byte \
       (%d bytes)\n%!"
      (String.length base_json)

(* --- Serve: concurrent socket campaigns ------------------------------------------- *)

(* The server drill the CI serve-smoke job also drives end-to-end with
   the real binary: here the server runs in-process on a temp socket,
   two clients request the same campaign concurrently over pbse-serve/2,
   and both responses must be byte-identical to the CLI `run --pool
   --report` recipe for the same parameters. A third request measures
   the warm (store-served) latency. Two further legs mirror the new CI
   gates: a quota-capped server must reject a burst with a structured
   over-capacity error, and a --store-file restart must serve the warm
   body from the reloaded residue cache. *)
let serve_bench () =
  heading "Serve: 2 concurrent socket campaigns + warm reuse + quota + restart";
  let t = target "gif2tiff" in
  let deadline = hour / 4 in
  (* local equivalent of the request, for the identity check and the CSV
     row's engine metrics *)
  let local =
    Driver.run_pool ~runtime:(instrumented ()) (Registry.program t)
      ~seeds:(List.map snd t.Registry.seeds)
      ~deadline
  in
  let local_json =
    Report.to_json
      (Driver.pool_run_report
         ~meta:
           [
             ("target", t.Registry.name);
             ("seed", "pool");
             ("deadline", string_of_int deadline);
           ]
         local)
  in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pbse-bench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let endpoint = Pbse_serve.Transport.Unix_socket socket in
  let lookup name =
    Option.map
      (fun t -> (Registry.program t, List.map snd t.Registry.seeds))
      (Registry.by_name name)
  in
  (* boot a server configuration, run [drive] against it, return its
     lifetime stats *)
  let with_server ?store_file ?(quota_burst = 0) drive =
    let control = Pbse_serve.Transport.control_create () in
    let stats_cell = ref None in
    let server =
      Thread.create
        (fun () ->
          stats_cell :=
            Some
              (Pbse.Serve.serve ~endpoints:[ endpoint ] ~jobs:2 ?store_file
                 ~quota_burst ~control ~lookup ()))
        ()
    in
    (* wait for the socket to come up (listen unlinks any old file first) *)
    let rec wait_up n =
      if n = 0 then failwith "server socket never came up"
      else if not (Sys.file_exists socket) then begin
        Thread.delay 0.05;
        wait_up (n - 1)
      end
    in
    wait_up 100;
    Fun.protect
      ~finally:(fun () ->
        Pbse_serve.Transport.request_stop control;
        Thread.join server)
      drive
    |> fun result -> (result, Option.get !stats_cell)
  in
  let v2_line =
    Pbse_serve.Protocol.render_request
      {
        Pbse_serve.Protocol.rq_id = Some "bench";
        rq_client = Some "bench";
        rq_progress = false;
        rq_target = t.Registry.name;
        rq_deadline = deadline;
        rq_pool_scheduler = "";
        rq_scheduler = None;
        rq_jobs = None;
        rq_lease = 1;
        rq_share = false;
      }
  in
  let timed_request line =
    let t0 = Unix.gettimeofday () in
    let r = Pbse.Serve.request ~connect:endpoint line in
    (r, int_of_float (1000. *. (Unix.gettimeofday () -. t0)))
  in
  let check label = function
    | Error e ->
      Printf.eprintf "serve request %s failed: %s: %s\n" label
        e.Pbse.Serve.err_code e.Pbse.Serve.err_message;
      exit 1
    | Ok body ->
      if body <> local_json then begin
        Printf.eprintf "serve response %s diverged from the CLI --pool report\n"
          label;
        exit 1
      end
  in
  (* leg 1: two concurrent clients + one warm repeat *)
  let (timings, stats) =
    with_server (fun () ->
        let unset =
          {
            Pbse.Serve.err_code = "unset";
            err_message = "unset";
            err_retry_after = None;
          }
        in
        let slot_a = ref (Error unset, 0) in
        let client_a = Thread.create (fun () -> slot_a := timed_request v2_line) () in
        let b, b_ms = timed_request v2_line in
        Thread.join client_a;
        let a, a_ms = !slot_a in
        let warm, warm_ms = timed_request v2_line in
        check "A" a;
        check "B" b;
        check "warm" warm;
        (a_ms, b_ms, warm_ms))
  in
  let a_ms, b_ms, warm_ms = timings in
  (* leg 2: a burst-of-1 quota rejects the second request, structured *)
  let (retry_after, quota_stats) =
    with_server ~quota_burst:1 (fun () ->
        check "quota-first" (fst (timed_request v2_line));
        match fst (timed_request v2_line) with
        | Ok _ ->
          prerr_endline "quota-capped server admitted a burst of 2";
          exit 1
        | Error e ->
          if e.Pbse.Serve.err_code <> "over-capacity" then begin
            Printf.eprintf "quota rejection had code %s (want over-capacity)\n"
              e.Pbse.Serve.err_code;
            exit 1
          end;
          Option.value e.Pbse.Serve.err_retry_after ~default:0)
  in
  if quota_stats.Pbse.Serve.sv_rejections < 1 then begin
    prerr_endline "quota leg recorded no rejections";
    exit 1
  end;
  (* leg 3: kill + reboot with --store-file; the rebooted server must
     serve the warm body from the reloaded residue cache *)
  let store_file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pbse-bench-%d.store" (Unix.getpid ()))
  in
  (try Sys.remove store_file with Sys_error _ -> ());
  let ((), _cold_stats) =
    with_server ~store_file (fun () -> check "store-cold" (fst (timed_request v2_line)))
  in
  let (reload_ms, warm_stats) =
    with_server ~store_file (fun () ->
        let r, ms = timed_request v2_line in
        check "store-warm" r;
        ms)
  in
  (try Sys.remove store_file with Sys_error _ -> ());
  (try Sys.remove (store_file ^ ".bak") with Sys_error _ -> ());
  if warm_stats.Pbse.Serve.sv_store_reloads < 1 then begin
    prerr_endline "restarted server reloaded nothing from the store file";
    exit 1
  end;
  if warm_stats.Pbse.Serve.sv_store_hits < 1 then begin
    prerr_endline "restarted server served no store hit";
    exit 1
  end;
  note_pool_run ~jobs:2 ~wall_ms:(max a_ms b_ms)
    ~session_hits:stats.Pbse.Serve.sv_store_hits
    ~session_evictions:stats.Pbse.Serve.sv_store_evictions
    ~serve_clients:stats.Pbse.Serve.sv_clients
    ~serve_rejections:quota_stats.Pbse.Serve.sv_rejections
    ~store_reloads:warm_stats.Pbse.Serve.sv_store_reloads ~suite:"serve"
    ~name:t.Registry.name ~deadline local;
  Printf.printf
    "  2 concurrent clients (%d / %d ms) + warm reuse (%d ms): all \
     responses byte-identical to the CLI report (%d bytes); %d client(s), %d \
     store hit(s)\n%!"
    a_ms b_ms warm_ms (String.length local_json) stats.Pbse.Serve.sv_clients
    stats.Pbse.Serve.sv_store_hits;
  Printf.printf
    "  quota burst=1: second request rejected over-capacity (retry_after \
     %ds, %d rejection(s)); restart with --store-file: %d reload(s), warm \
     response in %d ms\n%!"
    retry_after quota_stats.Pbse.Serve.sv_rejections
    warm_stats.Pbse.Serve.sv_store_reloads reload_ms

(* --- Claims: the paper's results as assertions ---------------------------------- *)

(* The pinned Table III bug set: every planted bug the seed pool reaches
   within 10h (EXPERIMENTS.md). A lost one fails [claims] by name. *)
let pinned_bugs =
  [
    ("pngtest", "time-month-oob-read");
    ("pngtest", "keyword-trim-underflow");
    ("gif2tiff", "colormap-oob-read");
    ("tiff2rgba", "cielab-oob-read");
    ("tiff2bw", "invert-row-oob-write");
    ("dwarfdump", "abbrev-code-oob-read");
    ("dwarfdump", "sibling-ref-oob-read");
    ("dwarfdump", "cu-name-oob-read");
    ("dwarfdump", "form-string-oob-read");
    ("dwarfdump", "line-file-index-oob-read");
    ("dwarfdump", "line-ftable-alloc-overflow");
    ("readelf", "strtab-name-oob-read");
    ("readelf", "symbol-version-oob-write");
    ("readelf", "dynamic-strtab-oob-read");
    ("readelf", "note-alloc-overflow");
  ]

(* EXPERIMENTS.md's shape claims, checked on the values the tables and
   figures above print. Exits nonzero naming every claim that fails. *)
let claims () =
  let started = Unix.gettimeofday () in
  let t1 = table1 () in
  let t2 = table2 () in
  let t3 = table3 () in
  let f4_plain, f4_augmented = fig4 () in
  let f5 = fig5 () in
  let ablation = ablate () in
  heading "Claims: EXPERIMENTS.md's shapes as assertions";
  let best_klee_10h =
    List.fold_left
      (fun acc (_, (_, c10)) -> max acc c10)
      0
      (List.concat_map snd t1.t1_klee)
  in
  let best_of searcher =
    List.fold_left (fun acc (_, (c1, c10)) -> max acc (max c1 c10)) 0
      (List.assoc searcher t1.t1_klee)
  in
  let sym10 = List.map (fun (_, cells) -> List.assoc 10 cells) t1.t1_klee in
  let small, large =
    match t1.t1_pbse with [ s; l ] -> (s, l) | _ -> failwith "table1: two pbSE rows"
  in
  let found =
    List.filter_map (fun (t, l) -> Option.map (fun l -> (t, l)) l) t3.t3_distinct
  in
  let missing = List.filter (fun b -> not (List.mem b found)) pinned_bugs in
  let traps label = List.assoc label ablation in
  let tcpdump_reports =
    List.length (List.filter (String.equal "tcpdump") t3.t3_reports)
  in
  let results =
    [
      ( "Table I: every searcher stalls on sym-10",
        List.for_all (fun c -> c = List.hd sym10) sym10
        && List.for_all (fun (c1, c10) -> c1 = c10) sym10,
        Printf.sprintf "sym-10 cells %s"
          (String.concat " "
             (List.map (fun (c1, c10) -> Printf.sprintf "%d/%d" c1 c10) sym10))
      );
      ( "Table I: dfs is the weakest searcher",
        List.for_all
          (fun (searcher, _) -> searcher = "dfs" || best_of searcher > best_of "dfs")
          t1.t1_klee,
        Printf.sprintf "dfs best %d; others %s" (best_of "dfs")
          (String.concat " "
             (List.filter_map
                (fun (searcher, _) ->
                  if searcher = "dfs" then None
                  else Some (Printf.sprintf "%s=%d" searcher (best_of searcher)))
                t1.t1_klee)) );
      ( "Table I: pbSE at 1h beats every KLEE cell at 10h",
        List.for_all (fun c -> c.cov1 > best_klee_10h) t1.t1_pbse,
        Printf.sprintf "pbSE 1h %s vs best KLEE 10h %d"
          (String.concat "/" (List.map (fun c -> string_of_int c.cov1) t1.t1_pbse))
          best_klee_10h );
      ( "Table I: c-time grows >= 10x from the small seed to the large one, p-time < 2x",
        large.c_time >= 10 * small.c_time && large.p_time < 2 * small.p_time,
        Printf.sprintf "c-time %d -> %d, p-time %d -> %d" small.c_time large.c_time
          small.p_time large.p_time );
      ( "Table II: pbSE at 10h >= the best KLEE cell on every target",
        List.for_all (fun r -> r.pbse10 >= r.best_klee) t2,
        String.concat ", "
          (List.map
             (fun r -> Printf.sprintf "%s %d vs %d" r.t2_target r.pbse10 r.best_klee)
             t2) );
      ( "Table III: the distinct bugs include the pinned list",
        missing = [],
        Printf.sprintf "%d reports, %d distinct; missing: %s" (List.length t3.t3_reports)
          (List.length t3.t3_distinct)
          (match missing with
           | [] -> "none"
           | _ -> String.concat " " (List.map (fun (t, l) -> t ^ "/" ^ l) missing)) );
      ( "Table III: tcpdump has zero bugs",
        tcpdump_reports = 0,
        Printf.sprintf "%d tcpdump report(s)" tcpdump_reports );
      ( "Fig 4: coverage-augmented vectors find at least as many traps on gif2tiff",
        f4_augmented >= f4_plain,
        Printf.sprintf "%d vs %d BBV-only" f4_augmented f4_plain );
      ( "Ablation: coverage-augmented vectors find more trap phases on dwarfdump",
        traps "pbSE (default)" > traps "BBV-only vectors",
        Printf.sprintf "%d vs %d BBV-only" (traps "pbSE (default)")
          (traps "BBV-only vectors") );
      ( "Fig 5: the normal seed runs to completion, the buggy seed stops",
        (match (f5.normal_outcome, f5.buggy_outcome) with
         | Concolic.Exited _, Concolic.Stopped _ -> true
         | _ -> false),
        match f5.buggy_outcome with
        | Concolic.Stopped reason -> "buggy seed stopped: " ^ reason
        | Concolic.Exited _ | Concolic.Deadline -> "buggy seed did not stop" );
      ( "Fig 5: pbSE finds the CIELab read from the benign seed within 10h",
        Option.is_some f5.pbse_cielab,
        match f5.pbse_cielab with
        | Some (phase, vtime) -> Printf.sprintf "phase %d at t=%d" phase vtime
        | None -> "not found" );
      ( "Fig 5: KLEE default does not find it within 10h",
        not (List.mem "cielab-oob-read" f5.klee_bugs),
        Printf.sprintf "KLEE default found %d bug(s)" (List.length f5.klee_bugs) );
    ]
  in
  List.iter
    (fun (name, holds, detail) ->
      Printf.printf "  [%s] %s (%s)\n" (if holds then "PASS" else "FAIL") name detail)
    results;
  let failed = List.filter (fun (_, holds, _) -> not holds) results in
  Printf.printf "%d of %d claims hold; wall time %.1f s\n%!"
    (List.length results - List.length failed)
    (List.length results)
    (Unix.gettimeofday () -. started);
  if failed <> [] then begin
    flush_runs ();
    List.iter (fun (name, _, _) -> Printf.eprintf "claim failed: %s\n" name) failed;
    exit 1
  end

(* --- Smoke (CI) ----------------------------------------------------------------- *)

(* One tiny end-to-end run with telemetry enabled; used by the CI
   bench-smoke job, which checks results/runs_smoke.csv and
   results/smoke_report.json for the telemetry columns. *)
let smoke ?(jobs = 1) () =
  heading "Smoke: one tiny telemetry-instrumented run (CI artifact)";
  (* big enough that the concolic pass and phase analysis (~14k units on
     gif2tiff) leave budget for phase scheduling, so solver/phase metrics
     are nonzero *)
  let small = max 25_000 (hour / 4) in
  let t = target "gif2tiff" in
  let report =
    Session.run ~runtime:(instrumented ()) (Registry.program t)
      ~seed:(Registry.default_seed t) ~deadline:small
  in
  note_run ~suite:"smoke" ~name:t.Registry.name ~deadline:small report;
  let rr =
    Session.run_report
      ~meta:
        [
          ("target", t.Registry.name);
          ("suite", "smoke");
          ("deadline", string_of_int small);
        ]
      report
  in
  write_file "smoke_report.json" (Report.to_json rr);
  Printf.printf "smoke report -> results/smoke_report.json (%d metrics)\n%!"
    (List.length rr.Report.metrics);
  (* A-B leg: the same run with the path-condition layer off; the bug
     sets must match, and the off-side report is written for the CI
     solver.work gate (docs/subsumption.md) *)
  let off_config =
    Session.(
      with_pathcond (fun _ -> { subsumption = false }) default_config)
  in
  let off_report =
    Session.run ~config:off_config ~runtime:(instrumented ~config:off_config ())
      (Registry.program t) ~seed:(Registry.default_seed t) ~deadline:small
  in
  note_run ~suite:"smoke" ~name:(t.Registry.name ^ "/pathcond-off")
    ~deadline:small off_report;
  let bug_set r =
    List.sort_uniq compare
      (List.map
         (fun ((b : Pbse_exec.Bug.t), _) -> (b.Pbse_exec.Bug.gid, b.Pbse_exec.Bug.kind))
         r.Driver.bugs)
  in
  if bug_set report <> bug_set off_report then begin
    prerr_endline "smoke pathcond A-B: bug sets diverged between on and off";
    exit 1
  end;
  let orr =
    Session.run_report
      ~meta:
        [
          ("target", t.Registry.name);
          ("suite", "smoke-pathcond-off");
          ("deadline", string_of_int small);
        ]
      off_report
  in
  write_file "smoke_report_off.json" (Report.to_json orr);
  Printf.printf
    "smoke pathcond A-B -> results/smoke_report_off.json (queries %d on vs %d \
     off, %d interpolant hit(s))\n%!"
    (Report.metric rr "solver.queries")
    (Report.metric orr "solver.queries")
    (Report.metric rr "smt.interpolant_hits");
  (* and one tiny pool campaign, so the aggregate-report path is gated
     in CI too *)
  let pool =
    Driver.run_pool ~scheduler:"coverage-greedy" ~runtime:(instrumented ()) ~jobs
      (Registry.program t)
      ~seeds:(List.map snd t.Registry.seeds)
      ~deadline:small
  in
  note_pool_run ~jobs ~suite:"smoke-pool" ~name:t.Registry.name ~deadline:small
    pool;
  let pr =
    Driver.pool_run_report
      ~meta:
        [
          ("target", t.Registry.name);
          ("suite", "smoke-pool");
          ("deadline", string_of_int small);
        ]
      pool
  in
  write_file "pool_smoke_report.json" (Report.to_json pr);
  Printf.printf "pool smoke report -> results/pool_smoke_report.json (%d seeds, %d metrics)\n%!"
    (List.length pr.Report.seeds)
    (List.length pr.Report.metrics)

(* --- main ------------------------------------------------------------------------ *)

let () =
  (* two flags, shared by the subcommands that campaign: --jobs N and
     --lease K *)
  let flag name default =
    let rec scan i =
      if i + 1 >= Array.length Sys.argv then default
      else if Sys.argv.(i) = name then
        try max 1 (int_of_string Sys.argv.(i + 1)) with Failure _ -> default
      else scan (i + 1)
    in
    scan 1
  in
  let jobs = flag "--jobs" 1 in
  let lease = flag "--lease" 1 in
  Printf.printf "pbSE benchmark harness: 1h = %d virtual time units (PBSE_HOUR)\n" hour;
  (match subcommand with
   | "table1" -> ignore (table1 ())
   | "table2" -> ignore (table2 ())
   | "table3" -> ignore (table3 ())
   | "fig1" -> fig1 ()
   | "fig4" -> ignore (fig4 ())
   | "fig5" -> ignore (fig5 ())
   | "ablate" -> ignore (ablate ())
   | "claims" -> claims ()
   | "robust" -> robust ()
   | "pool" -> pool_bench ()
   | "pathcond-ab" -> pathcond_ab ()
   | "pool-jobs" -> pool_jobs_bench ~lease ()
   | "crash-resume" -> crash_resume_bench ~jobs ()
   | "serve" -> serve_bench ()
   | "smoke" -> smoke ~jobs ()
   | "kernels" -> kernels ()
   | "all" ->
     ignore (table1 ());
     ignore (table2 ());
     ignore (table3 ());
     fig1 ();
     ignore (fig4 ());
     ignore (fig5 ());
     ignore (ablate ());
     robust ();
     pool_bench ();
     pathcond_ab ();
     pool_jobs_bench ();
     crash_resume_bench ();
     serve_bench ();
     kernels ()
   | other ->
     Printf.eprintf
       "unknown benchmark %s (try \
        table1|table2|table3|fig1|fig4|fig5|ablate|claims|robust|pool|pathcond-ab|pool-jobs|crash-resume|serve|smoke|kernels|all)\n"
       other;
     exit 1);
  flush_runs ()
