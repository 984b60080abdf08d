(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-III, Figures 1, 4, 5), plus the ablations listed
   in DESIGN.md and Bechamel micro-benchmarks of each experiment kernel.

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

(* --- per-run telemetry rows (results/runs.csv) --------------------------------- *)

(* Every pbSE driver run performed by the harness contributes one CSV row
   of solver/fault/retry/phase telemetry, harvested through the same
   Session.run_report mapping the CLI's --report uses (docs/telemetry.md
   documents the column <-> metric correspondence). *)
let run_csv_metrics =
  [
    "coverage.blocks"; "bugs.total"; "bugs.confirmed"; "solver.queries";
    "solver.unknown"; "solver.retries"; "solver.escalations"; "solver.retry_resolved";
    "solver.work"; "solver.prefix_hits"; "smt.subsumed_states"; "smt.interpolant_hits";
    "smt.interpolant_misses"; "pathcond.loop_summaries"; "pathcond.summary_fallbacks";
    "fault.solver-unknown"; "fault.exec-abort";
    "fault.mem-pressure"; "quarantine.evicted"; "quarantine.strikes"; "phase.turns";
    "phase.new_cover"; "phase.dwell"; "phase.trap_dwell"; "sched.turns";
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

let flush_runs ?(file = "runs.csv") () =
  match !run_rows with
  | [] -> ()
  | rows ->
    write_file file (String.concat "\n" (run_csv_header :: List.rev rows) ^ "\n");
    Printf.printf "per-run telemetry: %d row(s) -> results/%s\n%!" (List.length rows) file;
    run_rows := []

(* --- Table I ----------------------------------------------------------------- *)

(* KLEE with one searcher on readelf; returns (cov@1h, cov@10h). *)
let klee_cell prog searcher sym_size =
  let r =
    Klee.run prog ~searcher ~input:(Bytes.make sym_size '\000')
      ~checkpoints:[ hour; ten_hours ]
  in
  (List.assoc hour r.Klee.checkpoints, List.assoc ten_hours r.Klee.checkpoints)

let pbse_row ~suite ~name prog seed =
  let report = Session.run prog ~seed ~deadline:ten_hours in
  note_run ~suite ~name ~deadline:ten_hours report;
  let cov1 = Session.coverage_at report hour in
  let cov10 = Coverage.count (Executor.coverage report.Driver.executor) in
  (report, cov1, cov10)

let table1 () =
  heading "Table I: basic blocks covered on readelf, per searcher";
  Printf.printf "(1h = %d virtual time units; symbolic file sizes as in the paper)\n" hour;
  let t = target "readelf" in
  let prog = Registry.program t in
  let sizes = [ 10; 100; 1000; 10000 ] in
  let table =
    Tablefmt.create
      ([ "searcher" ]
      @ List.concat_map
          (fun s -> [ Printf.sprintf "sym-%d 1h" s; Printf.sprintf "sym-%d 10h" s ])
          sizes)
  in
  List.iter
    (fun searcher ->
      let cells =
        List.concat_map
          (fun size ->
            let c1, c10 = klee_cell prog searcher size in
            [ string_of_int c1; string_of_int c10 ])
          sizes
      in
      Tablefmt.add_row table (searcher :: cells);
      Printf.printf "  ... %s done\n%!" searcher)
    Searcher.names;
  Tablefmt.print table;
  (* pbSE rows: a small and a large seed, as in the paper (576 / 7981 B) *)
  let pbse_table =
    Tablefmt.create [ "pbSE"; "c-time"; "p-time"; "1h"; "10h" ]
  in
  List.iter
    (fun label ->
      let seed = Registry.seed t label in
      let report, cov1, cov10 = pbse_row ~suite:"table1" ~name:"readelf" prog seed in
      Tablefmt.add_row pbse_table
        [
          Printf.sprintf "seed(%d)" (Bytes.length seed);
          string_of_int report.Driver.c_time;
          string_of_int report.Driver.p_time;
          string_of_int cov1;
          string_of_int cov10;
        ])
    [ "small"; "large" ];
  Tablefmt.print pbse_table

(* --- Table II ---------------------------------------------------------------- *)

let table2 () =
  heading "Table II: basic blocks covered on readelf/gif2tiff/pngtest/dwarfdump";
  let sizes = [ 10; 100; 1000; 10000 ] in
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
              sizes)
          [ "rp"; "cn" ]
      @ [ "pbSE 1h"; "pbSE 10h"; "inc" ])
  in
  List.iter
    (fun name ->
      let t = target name in
      let prog = Registry.program t in
      let best = ref 0 in
      let klee_cells =
        List.concat_map
          (fun searcher ->
            List.concat_map
              (fun size ->
                let c1, c10 = klee_cell prog searcher size in
                best := max !best (max c1 c10);
                [ string_of_int c1; string_of_int c10 ])
              sizes)
          [ "random-path"; "covnew" ]
      in
      let _, cov1, cov10 = pbse_row ~suite:"table2" ~name prog (Registry.default_seed t) in
      let inc =
        if !best = 0 then "n/a"
        else Printf.sprintf "%d%%" (100 * (cov10 - !best) / !best)
      in
      Tablefmt.add_row table
        ((t.Registry.package ^ " " ^ name)
        :: (klee_cells @ [ string_of_int cov1; string_of_int cov10; inc ]));
      Printf.printf "  ... %s done\n%!" name)
    [ "readelf"; "gif2tiff"; "pngtest"; "dwarfdump" ];
  Tablefmt.print table

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

(* [nth_match] distinguishes multiple same-kind bugs in one function; the
   caller passes the bug's rank among its (function, kind) group, ordered
   by faulting block. *)
let bug_label target (bug : Bug.t) ~nth_match =
  let func =
    match String.index_opt bug.Bug.location '/' with
    | Some i -> String.sub bug.Bug.location 0 i
    | None -> bug.Bug.location
  in
  let candidates =
    List.filter_map
      (fun (t, f, k, label) ->
        if t = target && f = func && k = bug.Bug.kind then Some label else None)
      bug_label_table
  in
  List.nth_opt candidates (min nth_match (max 0 (List.length candidates - 1)))

let table3 () =
  heading "Table III: bugs found by pbSE";
  let table =
    Tablefmt.create [ "package"; "test-driver"; "s-size"; "t-p"; "b-p"; "kind"; "CVE ID" ]
  in
  let total = ref 0 in
  let distinct : (string * int * string, unit) Hashtbl.t = Hashtbl.create 32 in
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
              incr total;
              Hashtbl.replace distinct (name, bug.Bug.gid, bug.Bug.kind) ();
              let func =
                match String.index_opt bug.Bug.location '/' with
                | Some i -> String.sub bug.Bug.location 0 i
                | None -> bug.Bug.location
              in
              let rank =
                List.length
                  (List.filter
                     (fun ((b : Bug.t), _) ->
                       b.Bug.gid < bug.Bug.gid
                       && b.Bug.kind = bug.Bug.kind
                       &&
                       let f =
                         match String.index_opt b.Bug.location '/' with
                         | Some j -> String.sub b.Bug.location 0 j
                         | None -> b.Bug.location
                       in
                       f = func)
                     sorted)
              in
              let cve =
                match bug_label name bug ~nth_match:rank with
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
                  cve;
                ])
            sorted;
          Printf.printf "  ... %s/%s done (%d reports so far)\n%!" name label !total)
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
    !total (Hashtbl.length distinct)

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
     else "fewer")

(* --- Fig 5: tiff2rgba, normal vs buggy seed ----------------------------------- *)

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
    concolic.Concolic.bbvs
  in
  let bbvs = run_seed "normal" (Registry.seed t "large") in
  let division = Phase.divide (Rng.create 1) bbvs in
  Printf.printf "phases of the normal run (top strip of Fig 5a): %s (%d traps)\n"
    (Phase.render_strip division) division.Phase.trap_count;
  ignore (run_seed "buggy" (Registry.seed t "buggy-cielab"));
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
    (List.length klee.Klee.bugs)

(* --- Ablations ----------------------------------------------------------------- *)

let ablate () =
  heading "Ablations (DESIGN.md): pbSE design choices on dwarfdump";
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  let table = Tablefmt.create [ "variant"; "traps"; "cov 1h"; "cov 10h"; "bugs" ] in
  let run label config =
    let report = Session.run ~config prog ~seed ~deadline:ten_hours in
    note_run ~suite:"ablate" ~name:label ~deadline:ten_hours report;
    Tablefmt.add_row table
      [
        label;
        string_of_int report.Driver.division.Phase.trap_count;
        string_of_int (Session.coverage_at report hour);
        string_of_int (Coverage.count (Executor.coverage report.Driver.executor));
        string_of_int (List.length report.Driver.bugs);
      ];
    Printf.printf "  ... %s done\n%!" label
  in
  run "pbSE (default)" Session.default_config;
  run "BBV-only vectors"
    Session.(with_concolic (fun c -> { c with mode = Phase.Bbv_only }) default_config);
  run "no seedState dedup"
    Session.(with_search (fun s -> { s with dedup_seed_states = false }) default_config);
  run "sequential phases"
    Session.(with_search (fun s -> { s with scheduler = "sequential" }) default_config);
  run "fixed k = 4" Session.(with_search (fun s -> { s with max_k = 4 }) default_config);
  Tablefmt.print table

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

(* --- Bechamel micro-benchmarks -------------------------------------------------- *)

let bechamel () =
  heading "Bechamel micro-benchmarks (one kernel per table/figure)";
  let open Bechamel in
  let small = max 2_000 (hour / 60) in
  let t1_kernel () =
    let prog = Registry.program (target "readelf") in
    ignore
      (Klee.run prog ~searcher:"random-path" ~input:(Bytes.make 100 '\000')
         ~checkpoints:[ small ])
  in
  let t2_kernel () =
    let t = target "gif2tiff" in
    ignore (Session.run (Registry.program t) ~seed:(Registry.default_seed t) ~deadline:small)
  in
  let t3_kernel () =
    let t = target "tiff2bw" in
    ignore (Session.run (Registry.program t) ~seed:(Registry.default_seed t) ~deadline:small)
  in
  let fig1_kernel () =
    let t = target "pngtest" in
    let prog = Registry.program t in
    let clock = Vclock.create () in
    let exec = Executor.create ~clock prog ~input:(Registry.default_seed t) in
    ignore (Concolic.run exec (Trace.indexer ()))
  in
  let fig4_kernel () =
    let t = target "gif2tiff" in
    let prog = Registry.program t in
    let clock = Vclock.create () in
    let exec = Executor.create ~clock prog ~input:(Registry.default_seed t) in
    let concolic = Concolic.run ~interval_length:60 exec (Trace.indexer ()) in
    ignore (Phase.divide (Rng.create 1) concolic.Concolic.bbvs)
  in
  let fig5_kernel () =
    let t = target "tiff2rgba" in
    let prog = Registry.program t in
    ignore (Pbse_exec.Concrete.run prog ~input:(Registry.seed t "buggy-cielab"))
  in
  let tests =
    [
      Test.make ~name:"table1: KLEE random-path on readelf" (Staged.stage t1_kernel);
      Test.make ~name:"table2: pbSE end-to-end on gif2tiff" (Staged.stage t2_kernel);
      Test.make ~name:"table3: pbSE bug hunt on tiff2bw" (Staged.stage t3_kernel);
      Test.make ~name:"fig1: concolic trace of pngtest" (Staged.stage fig1_kernel);
      Test.make ~name:"fig4: phase division of gif2tiff" (Staged.stage fig4_kernel);
      Test.make ~name:"fig5: buggy-seed replay of tiff2rgba" (Staged.stage fig5_kernel);
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:8 ~quota:(Time.second 1.0) ~kde:(Some 8) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      let analysis = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-45s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-45s (no estimate)\n%!" name)
        analysis)
    tests

(* --- Pool campaigns ---------------------------------------------------------------- *)

(* Seed-level scheduling policies compared on one multi-seed target: the
   whole benign pool under the same deadline, one campaign per policy.
   The acceptance bar (results/runs.csv rows, suite "pool") is that
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
     with the features on (docs/subsumption.md). *)
  let off_config =
    Session.(
      with_pathcond
        (fun _ -> { subsumption = false; loop_summaries = false })
        default_config)
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
      "pathcond A-B (pool): merged coverage regressed with features on (%d < \
       %d - %d)\n"
      on_pool.Driver.merged_coverage off_pool.Driver.merged_coverage slack;
    exit 1
  end;
  Printf.printf
    "  pathcond A-B (%s): merged cov %d (on) vs %d (off, 1%% band), %d bug(s) \
     both ways\n%!"
    scheduler on_pool.Driver.merged_coverage off_pool.Driver.merged_coverage
    on_bugs

(* --- Pathcond A-B: subsumption + loop summaries on vs off ------------------------ *)

(* The path-condition layer's acceptance gate (docs/subsumption.md): on
   dwarfdump, the engine with subsumption + summaries on must reach the
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
  heading "Pathcond A-B: dwarfdump with and without subsumption + summaries";
  let t = target "dwarfdump" in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  let deadline = ten_hours in
  let off_config =
    Session.(
      with_pathcond
        (fun _ -> { subsumption = false; loop_summaries = false })
        default_config)
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
    Printf.eprintf "pathcond A-B: coverage regressed with features on (%d < %d)\n"
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
    \  interpolant hits %d / misses %d, %d state(s) subsumed, %d summar(ies), \
     %d fallback(s)\n\
    \  solver work to the off run's outcome: -%d%% (gate: >=15%%)\n%!"
    cov_off (List.length (bug_set off_r)) w_off cov_on parity_t deadline w_parity
    est.Executor.interpolant_hits est.Executor.interpolant_misses
    est.Executor.subsumed_states est.Executor.loop_summaries
    est.Executor.summary_fallbacks reduction_pct;
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
   The runs.csv row carries the serialisation cost (snapshot_ms) and the
   resume count. *)
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

(* --- Smoke (CI) ----------------------------------------------------------------- *)

(* One tiny end-to-end run with telemetry enabled; used by the CI
   bench-smoke job, which checks results/runs.csv and
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
      with_pathcond
        (fun _ -> { subsumption = false; loop_summaries = false })
        default_config)
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
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
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
  (match what with
   | "table1" -> table1 ()
   | "table2" -> table2 ()
   | "table3" -> table3 ()
   | "fig1" -> fig1 ()
   | "fig4" -> fig4 ()
   | "fig5" -> fig5 ()
   | "ablate" -> ablate ()
   | "robust" -> robust ()
   | "pool" -> pool_bench ()
   | "pathcond-ab" -> pathcond_ab ()
   | "pool-jobs" -> pool_jobs_bench ~lease ()
   | "crash-resume" -> crash_resume_bench ~jobs ()
   | "serve" -> serve_bench ()
   | "smoke" -> smoke ~jobs ()
   | "bechamel" -> bechamel ()
   | "all" ->
     table1 ();
     table2 ();
     table3 ();
     fig1 ();
     fig4 ();
     fig5 ();
     ablate ();
     robust ();
     pool_bench ();
     pathcond_ab ();
     pool_jobs_bench ();
     crash_resume_bench ();
     serve_bench ();
     bechamel ()
   | other ->
     Printf.eprintf
       "unknown benchmark %s (try \
        table1|table2|table3|fig1|fig4|fig5|ablate|robust|pool|pathcond-ab|pool-jobs|crash-resume|serve|smoke|bechamel|all)\n"
       other;
     exit 1);
  flush_runs ()
