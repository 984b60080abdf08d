module Executor = Pbse_exec.Executor
module Searcher = Pbse_exec.Searcher
module Coverage = Pbse_exec.Coverage
module State = Pbse_exec.State
module Bug = Pbse_exec.Bug
module Concolic = Pbse_concolic.Concolic
module Bbv = Pbse_concolic.Bbv
module Trace = Pbse_concolic.Trace
module Phase = Pbse_phase.Phase
module Phase_queue = Pbse_sched.Phase_queue
module Scheduler = Pbse_sched.Scheduler
module Vclock = Pbse_util.Vclock
module Rng = Pbse_util.Rng
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Quarantine = Pbse_robust.Quarantine
module Solver = Pbse_smt.Solver
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report

(* --- configuration --------------------------------------------------------- *)

type concolic_config = {
  interval_length : int option; (* None: size from a concrete pre-run *)
  intervals_target : int; (* BBVs aimed for when auto-sizing *)
  time_period : int;
  mode : Phase.mode;
}

type search_config = {
  phase_searcher : string;
  scheduler : string;
  max_live : int;
  dedup_seed_states : bool;
  max_k : int;
  share_seed_states : bool; (* consult/publish the campaign share table *)
}

type solver_config = {
  budget : int;
  retry_cap : int;
  prefix_cap : int;
}

type robust_config = {
  confirm_bugs : bool;
  max_strikes : int;
  inject : Inject.plan;
  watchdog_factor : int;
  watchdog_strikes : int;
  degrade_after : int;
}

type pathcond_config = {
  subsumption : bool; (* block-boundary unsat-core pruning *)
  loop_summaries : bool; (* template loop summaries *)
}

type config = {
  concolic : concolic_config;
  search : search_config;
  solver : solver_config;
  robust : robust_config;
  pathcond : pathcond_config;
  rng_seed : int;
}

let default_config =
  {
    concolic =
      {
        interval_length = None;
        intervals_target = 120;
        time_period = 10_000;
        mode = Phase.Bbv_with_coverage;
      };
    search =
      {
        phase_searcher = "default";
        scheduler = "round-robin";
        max_live = 8192;
        dedup_seed_states = true;
        max_k = 20;
        share_seed_states = false;
      };
    solver = { budget = 60_000; retry_cap = 480_000; prefix_cap = 16_384 };
    robust =
      {
        confirm_bugs = true;
        max_strikes = 4;
        inject = Inject.none;
        watchdog_factor = 4;
        watchdog_strikes = 3;
        degrade_after = 4;
      };
    pathcond = { subsumption = true; loop_summaries = true };
    rng_seed = 1;
  }

let with_concolic f config = { config with concolic = f config.concolic }
let with_search f config = { config with search = f config.search }
let with_solver f config = { config with solver = f config.solver }
let with_robust f config = { config with robust = f config.robust }
let with_pathcond f config = { config with pathcond = f config.pathcond }
let with_rng_seed rng_seed config = { config with rng_seed }

(* Flat (key, value) rendering of a config, for campaign snapshots: a
   resumed process must rebuild the exact config or replay diverges. *)
let config_to_kvs config =
  [
    ( "concolic.interval_length",
      match config.concolic.interval_length with
      | Some l -> string_of_int l
      | None -> "auto" );
    ("concolic.intervals_target", string_of_int config.concolic.intervals_target);
    ("concolic.time_period", string_of_int config.concolic.time_period);
    ( "concolic.mode",
      match config.concolic.mode with
      | Phase.Bbv_only -> "bbv"
      | Phase.Bbv_with_coverage -> "bbv+cov" );
    ("search.phase_searcher", config.search.phase_searcher);
    ("search.scheduler", config.search.scheduler);
    ("search.max_live", string_of_int config.search.max_live);
    ("search.dedup_seed_states", if config.search.dedup_seed_states then "1" else "0");
    ("search.max_k", string_of_int config.search.max_k);
    ("search.share_seed_states", if config.search.share_seed_states then "1" else "0");
    ("solver.budget", string_of_int config.solver.budget);
    ("solver.retry_cap", string_of_int config.solver.retry_cap);
    ("solver.prefix_cap", string_of_int config.solver.prefix_cap);
    ("robust.confirm_bugs", if config.robust.confirm_bugs then "1" else "0");
    ("robust.max_strikes", string_of_int config.robust.max_strikes);
    ("robust.inject", Inject.to_string config.robust.inject);
    ("robust.watchdog_factor", string_of_int config.robust.watchdog_factor);
    ("robust.watchdog_strikes", string_of_int config.robust.watchdog_strikes);
    ("robust.degrade_after", string_of_int config.robust.degrade_after);
    (* snapshots from before the pathcond layer lack these keys and
       resume with the defaults (both enabled) *)
    ("pathcond.subsumption", if config.pathcond.subsumption then "1" else "0");
    ("pathcond.loop_summaries", if config.pathcond.loop_summaries then "1" else "0");
    ("rng_seed", string_of_int config.rng_seed);
  ]

let config_of_kvs kvs =
  (* keys that aren't config fields (snapshot meta like the target name
     or scheduler) pass through untouched; bad values are errors *)
  let int_field key v k =
    match int_of_string_opt v with
    | Some i -> Ok (k i)
    | None -> Error (Printf.sprintf "bad integer %S for %s" v key)
  in
  let bool_field key v k =
    match v with
    | "1" | "true" -> Ok (k true)
    | "0" | "false" -> Ok (k false)
    | _ -> Error (Printf.sprintf "bad flag %S for %s" v key)
  in
  List.fold_left
    (fun acc (key, v) ->
      Result.bind acc (fun config ->
          let concolic f = with_concolic f config in
          let search f = with_search f config in
          let solver f = with_solver f config in
          let robust f = with_robust f config in
          let pathcond f = with_pathcond f config in
          match key with
          | "concolic.interval_length" ->
            if v = "auto" then Ok (concolic (fun c -> { c with interval_length = None }))
            else
              int_field key v (fun i ->
                  concolic (fun c -> { c with interval_length = Some i }))
          | "concolic.intervals_target" ->
            int_field key v (fun i -> concolic (fun c -> { c with intervals_target = i }))
          | "concolic.time_period" ->
            int_field key v (fun i -> concolic (fun c -> { c with time_period = i }))
          | "concolic.mode" -> (
            match v with
            | "bbv" -> Ok (concolic (fun c -> { c with mode = Phase.Bbv_only }))
            | "bbv+cov" ->
              Ok (concolic (fun c -> { c with mode = Phase.Bbv_with_coverage }))
            | _ -> Error (Printf.sprintf "bad mode %S (want bbv|bbv+cov)" v))
          | "search.phase_searcher" ->
            Ok (search (fun s -> { s with phase_searcher = v }))
          | "search.scheduler" -> Ok (search (fun s -> { s with scheduler = v }))
          | "search.max_live" ->
            int_field key v (fun i -> search (fun s -> { s with max_live = i }))
          | "search.dedup_seed_states" ->
            bool_field key v (fun b -> search (fun s -> { s with dedup_seed_states = b }))
          | "search.max_k" ->
            int_field key v (fun i -> search (fun s -> { s with max_k = i }))
          | "search.share_seed_states" ->
            bool_field key v (fun b -> search (fun s -> { s with share_seed_states = b }))
          | "solver.budget" ->
            int_field key v (fun i -> solver (fun s -> { s with budget = i }))
          | "solver.retry_cap" ->
            int_field key v (fun i -> solver (fun s -> { s with retry_cap = i }))
          | "solver.prefix_cap" ->
            int_field key v (fun i -> solver (fun s -> { s with prefix_cap = i }))
          | "robust.confirm_bugs" ->
            bool_field key v (fun b -> robust (fun r -> { r with confirm_bugs = b }))
          | "robust.max_strikes" ->
            int_field key v (fun i -> robust (fun r -> { r with max_strikes = i }))
          | "robust.inject" ->
            Result.map
              (fun plan -> robust (fun r -> { r with inject = plan }))
              (Inject.parse v)
          | "robust.watchdog_factor" ->
            int_field key v (fun i -> robust (fun r -> { r with watchdog_factor = i }))
          | "robust.watchdog_strikes" ->
            int_field key v (fun i -> robust (fun r -> { r with watchdog_strikes = i }))
          | "robust.degrade_after" ->
            int_field key v (fun i -> robust (fun r -> { r with degrade_after = i }))
          | "pathcond.subsumption" ->
            bool_field key v (fun b -> pathcond (fun p -> { p with subsumption = b }))
          | "pathcond.loop_summaries" ->
            bool_field key v (fun b -> pathcond (fun p -> { p with loop_summaries = b }))
          | "rng_seed" -> int_field key v (fun i -> with_rng_seed i config)
          | _ -> Ok config))
    (Ok default_config) kvs

let config_fingerprint config =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) (config_to_kvs config))))

let interval_length_for config prog ~seed =
  match config.concolic.interval_length with
  | Some l -> l
  | None ->
    let probe = Pbse_exec.Concrete.run prog ~input:seed ~fuel:20_000_000 in
    max 50 (probe.Pbse_exec.Concrete.steps / max 1 config.concolic.intervals_target)

(* --- cross-session sharing ------------------------------------------------- *)

(* The share table a campaign pool (or a session store) threads through
   every [open_session]: seedStates are published under their
   path-prefix key so identical fork points reached by several seeds are
   scheduled once, and solver prefix-context residue (arena-free model
   hints keyed by the structural fingerprint of the path) carries
   witnesses from finished sessions into fresh ones. Everything behind
   the mutex is plain ints/lists, so concurrent opens on pool domains
   are safe; the publication order still depends on turn timing, which
   is why sharing is config-gated off by default (byte-identity across
   [--jobs] widths is only contractual with sharing off). *)
type share = {
  sh_mutex : Mutex.t;
  sh_seedstates : (int, unit) Hashtbl.t; (* path-prefix key -> published *)
  sh_hints : (int, (int * int) list) Hashtbl.t; (* prefix fp -> model bytes *)
  mutable sh_published : int;
  mutable sh_hits : int;
}

let share_create () =
  {
    sh_mutex = Mutex.create ();
    sh_seedstates = Hashtbl.create 256;
    sh_hints = Hashtbl.create 256;
    sh_published = 0;
    sh_hits = 0;
  }

let share_stats sh =
  Mutex.protect sh.sh_mutex (fun () -> (sh.sh_published, sh.sh_hits))

let share_publish_hints sh hints =
  Mutex.protect sh.sh_mutex (fun () ->
      List.iter
        (fun (fp, bindings) ->
          if not (Hashtbl.mem sh.sh_hints fp) then Hashtbl.replace sh.sh_hints fp bindings)
        hints)

let share_hints sh =
  Mutex.protect sh.sh_mutex (fun () ->
      Hashtbl.fold (fun fp bindings acc -> (fp, bindings) :: acc) sh.sh_hints [])

(* Path-prefix key of a seedState: the chronological block-entry trace up
   to its fork point, folded with the fork's global block id. Two seeds
   whose concrete runs agree up to a fork point produce the same key for
   it (plot indices are assigned in first-execution order, identical
   along identical prefixes). *)
let seedstate_prefix_key trace (ss : Concolic.seed_state) =
  let mix h x = (h * 0x01000193) lxor x in
  let h =
    List.fold_left
      (fun h (p : Trace.point) ->
        if p.Trace.vtime <= ss.Concolic.fork_vtime then mix (mix h p.Trace.vtime) p.Trace.bb
        else h)
      0x811c9dc5 (Trace.points trace)
  in
  mix h ss.Concolic.fork_gid

(* --- run reports ----------------------------------------------------------- *)

type report = {
  config : config;
  seed_size : int;
  c_time : int;
  p_time : int;
  division : Phase.division;
  bbvs : Bbv.t list;
  trace : Trace.t;
  seed_state_count : int;
  interval_length : int;
  coverage_samples : (int * int) list;
  bugs : (Bug.t * int) list;
  executor : Executor.t;
  faults : Fault.log;
  quarantined : int;
  strikes : int;
  sched_stats : Scheduler.stats;
  phase_stats : Report.phase_row list; (* scheduling stats, ordinal order *)
  registry : Telemetry.Registry.t; (* the session's instruments *)
}

let coverage_at report t =
  let rec scan best = function
    | [] -> best
    | (vt, cov) :: rest -> if vt <= t then scan cov rest else best
  in
  scan 0 report.coverage_samples

let make_phase_searcher config rng exec =
  match Searcher.by_name config.search.phase_searcher with
  | Some make -> make (Rng.split rng) (Executor.cfg exec) (Executor.coverage exec)
  | None ->
    invalid_arg ("Session: unknown phase searcher " ^ config.search.phase_searcher)

let make_scheduler config =
  match Scheduler.by_name config.search.scheduler with
  | Some make -> make
  | None -> invalid_arg ("Session: unknown scheduler " ^ config.search.scheduler)

let map_seed_states config ~interval_length ?share ?shared_hits ~trace division bbvs
    (seed_states : Concolic.seed_state list) =
  (* phase id for each seedState via its fork interval *)
  let tagged =
    List.filter_map
      (fun (ss : Concolic.seed_state) ->
        let interval = ss.Concolic.fork_vtime / interval_length in
        match Phase.phase_of_interval division bbvs interval with
        | Some pid ->
          ss.Concolic.state.State.phase <- pid;
          Some ss
        | None -> None)
      seed_states
  in
  let tagged =
    if not config.search.dedup_seed_states then tagged
    else begin
      (* keep the earliest seedState per (phase, fork location) *)
      let seen = Hashtbl.create 256 in
      List.filter
        (fun (ss : Concolic.seed_state) ->
          let key = (ss.Concolic.state.State.phase, ss.Concolic.fork_gid) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        tagged
    end
  in
  match share with
  | None -> tagged
  | Some sh ->
    (* campaign-wide dedup: a fork point another session already
       published (same concrete path prefix, same fork location) is
       that session's to explore; this one spends its budget elsewhere *)
    Mutex.protect sh.sh_mutex (fun () ->
        List.filter
          (fun ss ->
            let key = seedstate_prefix_key trace ss in
            if Hashtbl.mem sh.sh_seedstates key then begin
              sh.sh_hits <- sh.sh_hits + 1;
              (match shared_hits with Some c -> Telemetry.incr c | None -> ());
              false
            end
            else begin
              Hashtbl.replace sh.sh_seedstates key ();
              sh.sh_published <- sh.sh_published + 1;
              true
            end)
          tagged)

(* The shared engine loop: Algorithm 3 under supervision, generic over
   the scheduling policy. Which phase runs next, for how long, and when
   a phase leaves the rotation are all [sched]'s decisions; this loop
   only executes turns. Executor and solver failures inside a turn are
   contained and recorded; a faulting state costs at worst itself
   (quarantine after [max_strikes]) and a broken searcher costs its
   phase (fail-over via [evict]), never the run. *)
let schedule_phases ~registry ~clock ~deadline ~sched ~quarantine exec note_progress =
  let faults = Executor.faults exec in
  let est = Executor.stats exec in
  let now () = Vclock.now clock in
  let tm_turn = Telemetry.Registry.span registry "driver.turn" in
  let rec turns () =
    if Vclock.now clock >= deadline then ()
    else
      match sched.Scheduler.select () with
      | None -> ()
      | Some { Scheduler.queue = q; budget = turn_budget } ->
        let turn_start = Vclock.now clock in
        (* executor-stat marks: the deltas over this turn are attributed
           to the phase's report row *)
        let subsumed_start = est.Executor.subsumed_states in
        let summarized_start = est.Executor.loop_summaries in
        let searcher = q.Phase_queue.searcher in
        q.Phase_queue.turns <- q.Phase_queue.turns + 1;
        let queue_failed = ref false in
        let quarantine_strike st =
          if Quarantine.strike quarantine ~site:st.State.fork_gid st.State.id then begin
            q.Phase_queue.quarantined <- q.Phase_queue.quarantined + 1;
            searcher.Searcher.remove st
          end
        in
        let contain st exn =
          (* charge a tick so fault loops always advance toward the deadline *)
          Vclock.advance clock 1;
          Fault.record faults ~detail:(Fault.normalize_exn exn)
            ~vtime:(Vclock.now clock) Fault.Exec_exception;
          quarantine_strike st
        in
        let rec drain () =
          if Vclock.now clock >= deadline then ()
          else
            match
              try `Selected (searcher.Searcher.select ())
              with exn -> `Searcher_error exn
            with
            | `Searcher_error exn ->
              (* a broken searcher forfeits its whole phase *)
              Vclock.advance clock 1;
              Fault.record faults ~detail:(Fault.normalize_exn exn)
                ~vtime:(Vclock.now clock) Fault.Exec_exception;
              queue_failed := true
            | `Selected None -> ()
            | `Selected (Some st) when st.State.needs_verify -> (
              match try `V (Executor.verify exec st) with exn -> `E exn with
              | `V Executor.Verified -> slice st
              | `V Executor.Infeasible_state ->
                (* lazily discovered infeasible seedState *)
                searcher.Searcher.remove st;
                drain ()
              | `V Executor.Undecided ->
                (* the solver gave up; the state stays schedulable and the
                   next attempt escalates the query budget — unless it has
                   struck out *)
                quarantine_strike st;
                drain ()
              | `E exn ->
                contain st exn;
                drain ())
            | `Selected (Some st) -> slice st
        and slice st =
          let slice_summaries = est.Executor.loop_summaries in
          match try `S (Executor.run_slice exec st) with exn -> `E exn with
          | `E exn ->
            contain st exn;
            drain ()
          | `S slice ->
            q.Phase_queue.slices <- q.Phase_queue.slices + 1;
            let covered_new = st.State.fresh_cover in
            if covered_new then q.Phase_queue.new_cover <- q.Phase_queue.new_cover + 1;
            (match slice with
             | Executor.Running -> ()
             | Executor.Forked children ->
               List.iter
                 (fun (child : State.t) ->
                   child.State.phase <- q.Phase_queue.pid;
                   searcher.Searcher.fork ~parent:st child)
                 children
             | Executor.Finished _ -> searcher.Searcher.remove st);
            note_progress q.Phase_queue.ordinal;
            (* stay in the phase while under budget or still progressing:
               new coverage always counts, and a trap phase that just
               leapt a loop via a summary consults that before retreating *)
            let progressed =
              Phase.turn_progress ~trap:q.Phase_queue.trap ~fresh_cover:covered_new
                ~summaries_applied:(est.Executor.loop_summaries - slice_summaries)
            in
            if Vclock.now clock - turn_start <= turn_budget || progressed then drain ()
        in
        Telemetry.with_span tm_turn ~now drain;
        q.Phase_queue.subsumed <-
          q.Phase_queue.subsumed + (est.Executor.subsumed_states - subsumed_start);
        q.Phase_queue.summarized <-
          q.Phase_queue.summarized + (est.Executor.loop_summaries - summarized_start);
        let elapsed = Vclock.now clock - turn_start in
        q.Phase_queue.dwell <- q.Phase_queue.dwell + elapsed;
        Telemetry.observe q.Phase_queue.turn_dwell elapsed;
        if !queue_failed || Phase_queue.size q = 0 then
          sched.Scheduler.evict q ~failed:!queue_failed
        else sched.Scheduler.credit q;
        turns ()
  in
  turns ()

(* --- resumable sessions ---------------------------------------------------- *)

(* A session is one seed's engine with its setup (concolic pass, phase
   division, seeded queues) done and its scheduling state live, so the
   campaign layer can grant it turn-granular budget instead of one
   deadline: open once, step any number of times, finish into the same
   report [run] produces. *)
type t = {
  s_config : config;
  s_runtime : Runtime.t;
  s_seed : bytes;
  s_clock : Vclock.t;
  s_exec : Executor.t;
  s_sched : Scheduler.t;
  s_c_time : int;
  s_p_time : int;
  s_division : Phase.division;
  s_bbvs : Bbv.t list;
  s_trace : Trace.t;
  s_seed_state_count : int;
  s_interval_length : int;
  s_queues : Phase_queue.t list;
  s_samples : (int * int) list ref;
  s_bug_phases : (int * string, int) Hashtbl.t;
  s_note_progress : int -> unit;
}

let runtime_of_config ?registry config =
  Runtime.create ?registry ~rng_seed:config.rng_seed ~inject:config.robust.inject
    ~max_strikes:config.robust.max_strikes ~prefix_cap:config.solver.prefix_cap ()

let open_session ?(config = default_config) ?runtime ?share prog ~seed ~deadline =
  (* validate the policy name before the expensive concolic step *)
  let scheduler_factory = make_scheduler config in
  let rt =
    match runtime with Some rt -> rt | None -> runtime_of_config config
  in
  (* the session's expressions intern into its own arena from here on *)
  Runtime.with_active rt @@ fun () ->
  let registry = rt.Runtime.registry in
  let tm_concolic = Telemetry.Registry.span registry "driver.concolic" in
  let tm_phase_analysis = Telemetry.Registry.span registry "driver.phase_analysis" in
  let shared_hits = Telemetry.Registry.counter registry "session.seedstate_shared_hits" in
  let clock = Vclock.create () in
  let exec =
    Executor.create ~max_live:config.search.max_live ~solver_budget:config.solver.budget
      ~solver_retry_cap:config.solver.retry_cap
      ~solver_prefix_cap:config.solver.prefix_cap
      ~confirm_bugs:config.robust.confirm_bugs ~inject:rt.Runtime.inject
      ~subsumption:config.pathcond.subsumption
      ~loop_summaries:config.pathcond.loop_summaries ~registry ~clock prog ~input:seed
  in
  (* prefix-context residue published by finished sessions: arena-free
     model hints, installed before any query is issued *)
  (match share with
   | Some sh when config.search.share_seed_states -> (
     match share_hints sh with
     | [] -> ()
     | hints -> Solver.import_prefix_hints (Executor.solver exec) hints)
   | _ -> ());
  (* every stochastic choice below (k-means restarts, searcher splits)
     derives from the runtime's RNG, itself seeded from config.rng_seed *)
  let rng = rt.Runtime.rng in
  (* step 1: concolic execution. The BBV interval is sized from a cheap
     concrete pre-run so every seed yields a comparable number of BBVs
     (the paper gathers over wall-clock intervals; runs lasting longer
     simply produce more vectors). *)
  let interval_length = interval_length_for config prog ~seed in
  let indexer = Trace.indexer () in
  let now () = Vclock.now clock in
  let concolic =
    Telemetry.with_span tm_concolic ~now (fun () ->
        Concolic.run ~interval_length ~deadline exec indexer)
  in
  let c_time = concolic.Concolic.c_time in
  (* step 2: phase analysis; charge virtual time proportional to the work *)
  let p_start = Vclock.now clock in
  let division =
    Telemetry.with_span tm_phase_analysis ~now (fun () ->
        let d =
          Phase.divide ~registry ~mode:config.concolic.mode ~max_k:config.search.max_k
            (Rng.split rng) concolic.Concolic.bbvs
        in
        Vclock.advance clock
          (50 * List.length concolic.Concolic.bbvs * config.search.max_k / 20);
        d)
  in
  let p_time = Vclock.now clock - p_start + 1 in
  (match concolic.Concolic.bbvs with
   | [] ->
     Fault.record (Executor.faults exec) ~detail:"no BBVs; one-phase fallback"
       ~vtime:(Vclock.now clock) Fault.Degenerate_phase
   | _ :: _ -> ());
  (* step 3: map seedStates into phases. Feasibility is checked lazily,
     when a seedState is first scheduled — exactly the paper's "lazy pass
     through": the concolic step recorded fork points without exploring
     or deciding them. *)
  let share = if config.search.share_seed_states then share else None in
  let seed_states =
    map_seed_states config ~interval_length ?share ~shared_hits
      ~trace:concolic.Concolic.trace division concolic.Concolic.bbvs
      concolic.Concolic.seed_states
  in
  (* build phase queues in first-appearance order *)
  let queue_list =
    List.mapi
      (fun i (p : Phase.phase) ->
        Phase_queue.create ~registry ~ordinal:(i + 1) ~pid:p.Phase.pid
          ~trap:p.Phase.trap
          (make_phase_searcher config rng exec))
      division.Phase.phases
  in
  List.iter
    (fun (ss : Concolic.seed_state) ->
      match
        List.find_opt
          (fun q -> q.Phase_queue.pid = ss.Concolic.state.State.phase)
          queue_list
      with
      | Some q -> Phase_queue.seed q ss.Concolic.state
      | None -> ())
    seed_states;
  let sched =
    scheduler_factory ~registry ~time_period:config.concolic.time_period
      (List.filter (fun q -> Phase_queue.size q > 0) queue_list)
  in
  Executor.set_live_counter exec (fun () ->
      List.fold_left
        (fun acc q -> acc + Phase_queue.size q)
        0
        (sched.Scheduler.remaining ()));
  (* bookkeeping for coverage samples and bug-to-phase attribution *)
  let samples = ref [ (Vclock.now clock, Coverage.count (Executor.coverage exec)) ] in
  let last_cov = ref (Coverage.count (Executor.coverage exec)) in
  let bug_phases : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  let known_bugs = ref 0 in
  let note_progress current_ordinal =
    let cov = Coverage.count (Executor.coverage exec) in
    if cov <> !last_cov then begin
      last_cov := cov;
      samples := (Vclock.now clock, cov) :: !samples
    end;
    let bugs = Executor.bugs exec in
    let n = List.length bugs in
    if n > !known_bugs then begin
      (* attribute by dedup key, not list position: only bugs whose key is
         genuinely new belong to the current phase *)
      List.iter
        (fun bug ->
          let key = Bug.dedup_key bug in
          if not (Hashtbl.mem bug_phases key) then
            Hashtbl.replace bug_phases key current_ordinal)
        bugs;
      known_bugs := n
    end
  in
  note_progress 0;
  {
    s_config = config;
    s_runtime = rt;
    s_seed = seed;
    s_clock = clock;
    s_exec = exec;
    s_sched = sched;
    s_c_time = c_time;
    s_p_time = p_time;
    s_division = division;
    s_bbvs = concolic.Concolic.bbvs;
    s_trace = concolic.Concolic.trace;
    s_seed_state_count = List.length seed_states;
    s_interval_length = interval_length;
    s_queues = queue_list;
    s_samples = samples;
    s_bug_phases = bug_phases;
    s_note_progress = note_progress;
  }

let step_session s ~deadline =
  (* step 4: phase-scheduled symbolic execution, up to [deadline] on the
     session's own clock; resumable — the scheduling policy keeps its
     rotation state between steps. Re-activate the session's arena: the
     campaign layer may step the same session from a different domain on
     every round. *)
  Runtime.with_active s.s_runtime @@ fun () ->
  schedule_phases ~registry:s.s_runtime.Runtime.registry ~clock:s.s_clock ~deadline
    ~sched:s.s_sched ~quarantine:s.s_runtime.Runtime.quarantine s.s_exec s.s_note_progress

let session_runtime s = s.s_runtime
let session_config s = s.s_config
let session_seed s = s.s_seed

let session_time s = Vclock.now s.s_clock
let session_drained s = s.s_sched.Scheduler.drained ()
let session_executor s = s.s_exec

let session_bug_phase s bug =
  match Hashtbl.find_opt s.s_bug_phases (Bug.dedup_key bug) with
  | Some o -> o
  | None -> 0

(* Contain a real exception escaping the engine: the engine is
   deterministic in virtual time, so replaying the same turn after a
   resume re-raises and re-contains the same fault. *)
let step_contained s ~deadline =
  try
    step_session s ~deadline;
    `Stepped
  with exn ->
    Fault.record (Executor.faults s.s_exec) ~detail:(Fault.normalize_exn exn)
      ~vtime:(Vclock.now s.s_clock) Fault.Exec_exception;
    `Failed

let record_crash s ~detail =
  (* an injected kill charged one tick and touched nothing else *)
  Vclock.advance s.s_clock 1;
  Fault.record (Executor.faults s.s_exec) ~detail ~vtime:(Vclock.now s.s_clock)
    Fault.Exec_exception

let export_prefix_hints s = Solver.export_prefix_hints (Executor.solver s.s_exec)

let finish_session s =
  let bugs =
    List.map (fun bug -> (bug, session_bug_phase s bug)) (Executor.bugs s.s_exec)
  in
  {
    config = s.s_config;
    seed_size = Bytes.length s.s_seed;
    c_time = s.s_c_time;
    p_time = s.s_p_time;
    division = s.s_division;
    bbvs = s.s_bbvs;
    trace = s.s_trace;
    seed_state_count = s.s_seed_state_count;
    interval_length = s.s_interval_length;
    coverage_samples = List.rev !(s.s_samples);
    bugs;
    executor = s.s_exec;
    faults = Executor.faults s.s_exec;
    quarantined = Quarantine.evicted s.s_runtime.Runtime.quarantine;
    strikes = Quarantine.total_strikes s.s_runtime.Runtime.quarantine;
    sched_stats = s.s_sched.Scheduler.stats;
    phase_stats = List.map Phase_queue.stat_row s.s_queues;
    registry = s.s_runtime.Runtime.registry;
  }

let run ?(config = default_config) ?runtime prog ~seed ~deadline =
  let s = open_session ~config ?runtime prog ~seed ~deadline in
  step_session s ~deadline;
  finish_session s

(* The counter manifest: the single authoritative list of every scalar
   metric family a run report carries — name plus how to harvest it from
   the per-run stats structs. CLI reports, serve frames (which flow
   through [run_report]) and the bench runs.csv columns all derive from
   this one list, so a metric added here cannot drift between surfaces.
   Construction order is fixed, so two identical seeded runs serialise
   byte-identically; the aggregate pool report sums these same families
   across runs. *)
let scalar_metric_specs : (string * (report -> int)) list =
  let sst r = Solver.stats (Executor.solver r.executor) in
  let est r = Executor.stats r.executor in
  let sum f r = List.fold_left (fun acc p -> acc + f p) 0 r.phase_stats in
  [
    ("seed.bytes", fun r -> r.seed_size);
    ("run.c_time", fun r -> r.c_time);
    ("run.p_time", fun r -> r.p_time);
    ("run.interval_length", fun r -> r.interval_length);
    ("run.seed_states", fun r -> r.seed_state_count);
    ("phase.count", fun r -> r.division.Phase.k);
    ("phase.traps", fun r -> r.division.Phase.trap_count);
    ("phase.turns", sum (fun p -> p.Report.turns));
    ("phase.slices", sum (fun p -> p.Report.slices));
    ("phase.new_cover", sum (fun p -> p.Report.new_cover));
    ("phase.dwell", sum (fun p -> p.Report.dwell));
    ( "phase.trap_dwell",
      sum (fun p -> if p.Report.trap then p.Report.dwell else 0) );
    ("sched.turns", fun r -> r.sched_stats.Scheduler.turns);
    ("sched.rotations", fun r -> r.sched_stats.Scheduler.rotations);
    ("sched.evictions", fun r -> r.sched_stats.Scheduler.evictions);
    ("sched.failovers", fun r -> r.sched_stats.Scheduler.failovers);
    ("coverage.blocks", fun r -> Coverage.count (Executor.coverage r.executor));
    ("bugs.total", fun r -> List.length r.bugs);
    ( "bugs.confirmed",
      fun r ->
        List.length (List.filter (fun ((b : Bug.t), _) -> b.Bug.confirmed) r.bugs) );
    ("exec.states", fun r -> Executor.state_count r.executor);
    ("exec.instructions", fun r -> (est r).Executor.instructions);
    ("exec.slices", fun r -> (est r).Executor.slices);
    ("exec.forks", fun r -> (est r).Executor.forks);
    ("exec.dropped_forks", fun r -> (est r).Executor.dropped_forks);
    ("exec.cow_copies", fun r -> (est r).Executor.cow_copies);
    ("exec.term_exit", fun r -> (est r).Executor.term_exit);
    ("exec.term_bug", fun r -> (est r).Executor.term_bug);
    ("exec.term_abort", fun r -> (est r).Executor.term_abort);
    ("exec.term_infeasible", fun r -> (est r).Executor.term_infeasible);
    ("exec.concretized_addrs", fun r -> (est r).Executor.concretized_addrs);
    ("verify.verified", fun r -> (est r).Executor.verify_verified);
    ("verify.infeasible", fun r -> (est r).Executor.verify_infeasible);
    ("verify.undecided", fun r -> (est r).Executor.verify_undecided);
    ("solver.queries", fun r -> (sst r).Solver.queries);
    ("solver.sat", fun r -> (sst r).Solver.sat);
    ("solver.unsat", fun r -> (sst r).Solver.unsat);
    ("solver.unknown", fun r -> (sst r).Solver.unknown);
    ("solver.cache_hits", fun r -> (sst r).Solver.cache_hits);
    ("solver.hint_hits", fun r -> (sst r).Solver.hint_hits);
    ("solver.prefix_hits", fun r -> (sst r).Solver.prefix_hits);
    ("solver.prefix_builds", fun r -> (sst r).Solver.prefix_builds);
    ("solver.prefix_model_hits", fun r -> (sst r).Solver.prefix_model_hits);
    ("solver.search_nodes", fun r -> (sst r).Solver.search_nodes);
    ("solver.work", fun r -> (sst r).Solver.work);
    ("solver.retries", fun r -> (sst r).Solver.retries);
    ("solver.escalations", fun r -> (sst r).Solver.escalations);
    ("solver.retry_resolved", fun r -> (sst r).Solver.retry_resolved);
    ("solver.prefix_evictions", fun r -> (sst r).Solver.prefix_evictions);
    ("smt.subsumed_states", fun r -> (est r).Executor.subsumed_states);
    ("smt.interpolant_hits", fun r -> (est r).Executor.interpolant_hits);
    ("smt.interpolant_misses", fun r -> (est r).Executor.interpolant_misses);
    ("pathcond.loop_summaries", fun r -> (est r).Executor.loop_summaries);
    ("pathcond.summary_fallbacks", fun r -> (est r).Executor.summary_fallbacks);
    ("quarantine.evicted", fun r -> r.quarantined);
    ("quarantine.strikes", fun r -> r.strikes);
  ]
  @ List.map
      (fun kind ->
        ("fault." ^ Fault.label kind, fun r -> Fault.count r.faults kind))
      Fault.all

let scalar_metric_names = List.map fst scalar_metric_specs

let scalar_metrics report =
  List.map (fun (name, harvest) -> (name, harvest report)) scalar_metric_specs

let span_metrics registry =
  List.concat_map
    (fun (name, count, total) ->
      [ ("span." ^ name ^ ".count", count); ("span." ^ name ^ ".total", total) ])
    (Telemetry.Registry.snapshot_spans registry)

(* Assemble the structured run report (docs/telemetry.md). The scalar
   metrics are authoritative whether or not the registry was enabled,
   while spans and histograms come from the registry snapshot and are
   only populated on instrumented runs. *)
let run_report ?(meta = []) report =
  {
    Report.meta;
    metrics = scalar_metrics report @ span_metrics report.registry;
    phases = report.phase_stats;
    seeds = [];
    histograms = Telemetry.Registry.snapshot_histograms report.registry;
  }
