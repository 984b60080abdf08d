module Executor = Pbse_exec.Executor
module Coverage = Pbse_exec.Coverage
module Bug = Pbse_exec.Bug
module Seed_slot = Pbse_campaign.Seed_slot
module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Campaign = Pbse_campaign.Campaign
module Snapshot = Pbse_campaign.Snapshot
module Domain_pool = Pbse_campaign.Domain_pool
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Quarantine = Pbse_robust.Quarantine
module Expr = Pbse_smt.Expr
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report
module Checked_file = Pbse_telemetry.Checked_file
module Session = Pbse_session.Session
module Runtime = Pbse_session.Runtime

(* A pool campaign's runs carry single-run reports; the record is
   re-exported so [pool_report.runs] reads without a second module. *)
type report = Session.report = {
  config : Session.config;
  seed_size : int;
  c_time : int;
  p_time : int;
  division : Pbse_phase.Phase.division;
  bbvs : Pbse_concolic.Bbv.t list;
  trace : Pbse_concolic.Trace.t;
  seed_state_count : int;
  interval_length : int;
  coverage_samples : (int * int) list;
  bugs : (Bug.t * int) list;
  executor : Executor.t;
  faults : Fault.log;
  quarantined : int;
  strikes : int;
  sched_stats : Pbse_sched.Scheduler.stats;
  phase_stats : Report.phase_row list;
  registry : Telemetry.Registry.t;
}

(* --- seed pools ------------------------------------------------------------ *)

type pool_report = {
  runs : (bytes * report) list;
  merged_coverage : int;
  merged_bugs : (Bug.t * int) list;
  pool_scheduler : string;
  seed_rows : Report.seed_row list;
  pool_stats : Pool_scheduler.stats;
  pool_deadline : int;
  pool_spent : int;
  pool_rounds : int;
  pool_parallel_turns : int;
  pool_merge_blocks : int;
  pool_merge_bugs : int;
  pool_merge_registries : int;
  pool_faults : Fault.log;
  pool_registry : Telemetry.Registry.t;
  (* Wall-clock-side diagnostics. These describe how the campaign
     happened to execute — which worker ran what, how often a domain
     refilled its id block — so they depend on [jobs] and scheduling
     luck. They are deliberately NOT part of the pool-report JSON, which
     is byte-identical across widths; the bench CSV and CLI surface
     them. *)
  pool_steal_count : int; (* turns run by a non-home pool worker *)
  pool_pinned_turns : int; (* turns run by their slot's home worker *)
  pool_id_refills : int; (* expr id-block refills during the campaign *)
}

type checkpoint = {
  ck_path : string;
  ck_every : int; (* turns between checkpoint writes *)
  ck_meta : (string * string) list;
  ck_halt_after : int option; (* stop at this round barrier (tests) *)
  ck_note_ms : (int -> unit) option; (* serialisation-cost probe (bench) *)
}

let checkpoint ?(meta = []) ?halt_after ?note_ms ~path ~every () =
  {
    ck_path = path;
    ck_every = max 1 every;
    ck_meta = meta;
    ck_halt_after = halt_after;
    ck_note_ms = note_ms;
  }

(* The digest under which the serve layer caches a campaign's rendered
   report. [jobs] is deliberately absent: reports are jobs-invariant, so
   any width may reuse any width's campaign. The constant "1" stands
   where a telemetry-enablement flag was once hashed; it stays so store
   files written before keep their keys. Keys did change when the
   loop-summary switch left the config: reports cached under the old
   keys still carry its two metrics and the per-phase summary count, so
   a hit on one would serve bytes a cold run no longer renders. They
   changed again when the solver budget and retry cap, the live-state
   cap, bug confirmation, the strike limit and the degradation step
   left the config for constants: the config fingerprint hashes every
   rendered key, so entries stored before miss once and are rebuilt.
   "unknown-final" keys out reports stored before the solver's Unknown
   answers became final: they carry three retired solver metrics. Keys
   changed once more when the seedState-sharing key left the config:
   entries stored before miss once and are rebuilt, and no request can
   reach an old entry stored with sharing on. *)
let campaign_fingerprint ?(config = Session.default_config)
    ?(scheduler = Pool_scheduler.default) ?(lease = 1) ~target ~seeds ~deadline () =
  let ordered =
    List.sort (fun a b -> Int.compare (Bytes.length a) (Bytes.length b)) seeds
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun part ->
      Buffer.add_string buf part;
      Buffer.add_char buf '\n')
    ([
       target;
       Session.config_fingerprint config;
       scheduler;
       string_of_int (max 1 lease);
       string_of_int deadline;
       "1";
       "unknown-final";
     ]
    @ List.map (fun seed -> Digest.to_hex (Digest.bytes seed)) ordered);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Algorithm 1's outer loop over a seed pool, generalised into a
   campaign and run in deterministic rounds: the pool policy plans every
   round up front (one turn per live seed), the turns execute on up to
   [jobs] domains — each seed's session owns a private {!Runtime}
   (registry, RNG, quarantine, expression arena), so concurrent turns
   share no mutable state — and the results merge back at the round
   barrier in plan order. Coverage merges as a union of global block
   ids; bugs deduplicate on (location, kind) and are attributed to the
   seed whose turn first surfaced them; per-session registries merge
   into the pool registry in ordinal order when the campaign ends.
   Every observable outcome is therefore identical for every [jobs]
   value, including 1 (docs/parallelism.md).

   Crash durability (docs/robustness.md) rides on the same determinism:
   [write_checkpoint] serialises the campaign at round barriers — slot
   counters, each session's granted-turn ledger, merged-bug keys,
   scheduler state — and [apply_resume] reinstates the counters then
   replays each ledger against the same seeds through the turn path
   live turns take ([run_event]), reconstructing engine state the
   snapshot never stored. A clean kill-and-resume therefore yields a
   pool report byte-identical to the uninterrupted run. Watchdogged
   turns (spent > factor x budget), injected turn kills and contained
   turn exceptions all strike their seed toward forced retirement
   without ever aborting the campaign.

   The loop is a sequence of named steps over one [state]: [create],
   [apply_resume] (which runs [replay_slot] per opened session),
   [start_scheduler], then [Campaign.run_rounds] driving [exec_turn] on
   the workers and [merge_turn] and [after_round] (hence
   [write_checkpoint]) at each barrier, and [finish]. *)

(* Watchdog or crash strikes before a seed is force-retired
   (docs/robustness.md). *)
let watchdog_strikes = 3

type state = {
  config : Session.config;
  prog : Pbse_ir.Types.program;
  factory : time_period:int -> Seed_slot.t list -> Pool_scheduler.t;
  jobs : int;
  lease : int;
  deadline : int;
  checkpoint : checkpoint option;
  pool : Domain_pool.t;
  own_pool : bool;
  pool_registry : Telemetry.Registry.t;
  pool_faults : Fault.log;
  slots : Seed_slot.t list; (* smallest first; slot i has ordinal i + 1 *)
  (* Per-ordinal cells (index 0 unused). A session cell is written once,
     by the worker domain running its slot's first turn, and only ever
     touched by that slot's turns afterwards; distinct slots use
     distinct cells and [Domain_pool.run]'s join publishes the writes
     before the barrier reads them, so the arrays need no lock. *)
  sessions : (Runtime.t * Session.t) option array;
  (* Turn-crash injection draws from a per-slot stream (plan seed +
     ordinal) so a draw's position never depends on which domain ran
     which turn; the snapshot-corruption channel draws once per
     checkpoint write, on the coordinating domain. *)
  crash_injects : Inject.t array;
  pool_inject : Inject.t;
  (* Durability records: RNG draws to re-burn on resume and the
     granted-turn ledger (newest first). *)
  crash_draws : int array;
  turn_events : Snapshot.turn_event list array;
  merged : (int, unit) Hashtbl.t; (* the coverage union's block ids *)
  bug_keys : (int * string, unit) Hashtbl.t;
  mutable merged_bugs : (Bug.t * int) list; (* newest first *)
  mutable bug_refs : (int * int * string) list; (* (slot, gid, kind), newest first *)
  mutable opened : Seed_slot.t list; (* newest first *)
  mutable rounds : int;
  mutable parallel_turns : int;
  mutable merge_blocks : int;
  mutable merge_bug_count : int;
  mutable spent : int; (* virtual time consumed, resumed part included *)
  mutable turns_since_ck : int;
  mutable checkpoints_written : int;
  (* diagnostic baselines; the report carries deltas *)
  steals0 : int;
  pinned0 : int;
  id_refills0 : int;
}

(* Worker-side record of one executed sub-turn. Everything a merge needs
   is captured at execution time: under a multi-turn lease the barrier
   merge runs after {e later} sub-turns have already advanced the
   session's clock and quarantine, so reading them at merge time would
   smear one sub-turn's dwell and strike deltas over its successors. *)
type turn_exec =
  | Entry_crash (* killed before its session ever opened: nothing to ledger *)
  | Ran of {
      session : Session.t;
      event : Snapshot.turn_event; (* what the ledger replays *)
      start : int; (* session clock entering the sub-turn *)
      stop : int; (* session clock leaving it *)
      evicted : int; (* quarantine evictions during it *)
      strikes : int; (* quarantine strikes during it *)
      opened : bool; (* this sub-turn opened the session *)
      struck : bool; (* it counts against its seed ([run_event]) *)
    }

let create ~config ~scheduler ?runtime ~jobs ~lease ?checkpoint ?pool prog ~seeds
    ~deadline =
  let factory =
    match Pool_scheduler.by_name scheduler with
    | Some f -> f
    | None -> invalid_arg ("Driver: unknown pool scheduler " ^ scheduler)
  in
  let ordered =
    List.sort (fun a b -> Int.compare (Bytes.length a) (Bytes.length b)) seeds
  in
  (* Per-domain minor heaps below ~8 MB thrash the stop-the-world minor
     collection once several domains allocate at engine rates (every
     domain must reach the barrier for every collection); widen once,
     process-wide, and never shrink a user-tuned size. *)
  let g = Gc.get () in
  if g.Gc.minor_heap_size < 1 lsl 20 then
    Gc.set { g with Gc.minor_heap_size = 1 lsl 20 };
  (* One persistent worker pool for the whole campaign — replay and every
     round reuse its domains; sessions are homed on their slot ordinal.
     A caller-supplied pool (the serve layer's) is reused as-is and left
     running; steal/pinned diagnostics are deltas either way. *)
  let own_pool = Option.is_none pool in
  let pool = match pool with Some p -> p | None -> Domain_pool.create ~jobs in
  let nslots = List.length ordered in
  let plan = config.Session.robust.Session.inject in
  {
    config;
    prog;
    factory;
    jobs;
    lease = max 1 lease;
    deadline;
    checkpoint;
    pool;
    own_pool;
    (* only the registry is read from the caller's runtime: sessions
       build their own from [config] *)
    pool_registry =
      (match runtime with
       | Some rt -> rt.Runtime.registry
       | None -> Telemetry.Registry.create ());
    pool_faults = Fault.log_create ();
    slots = List.mapi (fun i seed -> Seed_slot.create ~ordinal:(i + 1) seed) ordered;
    sessions = Array.make (nslots + 1) None;
    crash_injects =
      Array.init (nslots + 1) (fun i ->
          Inject.create { plan with Inject.seed = plan.Inject.seed + i });
    pool_inject = Inject.create plan;
    crash_draws = Array.make (nslots + 1) 0;
    turn_events = Array.make (nslots + 1) [];
    merged = Hashtbl.create 1024;
    bug_keys = Hashtbl.create 32;
    merged_bugs = [];
    bug_refs = [];
    opened = [];
    rounds = 0;
    parallel_turns = 0;
    merge_blocks = 0;
    merge_bug_count = 0;
    spent = 0;
    turns_since_ck = 0;
    checkpoints_written = 0;
    steals0 = Domain_pool.steals pool;
    pinned0 = Domain_pool.pinned pool;
    id_refills0 = Expr.id_block_refills ();
  }

let release t () = if t.own_pool then Domain_pool.shutdown t.pool

(* snapshot-supplied ordinals are untrusted: out of range reads as no
   session *)
let in_range t ordinal = ordinal >= 1 && ordinal < Array.length t.sessions
let session_at t ordinal = if in_range t ordinal then t.sessions.(ordinal) else None

(* Open [slot]'s session under a private runtime — a fresh registry,
   enabled exactly when the pool's is, the RNG reseeded from the config
   so every seed's run is reproducible in isolation, a fresh quarantine
   and arena. [deadline] bounds the concolic pass. *)
let open_slot t (slot : Seed_slot.t) ~deadline =
  let registry =
    Telemetry.Registry.create ~enabled:(Telemetry.Registry.enabled t.pool_registry) ()
  in
  let rt = Session.runtime_of_config ~registry t.config in
  ( rt,
    Session.open_session ~config:t.config ~runtime:rt t.prog ~seed:slot.Seed_slot.seed
      ~deadline )

(* Run one ledger event on [s] — the one turn path, taken by live turns
   and resume replay alike. A step runs contained up to its deadline and
   faces the watchdog: its turn began at [deadline - budget] (0 for the
   turn that opened the session, which pays for the setup), and spending
   more than [watchdog_factor] x budget since then records a
   [Turn_timeout] on the session. An injected kill charges one tick.
   True when the turn strikes its seed: a kill, a contained exception or
   an overrun. *)
let run_event t s = function
  | Snapshot.Crash ->
    Session.record_crash s;
    true
  | Snapshot.Step { deadline; budget } ->
    let status = Session.step_contained s ~deadline in
    let factor = t.config.Session.robust.Session.watchdog_factor in
    let overran =
      factor > 0 && Session.session_time s - (deadline - budget) > factor * budget
    in
    if overran then
      Fault.record (Executor.faults (Session.session_executor s)) Fault.Turn_timeout;
    overran || status = `Failed

(* Re-execute one opened session's ledger from scratch: open it, then
   run exactly the recorded turns. Runs on a worker domain (the session
   is slot-private). *)
let replay_slot t (slot : Seed_slot.t) (st : Snapshot.slot_state) =
  match st.Snapshot.sl_events with
  | [] | Snapshot.Crash :: _ -> None (* the opening turn is always a Step *)
  | Snapshot.Step { deadline; _ } :: _ as events ->
    let rt, s = open_slot t slot ~deadline in
    List.iter (fun ev -> ignore (run_event t s ev)) events;
    Some (rt, s)

(* Reinstate a snapshot, then replay the ledgers; [true] when the
   snapshot was accepted. A snapshot of another pool degrades to a fresh
   start with the mismatch on record, never a crash. *)
let apply_resume t ((sn : Snapshot.t), fallback) =
  let compatible =
    List.length sn.Snapshot.sn_slots = List.length t.slots
    && List.for_all2
         (fun (st : Snapshot.slot_state) (slot : Seed_slot.t) ->
           st.Snapshot.sl_ordinal = slot.Seed_slot.ordinal
           && st.Snapshot.sl_bytes = slot.Seed_slot.size)
         sn.Snapshot.sn_slots t.slots
  in
  if not compatible then begin
    Fault.record t.pool_faults Fault.Resume_mismatch;
    false
  end
  else begin
    Fault.restore_counts t.pool_faults sn.Snapshot.sn_pool_faults;
    t.spent <- sn.Snapshot.sn_spent;
    t.rounds <- sn.Snapshot.sn_rounds;
    t.parallel_turns <- sn.Snapshot.sn_parallel_turns;
    t.merge_blocks <- sn.Snapshot.sn_merge_blocks;
    t.merge_bug_count <- sn.Snapshot.sn_merge_bugs;
    t.checkpoints_written <- sn.Snapshot.sn_checkpoints;
    (* the primary checkpoint was bad; we are running from [.bak] *)
    if Option.is_some fallback then Fault.record t.pool_faults Fault.Snapshot_corrupt;
    (* reposition the injection streams where the original left them *)
    for _ = 1 to sn.Snapshot.sn_checkpoints do
      ignore (Inject.fire_snapshot_corrupt t.pool_inject)
    done;
    List.iter2
      (fun (st : Snapshot.slot_state) (slot : Seed_slot.t) ->
        let ordinal = slot.Seed_slot.ordinal in
        slot.Seed_slot.turns <- st.Snapshot.sl_turns;
        slot.Seed_slot.granted <- st.Snapshot.sl_granted;
        slot.Seed_slot.dwell <- st.Snapshot.sl_dwell;
        slot.Seed_slot.new_blocks <- st.Snapshot.sl_new_blocks;
        slot.Seed_slot.bugs <- st.Snapshot.sl_bugs;
        slot.Seed_slot.quarantined <- st.Snapshot.sl_quarantined;
        slot.Seed_slot.strikes <- st.Snapshot.sl_strikes;
        slot.Seed_slot.timeouts <- st.Snapshot.sl_timeouts;
        slot.Seed_slot.retired <- st.Snapshot.sl_retired;
        t.crash_draws.(ordinal) <- st.Snapshot.sl_crash_draws;
        t.turn_events.(ordinal) <- List.rev st.Snapshot.sl_events;
        for _ = 1 to st.Snapshot.sl_crash_draws do
          ignore (Inject.fire_turn_crash t.crash_injects.(ordinal))
        done)
      sn.Snapshot.sn_slots t.slots;
    let slot_arr = Array.of_list t.slots in
    let by_ordinal = Array.make (Array.length t.sessions) None in
    List.iter
      (fun (st : Snapshot.slot_state) -> by_ordinal.(st.Snapshot.sl_ordinal) <- Some st)
      sn.Snapshot.sn_slots;
    (* ordinals are untrusted input: a repeated one is replayed once,
       with one mismatch on record *)
    let opened =
      List.rev
        (List.fold_left
           (fun acc o -> if List.exists (Int.equal o) acc then acc else o :: acc)
           [] sn.Snapshot.sn_opened)
    in
    if List.compare_lengths opened sn.Snapshot.sn_opened <> 0 then
      Fault.record t.pool_faults Fault.Resume_mismatch;
    (* replay opened sessions concurrently, like the turns they rerun —
       homed on their ordinal so each lands on its campaign-long home
       domain straight away *)
    let replayed =
      Domain_pool.run t.pool ~jobs:t.jobs
        ~home:(fun ordinal -> ordinal - 1)
        (fun ordinal ->
          match if in_range t ordinal then by_ordinal.(ordinal) else None with
          | Some st -> (ordinal, replay_slot t slot_arr.(ordinal - 1) st)
          | None -> (ordinal, None))
        opened
    in
    List.iter
      (fun (ordinal, result) ->
        match result with
        | None -> Fault.record t.pool_faults Fault.Resume_mismatch
        | Some (rt, s) ->
          t.sessions.(ordinal) <- Some (rt, s);
          t.opened <- slot_arr.(ordinal - 1) :: t.opened;
          (* the replayed engine must land exactly where the snapshot
             recorded it; divergence is survivable but on record *)
          let st = Option.get by_ordinal.(ordinal) in
          let coverage = Executor.coverage (Session.session_executor s) in
          if Session.session_time s <> st.Snapshot.sl_clock then
            Fault.record t.pool_faults Fault.Resume_mismatch;
          if Coverage.count coverage <> st.Snapshot.sl_coverage then
            Fault.record t.pool_faults Fault.Resume_mismatch;
          (* the merged coverage set is the union over the replayed
             sessions (membership is order-insensitive; the fresh-block
             counters were restored above, so later merges count against
             the same set) *)
          List.iter
            (fun gid -> Hashtbl.replace t.merged gid ())
            (Coverage.covered_ids coverage))
      replayed;
    (* merged bugs, reattached in recorded harvest order *)
    List.iter
      (fun (br : Snapshot.bug_ref) ->
        let key = (br.Snapshot.br_gid, br.Snapshot.br_kind) in
        Hashtbl.replace t.bug_keys key ();
        t.bug_refs <-
          (br.Snapshot.br_slot, br.Snapshot.br_gid, br.Snapshot.br_kind) :: t.bug_refs;
        let reattached =
          match session_at t br.Snapshot.br_slot with
          | Some (_, s) -> (
            match
              List.find_opt
                (fun b -> Bug.dedup_key b = key)
                (Executor.bugs (Session.session_executor s))
            with
            | Some bug ->
              t.merged_bugs <- (bug, Session.session_bug_phase s bug) :: t.merged_bugs;
              true
            | None -> false)
          | None -> false
        in
        if not reattached then Fault.record t.pool_faults Fault.Resume_mismatch)
      sn.Snapshot.sn_bugs;
    true
  end

(* The pool policy over the slots still live, at the snapshot's position
   when resuming from an accepted snapshot. *)
let start_scheduler t resume =
  let sched =
    t.factory ~time_period:t.config.Session.concolic.Session.time_period
      (List.filter (fun (sl : Seed_slot.t) -> not sl.Seed_slot.retired) t.slots)
  in
  (match resume with
   | Some ((sn : Snapshot.t), _) ->
     let stats = sched.Pool_scheduler.stats in
     stats.Pool_scheduler.turns <- sn.Snapshot.sn_sched_turns;
     stats.Pool_scheduler.rotations <- sn.Snapshot.sn_sched_rotations;
     stats.Pool_scheduler.retirements <- sn.Snapshot.sn_sched_retirements;
     sched.Pool_scheduler.restore_state sn.Snapshot.sn_sched_state
   | None -> ());
  sched

(* The worker half of a turn: everything here touches only the slot's
   own session, its private runtime and its own cells of the per-ordinal
   arrays, so it is safe on any domain. *)
let exec_turn t (slot : Seed_slot.t) ~budget =
  let ordinal = slot.Seed_slot.ordinal in
  t.crash_draws.(ordinal) <- t.crash_draws.(ordinal) + 1;
  let crashed = Inject.fire_turn_crash t.crash_injects.(ordinal) in
  match t.sessions.(ordinal) with
  | None when crashed -> Entry_crash
  | cell ->
    let (rt, s), start =
      match cell with
      | Some ((_, s) as pair) -> (pair, Session.session_time s)
      | None ->
        (* first turn: the session's setup (concolic pass, phase
           division, seeding) is charged against this turn's budget *)
        let pair = open_slot t slot ~deadline:budget in
        t.sessions.(ordinal) <- Some pair;
        (pair, 0)
    in
    let q = rt.Runtime.quarantine in
    let ev0 = Quarantine.evicted q in
    let st0 = Quarantine.total_strikes q in
    (* injected kills ledger as a tick; everything else, real contained
       crashes included (they are deterministic), as a normal step *)
    let event =
      if crashed then Snapshot.Crash
      else Snapshot.Step { deadline = start + budget; budget }
    in
    let struck = run_event t s event in
    Ran
      {
        session = s;
        event;
        start;
        stop = Session.session_time s;
        evicted = Quarantine.evicted q - ev0;
        strikes = Quarantine.total_strikes q - st0;
        opened = Option.is_none cell;
        struck;
      }

(* One strike against [slot], toward its forced retirement. *)
let strike (slot : Seed_slot.t) = slot.Seed_slot.timeouts <- slot.Seed_slot.timeouts + 1

let merge_coverage t session =
  let fresh =
    List.fold_left
      (fun fresh gid ->
        if Hashtbl.mem t.merged gid then fresh
        else begin
          Hashtbl.replace t.merged gid ();
          fresh + 1
        end)
      0
      (Coverage.covered_ids (Executor.coverage (Session.session_executor session)))
  in
  t.merge_blocks <- t.merge_blocks + fresh;
  fresh

let harvest_bugs t (slot : Seed_slot.t) session =
  List.iter
    (fun bug ->
      let ((gid, bkind) as key) = Bug.dedup_key bug in
      if not (Hashtbl.mem t.bug_keys key) then begin
        Hashtbl.replace t.bug_keys key ();
        slot.Seed_slot.bugs <- slot.Seed_slot.bugs + 1;
        t.merge_bug_count <- t.merge_bug_count + 1;
        t.merged_bugs <- (bug, Session.session_bug_phase session bug) :: t.merged_bugs;
        t.bug_refs <- (slot.Seed_slot.ordinal, gid, bkind) :: t.bug_refs
      end)
    (Executor.bugs (Session.session_executor session))

(* The barrier half: runs on the coordinating domain, in plan order,
   after every turn of the round has been joined. Works only from the
   [turn_exec] capture — by merge time, later sub-turns of the same
   lease have already advanced the session. *)
let merge_turn t (slot : Seed_slot.t) ~budget:_ tx =
  t.turns_since_ck <- t.turns_since_ck + 1;
  let spent, new_blocks, drained =
    match tx with
    | Entry_crash ->
      (* charge one tick (a zero-spent turn would silently retire the
         seed; this way it retries opening next round) and record the
         kill at pool level — there is no session to carry the fault *)
      Fault.record t.pool_faults Fault.Exec_exception;
      strike slot;
      (1, 0, false)
    | Ran r ->
      let ordinal = slot.Seed_slot.ordinal in
      if r.opened then t.opened <- slot :: t.opened;
      t.turn_events.(ordinal) <- r.event :: t.turn_events.(ordinal);
      slot.Seed_slot.quarantined <- slot.Seed_slot.quarantined + r.evicted;
      slot.Seed_slot.strikes <- slot.Seed_slot.strikes + r.strikes;
      harvest_bugs t slot r.session;
      let fresh = merge_coverage t r.session in
      if r.struck then strike slot;
      (r.stop - r.start, fresh, Session.session_drained r.session)
  in
  t.spent <- t.spent + spent;
  {
    Campaign.spent;
    new_blocks;
    finished = drained || slot.Seed_slot.timeouts >= watchdog_strikes;
  }

let on_round t n =
  t.rounds <- t.rounds + 1;
  if n >= 2 then t.parallel_turns <- t.parallel_turns + n

let slot_state t (slot : Seed_slot.t) =
  let ordinal = slot.Seed_slot.ordinal in
  let clock, coverage =
    match t.sessions.(ordinal) with
    | Some (_, s) ->
      ( Session.session_time s,
        Coverage.count (Executor.coverage (Session.session_executor s)) )
    | None -> (0, 0)
  in
  {
    Snapshot.sl_ordinal = ordinal;
    sl_bytes = slot.Seed_slot.size;
    sl_turns = slot.Seed_slot.turns;
    sl_granted = slot.Seed_slot.granted;
    sl_dwell = slot.Seed_slot.dwell;
    sl_new_blocks = slot.Seed_slot.new_blocks;
    sl_bugs = slot.Seed_slot.bugs;
    sl_quarantined = slot.Seed_slot.quarantined;
    sl_strikes = slot.Seed_slot.strikes;
    sl_timeouts = slot.Seed_slot.timeouts;
    sl_retired = slot.Seed_slot.retired;
    sl_clock = clock;
    sl_coverage = coverage;
    sl_crash_draws = t.crash_draws.(ordinal);
    sl_events = List.rev t.turn_events.(ordinal);
  }

let write_checkpoint t (sched : Pool_scheduler.t) ck =
  let t0 = Sys.time () in
  let stats = sched.Pool_scheduler.stats in
  let sn =
    {
      Snapshot.sn_meta =
        ck.ck_meta
        @ [
            ("scheduler", sched.Pool_scheduler.name);
            ("jobs", string_of_int t.jobs);
            ("lease", string_of_int t.lease);
            ("deadline", string_of_int t.deadline);
            ( "telemetry",
              if Telemetry.Registry.enabled t.pool_registry then "1" else "0" );
          ]
        @ Session.config_to_kvs t.config;
      sn_deadline = t.deadline;
      sn_spent = t.spent;
      sn_rounds = t.rounds;
      sn_parallel_turns = t.parallel_turns;
      sn_merge_blocks = t.merge_blocks;
      sn_merge_bugs = t.merge_bug_count;
      (* count this write too: resume burns one snapshot-channel draw per
         write, including the one just below *)
      sn_checkpoints = t.checkpoints_written + 1;
      sn_sched_turns = stats.Pool_scheduler.turns;
      sn_sched_rotations = stats.Pool_scheduler.rotations;
      sn_sched_retirements = stats.Pool_scheduler.retirements;
      sn_sched_state = sched.Pool_scheduler.state ();
      sn_pool_faults =
        List.map (fun k -> (Fault.label k, Fault.count t.pool_faults k)) Fault.all;
      sn_opened = List.rev_map (fun (sl : Seed_slot.t) -> sl.Seed_slot.ordinal) t.opened;
      sn_slots = List.map (slot_state t) t.slots;
      sn_bugs =
        List.rev_map
          (fun (ordinal, gid, kind) ->
            { Snapshot.br_slot = ordinal; br_gid = gid; br_kind = kind })
          t.bug_refs;
    }
  in
  let doc = Snapshot.to_string sn in
  let doc =
    if Inject.fire_snapshot_corrupt t.pool_inject then begin
      (* flip one byte mid-document; the checksum catches it on load *)
      let b = Bytes.of_string doc in
      Bytes.set b (Bytes.length b / 2) '#';
      Bytes.to_string b
    end
    else doc
  in
  Checked_file.write ~path:ck.ck_path doc;
  t.checkpoints_written <- t.checkpoints_written + 1;
  t.turns_since_ck <- 0;
  match ck.ck_note_ms with
  | Some note -> note (int_of_float ((Sys.time () -. t0) *. 1000.0))
  | None -> ()

(* Checkpoint at the barrier when due (and always before a halt); false
   stops the campaign there. *)
let after_round t sched () =
  match t.checkpoint with
  | None -> true
  | Some ck ->
    let halt = match ck.ck_halt_after with Some n -> t.rounds >= n | None -> false in
    if halt || t.turns_since_ck >= ck.ck_every then write_checkpoint t sched ck;
    not halt

let finish t (sched : Pool_scheduler.t) =
  let merged_registries =
    List.fold_left
      (fun merged (slot : Seed_slot.t) ->
        match t.sessions.(slot.Seed_slot.ordinal) with
        | None -> merged
        | Some (rt, s) ->
          slot.Seed_slot.faults <-
            Fault.total (Executor.faults (Session.session_executor s));
          (* fold the session's instruments into the pool registry, in
             ordinal order — the aggregate report covers the campaign *)
          Telemetry.Registry.merge_into ~into:t.pool_registry rt.Runtime.registry;
          merged + 1)
      0 t.slots
  in
  let runs =
    List.rev_map
      (fun (slot : Seed_slot.t) ->
        match t.sessions.(slot.Seed_slot.ordinal) with
        | Some (_, s) -> (slot.Seed_slot.seed, Session.finish_session s)
        | None -> assert false)
      t.opened
  in
  {
    runs;
    merged_coverage = Hashtbl.length t.merged;
    merged_bugs = List.rev t.merged_bugs;
    pool_scheduler = sched.Pool_scheduler.name;
    seed_rows = List.map Seed_slot.stat_row t.slots;
    pool_stats = sched.Pool_scheduler.stats;
    pool_deadline = t.deadline;
    pool_spent = t.spent;
    pool_rounds = t.rounds;
    pool_parallel_turns = t.parallel_turns;
    pool_merge_blocks = t.merge_blocks;
    pool_merge_bugs = t.merge_bug_count;
    pool_merge_registries = merged_registries;
    pool_faults = t.pool_faults;
    pool_registry = t.pool_registry;
    pool_steal_count = Domain_pool.steals t.pool - t.steals0;
    pool_pinned_turns = Domain_pool.pinned t.pool - t.pinned0;
    pool_id_refills = Expr.id_block_refills () - t.id_refills0;
  }

(* Resuming takes the snapshot as [resume]; {!run_pool} is the fresh
   start. *)
let campaign ~resume ?(config = Session.default_config)
    ?(scheduler = Pool_scheduler.default) ?runtime ?(jobs = 1) ?(lease = 1) ?checkpoint
    ?(preload_faults = []) ?pool ?round_wrap prog ~seeds ~deadline =
  let t =
    create ~config ~scheduler ?runtime ~jobs ~lease ?checkpoint ?pool prog ~seeds
      ~deadline
  in
  Fun.protect ~finally:(release t) @@ fun () ->
  let accepted = match resume with Some r -> apply_resume t r | None -> false in
  List.iter (Fault.record t.pool_faults) preload_faults;
  let sched = start_scheduler t (if accepted then resume else None) in
  (* [merge_turn] accumulates what the rounds spend into [t.spent] *)
  let _ : int =
    Campaign.run_rounds ~on_round:(on_round t) ~after_round:(after_round t sched)
      ~lease:t.lease ?round_wrap ~pool:t.pool ~sched ~deadline:(deadline - t.spent)
      ~jobs:t.jobs ~run:(exec_turn t) ~merge:(merge_turn t) ()
  in
  finish t sched

let run_pool = campaign ~resume:None

(* Aggregate pool report: pool-level metrics first (merged coverage and
   deduplicated bugs replace the per-run values, which would double
   count), then the element-wise sum of every per-run scalar family,
   plus the per-seed rows. Span and histogram sections snapshot the pool
   registry, into which every session registry merges — they cover the
   whole campaign on instrumented runs. *)
let pool_run_report ?(meta = []) pool =
  let reports = List.map snd pool.runs in
  let summed =
    match List.map Session.scalar_metrics reports with
    | [] -> []
    | first :: rest ->
      List.fold_left
        (fun acc m -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc m)
        first rest
  in
  (* merged values replace their summed counterparts; per-run interval
     lengths don't aggregate meaningfully *)
  let dropped =
    [ "coverage.blocks"; "bugs.total"; "bugs.confirmed"; "run.interval_length" ]
  in
  let summed = List.filter (fun (k, _) -> not (List.mem k dropped)) summed in
  let confirmed =
    List.length
      (List.filter (fun ((b : Bug.t), _) -> b.Bug.confirmed) pool.merged_bugs)
  in
  let st = pool.pool_stats in
  let metrics =
    [
      ("pool.seeds", List.length pool.seed_rows);
      ("pool.runs", List.length pool.runs);
      ("pool.turns", st.Pool_scheduler.turns);
      ("pool.rotations", st.Pool_scheduler.rotations);
      ("pool.retirements", st.Pool_scheduler.retirements);
      ("pool.deadline", pool.pool_deadline);
      ("pool.spent", pool.pool_spent);
      ("pool.rounds", pool.pool_rounds);
      ("pool.parallel_turns", pool.pool_parallel_turns);
      ("pool.merge_blocks", pool.pool_merge_blocks);
      ("pool.merge_bugs", pool.pool_merge_bugs);
      ("pool.merge_registries", pool.pool_merge_registries);
      ("coverage.blocks", pool.merged_coverage);
      ("bugs.total", List.length pool.merged_bugs);
      ("bugs.confirmed", confirmed);
    ]
    @ List.map
        (fun kind -> ("pool.fault." ^ Fault.label kind, Fault.count pool.pool_faults kind))
        Fault.all
    @ summed
    @ Session.span_metrics pool.pool_registry
  in
  {
    Report.meta = ("pool_scheduler", pool.pool_scheduler) :: meta;
    metrics;
    phases = [];
    seeds = pool.seed_rows;
    histograms = Telemetry.Registry.snapshot_histograms pool.pool_registry;
  }

(* --- crash recovery -------------------------------------------------------- *)

(* Load a checkpoint with graceful degradation: a corrupt or
   version-mismatched primary falls back to the [.bak] rotation (the
   last good checkpoint), reporting the primary's failure so the resumed
   campaign can put it on the fault record. *)
let load_snapshot ~path =
  match Snapshot.load ~path with
  | Ok sn -> Ok (sn, None)
  | Error primary -> (
    let bak = path ^ ".bak" in
    let primary_msg = Snapshot.error_message primary in
    if Sys.file_exists bak then
      match Snapshot.load ~path:bak with
      | Ok sn -> Ok (sn, Some primary_msg)
      | Error fb ->
        Error
          (Printf.sprintf "%s; fallback %s: %s" primary_msg bak
             (Snapshot.error_message fb))
    else Error primary_msg)

let resume_pool ?jobs ?lease ?checkpoint ?fallback snapshot prog ~seeds =
  let meta = snapshot.Snapshot.sn_meta in
  match Session.config_of_kvs meta with
  | Error e -> Error ("snapshot config: " ^ e)
  | Ok config -> (
    let scheduler =
      match List.assoc_opt "scheduler" meta with
      | Some s -> s
      | None -> Pool_scheduler.default
    in
    match Pool_scheduler.by_name scheduler with
    | None -> Error (Printf.sprintf "snapshot names unknown pool scheduler %S" scheduler)
    | Some _ ->
      let jobs =
        match jobs with
        | Some j -> j
        | None -> (
          match Option.bind (List.assoc_opt "jobs" meta) int_of_string_opt with
          | Some j -> j
          | None -> 1)
      in
      (* a snapshot written under multi-turn leases must resume under the
         same lease, or the remaining rounds would re-plan with different
         work units and diverge from the uninterrupted run *)
      let lease =
        match lease with
        | Some l -> l
        | None -> (
          match Option.bind (List.assoc_opt "lease" meta) int_of_string_opt with
          | Some l -> l
          | None -> 1)
      in
      (* the resumed campaign's instruments must be on exactly when the
         original's were, or its report would differ from the
         uninterrupted run's *)
      let registry =
        Telemetry.Registry.create ~enabled:(List.assoc_opt "telemetry" meta = Some "1") ()
      in
      Ok
        (campaign ~resume:(Some (snapshot, fallback)) ~config ~scheduler
           ~runtime:(Session.runtime_of_config ~registry config)
           ~jobs ~lease ?checkpoint prog ~seeds ~deadline:snapshot.Snapshot.sn_deadline))

let select_seed seeds ~coverage_of =
  match seeds with
  | [] -> None
  | _ ->
    let by_size =
      List.sort (fun a b -> Int.compare (Bytes.length a) (Bytes.length b)) seeds
    in
    let smallest =
      List.filteri (fun i _ -> i < 10) by_size
    in
    let best =
      List.fold_left
        (fun acc seed ->
          let cov = coverage_of seed in
          match acc with
          | Some (_, best_cov) when best_cov >= cov -> acc
          | _ -> Some (seed, cov))
        None smallest
    in
    Option.map fst best
