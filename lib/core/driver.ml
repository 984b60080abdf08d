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
  pool_shared_seedstates : int;
      (* seedStates skipped because another session of this campaign
         already published their fork point (share hits). Diagnostic
         like the above: the sharing feature itself is config-gated, and
         at [jobs > 1] which session publishes first is timing-dependent *)
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

(* Worker-side record of one executed sub-turn. Everything a merge needs
   is captured at execution time: under a multi-turn lease the barrier
   merge runs after {e later} sub-turns have already advanced the
   session's clock and quarantine, so reading them at merge time would
   smear one sub-turn's dwell and strike deltas over its successors. *)
type turn_exec = {
  tx_start : int; (* session clock entering the sub-turn *)
  tx_stop : int; (* session clock leaving it *)
  tx_ev0 : int; (* quarantine evictions before / after *)
  tx_ev1 : int;
  tx_st0 : int; (* quarantine strikes before / after *)
  tx_st1 : int;
  tx_opened : bool; (* this sub-turn opened the session *)
  tx_status : [ `Stepped | `Failed | `Injected | `Entry_crash ];
}

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
   [checkpoint] serialises the campaign at round barriers — slot
   counters, each session's granted-turn ledger, merged-bug keys,
   scheduler state — and [resume] reinstates the counters then replays
   each ledger against the same seeds, reconstructing engine state the
   snapshot never stored. A clean kill-and-resume therefore yields a
   pool report byte-identical to the uninterrupted run. Watchdogged
   turns (spent > factor x budget), injected turn kills and contained
   turn exceptions all strike their seed toward forced retirement and
   step the effective [--jobs] and prefix cap down (graceful
   degradation) without ever aborting the campaign. *)

(* The digest under which the serve layer caches a campaign's rendered
   report. [jobs] is deliberately absent: reports are jobs-invariant, so
   any width may reuse any width's campaign. The constant "1" stands
   where a telemetry-enablement flag was once hashed; it stays so store
   files written before keep their keys. *)
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
     ]
    @ List.map (fun seed -> Digest.to_hex (Digest.bytes seed)) ordered);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_pool ?(config = Session.default_config) ?(scheduler = Pool_scheduler.default)
    ?runtime ?(jobs = 1) ?(lease = 1) ?checkpoint ?resume ?(preload_faults = [])
    ?pool:ext_pool ?share ?round_wrap prog ~seeds ~deadline =
  let factory =
    match Pool_scheduler.by_name scheduler with
    | Some f -> f
    | None -> invalid_arg ("Driver: unknown pool scheduler " ^ scheduler)
  in
  let lease = max 1 lease in
  let ordered =
    List.sort (fun a b -> Int.compare (Bytes.length a) (Bytes.length b)) seeds
  in
  (* The share table consulted by every [open_session] (config-gated):
     the caller's, which may span campaigns, or one for this campaign. *)
  let share =
    if config.search.share_seed_states then
      Some (match share with Some sh -> sh | None -> Session.share_create ())
    else None
  in
  let share_hits0 =
    match share with Some sh -> snd (Session.share_stats sh) | None -> 0
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
  let own_pool = Option.is_none ext_pool in
  let pool =
    match ext_pool with Some p -> p | None -> Domain_pool.create ~jobs
  in
  let steals0 = Domain_pool.steals pool in
  let pinned0 = Domain_pool.pinned pool in
  let id_refills0 = Expr.id_block_refills () in
  Fun.protect ~finally:(fun () -> if own_pool then Domain_pool.shutdown pool)
  @@ fun () ->
  let pool_rt =
    match runtime with Some rt -> rt | None -> Session.runtime_of_config config
  in
  let pool_registry = pool_rt.Runtime.registry in
  let tm_rounds = Telemetry.Registry.counter pool_registry "pool.rounds" in
  let tm_parallel_turns =
    Telemetry.Registry.counter pool_registry "pool.parallel_turns"
  in
  let tm_merge_blocks = Telemetry.Registry.counter pool_registry "pool.merge_blocks" in
  let tm_merge_bugs = Telemetry.Registry.counter pool_registry "pool.merge_bugs" in
  let tm_merge_registries =
    Telemetry.Registry.counter pool_registry "pool.merge_registries"
  in
  (* contention diagnostics (width-dependent; excluded from report JSON) *)
  let tm_steal_count = Telemetry.Registry.counter pool_registry "pool.steal_count" in
  let tm_pinned_turns = Telemetry.Registry.counter pool_registry "pool.pinned_turns" in
  let tm_id_refills = Telemetry.Registry.counter pool_registry "smt.id_block_refills" in
  let pool_faults = Fault.log_create ~registry:pool_registry () in
  let slots =
    List.mapi (fun i seed -> Seed_slot.create ~ordinal:(i + 1) seed) ordered
  in
  let nslots = List.length slots in
  let slot_arr = Array.of_list slots in
  let merged = Hashtbl.create 1024 in
  let bug_keys = Hashtbl.create 32 in
  let merged_bugs = ref [] in
  let bug_refs = ref [] in
  (* Sessions indexed by slot ordinal. A cell is written once, by the
     worker domain running its slot's first turn, and only ever touched
     by that slot's turns afterwards; distinct slots use distinct cells
     and [Domain_pool.map]'s join publishes the writes before the
     barrier reads them, so the array needs no lock. *)
  let sessions : (Runtime.t * Session.t) option array = Array.make (nslots + 1) None in
  (* Turn-crash injection draws from a per-slot stream (plan seed +
     ordinal) so a draw's position never depends on which domain ran
     which turn; the snapshot-corruption channel draws once per
     checkpoint write, on the coordinating domain. *)
  let slot_plan ordinal =
    { config.robust.inject with Inject.seed = config.robust.inject.Inject.seed + ordinal }
  in
  let crash_injects = Array.init (nslots + 1) (fun i -> Inject.create (slot_plan i)) in
  let pool_inject = Inject.create config.robust.inject in
  (* Per-ordinal durability records: RNG draws to re-burn on resume, the
     granted-turn ledger (newest first) and the prefix cap each session
     opened under (-1 = unbounded). *)
  let crash_draws = Array.make (nslots + 1) 0 in
  let turn_events : Snapshot.turn_event list array = Array.make (nslots + 1) [] in
  let opened_caps = Array.make (nslots + 1) (-1) in
  let opened = ref [] in
  let rounds = ref 0 in
  let parallel_turns = ref 0 in
  let merge_blocks = ref 0 in
  let merge_bug_count = ref 0 in
  let merge_registries = ref 0 in
  let base_spent = ref 0 in
  let spent_acc = ref 0 in
  let turns_since_ck = ref 0 in
  let checkpoints_written = ref 0 in
  let degrade_faults = ref 0 in
  (* Graceful degradation: every watchdog strike, crashed turn or
     pool-level fault widens [degrade_faults]; each [degrade_after]
     faults halve the domain-pool width and the solver prefix cap.
     Neither knob is visible to plans or merges, so reports are
     unaffected. *)
  let degrade_steps () =
    if config.robust.degrade_after <= 0 then 0
    else !degrade_faults / config.robust.degrade_after
  in
  let eff_jobs () = max 1 (jobs asr degrade_steps ()) in
  let eff_prefix_cap () =
    match pool_rt.Runtime.prefix_cap with
    | None -> None
    | Some cap -> Some (max 16 (cap asr degrade_steps ()))
  in
  let watchdog_overran ~budget ~spent =
    config.robust.watchdog_factor > 0 && spent > config.robust.watchdog_factor * budget
  in
  (* The watchdog fires at the merge barrier (and identically during
     resume replay): a turn that ran past factor x budget records a
     session-level fault and strikes its seed. *)
  let watchdog_check s ~start ~budget =
    let spent = Session.session_time s - start in
    if watchdog_overran ~budget ~spent then begin
      Fault.record
        (Executor.faults (Session.session_executor s))
        ~detail:"turn-timeout" ~vtime:(Session.session_time s) Fault.Turn_timeout;
      true
    end
    else false
  in
  let derive_session_rt ~prefix_cap =
    let registry =
      Telemetry.Registry.create ~enabled:(Telemetry.Registry.enabled pool_registry) ()
    in
    match prefix_cap with
    | Some cap -> Runtime.derive ~registry ~rng_seed:config.rng_seed ~prefix_cap:cap pool_rt
    | None -> Runtime.derive ~registry ~rng_seed:config.rng_seed pool_rt
  in
  (* Re-execute one opened session's ledger from scratch: open under the
     recorded prefix cap, then grant exactly the recorded turns. Runs on
     a worker domain (the session is slot-private). *)
  let replay_slot (slot : Seed_slot.t) (st : Snapshot.slot_state) =
    match st.Snapshot.sl_events with
    | [] -> None
    | Snapshot.Crash _ :: _ -> None (* the opening turn is always a Step *)
    | Snapshot.Step { deadline = first_deadline; budget = first_budget } :: rest ->
      let prefix_cap =
        if st.Snapshot.sl_prefix_cap >= 0 then Some st.Snapshot.sl_prefix_cap else None
      in
      let rt = derive_session_rt ~prefix_cap in
      let s =
        Session.open_session ~config ~runtime:rt ?share prog ~seed:slot.Seed_slot.seed
          ~deadline:first_deadline
      in
      ignore (Session.step_contained s ~deadline:first_deadline);
      ignore (watchdog_check s ~start:0 ~budget:first_budget);
      List.iter
        (fun ev ->
          match ev with
          | Snapshot.Crash detail -> Session.record_crash s ~detail
          | Snapshot.Step { deadline; budget } ->
            let start = Session.session_time s in
            ignore (Session.step_contained s ~deadline);
            ignore (watchdog_check s ~start ~budget))
        rest;
      Some (rt, s)
  in
  (* --- resume: reinstate the snapshot, then replay the ledgers ------- *)
  let apply_resume (sn : Snapshot.t) fallback =
    let compatible =
      List.length sn.Snapshot.sn_slots = nslots
      && List.for_all2
           (fun (st : Snapshot.slot_state) (slot : Seed_slot.t) ->
             st.Snapshot.sl_ordinal = slot.Seed_slot.ordinal
             && st.Snapshot.sl_bytes = slot.Seed_slot.size)
           sn.Snapshot.sn_slots slots
    in
    if not compatible then begin
      (* the snapshot describes a different pool: degrade to a fresh
         start with the mismatch on record, never a crash *)
      Fault.record pool_faults ~detail:"pool-shape" ~vtime:0 Fault.Resume_mismatch;
      incr degrade_faults
    end
    else begin
      Fault.restore_counts pool_faults sn.Snapshot.sn_pool_faults;
      Telemetry.Registry.restore_counters pool_registry sn.Snapshot.sn_counters;
      base_spent := sn.Snapshot.sn_spent;
      spent_acc := sn.Snapshot.sn_spent;
      rounds := sn.Snapshot.sn_rounds;
      parallel_turns := sn.Snapshot.sn_parallel_turns;
      merge_blocks := sn.Snapshot.sn_merge_blocks;
      merge_bug_count := sn.Snapshot.sn_merge_bugs;
      checkpoints_written := sn.Snapshot.sn_checkpoints;
      degrade_faults := sn.Snapshot.sn_degrade_faults;
      (match fallback with
       | Some detail ->
         (* the primary checkpoint was bad; we are running from [.bak] *)
         Fault.record pool_faults ~detail ~vtime:sn.Snapshot.sn_spent
           Fault.Snapshot_corrupt;
         incr degrade_faults
       | None -> ());
      (* reposition the injection streams where the original left them *)
      for _ = 1 to sn.Snapshot.sn_checkpoints do
        ignore (Inject.fire_snapshot_corrupt pool_inject)
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
          opened_caps.(ordinal) <- st.Snapshot.sl_prefix_cap;
          crash_draws.(ordinal) <- st.Snapshot.sl_crash_draws;
          turn_events.(ordinal) <- List.rev st.Snapshot.sl_events;
          for _ = 1 to st.Snapshot.sl_crash_draws do
            ignore (Inject.fire_turn_crash crash_injects.(ordinal))
          done)
        sn.Snapshot.sn_slots slots;
      let by_ordinal = Array.make (nslots + 1) None in
      List.iter
        (fun (st : Snapshot.slot_state) -> by_ordinal.(st.Snapshot.sl_ordinal) <- Some st)
        sn.Snapshot.sn_slots;
      (* replay opened sessions concurrently, like the turns they rerun —
         homed on their ordinal so each lands on its campaign-long home
         domain straight away *)
      let replayed =
        Domain_pool.run pool ~jobs:(eff_jobs ())
          ~home:(fun ordinal -> ordinal - 1)
          (fun ordinal ->
            match by_ordinal.(ordinal) with
            | Some st when ordinal >= 1 && ordinal <= nslots ->
              (ordinal, replay_slot slot_arr.(ordinal - 1) st)
            | _ -> (ordinal, None))
          sn.Snapshot.sn_opened
      in
      List.iter
        (fun (ordinal, result) ->
          match result with
          | None ->
            Fault.record pool_faults ~detail:"missing-session" ~vtime:!base_spent
              Fault.Resume_mismatch;
            incr degrade_faults
          | Some (rt, s) ->
            sessions.(ordinal) <- Some (rt, s);
            opened := slot_arr.(ordinal - 1) :: !opened;
            (* the replayed engine must land exactly where the snapshot
               recorded it; divergence is survivable but on record *)
            let st = Option.get by_ordinal.(ordinal) in
            if Session.session_time s <> st.Snapshot.sl_clock then begin
              Fault.record pool_faults ~detail:"clock" ~vtime:!base_spent
                Fault.Resume_mismatch;
              incr degrade_faults
            end;
            if
              Coverage.count (Executor.coverage (Session.session_executor s))
              <> st.Snapshot.sl_coverage
            then begin
              Fault.record pool_faults ~detail:"coverage" ~vtime:!base_spent
                Fault.Resume_mismatch;
              incr degrade_faults
            end)
        replayed;
      (* the merged coverage set is the union over the replayed sessions
         (membership is order-insensitive; the fresh-block counters were
         restored above, so later merges count against the same set) *)
      List.iter
        (fun (ordinal, _) ->
          match sessions.(ordinal) with
          | Some (_, s) ->
            List.iter
              (fun gid -> Hashtbl.replace merged gid ())
              (Coverage.covered_ids (Executor.coverage (Session.session_executor s)))
          | None -> ())
        replayed;
      (* merged bugs, reattached in recorded harvest order *)
      List.iter
        (fun (br : Snapshot.bug_ref) ->
          let key = (br.Snapshot.br_gid, br.Snapshot.br_kind) in
          Hashtbl.replace bug_keys key ();
          bug_refs := (br.Snapshot.br_slot, br.Snapshot.br_gid, br.Snapshot.br_kind) :: !bug_refs;
          let reattached =
            match sessions.(br.Snapshot.br_slot) with
            | Some (_, s) -> (
              match
                List.find_opt
                  (fun b -> Bug.dedup_key b = key)
                  (Executor.bugs (Session.session_executor s))
              with
              | Some bug ->
                merged_bugs := (bug, Session.session_bug_phase s bug) :: !merged_bugs;
                true
              | None -> false)
            | None -> false
          in
          if not reattached then begin
            Fault.record pool_faults ~detail:"bug" ~vtime:!base_spent
              Fault.Resume_mismatch;
            incr degrade_faults
          end)
        sn.Snapshot.sn_bugs
    end
  in
  (match resume with Some (sn, fallback) -> apply_resume sn fallback | None -> ());
  List.iter
    (fun (kind, detail) ->
      Fault.record pool_faults ~detail ~vtime:0 kind;
      incr degrade_faults)
    preload_faults;
  let merge_coverage session =
    let fresh =
      List.fold_left
        (fun fresh gid ->
          if Hashtbl.mem merged gid then fresh
          else begin
            Hashtbl.replace merged gid ();
            fresh + 1
          end)
        0
        (Coverage.covered_ids (Executor.coverage (Session.session_executor session)))
    in
    merge_blocks := !merge_blocks + fresh;
    Telemetry.add tm_merge_blocks fresh;
    fresh
  in
  let harvest_bugs (slot : Seed_slot.t) session =
    List.iter
      (fun bug ->
        let ((gid, bkind) as key) = Bug.dedup_key bug in
        if not (Hashtbl.mem bug_keys key) then begin
          Hashtbl.replace bug_keys key ();
          slot.Seed_slot.bugs <- slot.Seed_slot.bugs + 1;
          incr merge_bug_count;
          Telemetry.incr tm_merge_bugs;
          merged_bugs := (bug, Session.session_bug_phase session bug) :: !merged_bugs;
          bug_refs := (slot.Seed_slot.ordinal, gid, bkind) :: !bug_refs
        end)
      (Executor.bugs (Session.session_executor session))
  in
  (* The worker half of a turn: everything here touches only the slot's
     own session, its private runtime and its own cells of the
     per-ordinal arrays, so it is safe on any domain. *)
  let exec_turn (slot : Seed_slot.t) ~budget =
    let ordinal = slot.Seed_slot.ordinal in
    crash_draws.(ordinal) <- crash_draws.(ordinal) + 1;
    let crashed = Inject.fire_turn_crash crash_injects.(ordinal) in
    match sessions.(ordinal) with
    | Some (rt, s) ->
      let start = Session.session_time s in
      let ev0 = Quarantine.evicted rt.Runtime.quarantine in
      let st0 = Quarantine.total_strikes rt.Runtime.quarantine in
      let status =
        if crashed then begin
          Session.record_crash s ~detail:"injected-crash";
          `Injected
        end
        else (Session.step_contained s ~deadline:(start + budget) :> [ `Stepped | `Failed | `Injected | `Entry_crash ])
      in
      {
        tx_start = start;
        tx_stop = Session.session_time s;
        tx_ev0 = ev0;
        tx_ev1 = Quarantine.evicted rt.Runtime.quarantine;
        tx_st0 = st0;
        tx_st1 = Quarantine.total_strikes rt.Runtime.quarantine;
        tx_opened = false;
        tx_status = status;
      }
    | None ->
      if crashed then
        (* killed before the session ever opened: nothing to ledger *)
        { tx_start = 0; tx_stop = 0; tx_ev0 = 0; tx_ev1 = 0; tx_st0 = 0;
          tx_st1 = 0; tx_opened = false; tx_status = `Entry_crash }
      else begin
        (* first turn: the session's setup (concolic pass, phase
           division, seeding) is charged against this turn's budget. The
           session's runtime is private — fresh registry, RNG reseeded
           from the config so every seed's run is reproducible in
           isolation, fresh quarantine, fresh arena — and its prefix cap
           is the pool's current (possibly degraded) one, recorded for
           replay. *)
        let cap = eff_prefix_cap () in
        opened_caps.(ordinal) <- (match cap with Some c -> c | None -> -1);
        let rt = derive_session_rt ~prefix_cap:cap in
        let s =
          Session.open_session ~config ~runtime:rt ?share prog
            ~seed:slot.Seed_slot.seed ~deadline:budget
        in
        sessions.(ordinal) <- Some (rt, s);
        let status =
          (Session.step_contained s ~deadline:budget
            :> [ `Stepped | `Failed | `Injected | `Entry_crash ])
        in
        {
          tx_start = 0;
          tx_stop = Session.session_time s;
          tx_ev0 = 0;
          tx_ev1 = Quarantine.evicted rt.Runtime.quarantine;
          tx_st0 = 0;
          tx_st1 = Quarantine.total_strikes rt.Runtime.quarantine;
          tx_opened = true;
          tx_status = status;
        }
      end
  in
  (* The barrier half: runs on the coordinating domain, in plan order,
     after every turn of the round has been joined. Works only from the
     [turn_exec] capture — by merge time, later sub-turns of the same
     lease have already advanced the session. *)
  let merge_turn (slot : Seed_slot.t) ~budget tx =
    let ordinal = slot.Seed_slot.ordinal in
    incr turns_since_ck;
    match tx.tx_status with
    | `Entry_crash ->
      (* charge one tick (a zero-spent turn would silently retire the
         seed; this way it retries opening next round) and record the
         kill at pool level — there is no session to carry the fault *)
      spent_acc := !spent_acc + 1;
      Fault.record pool_faults ~detail:"injected-crash" ~vtime:!spent_acc
        Fault.Exec_exception;
      slot.Seed_slot.timeouts <- slot.Seed_slot.timeouts + 1;
      incr degrade_faults;
      let force_retire =
        config.robust.watchdog_strikes > 0
        && slot.Seed_slot.timeouts >= config.robust.watchdog_strikes
      in
      { Campaign.spent = 1; new_blocks = 0; finished = force_retire }
    | (`Stepped | `Failed | `Injected) as status ->
      let _rt, session =
        match sessions.(ordinal) with Some pair -> pair | None -> assert false
      in
      if tx.tx_opened then opened := slot :: !opened;
      let spent = tx.tx_stop - tx.tx_start in
      (* ledger the turn for resume replay: injected kills replay as a
         tick, everything else (including real contained crashes, which
         are deterministic) replays as a normal step *)
      let event =
        match status with
        | `Injected -> Snapshot.Crash "injected-crash"
        | `Stepped | `Failed ->
          Snapshot.Step { deadline = tx.tx_start + budget; budget }
      in
      turn_events.(ordinal) <- event :: turn_events.(ordinal);
      slot.Seed_slot.quarantined <-
        slot.Seed_slot.quarantined + (tx.tx_ev1 - tx.tx_ev0);
      slot.Seed_slot.strikes <- slot.Seed_slot.strikes + (tx.tx_st1 - tx.tx_st0);
      harvest_bugs slot session;
      let fresh = merge_coverage session in
      let overran =
        match status with
        | `Injected -> false
        | `Stepped | `Failed ->
          (* same decision — and the same session fault — the replay's
             [watchdog_check] reaches right after re-running this step *)
          if watchdog_overran ~budget ~spent then begin
            Fault.record
              (Executor.faults (Session.session_executor session))
              ~detail:"turn-timeout" ~vtime:tx.tx_stop Fault.Turn_timeout;
            true
          end
          else false
      in
      let struck = overran || status <> `Stepped in
      if struck then begin
        slot.Seed_slot.timeouts <- slot.Seed_slot.timeouts + 1;
        incr degrade_faults
      end;
      spent_acc := !spent_acc + spent;
      let force_retire =
        config.robust.watchdog_strikes > 0
        && slot.Seed_slot.timeouts >= config.robust.watchdog_strikes
      in
      {
        Campaign.spent;
        new_blocks = fresh;
        finished = Session.session_drained session || force_retire;
      }
  in
  let on_round n =
    incr rounds;
    Telemetry.incr tm_rounds;
    if n >= 2 then begin
      parallel_turns := !parallel_turns + n;
      Telemetry.add tm_parallel_turns n
    end
  in
  let sched =
    factory ~registry:pool_registry ~time_period:config.concolic.time_period
      (List.filter (fun (sl : Seed_slot.t) -> not sl.Seed_slot.retired) slots)
  in
  (match resume with
   | Some (sn, _) ->
     sched.Pool_scheduler.stats.Pool_scheduler.turns <- sn.Snapshot.sn_sched_turns;
     sched.Pool_scheduler.stats.Pool_scheduler.rotations <- sn.Snapshot.sn_sched_rotations;
     sched.Pool_scheduler.stats.Pool_scheduler.retirements <-
       sn.Snapshot.sn_sched_retirements;
     sched.Pool_scheduler.restore_state sn.Snapshot.sn_sched_state
   | None -> ());
  let slot_state (slot : Seed_slot.t) =
    let ordinal = slot.Seed_slot.ordinal in
    let clock, coverage =
      match sessions.(ordinal) with
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
      sl_prefix_cap = opened_caps.(ordinal);
      sl_crash_draws = crash_draws.(ordinal);
      sl_events = List.rev turn_events.(ordinal);
    }
  in
  let write_checkpoint ck =
    let t0 = Sys.time () in
    let sn =
      {
        Snapshot.sn_meta =
          ck.ck_meta
          @ [
              ("scheduler", scheduler);
              ("jobs", string_of_int jobs);
              ("lease", string_of_int lease);
              ("deadline", string_of_int deadline);
              ( "telemetry",
                if Telemetry.Registry.enabled pool_registry then "1" else "0" );
            ]
          @ Session.config_to_kvs config;
        sn_deadline = deadline;
        sn_spent = !spent_acc;
        sn_rounds = !rounds;
        sn_parallel_turns = !parallel_turns;
        sn_merge_blocks = !merge_blocks;
        sn_merge_bugs = !merge_bug_count;
        (* count this write too: resume burns one snapshot-channel draw
           per write, including the one just below *)
        sn_checkpoints = !checkpoints_written + 1;
        sn_degrade_faults = !degrade_faults;
        sn_sched_turns = sched.Pool_scheduler.stats.Pool_scheduler.turns;
        sn_sched_rotations = sched.Pool_scheduler.stats.Pool_scheduler.rotations;
        sn_sched_retirements = sched.Pool_scheduler.stats.Pool_scheduler.retirements;
        sn_sched_state = sched.Pool_scheduler.state ();
        sn_pool_faults =
          List.map (fun k -> (Fault.label k, Fault.count pool_faults k)) Fault.all;
        sn_opened =
          List.rev_map (fun (sl : Seed_slot.t) -> sl.Seed_slot.ordinal) !opened;
        sn_counters = Telemetry.Registry.snapshot_counters pool_registry;
        sn_slots = List.map slot_state slots;
        sn_bugs =
          List.rev_map
            (fun (ordinal, gid, kind) ->
              { Snapshot.br_slot = ordinal; br_gid = gid; br_kind = kind })
            !bug_refs;
      }
    in
    let doc = Snapshot.to_string sn in
    let doc =
      if Inject.fire_snapshot_corrupt pool_inject then begin
        (* flip one byte mid-document; the checksum catches it on load *)
        let b = Bytes.of_string doc in
        Bytes.set b (Bytes.length b / 2) '#';
        Bytes.to_string b
      end
      else doc
    in
    Checked_file.write ~path:ck.ck_path doc;
    incr checkpoints_written;
    turns_since_ck := 0;
    match ck.ck_note_ms with
    | Some note -> note (int_of_float ((Sys.time () -. t0) *. 1000.0))
    | None -> ()
  in
  let after_round () =
    match checkpoint with
    | None -> true
    | Some ck ->
      let halt =
        match ck.ck_halt_after with Some n -> !rounds >= n | None -> false
      in
      if halt || !turns_since_ck >= ck.ck_every then write_checkpoint ck;
      not halt
  in
  let spent =
    Campaign.run_rounds ~on_round ~after_round ~lease ?round_wrap ~pool ~sched
      ~deadline:(deadline - !base_spent) ~jobs:eff_jobs ~run:exec_turn
      ~merge:merge_turn ()
  in
  List.iter
    (fun (slot : Seed_slot.t) ->
      match sessions.(slot.Seed_slot.ordinal) with
      | Some (rt, s) ->
        slot.Seed_slot.faults <-
          Fault.total (Executor.faults (Session.session_executor s));
        (* publish the session's solver residue for future sessions of
           this share (ordinal order, first writer per prefix wins) *)
        (match share with
         | Some sh -> Session.share_publish_hints sh (Session.export_prefix_hints s)
         | None -> ());
        (* fold the session's instruments into the pool registry, in
           ordinal order — the aggregate report covers the campaign *)
        Telemetry.Registry.merge_into ~into:pool_registry rt.Runtime.registry;
        incr merge_registries;
        Telemetry.incr tm_merge_registries
      | None -> ())
    slots;
  let runs =
    List.rev_map
      (fun (slot : Seed_slot.t) ->
        match sessions.(slot.Seed_slot.ordinal) with
        | Some (_, s) -> (slot.Seed_slot.seed, Session.finish_session s)
        | None -> assert false)
      !opened
  in
  let steal_count = Domain_pool.steals pool - steals0 in
  let pinned_turns = Domain_pool.pinned pool - pinned0 in
  let id_refills = Expr.id_block_refills () - id_refills0 in
  Telemetry.add tm_steal_count steal_count;
  Telemetry.add tm_pinned_turns pinned_turns;
  Telemetry.add tm_id_refills id_refills;
  {
    runs;
    merged_coverage = Hashtbl.length merged;
    merged_bugs = List.rev !merged_bugs;
    pool_scheduler = sched.Pool_scheduler.name;
    seed_rows = List.map Seed_slot.stat_row slots;
    pool_stats = sched.Pool_scheduler.stats;
    pool_deadline = deadline;
    pool_spent = !base_spent + spent;
    pool_rounds = !rounds;
    pool_parallel_turns = !parallel_turns;
    pool_merge_blocks = !merge_blocks;
    pool_merge_bugs = !merge_bug_count;
    pool_merge_registries = !merge_registries;
    pool_faults;
    pool_registry;
    pool_steal_count = steal_count;
    pool_pinned_turns = pinned_turns;
    pool_id_refills = id_refills;
    pool_shared_seedstates =
      (match share with
       | Some sh -> snd (Session.share_stats sh) - share_hits0
       | None -> 0);
  }

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
        (run_pool ~config ~scheduler
           ~runtime:(Session.runtime_of_config ~registry config)
           ~jobs ~lease ?checkpoint ~resume:(snapshot, fallback) prog ~seeds
           ~deadline:snapshot.Snapshot.sn_deadline))

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
