type outcome = {
  spent : int;
  new_blocks : int;
  finished : bool;
}

(* The campaign loop: policy decisions live behind [Pool_scheduler.t],
   engine execution behind the [run]/[merge] callbacks, and this loop
   owns every slot counter. The policy plans a whole round up front (one
   turn per live slot, outcome-independent), the turns run — on up to
   [jobs] domains — and the results merge back at the barrier in plan
   order. Budgets are clamped against the round's opening balance in
   plan order, so the clamp too is independent of how turns inside the
   round actually went; every [jobs] width therefore grants, runs and
   merges the identical sequence. Termination is guaranteed: a clamped
   share of zero skips the slot out of the rotation, and a finished or
   progress-free turn retires it at the barrier, so every round either
   consumes budget or shrinks the finite rotation.

   [lease] coarsens the work units: each planned turn is granted up to
   [lease] consecutive sub-turns of the same budget (bounded by the
   remaining balance, still clamped in plan order), which run unbroken
   on one worker and merge sub-turn by sub-turn at the barrier. The
   scheduler sees one credit-or-retire decision per lease — exactly the
   decision it would have seen per turn at [lease = 1] — so barrier and
   merge overhead amortises over [lease] engine turns. Slots are homed
   on their ordinal, so a slot's leases land on the same pool worker
   round after round (domain-affine sessions; stealing only when a
   worker runs dry).

   [round_wrap] brackets each executed round (dispatch through merges):
   a server multiplexing several campaigns onto one shared pool passes
   an arbiter here, so pool occupancy is handed over at round
   granularity — the barriers inside a round stay untouched, keeping
   per-round determinism. *)
let run_rounds ?(on_round = fun _ -> ()) ?(after_round = fun () -> true) ?(lease = 1)
    ?(round_wrap = fun f -> f ()) ?pool ~sched ~deadline ~jobs ~run ~merge () =
  let lease = max 1 lease in
  let owned_pool = ref None in
  let pool =
    match pool with
    | Some p -> p
    | None ->
      let p = Domain_pool.create ~jobs:(jobs ()) in
      owned_pool := Some p;
      p
  in
  let spent_total = ref 0 in
  let rec loop () =
    let remaining = deadline - !spent_total in
    if remaining > 0 then begin
      match sched.Pool_scheduler.plan ~remaining with
      | [] -> ()
      | planned ->
        (* split the plan into runnable leases and zero-share skips,
           draining the opening balance in plan order: each lease claims
           up to [lease] budgets (at least one — the clamp guarantees
           budget <= avail) before the next slot draws *)
        let avail = ref remaining in
        let runnable =
          List.filter_map
            (fun { Pool_scheduler.slot; budget } ->
              let budget = min budget !avail in
              if budget <= 0 then begin
                slot.Seed_slot.retired <- true;
                sched.Pool_scheduler.retire slot;
                None
              end
              else begin
                let turns = max 1 (min lease (!avail / budget)) in
                avail := !avail - (budget * turns);
                slot.Seed_slot.turns <- slot.Seed_slot.turns + turns;
                slot.Seed_slot.granted <- slot.Seed_slot.granted + (budget * turns);
                Some (slot, budget, turns)
              end)
            planned
        in
        if runnable <> [] then begin
          round_wrap (fun () ->
          on_round (List.length runnable);
          let results =
            Domain_pool.run pool ~jobs:(jobs ())
              ~home:(fun (slot, _, _) -> slot.Seed_slot.ordinal - 1)
              (fun (slot, budget, turns) ->
                (* sub-turns step the same session: strictly in order *)
                let rec go k acc =
                  if k = 0 then List.rev acc else go (k - 1) (run slot ~budget :: acc)
                in
                go turns [])
              runnable
          in
          List.iter2
            (fun (slot, budget, _turns) sub_results ->
              (* merge every sub-turn, in lease order, then make the one
                 credit-or-retire decision for the whole lease *)
              let lease_spent = ref 0 in
              let finished = ref false in
              List.iter
                (fun result ->
                  let o = merge slot ~budget result in
                  slot.Seed_slot.dwell <- slot.Seed_slot.dwell + o.spent;
                  slot.Seed_slot.new_blocks <- slot.Seed_slot.new_blocks + o.new_blocks;
                  spent_total := !spent_total + o.spent;
                  lease_spent := !lease_spent + o.spent;
                  if o.finished then finished := true)
                sub_results;
              if !finished || !lease_spent <= 0 then begin
                if not slot.Seed_slot.retired then begin
                  slot.Seed_slot.retired <- true;
                  sched.Pool_scheduler.retire slot
                end
              end
              else sched.Pool_scheduler.credit slot)
            runnable results);
          if after_round () then loop ()
        end
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Domain_pool.shutdown !owned_pool)
    (fun () ->
      loop ();
      !spent_total)
