module Rng = Pbse_util.Rng

type plan = {
  seed : int;
  solver_unknown_rate : float;
  exec_abort_rate : float;
  mem_pressure_rate : float;
  concolic_drop_rate : float;
  turn_crash_rate : float;
  snapshot_corrupt_rate : float;
}

let none =
  {
    seed = 1;
    solver_unknown_rate = 0.0;
    exec_abort_rate = 0.0;
    mem_pressure_rate = 0.0;
    concolic_drop_rate = 0.0;
    turn_crash_rate = 0.0;
    snapshot_corrupt_rate = 0.0;
  }

let is_active p =
  p.solver_unknown_rate > 0.0 || p.exec_abort_rate > 0.0 || p.mem_pressure_rate > 0.0
  || p.concolic_drop_rate > 0.0 || p.turn_crash_rate > 0.0
  || p.snapshot_corrupt_rate > 0.0

let parse s =
  let parse_clause plan clause =
    match String.index_opt clause '=' with
    | None -> Error (Printf.sprintf "bad clause %S (want key=value)" clause)
    | Some i ->
      let key = String.trim (String.sub clause 0 i) in
      let v = String.trim (String.sub clause (i + 1) (String.length clause - i - 1)) in
      let rate () =
        match float_of_string_opt v with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok f
        | Some _ | None ->
          Error (Printf.sprintf "bad rate %S for %s (want a float in [0, 1])" v key)
      in
      (match key with
       | "seed" -> (
         match int_of_string_opt v with
         | Some n -> Ok { plan with seed = n }
         | None -> Error (Printf.sprintf "bad seed %S (want an integer)" v))
       | "solver" -> Result.map (fun r -> { plan with solver_unknown_rate = r }) (rate ())
       | "abort" -> Result.map (fun r -> { plan with exec_abort_rate = r }) (rate ())
       | "mem" -> Result.map (fun r -> { plan with mem_pressure_rate = r }) (rate ())
       | "concolic" ->
         Result.map (fun r -> { plan with concolic_drop_rate = r }) (rate ())
       | "crash" -> Result.map (fun r -> { plan with turn_crash_rate = r }) (rate ())
       | "snapshot" ->
         Result.map (fun r -> { plan with snapshot_corrupt_rate = r }) (rate ())
       | _ ->
         Error
           (Printf.sprintf
              "unknown key %S (want seed|solver|abort|mem|concolic|crash|snapshot)"
              key))
  in
  if String.trim s = "" then Ok none (* every clause is optional *)
  else
    List.fold_left
      (fun acc clause -> Result.bind acc (fun plan -> parse_clause plan clause))
      (Ok none)
      (String.split_on_char ',' s)

let to_string p =
  Printf.sprintf "seed=%d,solver=%g,abort=%g,mem=%g,concolic=%g,crash=%g,snapshot=%g"
    p.seed p.solver_unknown_rate p.exec_abort_rate p.mem_pressure_rate
    p.concolic_drop_rate p.turn_crash_rate p.snapshot_corrupt_rate

type t = {
  plan : plan;
  solver_rng : Rng.t;
  abort_rng : Rng.t;
  mem_rng : Rng.t;
  concolic_rng : Rng.t;
  crash_rng : Rng.t;
  snapshot_rng : Rng.t;
}

(* Each channel draws from its own stream split off the plan seed, so
   changing one rate never shifts where the other channels fire. *)
let create plan =
  let root = Rng.create plan.seed in
  let solver_rng = Rng.split root in
  let abort_rng = Rng.split root in
  let mem_rng = Rng.split root in
  let concolic_rng = Rng.split root in
  (* split last so pre-existing channels keep their streams *)
  let crash_rng = Rng.split root in
  let snapshot_rng = Rng.split root in
  { plan; solver_rng; abort_rng; mem_rng; concolic_rng; crash_rng; snapshot_rng }

let plan t = t.plan

let fire rng rate = rate > 0.0 && Rng.float rng 1.0 < rate

let fire_solver_unknown t = fire t.solver_rng t.plan.solver_unknown_rate
let fire_exec_abort t = fire t.abort_rng t.plan.exec_abort_rate
let fire_mem_pressure t = fire t.mem_rng t.plan.mem_pressure_rate
let fire_concolic_drop t = fire t.concolic_rng t.plan.concolic_drop_rate
let fire_turn_crash t = fire t.crash_rng t.plan.turn_crash_rate
let fire_snapshot_corrupt t = fire t.snapshot_rng t.plan.snapshot_corrupt_rate
