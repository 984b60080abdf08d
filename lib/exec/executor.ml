open Pbse_ir.Types
module Cfg = Pbse_ir.Cfg
module Expr = Pbse_smt.Expr
module Model = Pbse_smt.Model
module Solver = Pbse_smt.Solver
module Semantics = Pbse_smt.Semantics
module Pathcond = Pbse_pathcond.Pathcond
module Subsume = Pbse_pathcond.Subsume
module Loop_summary = Pbse_pathcond.Loop_summary
module Vclock = Pbse_util.Vclock
module Fault = Pbse_robust.Fault
module Inject = Pbse_robust.Inject
module Telemetry = Pbse_telemetry.Telemetry

type finish_reason =
  | Exited of int64
  | Buggy of Bug.t
  | Infeasible
  | Aborted of string

type slice =
  | Running
  | Forked of State.t list
  | Finished of finish_reason

type stats = {
  mutable instructions : int;
  mutable slices : int;
  mutable forks : int;
  mutable dropped_forks : int;
  mutable cow_copies : int; (* register arrays copied by the CoW barrier *)
  mutable term_exit : int;
  mutable term_bug : int;
  mutable term_abort : int;
  mutable term_infeasible : int;
  mutable concretized_addrs : int;
  mutable verify_verified : int;
  mutable verify_infeasible : int;
  mutable verify_undecided : int;
  mutable subsumed_states : int; (* would-be states pruned by the subsumption cache *)
  mutable interpolant_hits : int; (* queries answered Unsat from recorded cores *)
  mutable interpolant_misses : int; (* consults that scanned a non-empty bucket in vain *)
  mutable loop_summaries : int; (* loops leapt over via a summarized transition *)
  mutable summary_fallbacks : int; (* loops downgraded to plain unrolling *)
}

type t = {
  prog : program;
  cfg : Cfg.t;
  clock : Vclock.t;
  solver : Solver.t;
  coverage : Coverage.t;
  findex : (string, int) Hashtbl.t;
  input : bytes;
  base_model : Model.t;
  max_live : int;
  confirm_bugs : bool;
  mutable next_id : int;
  mutable bugs : Bug.t list; (* newest first *)
  bug_keys : (int * string, unit) Hashtbl.t;
  st : stats;
  mutable trace : (int -> unit) option;
  mutable live : unit -> int;
  mutable lazy_fork : bool;
  mutable record_testcases : bool;
  mutable testcases : (bytes * string) list; (* newest first, capped *)
  subsumption : bool;
  subsume : Subsume.t; (* per-block unsat cores; session-local (arena ids) *)
  summaries : (int * int, Loop_summary.summary) Hashtbl.t; (* (fidx, header) *)
  inj : Inject.t option; (* fault injection, None when inactive *)
  faults : Fault.log;
  registry : Telemetry.Registry.t;
  tm_slice_steps : Telemetry.histogram;
  tm_forks : Telemetry.counter;
  tm_fork_cost : Telemetry.histogram;
  tm_cow_copies : Telemetry.counter;
}

let max_testcases = 4096

(* Dividing the solver's work units by this constant converts them into
   instruction-equivalent virtual time. One work unit is roughly one
   expression-node visit during interval evaluation — orders of magnitude
   cheaper than one interpreted instruction (KLEE's instruction dispatch
   plus expression building), hence the large divisor. *)
let solver_charge_divisor = 128

let max_call_depth = 512

let create ?(max_live = 8192) ?(solver_budget = 60_000) ?solver_retry_cap
    ?solver_prefix_cap ?(confirm_bugs = true) ?(inject = Inject.none)
    ?(subsumption = true) ?(loop_summaries = true) ?registry ~clock prog ~input =
  Pbse_ir.Validate.check_exn prog;
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  let cfg = Cfg.build prog in
  (* static loop-summary pass: template matches become one-step
     transitions, mismatches are fault-free downgrades counted up front *)
  let summary_analysis =
    if loop_summaries then Loop_summary.analyze prog
    else { Loop_summary.summaries = Hashtbl.create 1; fallbacks = 0 }
  in
  {
    prog;
    cfg;
    clock;
    solver =
      Solver.create ~budget:solver_budget ?retry_cap:solver_retry_cap
        ?prefix_cap:solver_prefix_cap ~registry ();
    coverage = Coverage.create (Cfg.nblocks cfg);
    findex = func_index prog;
    input;
    base_model = Model.of_bytes input;
    max_live;
    confirm_bugs;
    next_id = 0;
    bugs = [];
    bug_keys = Hashtbl.create 64;
    st =
      {
        instructions = 0;
        slices = 0;
        forks = 0;
        dropped_forks = 0;
        cow_copies = 0;
        term_exit = 0;
        term_bug = 0;
        term_abort = 0;
        term_infeasible = 0;
        concretized_addrs = 0;
        verify_verified = 0;
        verify_infeasible = 0;
        verify_undecided = 0;
        subsumed_states = 0;
        interpolant_hits = 0;
        interpolant_misses = 0;
        loop_summaries = 0;
        summary_fallbacks = summary_analysis.Loop_summary.fallbacks;
      };
    subsumption;
    subsume = Subsume.create ();
    summaries = summary_analysis.Loop_summary.summaries;
    trace = None;
    live = (fun () -> 0);
    lazy_fork = false;
    record_testcases = false;
    testcases = [];
    inj = (if Inject.is_active inject then Some (Inject.create inject) else None);
    faults = Fault.log_create ~registry ();
    registry;
    tm_slice_steps = Telemetry.Registry.histogram registry "exec.slice_steps";
    tm_forks = Telemetry.Registry.counter registry "exec.forks";
    tm_fork_cost = Telemetry.Registry.histogram registry "exec.fork_cost";
    tm_cow_copies = Telemetry.Registry.counter registry "exec.cow_copies";
  }

let cfg t = t.cfg
let coverage t = t.coverage
let faults t = t.faults
let clock t = t.clock
let solver t = t.solver
let stats t = t.st
let bugs t = List.rev t.bugs
let input_size t = Bytes.length t.input
let seed_model t = t.base_model
let state_count t = t.next_id
let set_trace t hook = t.trace <- hook
let set_live_counter t f = t.live <- f
let set_lazy_fork t flag = t.lazy_fork <- flag
let set_record_testcases t flag = t.record_testcases <- flag
let testcases t = List.rev t.testcases

let fresh_state_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let initial_state t =
  let f = t.prog.funcs.(t.prog.main) in
  State.create ~id:(fresh_state_id t) ~nregs:f.nregs ~mem:Mem.empty ~model:t.base_model
    ~fidx:t.prog.main ~born:(Vclock.now t.clock)

(* --- plumbing -------------------------------------------------------------- *)

exception Finish of finish_reason

let charge_solver t work = Vclock.advance t.clock (1 + (work / solver_charge_divisor))

(* An injected solver fault stands in for a real query: it costs one
   clock tick (so retry loops always make virtual-time progress) and is
   logged under its own kind. *)
let inject_solver_unknown t =
  match t.inj with
  | Some inj when Inject.fire_solver_unknown inj ->
    Vclock.tick t.clock;
    Fault.record t.faults ~detail:"injected solver unknown" ~vtime:(Vclock.now t.clock)
      Fault.Solver_injected;
    true
  | Some _ | None -> false

(* Consult the subsumption cache before solving: if the query's id set —
   the state's path condition plus the extra constraints — covers some
   unsat core recorded at this block boundary, the query is Unsat by
   entailment (a superset of an unsatisfiable set is unsatisfiable) and
   the solver is skipped entirely for one clock tick. [prune] marks
   consults whose Unsat answer discards a would-be state (fork sides,
   pending verifications) for the [subsumed_states] accounting. *)
let subsume_consult t st ~extra ~prune =
  t.subsumption
  &&
  let sg =
    Pathcond.signature st.State.path
    lor Pathcond.signature_of_ids (List.map (fun (e : Expr.t) -> e.Expr.id) extra)
  in
  let mem id =
    Pathcond.mem st.State.path id
    || List.exists (fun (e : Expr.t) -> e.Expr.id = id) extra
  in
  match Subsume.consult t.subsume ~block:st.State.cur_gid ~sg ~mem with
  | `Hit ->
    t.st.interpolant_hits <- t.st.interpolant_hits + 1;
    if prune then t.st.subsumed_states <- t.st.subsumed_states + 1;
    Vclock.tick t.clock;
    true
  | `Miss ->
    t.st.interpolant_misses <- t.st.interpolant_misses + 1;
    false
  | `Empty -> false

let record_core t st core =
  if t.subsumption then Subsume.record t.subsume ~block:st.State.cur_gid core

(* Invariant: a state's model satisfies its path (lazy-forked states are
   quarantined behind [verify] before they are ever sliced), so queries
   go through the incremental entry point. *)
let feasible ?(prune = false) t st extra =
  if inject_solver_unknown t then Solver.Unknown
  else if subsume_consult t st ~extra ~prune then Solver.Unsat
  else begin
    let result, work =
      Solver.check_assuming t.solver ~hint:st.State.model
        ~on_unsat_core:(record_core t st) ~path:(State.path_spine st) extra
    in
    charge_solver t work;
    (match result with
     | Solver.Unknown ->
       Fault.record t.faults ~detail:"feasibility query out of budget"
         ~vtime:(Vclock.now t.clock) Fault.Solver_unknown
     | Solver.Sat _ | Solver.Unsat -> ());
    result
  end

type verdict =
  | Verified
  | Infeasible_state
  | Undecided

(* Establish the model invariant of a lazily forked state: its newest
   path constraint is unchecked. [Infeasible_state] means the state must
   be dropped; [Undecided] means the solver gave up (or an injected
   fault fired) — the state keeps [needs_verify] set, so a later call
   retries the query, escalating its budget each time. *)
let verify_pending t st =
  begin
    match State.path_spine st with
    | [] ->
      st.State.needs_verify <- false;
      Verified
    | newest :: older ->
      if inject_solver_unknown t then Undecided
        (* the full path (newest included) is the query: a recorded core
           it covers discards the pending state without a query *)
      else if subsume_consult t st ~extra:[] ~prune:true then Infeasible_state
      else begin
        let result, work =
          Solver.check_assuming t.solver ~hint:st.State.model
            ~on_unsat_core:(record_core t st) ~path:older [ newest ]
        in
        charge_solver t work;
        match result with
        | Solver.Sat model ->
          st.State.model <- model;
          st.State.needs_verify <- false;
          Verified
        | Solver.Unsat -> Infeasible_state
        | Solver.Unknown ->
          Fault.record t.faults ~detail:"verification query out of budget"
            ~vtime:(Vclock.now t.clock) Fault.Solver_unknown;
          Undecided
      end
  end

(* Verdicts are tallied only for states that actually needed the query;
   the early return for already-verified states stays free. *)
let verify t st =
  if not st.State.needs_verify then Verified
  else begin
    let verdict = verify_pending t st in
    (match verdict with
     | Verified -> t.st.verify_verified <- t.st.verify_verified + 1
     | Infeasible_state -> t.st.verify_infeasible <- t.st.verify_infeasible + 1
     | Undecided -> t.st.verify_undecided <- t.st.verify_undecided + 1);
    verdict
  end

let enter_block t st fidx bidx =
  let gid = Cfg.id t.cfg fidx bidx in
  st.State.cur_gid <- gid;
  if Coverage.cover t.coverage gid then st.State.fresh_cover <- true;
  match t.trace with Some hook -> hook gid | None -> ()

let goto t st bidx =
  st.State.bidx <- bidx;
  st.State.iidx <- 0;
  enter_block t st st.State.fidx bidx

let location t st = Cfg.label t.cfg (Cfg.id t.cfg st.State.fidx st.State.bidx)

let report_bug t st ~kind ~detail ~model =
  let gid = Cfg.id t.cfg st.State.fidx st.State.bidx in
  let key = (gid, kind) in
  if Hashtbl.mem t.bug_keys key then ()
  else begin
    Hashtbl.replace t.bug_keys key ();
    let witness = Model.to_bytes ~size:(Bytes.length t.input) model in
    let confirmed =
      t.confirm_bugs
      &&
      match (Concrete.run t.prog ~input:witness ~fuel:2_000_000).outcome with
      | Concrete.Fault { kind = k; _ } -> k = kind
      | Concrete.Exit _ | Concrete.Halted _ | Concrete.Out_of_fuel -> false
    in
    let bug =
      {
        Bug.kind;
        gid;
        location = location t st;
        detail;
        witness;
        vtime = Vclock.now t.clock;
        state_id = st.State.id;
        confirmed;
      }
    in
    t.bugs <- bug :: t.bugs
  end

(* Terminal fault: report (deduplicated) and stop the state, surfacing the
   matching report as the finish reason. *)
let finish_buggy t st ~kind ~detail =
  report_bug t st ~kind ~detail ~model:st.State.model;
  let gid = Cfg.id t.cfg st.State.fidx st.State.bidx in
  let bug =
    match List.find_opt (fun b -> b.Bug.gid = gid && b.Bug.kind = kind) t.bugs with
    | Some b -> b
    | None ->
      {
        Bug.kind;
        gid;
        location = location t st;
        detail;
        witness = Model.to_bytes ~size:(Bytes.length t.input) st.State.model;
        vtime = Vclock.now t.clock;
        state_id = st.State.id;
        confirmed = false;
      }
  in
  raise (Finish (Buggy bug))

let fault_finish t st fault =
  finish_buggy t st ~kind:(Concrete.fault_class fault) ~detail:(Mem.fault_to_string fault)

(* Re-establish the state's witness model after a new constraint whose
   current model violates it. *)
let constrain t st extra =
  if Model.satisfies st.State.model extra then begin
    List.iter (State.assume st) extra;
    true
  end
  else
    match feasible t st extra with
    | Solver.Sat model ->
      List.iter (State.assume st) extra;
      st.State.model <- model;
      true
    | Solver.Unsat | Solver.Unknown -> false

(* Concretize a symbolic value under the state's model, pinning it with an
   equality constraint so the path stays replayable. *)
let concretize t st e =
  match Expr.is_const e with
  | Some c -> Some c
  | None ->
    let c = Model.eval st.State.model e in
    t.st.concretized_addrs <- t.st.concretized_addrs + 1;
    if constrain t st [ Expr.bin Eq e (Expr.const c) ] then Some c else None

(* --- memory access with the out-of-bounds oracle --------------------------- *)

let check_symbolic_addr_bug t st addr_expr ~len ~write =
  (* is there any model that pushes this access out of bounds? *)
  let ptr_now = Model.eval st.State.model addr_expr in
  let obj = Mem.Ptr.obj ptr_now in
  match Mem.size_of st.State.mem ptr_now with
  | None -> () (* the concrete access path will fault and report *)
  | Some size ->
    let base = Mem.Ptr.make obj 0 in
    let limit = Int64.add base (Int64.of_int (size - len)) in
    let oob =
      Expr.bin Or
        (Expr.bin Ult addr_expr (Expr.const base))
        (Expr.bin Ult (Expr.const limit) addr_expr)
    in
    (match feasible t st [ oob ] with
     | Solver.Sat model ->
       let kind = if write then "oob-write" else "oob-read" in
       report_bug t st ~kind
         ~detail:
           (Printf.sprintf "symbolic %s can exceed object %d (size %d)"
              (if write then "write" else "read")
              obj size)
         ~model
     | Solver.Unsat | Solver.Unknown -> ())

let resolve_addr t st addr_expr ~len ~write =
  match Expr.is_const addr_expr with
  | Some c -> Some c
  | None ->
    (* concolic mode records fork points only; the out-of-bounds oracle
       queries run during the symbolic-execution step (Algorithm 3) *)
    if not t.lazy_fork then check_symbolic_addr_bug t st addr_expr ~len ~write;
    (match concretize t st addr_expr with
     | Some c -> Some c
     | None -> None)

(* --- instruction execution -------------------------------------------------- *)

let operand st = function
  | Const c -> Expr.const c
  | Reg r -> (State.current_regs st).(r)

let note_cow t copied =
  if copied then begin
    t.st.cow_copies <- t.st.cow_copies + 1;
    Telemetry.incr t.tm_cow_copies
  end

let set_reg t st r v = note_cow t (State.write_reg st r v)

let spend t st =
  t.st.instructions <- t.st.instructions + 1;
  st.State.steps <- st.State.steps + 1;
  Vclock.tick t.clock

let exec_div_guard t st divisor =
  match Expr.is_const divisor with
  | Some 0L -> finish_buggy t st ~kind:"div-by-zero" ~detail:"concrete division by zero"
  | Some _ -> ()
  | None ->
    if t.lazy_fork then begin
      (* concolic: fault if the seed divides by zero, otherwise just pin
         the non-zero fact (the model satisfies it, so this is free) *)
      if Model.eval st.State.model divisor = 0L then
        finish_buggy t st ~kind:"div-by-zero" ~detail:"concrete division by zero"
      else if not (constrain t st [ Expr.bin Ne divisor Expr.zero ]) then
        raise (Finish Infeasible)
    end
    else begin
      (match feasible t st [ Expr.bin Eq divisor Expr.zero ] with
       | Solver.Sat model ->
         report_bug t st ~kind:"div-by-zero" ~detail:"divisor can be zero" ~model
       | Solver.Unsat | Solver.Unknown -> ());
      if not (constrain t st [ Expr.bin Ne divisor Expr.zero ]) then
        raise (Finish Infeasible)
    end

let exec_intrinsic t st dst name args =
  let ret v = match dst with Some d -> set_reg t st d v | None -> () in
  match (name, args) with
  | "in_size", [] -> ret (Expr.of_int (Bytes.length t.input))
  | "in_byte", [ a ] -> (
    let idx_e = operand st a in
    match concretize t st idx_e with
    | None -> raise (Finish Infeasible)
    | Some i64 ->
      let size = Bytes.length t.input in
      if Int64.unsigned_compare i64 (Int64.of_int size) < 0 then
        ret (Expr.read (Int64.to_int i64))
      else ret Expr.zero)
  | "out", [ _ ] -> ret Expr.zero
  | ("in_size" | "in_byte" | "out"), _ ->
    raise (Finish (Aborted ("intrinsic arity error: " ^ name)))
  | _ -> assert false

let exec_call t st dst name args =
  if is_intrinsic name then begin
    exec_intrinsic t st dst name args;
    st.State.iidx <- st.State.iidx + 1
  end
  else begin
    if List.length st.State.frames >= max_call_depth then
      raise (Finish (Aborted "call stack overflow"));
    let callee =
      match Hashtbl.find_opt t.findex name with
      | Some i -> i
      | None -> raise (Finish (Aborted ("unknown function " ^ name)))
    in
    let f = t.prog.funcs.(callee) in
    let regs = Array.make f.nregs Expr.zero in
    List.iteri (fun i a -> if i < f.nparams then regs.(i) <- operand st a) args;
    let caller = (st.State.fidx, st.State.bidx, st.State.iidx + 1) in
    st.State.frames <-
      { State.regs; shared = false; ret_reg = dst; ret_to = Some caller }
      :: st.State.frames;
    st.State.fidx <- callee;
    st.State.bidx <- 0;
    st.State.iidx <- 0;
    enter_block t st callee 0
  end

let exec_inst t st inst =
  match inst with
  | Bin (dst, op, a, b) ->
    let va = operand st a and vb = operand st b in
    (match op with
     | Udiv | Sdiv | Urem | Srem -> exec_div_guard t st vb
     | Add | Sub | Mul | And | Or | Xor | Shl | Lshr | Ashr | Eq | Ne | Ult | Ule | Slt
     | Sle -> ());
    set_reg t st dst (Expr.bin op va vb);
    st.State.iidx <- st.State.iidx + 1
  | Un (dst, op, a) ->
    set_reg t st dst (Expr.un op (operand st a));
    st.State.iidx <- st.State.iidx + 1
  | Load (dst, addr, w) -> (
    let addr_e = operand st addr in
    match resolve_addr t st addr_e ~len:(bytes_of_width w) ~write:false with
    | None -> raise (Finish Infeasible)
    | Some c -> (
      match Mem.load st.State.mem c w with
      | Ok v ->
        set_reg t st dst v;
        st.State.iidx <- st.State.iidx + 1
      | Error f -> fault_finish t st f))
  | Store (addr, v, w) -> (
    let addr_e = operand st addr in
    match resolve_addr t st addr_e ~len:(bytes_of_width w) ~write:true with
    | None -> raise (Finish Infeasible)
    | Some c -> (
      match Mem.store st.State.mem c w (operand st v) with
      | Ok mem ->
        st.State.mem <- mem;
        st.State.iidx <- st.State.iidx + 1
      | Error f -> fault_finish t st f))
  | Alloc (dst, size) -> (
    let size_e = operand st size in
    match concretize t st size_e with
    | None -> raise (Finish Infeasible)
    | Some c ->
      let mem, ptr = Mem.alloc st.State.mem ~size:(Int64.to_int c) in
      st.State.mem <- mem;
      set_reg t st dst (Expr.const ptr);
      st.State.iidx <- st.State.iidx + 1)
  | Free p -> (
    let p_e = operand st p in
    match concretize t st p_e with
    | None -> raise (Finish Infeasible)
    | Some c -> (
      match Mem.free st.State.mem c with
      | Ok mem ->
        st.State.mem <- mem;
        st.State.iidx <- st.State.iidx + 1
      | Error f -> fault_finish t st f))
  | Call (dst, name, args) -> exec_call t st dst name args
  | Select (dst, c, a, b) ->
    let cond = operand st c in
    let v =
      match Expr.is_const cond with
      | Some cv -> if Semantics.truthy cv then operand st a else operand st b
      | None -> Expr.ite (Expr.bin Ne cond Expr.zero) (operand st a) (operand st b)
    in
    set_reg t st dst v;
    st.State.iidx <- st.State.iidx + 1

(* --- terminators and forking ------------------------------------------------ *)

let do_ret t st v =
  let value = match v with Some o -> operand st o | None -> Expr.zero in
  match st.State.frames with
  | [] -> raise (Finish (Aborted "return with no frame"))
  | [ _ ] ->
    let code =
      match Expr.is_const value with Some c -> c | None -> Model.eval st.State.model value
    in
    raise (Finish (Exited code))
  | _ :: (up :: _ as rest) ->
    (match st.State.frames with
     | { State.ret_reg; ret_to = Some (f, b, i); _ } :: _ ->
       st.State.frames <- rest;
       (match ret_reg with
        | Some d ->
          note_cow t (State.own_frame up);
          up.State.regs.(d) <- value
        | None -> ());
       st.State.fidx <- f;
       st.State.bidx <- b;
       st.State.iidx <- i
     | _ -> raise (Finish (Aborted "malformed return frame")))

(* Memory pressure: a fork is suppressed when live states reach
   [max_live], or when the injector simulates that pressure (symbolic
   stepping only — the concolic pass records every fork point).
   Suppressions are logged as faults rather than silently dropped. *)
let fork_suppressed t ~pending =
  let injected =
    match t.inj with
    | Some inj when not t.lazy_fork -> Inject.fire_mem_pressure inj
    | Some _ | None -> false
  in
  if injected || t.live () + pending >= t.max_live then begin
    Fault.record t.faults
      ~detail:(if injected then "injected memory pressure" else "live-state cap")
      ~vtime:(Vclock.now t.clock) Fault.Mem_pressure;
    t.st.dropped_forks <- t.st.dropped_forks + 1;
    true
  end
  else false

(* An injected concolic drop simulates a lost seedState: the divergent
   side of a lazy fork is discarded instead of recorded, exercising the
   pipeline's tolerance to an incomplete concolic pass. *)
let inject_concolic_drop t =
  match t.inj with
  | Some inj when t.lazy_fork && Inject.fire_concolic_drop inj ->
    Vclock.tick t.clock;
    Fault.record t.faults ~detail:"injected concolic drop" ~vtime:(Vclock.now t.clock)
      Fault.Concolic_injected;
    t.st.dropped_forks <- t.st.dropped_forks + 1;
    true
  | Some _ | None -> false

let fork_state t st ~constraint_ ~model ~target =
  let child =
    State.fork st ~id:(fresh_state_id t) ~born:(Vclock.now t.clock)
      ~fork_gid:(Cfg.id t.cfg st.State.fidx st.State.bidx)
  in
  (* CoW fork cost: frame records allocated (no register arrays copied) *)
  Telemetry.observe t.tm_fork_cost (List.length child.State.frames);
  State.assume child constraint_;
  child.State.model <- model;
  child.State.bidx <- target;
  child.State.iidx <- 0;
  (* coverage and trace are recorded when the child actually runs *)
  child.State.entered <- false;
  t.st.forks <- t.st.forks + 1;
  Telemetry.incr t.tm_forks;
  child

let exec_br t st cond then_b else_b =
  let cond_e = operand st cond in
  match Expr.is_const cond_e with
  | Some c ->
    goto t st (if Semantics.truthy c then then_b else else_b);
    Running
  | None ->
    let taken_true = Semantics.truthy (Model.eval st.State.model cond_e) in
    let taken_c = if taken_true then Expr.bin Ne cond_e Expr.zero else Expr.lognot cond_e in
    let other_c = Expr.lognot taken_c in
    let taken_b = if taken_true then then_b else else_b in
    let other_b = if taken_true then else_b else then_b in
    let children =
      if t.lazy_fork then begin
        if inject_concolic_drop t then []
        else begin
          (* concolic mode: record the divergent side as a seedState without
             paying for a feasibility query (paper Algorithm 2, lines 19-21) *)
          let child =
            fork_state t st ~constraint_:other_c ~model:st.State.model ~target:other_b
          in
          child.State.needs_verify <- true;
          [ child ]
        end
      end
      else if fork_suppressed t ~pending:0 then []
      else
        match feasible ~prune:true t st [ other_c ] with
        | Solver.Sat model -> [ fork_state t st ~constraint_:other_c ~model ~target:other_b ]
        | Solver.Unsat | Solver.Unknown -> []
    in
    State.assume st taken_c;
    goto t st taken_b;
    (match children with [] -> Running | _ -> Forked children)

let exec_switch t st scrut cases default =
  let scrut_e = operand st scrut in
  match Expr.is_const scrut_e with
  | Some v ->
    let rec pick = function
      | [] -> default
      | (case_v, target) :: rest -> if v = case_v then target else pick rest
    in
    goto t st (pick cases);
    Running
  | None ->
    let v = Model.eval st.State.model scrut_e in
    let taken_target, taken_cs =
      match List.find_opt (fun (case_v, _) -> case_v = v) cases with
      | Some (case_v, target) -> (target, [ Expr.bin Eq scrut_e (Expr.const case_v) ])
      | None ->
        ( default,
          List.map (fun (case_v, _) -> Expr.bin Ne scrut_e (Expr.const case_v)) cases )
    in
    (* fork the other feasible arms *)
    let children = ref [] in
    let try_arm constraint_ target =
      if t.lazy_fork then begin
        if not (inject_concolic_drop t) then begin
          let child = fork_state t st ~constraint_ ~model:st.State.model ~target in
          child.State.needs_verify <- true;
          children := child :: !children
        end
      end
      else if not (fork_suppressed t ~pending:(List.length !children)) then
        match feasible ~prune:true t st [ constraint_ ] with
        | Solver.Sat model ->
          children := fork_state t st ~constraint_ ~model ~target :: !children
        | Solver.Unsat | Solver.Unknown -> ()
    in
    List.iter
      (fun (case_v, target) ->
        if case_v <> v then try_arm (Expr.bin Eq scrut_e (Expr.const case_v)) target)
      cases;
    (match List.find_opt (fun (case_v, _) -> case_v = v) cases with
     | Some _ ->
       (* the default arm is "none of the cases" *)
       let default_cs =
         List.map (fun (case_v, _) -> Expr.bin Ne scrut_e (Expr.const case_v)) cases
       in
       let conj =
         List.fold_left (fun acc c -> Expr.bin And acc c) Expr.one default_cs
       in
       if t.lazy_fork then begin
         if not (inject_concolic_drop t) then begin
           let child =
             fork_state t st ~constraint_:conj ~model:st.State.model ~target:default
           in
           child.State.needs_verify <- true;
           children := child :: !children
         end
       end
       else if not (fork_suppressed t ~pending:(List.length !children)) then begin
         match feasible ~prune:true t st default_cs with
         | Solver.Sat model ->
           let child = fork_state t st ~constraint_:conj ~model ~target:default in
           (* keep the precise per-case constraints too *)
           List.iter (State.assume child) default_cs;
           children := child :: !children
         | Solver.Unsat | Solver.Unknown -> ()
       end
     | None -> ());
    List.iter (State.assume st) taken_cs;
    goto t st taken_target;
    (match !children with [] -> Running | cs -> Forked cs)

let exec_term t st term =
  match term with
  | Jmp b ->
    goto t st b;
    Running
  | Br (c, then_b, else_b) -> exec_br t st c then_b else_b
  | Switch (scrut, cases, default) -> exec_switch t st scrut cases default
  | Ret v ->
    do_ret t st v;
    Running
  | Halt message -> raise (Finish (Aborted message))

(* --- loop summaries ---------------------------------------------------------- *)

(* Apply a matched loop summary at its header (instruction 0): replace
   running the loop to completion with its closed form over the entry
   register values. [niter] is [bound - i] when the entry test holds and
   [0] otherwise, each self-add register advances by [step * niter], and
   the loop's exit condition register is identically zero afterwards —
   all exact modulo 2^64 for {e every} input on this path (the [Ite]
   covers the zero-iteration inputs), so no path constraint is added and
   no fork is needed. The model invariant is untouched. Applied only
   when the entry test holds under the state's model: on the other side
   the header runs normally for one test (zero iterations concretely),
   and a forked taken-side child re-enters the header with a model that
   does satisfy the test, getting summarized then — so body coverage and
   bug accounting match plain unrolling. *)
let apply_summary t st (s : Loop_summary.summary) =
  let regs = State.current_regs st in
  let e_i = regs.(s.Loop_summary.counter) in
  let e_b =
    match s.Loop_summary.bound with
    | Const c -> Expr.const c
    | Reg r -> regs.(r)
  in
  let cmp_e = Expr.bin s.Loop_summary.cmp e_i e_b in
  let truthy =
    match Expr.is_const cmp_e with
    | Some c -> Semantics.truthy c
    | None -> Semantics.truthy (Model.eval st.State.model cmp_e)
  in
  if not truthy then false (* zero iterations on this model: run the header *)
  else if
    s.Loop_summary.cmp = Slt
    && not (e_i.Expr.bits >= 0L && e_b.Expr.bits >= 0L)
  then begin
    (* conservative guard: only summarize signed loops whose operands are
       provably non-negative (top bit clear makes [bits] an unsigned
       upper bound), where Slt coincides with Ult *)
    t.st.summary_fallbacks <- t.st.summary_fallbacks + 1;
    false
  end
  else begin
    let niter = Expr.ite cmp_e (Expr.bin Sub e_b e_i) Expr.zero in
    set_reg t st s.Loop_summary.counter (Expr.ite cmp_e e_b e_i);
    (* a pair temporary ends holding the final pre-copy value, which
       equals the destination's final value whenever at least one
       iteration ran; on zero iterations it keeps its entry value *)
    (match s.Loop_summary.counter_tmp with
    | Some tm ->
      let regs = State.current_regs st in
      set_reg t st tm (Expr.ite cmp_e e_b regs.(tm))
    | None -> ());
    List.iter
      (fun { Loop_summary.dst; step; tmp } ->
        let regs = State.current_regs st in
        let final =
          Expr.bin Add regs.(dst) (Expr.bin Mul (Expr.const step) niter)
        in
        set_reg t st dst final;
        match tmp with
        | Some tm ->
          let regs = State.current_regs st in
          set_reg t st tm (Expr.ite cmp_e final regs.(tm))
        | None -> ())
      s.Loop_summary.updates;
    (* after the loop the header test is false on every input: if it held
       on entry the counter now equals the bound; if it did not, it is
       false by assumption — so the condition register is exactly zero *)
    set_reg t st s.Loop_summary.cond_reg Expr.zero;
    (* the body ran at least once under the model: cover and trace it *)
    let body_gid = Cfg.id t.cfg st.State.fidx s.Loop_summary.body in
    if Coverage.cover t.coverage body_gid then st.State.fresh_cover <- true;
    (match t.trace with Some hook -> hook body_gid | None -> ());
    (* charge roughly one header+body traversal instead of [niter] *)
    Vclock.advance t.clock 4;
    t.st.loop_summaries <- t.st.loop_summaries + 1;
    goto t st s.Loop_summary.exit_;
    true
  end

(* Summaries fire at header entry during symbolic stepping only; the
   concolic (lazy-fork) pass must replay the concrete trace faithfully
   to collect BBVs and fork points. *)
let try_loop_summary t st =
  (not t.lazy_fork)
  && Hashtbl.length t.summaries > 0
  && st.State.iidx = 0
  &&
  match Hashtbl.find_opt t.summaries (st.State.fidx, st.State.bidx) with
  | Some s -> apply_summary t st s
  | None -> false

(* --- slices ------------------------------------------------------------------ *)

(* An injected abort terminates the slice before any instruction runs.
   It still costs a clock tick, so schedulers retrying around it always
   make virtual-time progress. Concolic (lazy-fork) slices are exempt:
   that pass is a single concrete replay whose failure mode is already
   handled by the deadline. *)
let inject_exec_abort t =
  match t.inj with
  | Some inj when (not t.lazy_fork) && Inject.fire_exec_abort inj ->
    Vclock.tick t.clock;
    Fault.record t.faults ~detail:"injected abort" ~vtime:(Vclock.now t.clock)
      Fault.Exec_injected_abort;
    true
  | Some _ | None -> false

let run_slice_inner t st =
  t.st.slices <- t.st.slices + 1;
  st.State.fresh_cover <- false;
  if inject_exec_abort t then begin
    t.st.term_abort <- t.st.term_abort + 1;
    Finished (Aborted "injected-abort")
  end
  else begin
  if not st.State.entered then begin
    st.State.entered <- true;
    enter_block t st st.State.fidx st.State.bidx
  end;
  try
    let result = ref Running in
    let continue = ref true in
    while !continue do
      let f = t.prog.funcs.(st.State.fidx) in
      let block = f.blocks.(st.State.bidx) in
      if try_loop_summary t st then () (* leapt to the loop exit *)
      else if st.State.iidx < Array.length block.insts then begin
        spend t st;
        exec_inst t st block.insts.(st.State.iidx)
      end
      else begin
        spend t st;
        (match exec_term t st block.term with
         | Running ->
           (match block.term with
            | Ret _ -> () (* returning continues the caller's block *)
            | Jmp _ | Br _ | Switch _ | Halt _ -> continue := false)
         | other ->
           result := other;
           continue := false)
      end
    done;
    !result
  with Finish reason ->
    (match reason with
     | Exited _ -> t.st.term_exit <- t.st.term_exit + 1
     | Buggy _ -> t.st.term_bug <- t.st.term_bug + 1
     | Aborted msg ->
       t.st.term_abort <- t.st.term_abort + 1;
       Fault.record t.faults ~detail:msg ~vtime:(Vclock.now t.clock) Fault.Exec_abort
     | Infeasible -> t.st.term_infeasible <- t.st.term_infeasible + 1);
    (* a terminated path yields a test case: its witness input replays
       the whole path concretely (KLEE's .ktest files) *)
    (match reason with
     | (Exited _ | Buggy _ | Aborted _)
       when t.record_testcases && List.length t.testcases < max_testcases ->
       let label =
         match reason with
         | Exited code -> Printf.sprintf "exit-%Ld" code
         | Buggy bug -> "bug-" ^ bug.Bug.kind
         | Aborted _ -> "abort"
         | Infeasible -> assert false
       in
       t.testcases <-
         (Model.to_bytes ~size:(Bytes.length t.input) st.State.model, label)
         :: t.testcases
     | Exited _ | Buggy _ | Aborted _ | Infeasible -> ());
    Finished reason
  end

let run_slice t st =
  if not (Telemetry.Registry.enabled t.registry) then run_slice_inner t st
  else begin
    let before = st.State.steps in
    let result = run_slice_inner t st in
    Telemetry.observe t.tm_slice_steps (st.State.steps - before);
    result
  end

let explore t searcher ~deadline =
  set_live_counter t searcher.Searcher.size;
  let rec loop () =
    if Vclock.now t.clock >= deadline then ()
    else
      match searcher.Searcher.select () with
      | None -> ()
      | Some st -> (
        match run_slice t st with
        | Running -> loop ()
        | Forked children ->
          List.iter (fun child -> searcher.Searcher.fork ~parent:st child) children;
          loop ()
        | Finished _ ->
          searcher.Searcher.remove st;
          loop ())
  in
  loop ()
