(* Wall-clock benchmark harness for the pbSE engine.

     pbse_perf.exe --workload W --seed N --seconds S --trace 0|1

   One process runs one workload for S seconds of measured time and
   prints one JSON result line as the last line of stdout (README.md
   gives the schema, the workloads and what each metric means). Inputs
   are derived from N only, every output is checked, and the engine runs
   on one OCaml domain throughout: sessions and campaigns run on the
   calling domain, and the server's domain pool has width 1.

   Workloads, every operation on an input not run before in the process:
   - solo-solver: single-seed sessions plus their run report, on mutants
     of each target's smallest seed;
   - pool-fork: seed-pool campaigns ([Driver.run_pool], jobs 1) plus the
     aggregate report, on mutants of each target's benign pool;
   - serve-mixed: one closed-loop client against an in-process
     [pbse serve] (jobs 1) on a Unix socket; two requests in three start
     a new campaign, the third repeats a recent one and is answered from
     the server's store.

   With --trace 0 the result carries the end-to-end metrics; with
   --trace 1 it carries the per-layer ones (spans the harness takes
   around its calls into each layer, plus the engine's own counters from
   the reports). *)

module Session = Pbse_session.Session
module Runtime = Pbse_session.Runtime
module Registry = Pbse_targets.Registry
module Report = Pbse_telemetry.Report
module Telemetry = Pbse_telemetry.Telemetry
module Driver = Pbse.Driver
module Serve = Pbse.Serve
module Protocol = Pbse_serve.Protocol
module Transport = Pbse_serve.Transport
module Concrete = Pbse_exec.Concrete
module Coverage = Pbse_exec.Coverage
module Executor = Pbse_exec.Executor
module Bug = Pbse_exec.Bug

let now = Unix.gettimeofday

(* --- settings ----------------------------------------------------------- *)

(* The targets every workload cycles through, in a fixed order, so every
   seed sees the same mix of programs. *)
let target_names =
  [ "readelf"; "pngtest"; "gif2tiff"; "tiff2rgba"; "tiff2bw"; "dwarfdump"; "tcpdump" ]

(* Virtual-time budget of every run and campaign: a quarter of a paper
   hour (1h = 120k work units), the budget the repository's own bench
   gives its smoke run, its smoke pool campaign and its serve drill. A
   single run's concolic pass takes about an eighth of it, leaving most
   to the phase-scheduled search; a campaign opens a session per seed
   and spends most of it on their concolic passes. *)
let deadline = 30_000

(* Inputs are drawn round-robin over the targets, so every prefix of a
   window has the same mix of programs, and each input is new: a window
   of a hundred or more operations then averages over as many mutants,
   where a fixed handful replayed made the percentiles hinge on which
   mutants the seed drew. After the window the first [repeated] inputs
   are run again and must render byte-identically; the engine counters
   of --trace 1 are summed over the first [counted] operations, so they
   repeat exactly for a given seed. *)
let repeated = 4
let counted = 14

(* Times the engine's set-up is repeated; setup_s is the median. One
   set-up takes about 10 ms, so a hundred spread it over a second. *)
let setup_reps = 100

(* serve-mixed: every [hit_every]th request repeats one of the [recent]
   latest campaigns, well inside the server's residue cache, and is
   answered from the store; the others start a new campaign on a new
   pool. This is the mix of the bench's serve drill: two campaign
   requests, then one warm repeat. The answers of the first [repeated]
   campaigns are compared byte for byte against local runs. *)
let hit_every = 3
let recent = 16

(* --- command line ------------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: pbse_perf --workload solo-solver|pool-fork|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let get name =
    let rec scan i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
      else scan (i + 1)
    in
    scan 1
  in
  let int_arg name =
    match Option.bind (get name) int_of_string_opt with
    | Some n -> n
    | None -> usage ()
  in
  let workload = match get "--workload" with Some w -> w | None -> usage () in
  let seed = int_arg "--seed" in
  let seconds = int_arg "--seconds" in
  let trace = int_arg "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  { workload; seed; seconds = float seconds; trace = trace = 1 }

(* --- inputs --------------------------------------------------------------- *)

type target = {
  name : string;
  prog : Pbse_ir.Types.program;
  seeds : bytes list; (* the registry's benign pool, smallest first *)
}

(* Compiled from MiniC source on every call (the registry's own program
   cache is bypassed), so set-up measures the frontend each time. *)
let compile_targets () =
  List.map
    (fun name ->
      match Registry.by_name name with
      | None -> failwith ("unknown target " ^ name)
      | Some t ->
        {
          name;
          prog = Pbse_lang.Frontend.compile t.Registry.source;
          seeds =
            List.stable_sort
              (fun a b -> compare (Bytes.length a) (Bytes.length b))
              (List.map snd t.Registry.seeds);
        })
    target_names

(* A benign seed with one to three bytes overwritten. *)
let mutate rng seed =
  let b = Bytes.copy seed in
  for _ = 1 to 1 + Random.State.int rng 3 do
    Bytes.set b
      (Random.State.int rng (Bytes.length b))
      (Char.chr (Random.State.int rng 256))
  done;
  b

let concrete_steps ?fuel prog input =
  match Concrete.run ?fuel prog ~input with
  | { Concrete.outcome = Concrete.Out_of_fuel; _ } -> None
  | r -> Some r.Concrete.steps

(* A mutant of [seed] whose concrete run is within 5% of the seed's
   length. A mutation that lets a length field run a loop for thousands
   of iterations, or that makes the parser bail out at once, moves the
   run's virtual budget between the concolic pass and the symbolic
   search, whose wall cost per unit differs several-fold; keeping the
   concrete path length keeps every seed's mix of the two alike. *)
let variant rng t seed =
  let base = Option.get (concrete_steps t.prog seed) in
  let rec draw tries =
    if tries = 0 then seed
    else
      let m = mutate rng seed in
      match concrete_steps ~fuel:(2 * base) t.prog m with
      | Some n when 20 * n >= 19 * base && 20 * n <= 21 * base -> m
      | _ -> draw (tries - 1)
  in
  draw 64

(* The [k]th input of a run draws from its own generator, so it is the
   same whatever else the run did first. *)
let input_rng args k = Random.State.make [| args.seed; k |]

let input_target targets k = List.nth targets (k mod List.length targets)

(* A campaign's pool: a mutant of each of the target's benign seeds, the
   pool the bench's smoke pool campaign and serve drill run. *)
let variant_pool rng t = List.map (variant rng t) t.seeds

(* --- host speed -------------------------------------------------------------- *)

(* The host this benchmark was tuned on, a 2-vCPU VM shared with other
   tenants, runs the same code up to 1.6x slower for a minute at a time.
   Raw wall times of one run then mostly measure the neighbours. So the
   harness times a fixed piece of pure OCaml work, [probe], after every
   set-up and every operation, and the end-to-end metrics are scaled by
   [reference_probe] over the run's median probe time: they read as on a
   host that runs the probe in [reference_probe] seconds. The probe
   shares no code with the engine: it builds and folds a 20k-entry
   integer map. Like the engine it allocates and chases pointers, and
   that is what the host's slow spells slow down; a probe that did not
   allocate tracked them half as well. It runs under the process's GC
   settings, so a change to those moves the probe too: judge such a
   change on the raw percentiles of --trace 1. *)
module Int_map = Map.Make (Int)

(* The probe's median time on that VM when it was quiet. *)
let reference_probe = 0.006

let probe () =
  let t0 = now () in
  let m = ref Int_map.empty in
  for i = 0 to 19_999 do
    m := Int_map.add (i * 7919 land 0xffff) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.fold (fun k v acc -> k + v + acc) !m 0));
  now () -. t0

(* --- statistics ------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* --- one operation ---------------------------------------------------------- *)

(* Wall time of one operation in seconds, split at the harness's calls
   into the engine: [dispatch] runs before the engine starts (runtime
   set-up; on serve-mixed the client connect, request framing, parsing
   and admission), [engine] inside it (None for a store hit, and on
   serve-mixed outside trace runs), [render] after it (report assembly
   and JSON rendering; on serve-mixed also the response transfer).
   [opened] is the part of [engine] spent opening the session (solo-solver
   only); [hit] marks a serve-mixed request answered from the store. *)
type sample = {
  hit : bool;
  total : float;
  dispatch : float;
  engine : float option;
  opened : float option;
  render : float;
  alloc_words : float; (* minor-heap words allocated (trace runs only) *)
  instructions : int; (* exec.instructions of the op's report *)
  queries : int; (* solver.queries of the op's report *)
}

type tally = {
  mutable samples : sample list;
  mutable probes : float list; (* host probe times, seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable refs : Report.t list; (* reports of the first [counted] operations *)
}

let tally () =
  { samples = []; probes = []; attempted = 0; failed = 0; wrong = 0; refs = [] }



let complain tl fmt =
  Printf.ksprintf
    (fun msg ->
      tl.wrong <- tl.wrong + 1;
      if tl.wrong <= 5 then prerr_endline ("perfbench: wrong output: " ^ msg))
    fmt

let fail tl fmt =
  Printf.ksprintf
    (fun msg ->
      tl.failed <- tl.failed + 1;
      if tl.failed <= 5 then prerr_endline ("perfbench: failed: " ^ msg))
    fmt

let config = Session.default_config

(* The runtime the CLI's report path and the server give each run: a
   private, telemetry-enabled registry. *)
let fresh_runtime () =
  Runtime.create
    ~registry:(Telemetry.Registry.create ~enabled:true ())
    ~rng_seed:config.Session.rng_seed ~inject:config.Session.robust.Session.inject
    ~max_strikes:config.Session.robust.Session.max_strikes
    ~prefix_cap:config.Session.solver.Session.prefix_cap ()

(* What an operation returns: its rendered report, the parsed report,
   the split timings and an oracle verdict computed on demand. *)
type outcome = {
  json : string;
  report : Report.t;
  o_dispatch : float;
  o_engine : float;
  o_opened : float option;
  o_render : float;
  oracle : unit -> string option; (* [Some why] when an answer is wrong *)
}

(* Each confirmed bug's witness must fault the same way when replayed
   through the concrete interpreter. *)
let witness_error prog (bugs : (Bug.t * int) list) =
  List.find_map
    (fun ((b : Bug.t), _) ->
      if not b.Bug.confirmed then None
      else
        match (Concrete.run prog ~input:b.Bug.witness).Concrete.outcome with
        | Concrete.Fault { kind; _ } when kind = b.Bug.kind -> None
        | _ ->
          Some
            (Printf.sprintf "witness of %s at %s does not replay" b.Bug.kind
               b.Bug.location))
    bugs

(* [Session.run], spelled out as its three steps so the harness can time
   the opening (concolic pass, phase division, seeded queues) apart from
   the phase-scheduled search. *)
let solo_op (t, seed) () =
  let t0 = now () in
  let runtime = fresh_runtime () in
  let t1 = now () in
  let session = Session.open_session ~config ~runtime t.prog ~seed ~deadline in
  let t_open = now () in
  Session.step_session session ~deadline;
  let r = Session.finish_session session in
  let t2 = now () in
  let report =
    Session.run_report
      ~meta:[ ("target", t.name); ("deadline", string_of_int deadline) ]
      r
  in
  let json = Report.to_json report in
  let t3 = now () in
  let oracle () =
    if Report.metric report "coverage.blocks" <= 0 then Some (t.name ^ ": no coverage")
    else witness_error t.prog r.Session.bugs
  in
  let o_dispatch, o_engine, o_render = (t1 -. t0, t2 -. t1, t3 -. t2) in
  { json; report; o_dispatch; o_engine; o_opened = Some (t_open -. t1); o_render; oracle }

(* Also the local reference serve-mixed compares the server against: the
   server runs the same recipe (config, runtime, metadata). *)
let pool_op ~name (t, seeds) () =
  let t0 = now () in
  let runtime = fresh_runtime () in
  let t1 = now () in
  let p = Driver.run_pool ~config ~runtime ~jobs:1 t.prog ~seeds ~deadline in
  let t2 = now () in
  let report =
    Driver.pool_run_report
      ~meta:[ ("target", name); ("seed", "pool"); ("deadline", string_of_int deadline) ]
      p
  in
  let json = Report.to_json report in
  let t3 = now () in
  let oracle () =
    let best_run =
      List.fold_left
        (fun acc (_, r) -> max acc (Coverage.count (Executor.coverage r.Driver.executor)))
        0 p.Driver.runs
    in
    if p.Driver.merged_coverage < max 1 best_run then
      Some
        (Printf.sprintf "%s: merged coverage %d below a run's %d" name
           p.Driver.merged_coverage best_run)
    else witness_error t.prog p.Driver.merged_bugs
  in
  let o_dispatch, o_engine, o_render = (t1 -. t0, t2 -. t1, t3 -. t2) in
  { json; report; o_dispatch; o_engine; o_opened = None; o_render; oracle }

(* The engine's set-up, [setup_reps] times: [build] compiles the targets
   (and boots a server on serve-mixed). Input generation is the
   harness's own work and stays outside, and so does [release], which
   disposes of every result but the last. Returns the last result and
   the median time in seconds, scaled to the reference host speed by the
   probes taken after each repetition. *)
let timed_setup ?(release = ignore) build =
  let rec go k times probes =
    let t0 = now () in
    let x = build () in
    let times = (now () -. t0) :: times in
    let probes = probe () :: probes in
    if k = 1 then (x, median times *. reference_probe /. median probes)
    else begin
      release x;
      go (k - 1) times probes
    end
  in
  go setup_reps [] []

(* --- solo-solver, pool-fork ---------------------------------------------------- *)

(* [op k] makes the [k]th input (outside the timing) and returns the
   operation that runs it. One unmeasured operation warms the process
   up; then every operation of the window runs the next input, and its
   answer is checked by the oracle. *)
let measure args tl op =
  ignore ((op (-1)) ());
  let answers = Hashtbl.create repeated in
  let t_end = now () +. args.seconds in
  let k = ref 0 in
  while now () < t_end do
    let run = op !k in
    tl.attempted <- tl.attempted + 1;
    let w0 = if args.trace then Gc.minor_words () else 0. in
    let t0 = now () in
    (match run () with
     | exception e -> fail tl "input %d: %s" !k (Printexc.to_string e)
     | o ->
       let total = now () -. t0 in
       let alloc_words = if args.trace then Gc.minor_words () -. w0 else 0. in
       (match o.oracle () with
        | Some why -> complain tl "input %d: %s" !k why
        | None -> ());
       if !k < repeated then Hashtbl.replace answers !k o.json;
       if !k < counted then tl.refs <- o.report :: tl.refs;
       tl.samples <-
         {
           hit = false;
           total;
           dispatch = o.o_dispatch;
           engine = Some o.o_engine;
           opened = o.o_opened;
           render = o.o_render;
           alloc_words;
           instructions = Report.metric o.report "exec.instructions";
           queries = Report.metric o.report "solver.queries";
         }
         :: tl.samples);
    tl.probes <- probe () :: tl.probes;
    incr k
  done;
  (* the engine is deterministic: a rerun renders the same bytes *)
  Hashtbl.iter
    (fun k json ->
      match (op k) () with
      | exception e -> fail tl "input %d, run again: %s" k (Printexc.to_string e)
      | o ->
        if not (String.equal o.json json) then
          complain tl "input %d: report differs when run again" k)
    answers

let solo_solver args tl =
  let targets, setup_s = timed_setup compile_targets in
  measure args tl (fun k ->
      let t = input_target targets (max k 0) in
      solo_op (t, variant (input_rng args k) t (List.hd t.seeds)));
  setup_s

let pool_fork args tl =
  let targets, setup_s = timed_setup compile_targets in
  measure args tl (fun k ->
      let t = input_target targets (max k 0) in
      let name = Printf.sprintf "%s~%d" t.name k in
      pool_op ~name (t, variant_pool (input_rng args k) t));
  setup_s

(* --- serve-mixed ------------------------------------------------------------- *)

type server = {
  endpoint : Transport.endpoint;
  control : Transport.control;
  thread : Thread.t;
  stats : Serve.stats option ref;
}

let stop_server s =
  Transport.request_stop s.control;
  Thread.join s.thread;
  Transport.control_close s.control

let serve_mixed args tl =
  (* campaign name -> (target, seeds); the server thread reads it
     through [lookup], which also stamps when the server got that far *)
  let campaigns : (string, target * bytes list) Hashtbl.t = Hashtbl.create 64 in
  let table_mutex = Mutex.create () in
  let looked_up = ref 0. in
  let lookup name =
    looked_up := now ();
    Mutex.protect table_mutex (fun () -> Hashtbl.find_opt campaigns name)
    |> Option.map (fun (t, seeds) -> (t.prog, seeds))
  in
  (* each server gets its own socket: stopping one unlinks its path *)
  let booted = ref 0 in
  let boot () =
    incr booted;
    let endpoint =
      Transport.Unix_socket
        (Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) !booted)
    in
    let control = Transport.control_create () in
    let stats = ref None in
    let thread =
      Thread.create
        (fun () ->
          stats := Some (Serve.serve ~endpoints:[ endpoint ] ~jobs:1 ~control ~lookup ()))
        ()
    in
    (* ready once a client can connect *)
    let give_up = now () +. 30. in
    let rec wait_up () =
      match Transport.connect ~timeout:1. endpoint with
      | Ok fd -> Unix.close fd
      | Error e ->
        if now () > give_up then failwith ("server never came up: " ^ e);
        Thread.delay 0.001;
        wait_up ()
    in
    wait_up ();
    { endpoint; control; thread; stats }
  in
  (* set-up: compile the targets and boot a server; every server but the
     last is stopped again outside the timing *)
  let (targets, server), setup_s =
    timed_setup
      ~release:(fun (_, s) -> stop_server s)
      (fun () ->
        let targets = compile_targets () in
        (targets, boot ()))
  in
  let rng = Random.State.make [| args.seed |] in
  (* the [m]th new campaign runs the [m]th pool of the seed *)
  let pool m =
    let t = input_target targets (max m 0) in
    (t, variant_pool (input_rng args m) t)
  in
  let add_campaign name pool =
    Mutex.protect table_mutex (fun () -> Hashtbl.replace campaigns name pool)
  in
  let request i name ~hit =
    let line =
      Protocol.render_request
        {
          Protocol.rq_id = Some (string_of_int i);
          rq_client = Some "perfbench";
          rq_progress = args.trace;
          rq_target = name;
          rq_deadline = deadline;
          rq_pool_scheduler = "";
          rq_scheduler = None;
          rq_jobs = None;
          rq_lease = 1;
          rq_share = false;
        }
    in
    let progressed = ref None in
    looked_up := 0.;
    let w0 = if args.trace then Gc.minor_words () else 0. in
    let t0 = now () in
    let r =
      Serve.request ~timeout:60.
        ~on_progress:(fun _ -> progressed := Some (now ()))
        ~connect:server.endpoint line
    in
    let t3 = now () in
    let alloc_words = if args.trace then Gc.minor_words () -. w0 else 0. in
    match r with
    | Error e -> Error (e.Serve.err_code ^ ": " ^ e.Serve.err_message)
    | Ok body ->
      let t1 = if !looked_up >= t0 then !looked_up else t0 in
      let t2 = Option.value !progressed ~default:t1 in
      Ok
        ( body,
          {
            hit;
            total = t3 -. t0;
            dispatch = t1 -. t0;
            engine = Option.map (fun t2 -> t2 -. t1) !progressed;
            opened = None;
            render = t3 -. t2;
            alloc_words;
            instructions = 0;
            queries = 0;
          } )
  in
  (* warm-up: one new campaign and one repeat, not measured *)
  add_campaign "warm-up" (pool (-1));
  for _ = 1 to 2 do
    match request (-1) "warm-up" ~hit:false with
    | Ok _ -> ()
    | Error e -> failwith ("warm-up request: " ^ e)
  done;
  (* measured window *)
  let recent_names = ref [] (* campaigns answered so far, newest first *) in
  let bodies : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let misses = ref [] in
  let started = ref 0 in
  let t_end = now () +. args.seconds in
  let i = ref 0 in
  while now () < t_end do
    let k = !i in
    incr i;
    tl.attempted <- tl.attempted + 1;
    let hit = k mod hit_every = hit_every - 1 && !recent_names <> [] in
    let m = !started in
    let name =
      if hit then
        List.nth !recent_names
          (Random.State.int rng (min recent (List.length !recent_names)))
      else begin
        incr started;
        let p = pool m in
        let name = Printf.sprintf "%s~%d" (fst p).name m in
        add_campaign name p;
        name
      end
    in
    let r = request k name ~hit in
    tl.probes <- probe () :: tl.probes;
    match r with
    | Error e -> fail tl "request %d (%s): %s" k name e
    | Ok (body, sample) ->
      if hit then begin
        tl.samples <- sample :: tl.samples;
        if not (String.equal (Hashtbl.find bodies name) body) then
          complain tl "request %d: repeat of %s differs from its first answer" k name
      end
      else begin
        Hashtbl.replace bodies name body;
        recent_names := name :: !recent_names;
        misses := (name, m, body, sample) :: !misses
      end
  done;
  stop_server server;
  (match !(server.stats) with
   | Some st when st.Serve.sv_errors > 0 ->
     complain tl "server wrote %d error response(s)" st.Serve.sv_errors
   | _ -> ());
  (* every new campaign's answer is its own report and passes the
     oracle's report checks; the first [repeated] campaigns also equal a
     local run byte for byte *)
  List.iter
    (fun (name, m, body, sample) ->
      match Report.of_json body with
      | Error e -> complain tl "%s: answer does not parse: %s" name e
      | Ok report ->
        if List.assoc_opt "target" report.Report.meta <> Some name then
          complain tl "%s: answer is for another campaign" name;
        if Report.metric report "coverage.blocks" <= 0 then
          complain tl "%s: no coverage" name;
        if m < counted then tl.refs <- report :: tl.refs;
        if m < repeated && not (String.equal (pool_op ~name (pool m) ()).json body) then
          complain tl "%s: server answer differs from a local run" name;
        tl.samples <-
          {
            sample with
            instructions = Report.metric report "exec.instructions";
            queries = Report.metric report "solver.queries";
          }
          :: tl.samples)
    (List.rev !misses);
  setup_s

(* --- result ------------------------------------------------------------------ *)

let ms x = 1000. *. x

(* --trace 0: latency percentiles over every measured operation, store
   hits included, scaled to the reference host speed. --trace 1: the same
   percentiles unscaled with the probe's median time, medians of the
   per-layer spans (0 where a workload has no such layer), and the
   engine's counters summed over the reports of the first [counted]
   operations. *)
let metrics_of args tl setup_s =
  let samples = tl.samples in
  let all field = List.map (fun s -> ms (field s)) samples in
  let totals = all (fun s -> s.total) in
  if not args.trace then
    let scale = reference_probe /. median tl.probes in
    [
      ("latency_p50_ms", scale *. median totals, "ms");
      ("latency_p90_ms", scale *. quantile 0.9 totals, "ms");
      ("setup_s", setup_s, "s");
    ]
  else
    let engine =
      List.filter_map (fun s -> Option.map (fun e -> (e, s)) s.engine) samples
    in
    let engine_wall = List.fold_left (fun acc (e, _) -> acc +. e) 0. engine in
    let per_unit scale f =
      let n = List.fold_left (fun acc (_, s) -> acc + f s) 0 engine in
      if n > 0 then scale *. engine_wall /. float n else 0.
    in
    let hits = List.filter (fun s -> s.hit) samples in
    let opened = List.filter_map (fun s -> Option.map ms s.opened) samples in
    let count name = List.fold_left (fun acc r -> acc + Report.metric r name) 0 tl.refs in
    let pct a b = if b > 0 then 100. *. float a /. float b else 0. in
    [
      ("raw_latency_p50_ms", median totals, "ms");
      ("raw_latency_p90_ms", quantile 0.9 totals, "ms");
      ("host_probe_ms", ms (median tl.probes), "ms");
      ("dispatch_ms", median (all (fun s -> s.dispatch)), "ms");
      ("engine_ms", median (List.map (fun (e, _) -> ms e) engine), "ms");
      ("session_open_ms", median opened, "ms");
      ("render_ms", median (all (fun s -> s.render)), "ms");
      ("store_hit_ms", median (List.map (fun s -> ms s.total) hits), "ms");
      ("alloc_mb", median (List.map (fun s -> s.alloc_words *. 8. /. 1e6) samples), "MB");
      ("ns_per_instruction", per_unit 1e9 (fun s -> s.instructions), "ns");
      ("us_per_query", per_unit 1e6 (fun s -> s.queries), "us");
      ("solver_queries", float (count "solver.queries"), "count");
      ("solver_work", float (count "solver.work"), "count");
      ("prefix_hit_pct", pct (count "solver.prefix_hits") (count "solver.queries"), "%");
      ( "interpolant_hit_pct",
        pct (count "smt.interpolant_hits")
          (count "smt.interpolant_hits" + count "smt.interpolant_misses"),
        "%" );
      ("subsumed_states", float (count "smt.subsumed_states"), "count");
      ("loop_summaries", float (count "pathcond.loop_summaries"), "count");
      ("exec_forks", float (count "exec.forks"), "count");
      ("cow_copies", float (count "exec.cow_copies"), "count");
      ("exec_instructions", float (count "exec.instructions"), "count");
      ("coverage_blocks", float (count "coverage.blocks"), "count");
      ( "concolic_vtime_pct",
        pct (count "run.c_time") (deadline * List.length tl.refs),
        "%" );
      ("pool_turns", float (count "pool.turns"), "count");
    ]

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result tl metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      metrics
  in
  let correct = tl.wrong = 0 && tl.failed = 0 && tl.attempted > 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tl.attempted tl.failed (String.concat ", " fields)

let () =
  let args = parse_args () in
  let workload =
    match args.workload with
    | "solo-solver" -> solo_solver
    | "pool-fork" -> pool_fork
    | "serve-mixed" -> serve_mixed
    | other ->
      prerr_endline ("perfbench: unknown workload " ^ other);
      exit 2
  in
  let tl = tally () in
  let setup_s = workload args tl in
  Printf.eprintf
    "perfbench: %s seed %d: %d operations (%d failed, %d wrong), host probe %.3f ms\n%!"
    args.workload args.seed tl.attempted tl.failed tl.wrong
    (1000. *. median tl.probes);
  print_result tl (metrics_of args tl setup_s)
