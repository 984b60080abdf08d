module Telemetry = Pbse_telemetry.Telemetry

type turn = {
  queue : Phase_queue.t;
  budget : int;
}

type stats = {
  mutable turns : int;
  mutable rotations : int;
  mutable evictions : int;
  mutable failovers : int;
}

type t = {
  name : string;
  select : unit -> turn option;
  credit : Phase_queue.t -> unit;
  evict : Phase_queue.t -> failed:bool -> unit;
  drained : unit -> bool;
  remaining : unit -> Phase_queue.t list;
  stats : stats;
}

let stats_create () = { turns = 0; rotations = 0; evictions = 0; failovers = 0 }

(* Policy telemetry lives in the registry the factory was given, so
   concurrent sessions (one per domain) never share instrument state. *)
type instruments = {
  i_turns : Telemetry.counter;
  i_rotations : Telemetry.counter;
  i_evictions : Telemetry.counter;
  i_failovers : Telemetry.counter;
}

let instruments ?registry () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    i_turns = Telemetry.Registry.counter registry "sched.turns";
    i_rotations = Telemetry.Registry.counter registry "sched.rotations";
    i_evictions = Telemetry.Registry.counter registry "sched.evictions";
    i_failovers = Telemetry.Registry.counter registry "sched.failovers";
  }

let note_turn ins st =
  st.turns <- st.turns + 1;
  Telemetry.incr ins.i_turns

let note_rotation ins st =
  st.rotations <- st.rotations + 1;
  Telemetry.incr ins.i_rotations

let note_eviction ins st ~failed =
  st.evictions <- st.evictions + 1;
  Telemetry.incr ins.i_evictions;
  if failed then begin
    st.failovers <- st.failovers + 1;
    Telemetry.incr ins.i_failovers
  end

(* Remove one queue (matched by ordinal) from the array, preserving order. *)
let array_remove queues (q : Phase_queue.t) =
  let n = Array.length !queues in
  match
    Array.to_list !queues
    |> List.mapi (fun i x -> (i, x))
    |> List.find_opt (fun (_, (x : Phase_queue.t)) -> x.Phase_queue.ordinal = q.Phase_queue.ordinal)
  with
  | None -> ()
  | Some (idx, _) ->
    queues :=
      Array.init (n - 1) (fun i -> if i < idx then !queues.(i) else !queues.(i + 1))

(* The paper's policy (Algorithm 3): cycle the queues in first-appearance
   order; every full rotation grows the per-turn budget by one
   [time_period]. On eviction the next queue shifts into the vacated
   slot, so the cursor stays put. *)
let round_robin ?registry ~time_period queue_list =
  let ins = instruments ?registry () in
  let queues = ref (Array.of_list queue_list) in
  let pos = ref 0 in
  let rotation = ref 1 in
  let stats = stats_create () in
  let wrap () =
    if !pos >= Array.length !queues then begin
      pos := 0;
      incr rotation;
      note_rotation ins stats
    end
  in
  {
    name = "round-robin";
    select =
      (fun () ->
        if Array.length !queues = 0 then None
        else begin
          note_turn ins stats;
          Some { queue = !queues.(!pos); budget = !rotation * time_period }
        end);
    credit =
      (fun _q ->
        incr pos;
        wrap ());
    evict =
      (fun q ~failed ->
        note_eviction ins stats ~failed;
        array_remove queues q;
        wrap ());
    drained = (fun () -> Array.length !queues = 0);
    remaining = (fun () -> Array.to_list !queues);
    stats;
  }

(* Ablation policy: drain the head queue to exhaustion before moving on;
   the budget grows only as whole phases retire. *)
let sequential ?registry ~time_period queue_list =
  let ins = instruments ?registry () in
  let queues = ref (Array.of_list queue_list) in
  let rotation = ref 0 in
  let stats = stats_create () in
  {
    name = "sequential";
    select =
      (fun () ->
        if Array.length !queues = 0 then None
        else begin
          note_turn ins stats;
          Some { queue = !queues.(0); budget = (!rotation + 1) * time_period }
        end);
    credit = (fun _q -> ());
    evict =
      (fun q ~failed ->
        note_eviction ins stats ~failed;
        array_remove queues q;
        incr rotation;
        note_rotation ins stats);
    drained = (fun () -> Array.length !queues = 0);
    remaining = (fun () -> Array.to_list !queues);
    stats;
  }

let names = [ "round-robin"; "sequential" ]

let by_name = function
  | "round-robin" -> Some round_robin
  | "sequential" -> Some sequential
  | _ -> None
