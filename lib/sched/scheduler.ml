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

let note_turn st = st.turns <- st.turns + 1
let note_rotation st = st.rotations <- st.rotations + 1

let note_eviction st ~failed =
  st.evictions <- st.evictions + 1;
  if failed then st.failovers <- st.failovers + 1

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
let round_robin ~time_period queue_list =
  let queues = ref (Array.of_list queue_list) in
  let pos = ref 0 in
  let rotation = ref 1 in
  let stats = stats_create () in
  let wrap () =
    if !pos >= Array.length !queues then begin
      pos := 0;
      incr rotation;
      note_rotation stats
    end
  in
  {
    name = "round-robin";
    select =
      (fun () ->
        if Array.length !queues = 0 then None
        else begin
          note_turn stats;
          Some { queue = !queues.(!pos); budget = !rotation * time_period }
        end);
    credit =
      (fun _q ->
        incr pos;
        wrap ());
    evict =
      (fun q ~failed ->
        note_eviction stats ~failed;
        array_remove queues q;
        wrap ());
    drained = (fun () -> Array.length !queues = 0);
    remaining = (fun () -> Array.to_list !queues);
    stats;
  }

(* Ablation policy: drain the head queue to exhaustion before moving on;
   the budget grows only as whole phases retire. *)
let sequential ~time_period queue_list =
  let queues = ref (Array.of_list queue_list) in
  let rotation = ref 0 in
  let stats = stats_create () in
  {
    name = "sequential";
    select =
      (fun () ->
        if Array.length !queues = 0 then None
        else begin
          note_turn stats;
          Some { queue = !queues.(0); budget = (!rotation + 1) * time_period }
        end);
    credit = (fun _q -> ());
    evict =
      (fun q ~failed ->
        note_eviction stats ~failed;
        array_remove queues q;
        incr rotation;
        note_rotation stats);
    drained = (fun () -> Array.length !queues = 0);
    remaining = (fun () -> Array.to_list !queues);
    stats;
  }

let names = [ "round-robin"; "sequential" ]

let by_name = function
  | "round-robin" -> Some round_robin
  | "sequential" -> Some sequential
  | _ -> None
