type turn = {
  slot : Seed_slot.t;
  budget : int;
}

type stats = {
  mutable turns : int;
  mutable rotations : int;
  mutable retirements : int;
}

type t = {
  name : string;
  plan : remaining:int -> turn list;
  credit : Seed_slot.t -> unit;
  retire : Seed_slot.t -> unit;
  stats : stats;
  state : unit -> (string * int) list;
  restore_state : (string * int) list -> unit;
}

let stats_create () = { turns = 0; rotations = 0; retirements = 0 }

(* stateless policies: nothing beyond the live-slot set and [stats] *)
let no_state = ((fun () -> []), fun _ -> ())

let note_turn st = st.turns <- st.turns + 1
let note_rotation st = st.rotations <- st.rotations + 1
let note_retirement st = st.retirements <- st.retirements + 1

(* Remove one slot (matched by ordinal) from the array, preserving order. *)
let array_remove slots (s : Seed_slot.t) =
  let n = Array.length !slots in
  match
    Array.to_list !slots
    |> List.mapi (fun i x -> (i, x))
    |> List.find_opt (fun (_, (x : Seed_slot.t)) -> x.Seed_slot.ordinal = s.Seed_slot.ordinal)
  with
  | None -> ()
  | Some (idx, _) ->
    slots := Array.init (n - 1) (fun i -> if i < idx then !slots.(i) else !slots.(i + 1))

(* Algorithm 1's outer loop, as a policy: one round in which every seed
   (slots arrive in smallest-first order) gets one turn sized to an equal
   share of the budget the round started with, after which it leaves the
   rotation whether or not its engine drained. The campaign is that one
   round: a seed that stops early leaves its unused share unspent rather
   than passing it on. *)
let smallest_first ~time_period:_ slot_list =
  let slots = ref (Array.of_list slot_list) in
  let stats = stats_create () in
  {
    name = "smallest-first";
    (* The plan depends only on the live-slot set and [remaining], never
       on the outcomes of turns inside the round, so every [--jobs] width
       plans identically. *)
    plan =
      (fun ~remaining ->
        let n = Array.length !slots in
        if n = 0 then []
        else begin
          let share = remaining / n in
          Array.to_list
            (Array.map
               (fun slot ->
                 note_turn stats;
                 { slot; budget = share })
               !slots)
        end);
    credit =
      (fun s ->
        (* one turn per seed: the share was final *)
        note_retirement stats;
        array_remove slots s);
    retire =
      (fun s ->
        note_retirement stats;
        array_remove slots s);
    stats;
    state = fst no_state;
    restore_state = snd no_state;
  }

(* Fair rotation: every seed gets [time_period]-sized turns in pool
   order, with its own unused budget rolled forward onto its next turn
   (an engine that stops early keeps its claim; one that overshoots
   starts from zero carry). *)
let round_robin ~time_period slot_list =
  let slots = ref (Array.of_list slot_list) in
  let pos = ref 0 in
  let stats = stats_create () in
  let wrap () =
    if !pos >= Array.length !slots then begin
      pos := 0;
      if Array.length !slots > 0 then note_rotation stats
    end
  in
  {
    name = "round-robin";
    (* One round = one full rotation: every live slot once, in pool
       order, with the fair period plus its rolled-forward carry. *)
    plan =
      (fun ~remaining:_ ->
        if Array.length !slots = 0 then []
        else begin
          note_rotation stats;
          Array.to_list
            (Array.map
               (fun s ->
                 note_turn stats;
                 { slot = s; budget = time_period + Seed_slot.carry s })
               !slots)
        end);
    credit =
      (fun _s ->
        incr pos;
        wrap ());
    retire =
      (fun s ->
        note_retirement stats;
        array_remove slots s;
        wrap ());
    stats;
    state = (fun () -> [ ("pos", !pos) ]);
    restore_state =
      (fun kvs ->
        match List.assoc_opt "pos" kvs with Some p -> pos := p | None -> ());
  }

(* Greedy reallocation: each round runs the live seeds best
   new-blocks-per-dwell ratio first, (new_blocks + 1) / (dwell +
   time_period), compared by integer cross-multiplication; ties break
   toward the lower ordinal (the smaller seed). Budgets grow with the
   slot's own turn count so a productive seed earns longer stretches,
   and since a round's budgets are clamped in plan order, a short
   balance goes to the most productive seeds first. *)
let coverage_greedy ~time_period slot_list =
  let slots = ref (Array.of_list slot_list) in
  let stats = stats_create () in
  let better (a : Seed_slot.t) (b : Seed_slot.t) =
    let lhs = (a.Seed_slot.new_blocks + 1) * (b.Seed_slot.dwell + time_period) in
    let rhs = (b.Seed_slot.new_blocks + 1) * (a.Seed_slot.dwell + time_period) in
    if lhs <> rhs then lhs > rhs else a.Seed_slot.ordinal < b.Seed_slot.ordinal
  in
  {
    name = "coverage-greedy";
    (* One round: every live slot, most-productive ratio first, each
       budgeted by its own turn count. The ordering uses only counters
       frozen at the round barrier. *)
    plan =
      (fun ~remaining:_ ->
        let live = Array.copy !slots in
        Array.sort (fun a b -> if better a b then -1 else if better b a then 1 else 0) live;
        Array.to_list
          (Array.map
             (fun s ->
               note_turn stats;
               { slot = s; budget = (s.Seed_slot.turns + 1) * time_period })
             live));
    credit = (fun _s -> ());
    retire =
      (fun s ->
        note_retirement stats;
        array_remove slots s);
    stats;
    state = fst no_state;
    restore_state = snd no_state;
  }

let default = "smallest-first"
let names = [ "smallest-first"; "round-robin"; "coverage-greedy" ]

let by_name = function
  | "smallest-first" -> Some smallest_first
  | "round-robin" -> Some round_robin
  | "coverage-greedy" -> Some coverage_greedy
  | _ -> None
