module Bbv = Pbse_concolic.Bbv

type mode =
  | Bbv_only
  | Bbv_with_coverage

type phase = {
  pid : int;
  intervals : int array;
  first_vtime : int;
  trap : bool;
  longest_run : int;
}

type division = {
  mode : mode;
  k : int;
  assignment : int array;
  phases : phase list;
  trap_count : int;
}

let trap_run_threshold nbbvs = max 2 (nbbvs * 5 / 100)

let vectors_of mode bbvs =
  let bbvs_arr = Array.of_list bbvs in
  let dim = max 1 (Bbv.dims bbvs) in
  let max_coverage =
    Array.fold_left (fun acc (b : Bbv.t) -> max acc b.Bbv.coverage) 1 bbvs_arr
  in
  let vector (b : Bbv.t) =
    let base = Bbv.normalized b in
    match mode with
    | Bbv_only -> base
    | Bbv_with_coverage ->
      let cov = float_of_int b.Bbv.coverage /. float_of_int max_coverage in
      Array.append base [| (dim, cov) |]
  in
  let dim = match mode with Bbv_only -> dim | Bbv_with_coverage -> dim + 1 in
  (Array.map vector bbvs_arr, dim)

(* Longest run of consecutive interval indices owned by [cluster]. *)
let longest_run_of bbvs_arr assignment cluster =
  let best = ref 0 in
  let run = ref 0 in
  let prev_interval = ref min_int in
  Array.iteri
    (fun i (b : Bbv.t) ->
      if assignment.(i) = cluster then begin
        if b.Bbv.index = !prev_interval + 1 || !run = 0 then run := !run + 1 else run := 1;
        prev_interval := b.Bbv.index;
        if !run > !best then best := !run
      end)
    bbvs_arr;
  !best

let phases_of bbvs_arr assignment k threshold =
  let phases = ref [] in
  for cluster = 0 to k - 1 do
    let members = ref [] in
    let first_vtime = ref max_int in
    Array.iteri
      (fun i (b : Bbv.t) ->
        if assignment.(i) = cluster then begin
          members := b.Bbv.index :: !members;
          if b.Bbv.t_start < !first_vtime then first_vtime := b.Bbv.t_start
        end)
      bbvs_arr;
    match !members with
    | [] -> ()
    | members ->
      let intervals = Array.of_list (List.rev members) in
      let longest = longest_run_of bbvs_arr assignment cluster in
      phases :=
        {
          pid = cluster;
          intervals;
          first_vtime = !first_vtime;
          trap = longest >= threshold;
          longest_run = longest;
        }
        :: !phases
  done;
  List.sort (fun a b -> Int.compare a.first_vtime b.first_vtime) !phases

(* Degenerate fallback: a single catch-all phase. Used when the concolic
   step yielded no BBVs (a short deadline, an early abort) — the run
   degrades to one-phase scheduling instead of raising out of
   [Kmeans.cluster]. *)
let one_phase_division mode =
  {
    mode;
    k = 1;
    assignment = [||];
    phases =
      [ { pid = 0; intervals = [| 0 |]; first_vtime = 0; trap = false; longest_run = 0 } ];
    trap_count = 0;
  }

module Telemetry = Pbse_telemetry.Telemetry

let divide ?registry ?(mode = Bbv_with_coverage) ?(max_k = 20) rng bbvs =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  let tm_bbvs = Telemetry.Registry.histogram registry "phase.bbvs_per_division" in
  Telemetry.observe tm_bbvs (List.length bbvs);
  if bbvs = [] then one_phase_division mode
  else
  let vectors, dim = vectors_of mode bbvs in
  let bbvs_arr = Array.of_list bbvs in
  let n = Array.length vectors in
  let threshold = trap_run_threshold n in
  let try_k k =
    let clustering = Kmeans.cluster rng ~k ~dim vectors in
    let phases = phases_of bbvs_arr clustering.Kmeans.assignment k threshold in
    let traps = List.length (List.filter (fun p -> p.trap) phases) in
    (clustering, phases, traps)
  in
  let best = ref None in
  for k = 1 to min max_k n do
    let (_, _, traps) as candidate = try_k k in
    match !best with
    | None -> best := Some (k, candidate)
    | Some (_, (_, _, best_traps)) ->
      (* strictly more traps wins; ties keep the smaller k *)
      if traps > best_traps then best := Some (k, candidate)
  done;
  match !best with
  | None -> one_phase_division mode
  | Some (k, (clustering, phases, traps)) ->
    {
      mode;
      k;
      assignment = clustering.Kmeans.assignment;
      phases;
      trap_count = traps;
    }

let phase_of_interval division bbvs =
  match bbvs with
  | [] ->
    (* degenerate one-phase division: everything maps to its sole phase *)
    let sole = match division.phases with p :: _ -> Some p.pid | [] -> None in
    fun _ -> sole
  | _ :: _ ->
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (b : Bbv.t) -> (min lo b.Bbv.index, max hi b.Bbv.index))
        (max_int, min_int) bbvs
    in
    (* at.(i - lo): the cluster of the first BBV (in list order) recorded
       at interval i, else at the nearest earlier recorded interval *)
    let at = Array.make (hi - lo + 1) (-1) in
    List.iteri
      (fun i (b : Bbv.t) ->
        let j = b.Bbv.index - lo in
        if at.(j) < 0 then at.(j) <- division.assignment.(i))
      bbvs;
    for j = 1 to hi - lo do
      if at.(j) < 0 then at.(j) <- at.(j - 1)
    done;
    fun interval -> if interval < lo then None else Some at.(min interval hi - lo)

let render_strip division =
  let trap_clusters =
    List.filter_map (fun p -> if p.trap then Some p.pid else None) division.phases
  in
  String.init (Array.length division.assignment) (fun i ->
      let c = division.assignment.(i) in
      let letter = Char.chr (Char.code 'a' + (c mod 26)) in
      if List.mem c trap_clusters then Char.uppercase_ascii letter else letter)
