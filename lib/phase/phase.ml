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

let trap_run_threshold nbbvs = Int.max 2 (nbbvs * 5 / 100)

(* The block ids that occur in any BBV, ascending. *)
let occurring_ids bbvs_arr =
  Array.fold_left
    (fun acc (b : Bbv.t) ->
      Array.fold_left (fun acc (gid, _) -> gid :: acc) acc b.Bbv.counts)
    [] bbvs_arr
  |> List.sort_uniq Int.compare |> Array.of_list

(* The position of [gid] in the ascending [ids], which hold it. *)
let compact (ids : int array) (gid : int) =
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    if ids.(mid) = gid then mid
    else if ids.(mid) < gid then search (mid + 1) hi
    else search lo (mid - 1)
  in
  search 0 (Array.length ids - 1)

(* BBVs as k-means vectors over compact coordinates: the block ids that
   occur, renumbered 0..m-1 in increasing order, then the coverage
   element at m. An id no BBV mentions is +0.0 in every vector and every
   centroid, so leaving it out drops only [+. 0.0] terms, and the kept
   dimensions keep their order: no distance moves by a bit. Returns the
   vectors, their dimension and the occurring ids. *)
let vectors_of mode bbvs_arr =
  let ids = occurring_ids bbvs_arr in
  let m = Array.length ids in
  let max_coverage =
    Array.fold_left (fun acc (b : Bbv.t) -> Int.max acc b.Bbv.coverage) 1 bbvs_arr
  in
  let vector (b : Bbv.t) =
    let base = Array.map (fun (gid, x) -> (compact ids gid, x)) (Bbv.normalized b) in
    match mode with
    | Bbv_only -> base
    | Bbv_with_coverage ->
      let cov = float_of_int b.Bbv.coverage /. float_of_int max_coverage in
      Array.append base [| (m, cov) |]
  in
  let dim = match mode with Bbv_only -> Int.max 1 m | Bbv_with_coverage -> m + 1 in
  (Array.map vector bbvs_arr, dim, ids)

(* The longest run of consecutive interval indices each cluster in
   [0, k) owns, in one pass over the BBVs. *)
let longest_runs bbvs_arr assignment k =
  let longest = Array.make k 0 and run = Array.make k 0 and prev = Array.make k min_int in
  Array.iteri
    (fun i (b : Bbv.t) ->
      let c = assignment.(i) in
      if b.Bbv.index = prev.(c) + 1 || run.(c) = 0 then run.(c) <- run.(c) + 1
      else run.(c) <- 1;
      prev.(c) <- b.Bbv.index;
      if run.(c) > longest.(c) then longest.(c) <- run.(c))
    bbvs_arr;
  longest

(* A trap needs a run of [threshold >= 2], so an empty cluster is none. *)
let trap_count_of (longest : int array) threshold =
  Array.fold_left (fun acc run -> if run >= threshold then acc + 1 else acc) 0 longest

let phases_of bbvs_arr assignment k threshold =
  let longest = longest_runs bbvs_arr assignment k in
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
      phases :=
        {
          pid = cluster;
          intervals = Array.of_list (List.rev members);
          first_vtime = !first_vtime;
          trap = longest.(cluster) >= threshold;
          longest_run = longest.(cluster);
        }
        :: !phases
  done;
  List.sort (fun a b -> Int.compare a.first_vtime b.first_vtime) !phases

(* Degenerate fallback: a single catch-all phase. Used when the concolic
   step yielded no BBVs (a short deadline, an early abort) — the run
   degrades to one-phase scheduling instead of raising out of
   [Kmeans.workspace]. *)
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
  match bbvs with
  | [] -> one_phase_division mode
  | _ :: _ ->
    let bbvs_arr = Array.of_list bbvs in
    let vectors, dim, _ = vectors_of mode bbvs_arr in
    let n = Array.length bbvs_arr in
    let threshold = trap_run_threshold n in
    let max_k = Int.min max_k n in
    (* one workspace serves every k; [max_k < 1] tries none *)
    let ws = Kmeans.workspace ~max_k:(Int.max 1 max_k) ~dim vectors in
    let best = ref None in
    for k = 1 to max_k do
      let clustering = Kmeans.run ws rng ~k in
      let longest = longest_runs bbvs_arr clustering.Kmeans.assignment k in
      let traps = trap_count_of longest threshold in
      match !best with
      (* strictly more traps wins; ties keep the smaller k *)
      | Some (_, best_traps) when traps <= best_traps -> ()
      | _ -> best := Some (clustering, traps)
    done;
    (match !best with
     | None -> one_phase_division mode
     | Some ({ Kmeans.k; assignment; _ }, traps) ->
       {
         mode;
         k;
         assignment;
         phases = phases_of bbvs_arr assignment k threshold;
         trap_count = traps;
       })

type shape = {
  blocks : int;
  block_span : int;
  distinct : int;
  bbvs : int;
}

let shape bbvs =
  match bbvs with
  | [] -> { blocks = 0; block_span = 0; distinct = 0; bbvs = 0 }
  | _ :: _ ->
    let bbvs_arr = Array.of_list bbvs in
    let vectors, dim, ids = vectors_of Bbv_with_coverage bbvs_arr in
    let m = Array.length ids in
    {
      blocks = m;
      block_span = (if m = 0 then 0 else ids.(m - 1) + 1);
      distinct = Kmeans.distinct (Kmeans.workspace ~max_k:1 ~dim vectors);
      bbvs = Array.length bbvs_arr;
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
        (fun (lo, hi) (b : Bbv.t) -> (Int.min lo b.Bbv.index, Int.max hi b.Bbv.index))
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
    fun interval -> if interval < lo then None else Some at.(Int.min interval hi - lo)

let render_strip division =
  let trap c = List.exists (fun p -> p.trap && p.pid = c) division.phases in
  String.init (Array.length division.assignment) (fun i ->
      let c = division.assignment.(i) in
      let letter = Char.chr (Char.code 'a' + (c mod 26)) in
      if trap c then Char.uppercase_ascii letter else letter)
