module Expr = Pbse_smt.Expr

type core = {
  ids : int array; (* sorted ascending *)
  sg : int; (* bloom signature of [ids] *)
}

(* newest-first core list per block; small and capped, so the linear
   scan stays cheap and eviction is a List.filteri *)
type t = { buckets : (int, core list) Hashtbl.t }

let bucket_cap = 24

let create () = { buckets = Hashtbl.create 256 }

let same_ids (a : int array) b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

let record t ~block exprs =
  let ids =
    List.sort_uniq Int.compare (List.map (fun e -> e.Expr.id) exprs) |> Array.of_list
  in
  if Array.length ids > 0 then begin
    let sg = Pathcond.signature_of_ids (Array.to_list ids) in
    let cores = Option.value ~default:[] (Hashtbl.find_opt t.buckets block) in
    let dup = List.exists (fun c -> c.sg = sg && same_ids c.ids ids) cores in
    if not dup then begin
      let cores = { ids; sg } :: cores in
      let cores = List.filteri (fun i _ -> i < bucket_cap) cores in
      Hashtbl.replace t.buckets block cores
    end
  end

let consult t ~block ~sg ~mem =
  match Hashtbl.find_opt t.buckets block with
  | None | Some [] -> `Empty
  | Some cores ->
    if List.exists (fun c -> c.sg land sg = c.sg && Array.for_all mem c.ids) cores
    then `Hit
    else `Miss
