(* Searcher duel: every KLEE search strategy against pbSE on pngtest,
   across increasing budgets — a miniature of the paper's Table I.

     dune exec examples/searcher_duel.exe [TARGET]

   Watch dfs start slow and recover, random-state plateau, and pbSE pull
   ahead once its phases are scheduled. *)

module Registry = Pbse_targets.Registry
module Searcher = Pbse_exec.Searcher
module Tablefmt = Pbse_util.Tablefmt

let budgets = [ 30_000; 120_000; 480_000 ]

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "pngtest" in
  let t =
    match Registry.by_name name with
    | Some t -> t
    | None ->
      prerr_endline ("unknown target " ^ name);
      exit 1
  in
  let prog = Registry.program t in
  let table =
    Tablefmt.create
      ("strategy" :: List.map (fun b -> Printf.sprintf "cov@%dk" (b / 1000)) budgets)
  in
  List.iter
    (fun searcher ->
      let r =
        Pbse.Klee.run prog ~searcher ~input:(Bytes.make 100 '\000') ~checkpoints:budgets
      in
      Tablefmt.add_row table
        (searcher
        :: List.map
             (fun b -> string_of_int (List.assoc b r.Pbse.Klee.checkpoints))
             budgets);
      Printf.printf "  ... %s done\n%!" searcher)
    Searcher.names;
  let report =
    Pbse_session.Session.run prog ~seed:(Registry.default_seed t)
      ~deadline:(List.fold_left max 0 budgets)
  in
  Tablefmt.add_row table
    ("pbSE"
    :: List.map
         (fun b -> string_of_int (Pbse_session.Session.coverage_at report b))
         budgets);
  Tablefmt.print table
