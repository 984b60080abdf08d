(* Bug hunt on the readelf analog: pbSE vs the best KLEE searcher.

     dune exec examples/readelf_hunt.exe

   Reproduces the paper's central workflow on one target: pick a seed with
   the §III-B4 heuristic, run pbSE for a virtual hour, and compare against
   KLEE's random-path searcher on the same budget. *)

module Registry = Pbse_targets.Registry
module Driver = Pbse.Driver
module Session = Pbse_session.Session

let hour = 120_000

let () =
  let t = Option.get (Registry.by_name "readelf") in
  let prog = Registry.program t in

  (* the paper's seed selection: among the ten smallest seeds, keep the
     one with the best concrete coverage *)
  let pool = List.map snd t.Registry.seeds in
  let coverage_of seed =
    (Pbse_exec.Concrete.run prog ~input:seed).Pbse_exec.Concrete.blocks_entered
  in
  let seed = Option.get (Driver.select_seed pool ~coverage_of) in
  Printf.printf "selected seed: %d bytes (out of %d candidates)\n" (Bytes.length seed)
    (List.length pool);

  let report = Session.run prog ~seed ~deadline:hour in
  let pbse_cov =
    Pbse_exec.Coverage.count (Pbse_exec.Executor.coverage report.Session.executor)
  in
  Printf.printf "pbSE: %d blocks in 1h (c-time %d, %d trap phases), %d bug(s)\n"
    pbse_cov report.Session.c_time
    report.Session.division.Pbse_phase.Phase.trap_count
    (List.length report.Session.bugs);
  List.iter
    (fun ((bug : Pbse_exec.Bug.t), phase) ->
      Printf.printf "  phase %d: %s\n" phase (Pbse_exec.Bug.to_string bug))
    report.Session.bugs;

  let klee =
    Pbse.Klee.run prog ~searcher:"random-path" ~input:(Bytes.make 1000 '\000')
      ~checkpoints:[ hour ]
  in
  let klee_cov = List.assoc hour klee.Pbse.Klee.checkpoints in
  Printf.printf "KLEE random-path (sym-1000): %d blocks in 1h, %d bug(s)\n" klee_cov
    (List.length klee.Pbse.Klee.bugs);
  Printf.printf "coverage ratio pbSE/KLEE: %.2f\n"
    (float_of_int pbse_cov /. float_of_int (max 1 klee_cov))
