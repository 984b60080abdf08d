module Executor = Pbse_exec.Executor
module Searcher = Pbse_exec.Searcher
module Coverage = Pbse_exec.Coverage
module Vclock = Pbse_util.Vclock
module Rng = Pbse_util.Rng

type result = {
  searcher : string;
  checkpoints : (int * int) list;
  bugs : Pbse_exec.Bug.t list;
  forks : int;
  instructions : int;
}

let run prog ~searcher ~input ~checkpoints =
  let make =
    match Searcher.by_name searcher with
    | Some make -> make
    | None -> invalid_arg ("Klee.run: unknown searcher " ^ searcher)
  in
  let clock = Vclock.create () in
  let exec = Executor.create ~clock prog ~input in
  let rng = Rng.create 1 in
  let s = make rng (Executor.cfg exec) (Executor.coverage exec) in
  s.Searcher.add (Executor.initial_state exec);
  let sorted = List.sort_uniq Int.compare checkpoints in
  let samples =
    List.map
      (fun deadline ->
        Executor.explore exec s ~deadline;
        (deadline, Coverage.count (Executor.coverage exec)))
      sorted
  in
  {
    searcher;
    checkpoints = samples;
    bugs = Executor.bugs exec;
    forks = (Executor.stats exec).Executor.forks;
    instructions = (Executor.stats exec).Executor.instructions;
  }
