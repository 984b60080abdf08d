module Searcher = Pbse_exec.Searcher
module State = Pbse_exec.State
module Report = Pbse_telemetry.Report
module Telemetry = Pbse_telemetry.Telemetry

type t = {
  ordinal : int;
  pid : int;
  trap : bool;
  searcher : Searcher.t;
  turn_dwell : Telemetry.histogram;
  mutable seeded : int;
  mutable turns : int;
  mutable slices : int;
  mutable new_cover : int;
  mutable dwell : int;
  mutable quarantined : int;
  mutable subsumed : int;
}

let create ?registry ~ordinal ~pid ~trap searcher =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    ordinal;
    pid;
    trap;
    searcher;
    turn_dwell =
      Telemetry.Registry.histogram registry
        (Printf.sprintf "phase.%d.turn_dwell" ordinal);
    seeded = 0;
    turns = 0;
    slices = 0;
    new_cover = 0;
    dwell = 0;
    quarantined = 0;
    subsumed = 0;
  }

let seed q st =
  q.searcher.Searcher.add st;
  q.seeded <- q.seeded + 1

let size q = q.searcher.Searcher.size ()

let stat_row q =
  {
    Report.ordinal = q.ordinal;
    pid = q.pid;
    trap = q.trap;
    seeded = q.seeded;
    turns = q.turns;
    slices = q.slices;
    new_cover = q.new_cover;
    dwell = q.dwell;
    quarantined = q.quarantined;
    subsumed = q.subsumed;
  }
