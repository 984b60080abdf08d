module Telemetry = Pbse_telemetry.Telemetry

type t = {
  limit : int;
  strikes : (int, int) Hashtbl.t; (* per-state *)
  sites : (int, int) Hashtbl.t; (* fork site -> evictions *)
  mutable total : int;
  mutable evictions : int;
  tm_strikes : Telemetry.counter;
  tm_evictions : Telemetry.counter;
}

let create ?registry ~max_strikes () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    limit = max 1 max_strikes;
    strikes = Hashtbl.create 64;
    sites = Hashtbl.create 64;
    total = 0;
    evictions = 0;
    tm_strikes = Telemetry.Registry.counter registry "quarantine.strikes";
    tm_evictions = Telemetry.Registry.counter registry "quarantine.evictions";
  }

let site_evictions t site =
  match Hashtbl.find_opt t.sites site with Some n -> n | None -> 0

(* A state whose fork site already produced evictions starts closer to
   the limit: known-bad sites fail fast instead of every state forked
   there re-earning each strike. The effective limit never drops below
   1, so every state survives at least one fault. *)
let effective_limit t ~site =
  if site < 0 then t.limit
  else max 1 (t.limit - min (site_evictions t site) (t.limit - 1))

let strike t ?(site = -1) id =
  let s = (match Hashtbl.find_opt t.strikes id with Some s -> s | None -> 0) + 1 in
  t.total <- t.total + 1;
  Telemetry.incr t.tm_strikes;
  if s >= effective_limit t ~site then begin
    Hashtbl.remove t.strikes id;
    t.evictions <- t.evictions + 1;
    if site >= 0 then Hashtbl.replace t.sites site (site_evictions t site + 1);
    Telemetry.incr t.tm_evictions;
    true
  end
  else begin
    Hashtbl.replace t.strikes id s;
    false
  end

let strikes_of t id =
  match Hashtbl.find_opt t.strikes id with Some s -> s | None -> 0

let total_strikes t = t.total

let evicted t = t.evictions

let max_strikes t = t.limit
