module Telemetry = Pbse_telemetry.Telemetry
module Rng = Pbse_util.Rng
module Inject = Pbse_robust.Inject
module Quarantine = Pbse_robust.Quarantine
module Expr = Pbse_smt.Expr

type t = {
  registry : Telemetry.Registry.t;
  rng : Rng.t;
  inject : Inject.plan;
  quarantine : Quarantine.t;
  arena : Expr.arena;
  prefix_cap : int;
}

let create ?registry ?(rng_seed = 1) ?(inject = Inject.none) ?(max_strikes = 4)
    ?(prefix_cap = 16_384) () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    registry;
    rng = Rng.create rng_seed;
    inject;
    quarantine = Quarantine.create ~max_strikes ();
    arena = Expr.arena ();
    prefix_cap;
  }

(* The expression arena and the id block are domain-local, but systhreads
   of one domain share them: two sessions driven from two threads of the
   same domain would preempt each other mid-step and intern into each
   other's arena. One lock per domain serialises them. The main domain's
   lock is created here, before any thread can race to create it; a pool
   worker domain runs a single thread. *)
let domain_lock : Mutex.t Domain.DLS.key = Domain.DLS.new_key Mutex.create
let () = ignore (Domain.DLS.get domain_lock)

let with_active t f =
  Mutex.protect (Domain.DLS.get domain_lock) (fun () ->
      Expr.use_arena t.arena;
      f ())

