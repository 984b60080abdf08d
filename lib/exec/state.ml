module Pathcond = Pbse_pathcond.Pathcond

type frame = {
  mutable regs : Pbse_smt.Expr.t array;
  mutable shared : bool; (* regs may be visible from another state *)
  ret_reg : int option;
  ret_to : (int * int * int) option;
}

type t = {
  id : int;
  mutable frames : frame list;
  mutable mem : Mem.t;
  mutable path : Pathcond.t;
  mutable model : Pbse_smt.Model.t;
  mutable fidx : int;
  mutable bidx : int;
  mutable iidx : int;
  mutable cur_gid : int;
  mutable depth : int;
  mutable steps : int;
  mutable fresh_cover : bool;
  born : int;
  fork_gid : int;
  mutable phase : int;
  mutable needs_verify : bool;
  mutable entered : bool;
}

let create ~id ~nregs ~mem ~model ~fidx ~born =
  {
    id;
    frames =
      [
        {
          regs = Array.make nregs Pbse_smt.Expr.zero;
          shared = false;
          ret_reg = None;
          ret_to = None;
        };
      ];
    mem;
    path = Pathcond.empty;
    model;
    fidx;
    bidx = 0;
    iidx = 0;
    cur_gid = -1;
    depth = 0;
    steps = 0;
    fresh_cover = false;
    born;
    fork_gid = -1;
    phase = -1;
    needs_verify = false;
    entered = false;
  }

(* Copy-on-write fork: O(call depth) frame records, zero register-array
   copies. Both sides keep referencing the same regs arrays until one of
   them writes; [own_frame] then copies just the written frame. The
   frame records themselves must be per-state — were they shared, a
   later CoW copy in one state would redirect the other's view. *)
let fork t ~id ~born ~fork_gid =
  List.iter (fun f -> f.shared <- true) t.frames;
  {
    id;
    frames = List.map (fun f -> { f with shared = true }) t.frames;
    mem = t.mem;
    path = t.path;
    model = t.model;
    fidx = t.fidx;
    bidx = t.bidx;
    iidx = t.iidx;
    cur_gid = t.cur_gid;
    depth = t.depth + 1;
    steps = t.steps;
    fresh_cover = false;
    born;
    fork_gid;
    phase = t.phase;
    needs_verify = false;
    entered = false;
  }

let own_frame f =
  if f.shared then begin
    f.regs <- Array.copy f.regs;
    f.shared <- false;
    true
  end
  else false

let current_regs t =
  match t.frames with
  | frame :: _ -> frame.regs
  | [] -> invalid_arg "State.current_regs: no frames"

let write_reg t r v =
  match t.frames with
  | frame :: _ ->
    let copied = own_frame frame in
    frame.regs.(r) <- v;
    copied
  | [] -> invalid_arg "State.write_reg: no frames"

let assume t c = t.path <- Pathcond.assume t.path c

let path_spine t = Pathcond.spine t.path
