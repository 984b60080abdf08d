type t = {
  index : int;
  t_start : int;
  t_end : int;
  counts : (int * int) array;
  total : int;
  coverage : int;
}

let normalized t =
  if t.total = 0 then [||]
  else
    Array.map (fun (gid, c) -> (gid, float_of_int c /. float_of_int t.total)) t.counts

(* Per-gid entry counts of the open interval live in [counts], indexed
   by gid and grown on demand; [touched] lists, in its first [ntouched]
   cells, the gids whose count is non-zero, so closing an interval reads
   and clears only those. *)
type builder = {
  interval_length : int;
  mutable counts : int array;
  mutable touched : int array;
  mutable ntouched : int;
  mutable current : int; (* current interval index *)
  mutable started_at : int;
  mutable acc : t list; (* reversed *)
  mutable probe : unit -> int;
}

let builder ~interval_length =
  if interval_length <= 0 then invalid_arg "Bbv.builder: interval_length must be positive";
  {
    interval_length;
    counts = Array.make 256 0;
    touched = Array.make 256 0;
    ntouched = 0;
    current = 0;
    started_at = 0;
    acc = [];
    probe = (fun () -> 0);
  }

let set_coverage_probe b probe = b.probe <- probe

let interval_of_vtime b vtime = vtime / b.interval_length

let close b ~t_end =
  if b.ntouched > 0 then begin
    let gids = Array.sub b.touched 0 b.ntouched in
    Array.sort Int.compare gids;
    let counts = Array.map (fun gid -> (gid, b.counts.(gid))) gids in
    let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 counts in
    b.acc <-
      {
        index = b.current;
        t_start = b.started_at;
        t_end;
        counts;
        total;
        coverage = b.probe ();
      }
      :: b.acc;
    Array.iter (fun gid -> b.counts.(gid) <- 0) gids;
    b.ntouched <- 0
  end

(* Room for [gid]: both arrays grow to the same power-of-two length, and
   [touched] never holds more distinct gids than [counts] has cells. *)
let grow b gid =
  let len = ref (Array.length b.counts) in
  while !len <= gid do
    len := 2 * !len
  done;
  let counts = Array.make !len 0 and touched = Array.make !len 0 in
  Array.blit b.counts 0 counts 0 (Array.length b.counts);
  Array.blit b.touched 0 touched 0 b.ntouched;
  b.counts <- counts;
  b.touched <- touched

let record b ~vtime ~gid =
  if gid < 0 then invalid_arg "Bbv.record: negative gid";
  let interval = interval_of_vtime b vtime in
  if interval <> b.current then begin
    close b ~t_end:(b.current * b.interval_length + b.interval_length);
    b.current <- interval;
    b.started_at <- interval * b.interval_length
  end;
  if gid >= Array.length b.counts then grow b gid;
  let c = b.counts.(gid) in
  if c = 0 then begin
    b.touched.(b.ntouched) <- gid;
    b.ntouched <- b.ntouched + 1
  end;
  b.counts.(gid) <- c + 1

let flush b ~coverage_at ~vtime =
  b.probe <- coverage_at;
  close b ~t_end:vtime

let bbvs b = List.rev b.acc
