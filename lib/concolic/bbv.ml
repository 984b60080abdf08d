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

type builder = {
  interval_length : int;
  counts : (int, int) Hashtbl.t;
  mutable current : int; (* current interval index *)
  mutable started_at : int;
  mutable acc : t list; (* reversed *)
  mutable probe : unit -> int;
}

let builder ~interval_length =
  if interval_length <= 0 then invalid_arg "Bbv.builder: interval_length must be positive";
  {
    interval_length;
    counts = Hashtbl.create 256;
    current = 0;
    started_at = 0;
    acc = [];
    probe = (fun () -> 0);
  }

let set_coverage_probe b probe = b.probe <- probe

let interval_of_vtime b vtime = vtime / b.interval_length

let close b ~t_end =
  if Hashtbl.length b.counts > 0 then begin
    let counts =
      Hashtbl.fold (fun gid c acc -> (gid, c) :: acc) b.counts []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> Array.of_list
    in
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
    Hashtbl.reset b.counts
  end

let record b ~vtime ~gid =
  let interval = interval_of_vtime b vtime in
  if interval <> b.current then begin
    close b ~t_end:(b.current * b.interval_length + b.interval_length);
    b.current <- interval;
    b.started_at <- interval * b.interval_length
  end;
  Hashtbl.replace b.counts gid
    (1 + match Hashtbl.find_opt b.counts gid with Some c -> c | None -> 0)

let flush b ~coverage_at ~vtime =
  b.probe <- coverage_at;
  close b ~t_end:vtime

let bbvs b = List.rev b.acc
