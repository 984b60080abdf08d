open Types

type t = {
  prog : program;
  offsets : int array; (* function index -> first global block id *)
  total : int;
  preds : int list array;
}

let nblocks t = t.total

let id t fidx bidx = t.offsets.(fidx) + bidx

let of_id t gid =
  let rec locate fidx =
    if fidx + 1 < Array.length t.offsets && t.offsets.(fidx + 1) <= gid then
      locate (fidx + 1)
    else fidx
  in
  let fidx = locate 0 in
  (fidx, gid - t.offsets.(fidx))

let label t gid =
  let fidx, bidx = of_id t gid in
  Printf.sprintf "%s/.%d" (t.prog.funcs.(fidx)).fname bidx

let term_successors term =
  match term with
  | Jmp b -> [ b ]
  | Br (_, th, el) -> [ th; el ]
  | Switch (_, cases, default) -> default :: List.map snd cases
  | Ret _ | Halt _ -> []

let build prog =
  let nfuncs = Array.length prog.funcs in
  let offsets = Array.make nfuncs 0 in
  let total = ref 0 in
  Array.iteri
    (fun i f ->
      offsets.(i) <- !total;
      total := !total + Array.length f.blocks)
    prog.funcs;
  let total = !total in
  let preds = Array.make total [] in
  let index = func_index prog in
  let add_edge src dst = preds.(dst) <- src :: preds.(dst) in
  Array.iteri
    (fun fidx f ->
      Array.iteri
        (fun bidx block ->
          let src = offsets.(fidx) + bidx in
          List.iter (fun b -> add_edge src (offsets.(fidx) + b)) (term_successors block.term);
          Array.iter
            (fun inst ->
              match inst with
              | Call (_, name, _) when not (is_intrinsic name) ->
                (match Hashtbl.find_opt index name with
                 | Some callee -> add_edge src offsets.(callee)
                 | None -> ())
              | Call _ | Bin _ | Un _ | Load _ | Store _ | Alloc _ | Free _ | Select _ -> ())
            block.insts)
        f.blocks)
    prog.funcs;
  { prog; offsets; total; preds }

let bfs edges total sources =
  let dist = Array.make total max_int in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = max_int then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    let d = dist.(node) in
    List.iter
      (fun next ->
        if dist.(next) = max_int then begin
          dist.(next) <- d + 1;
          Queue.add next queue
        end)
      (edges node)
  done;
  dist

let distances_to t ~targets =
  let sources = ref [] in
  for gid = t.total - 1 downto 0 do
    if targets gid then sources := gid :: !sources
  done;
  bfs (fun n -> t.preds.(n)) t.total !sources
