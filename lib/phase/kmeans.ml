module Rng = Pbse_util.Rng

type vector = (int * float) array

(* Bitwise identity of sparse vectors: the same dimensions holding the
   same float bits, so [-0.0] and [+0.0] differ. [mix] folds high bits
   into low ones, so values with zero low mantissa bits (1.0, 0.5) still
   spread over the table. *)
module Distinct = Hashtbl.Make (struct
  type t = vector

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec same j =
      j = n
      ||
      let da, xa = a.(j) and db, xb = b.(j) in
      da = db && Int64.bits_of_float xa = Int64.bits_of_float xb && same (j + 1)
    in
    same 0

  let[@inline] mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 29)

  let hash (v : t) =
    let h = ref (Array.length v) in
    for j = 0 to Array.length v - 1 do
      let d, x = v.(j) in
      h := mix (mix !h d) (Int64.to_int (Int64.bits_of_float x))
    done;
    !h
end)

type workspace = {
  dim : int;
  max_k : int;
  point_of : int array; (* vector index -> distinct vector *)
  (* distinct vector p holds entries [offsets.(p), offsets.(p + 1)) *)
  offsets : int array;
  indices : int array;
  values : float array;
  centroids : float array; (* max_k rows of [dim] floats, row c at c * dim *)
  counts : int array; (* per cluster: members *)
  (* distance from distinct vector q to row c at [q * max_k + c], kept
     between passes: only a row that moved is measured again *)
  dist : float array;
  dirty : bool array; (* per cluster: members changed since its row was summed *)
  moved : bool array; (* per row: changed since its distances were taken *)
  d2 : float array; (* per distinct vector: k-means++ distance *)
  nearest : int array; (* per distinct vector: nearest row this pass *)
  nearest_d : float array;
  assignment : int array; (* per vector *)
}

let workspace ~max_k ~dim vectors =
  if max_k < 1 then invalid_arg "Kmeans.workspace: max_k < 1";
  if dim < 1 then invalid_arg "Kmeans.workspace: dim < 1";
  let n = Array.length vectors in
  if n = 0 then invalid_arg "Kmeans.workspace: no vectors";
  let table = Distinct.create 64 in
  let firsts = ref [] in
  let point_of =
    Array.map
      (fun v ->
        match Distinct.find_opt table v with
        | Some p -> p
        | None ->
          Array.iter
            (fun (d, _) ->
              if d < 0 || d >= dim then
                invalid_arg "Kmeans.workspace: dimension out of range")
            v;
          let p = Distinct.length table in
          Distinct.add table v p;
          firsts := v :: !firsts;
          p)
      vectors
  in
  let firsts = List.rev !firsts in
  let np = List.length firsts in
  let offsets = Array.make (np + 1) 0 in
  List.iteri (fun p v -> offsets.(p + 1) <- offsets.(p) + Array.length v) firsts;
  {
    dim;
    max_k;
    point_of;
    offsets;
    indices = Array.concat (List.map (Array.map fst) firsts);
    values = Array.concat (List.map (Array.map snd) firsts);
    centroids = Array.make (max_k * dim) 0.0;
    counts = Array.make max_k 0;
    dist = Array.make (np * max_k) 0.0;
    dirty = Array.make max_k false;
    moved = Array.make max_k false;
    d2 = Array.make np 0.0;
    nearest = Array.make np 0;
    nearest_d = Array.make np 0.0;
    assignment = Array.make n 0;
  }

let distinct ws = Array.length ws.offsets - 1

(* The kernel is two [for] loops over [ref] accumulators, inlined at
   each call, so no float it computes is boxed. It keeps the operation
   order of the plain fold over dense centroids it replaced,
   [(acc +. d*.d) -. c*.c] from [|c|^2], exactly: any reassociation can
   move an assignment, and with it a report byte. *)

let[@inline] norm2 centroids base dim =
  let acc = ref 0.0 in
  for d = base to base + dim - 1 do
    let x = centroids.(d) in
    acc := !acc +. (x *. x)
  done;
  !acc

let[@inline] distance2_at ws p centroids base c2 =
  (* |v - c|^2 = |c|^2 + sum_over_v ((v_i - c_i)^2 - c_i^2) *)
  let acc = ref c2 in
  for j = ws.offsets.(p) to ws.offsets.(p + 1) - 1 do
    let c = centroids.(base + ws.indices.(j)) in
    let d = ws.values.(j) -. c in
    acc := !acc +. (d *. d) -. (c *. c)
  done;
  !acc

let distance2 ws p centroid =
  if Array.length centroid <> ws.dim then invalid_arg "Kmeans.distance2: dimension";
  distance2_at ws p centroid 0 (norm2 centroid 0 ws.dim)

(* The distances from every distinct vector to row [c], into [dist]. *)
let measure ws c =
  let base = c * ws.dim in
  let c2 = norm2 ws.centroids base ws.dim in
  for q = 0 to distinct ws - 1 do
    ws.dist.((q * ws.max_k) + c) <- distance2_at ws q ws.centroids base c2
  done

type clustering = {
  k : int;
  assignment : int array;
  inertia : float;
}

let max_iterations = 25

let run ws rng ~k =
  if k < 1 || k > ws.max_k then invalid_arg "Kmeans.run: k outside [1, max_k]";
  let n = Array.length ws.point_of and np = distinct ws in
  let dim = ws.dim and point_of = ws.point_of and centroids = ws.centroids in
  let d2 = ws.d2 and dist = ws.dist and stride = ws.max_k in
  let dirty = ws.dirty and moved = ws.moved in
  (* k-means++ seeding: row [c] becomes the dense copy of vector
     [choice]; the distances it takes are the first pass's *)
  let draw c choice =
    let p = point_of.(choice) and base = c * dim in
    Array.fill centroids base dim 0.0;
    for j = ws.offsets.(p) to ws.offsets.(p + 1) - 1 do
      centroids.(base + ws.indices.(j)) <- ws.values.(j)
    done;
    measure ws c;
    for q = 0 to np - 1 do
      let d = dist.((q * stride) + c) in
      if c = 0 || d < d2.(q) then d2.(q) <- d
    done
  in
  draw 0 (Rng.int rng n);
  for c = 1 to k - 1 do
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. d2.(point_of.(i))
    done;
    let choice =
      if !total <= 0.0 then Rng.int rng n
      else begin
        let r = Rng.float rng !total in
        (* the first index whose running sum reaches [r] *)
        let acc = ref 0.0 and chosen = ref (n - 1) and i = ref 0 in
        while !i < n do
          acc := !acc +. d2.(point_of.(!i));
          if !acc >= r then begin
            chosen := !i;
            i := n
          end
          else incr i
        done;
        !chosen
      end
    in
    draw c choice
  done;
  (* no seeded row is a mean yet; every row's distances are fresh *)
  Array.fill dirty 0 k true;
  Array.fill moved 0 k false;
  let assignment = ws.assignment in
  Array.fill assignment 0 n 0;
  let nearest = ws.nearest and nearest_d = ws.nearest_d in
  let assign () =
    for c = 0 to k - 1 do
      if moved.(c) then begin
        measure ws c;
        moved.(c) <- false
      end
    done;
    for q = 0 to np - 1 do
      let best = ref 0 and best_d = ref infinity and row = q * stride in
      for c = 0 to k - 1 do
        let d = dist.(row + c) in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      nearest.(q) <- !best;
      nearest_d.(q) <- !best_d
    done;
    let changed = ref false and inertia = ref 0.0 in
    for i = 0 to n - 1 do
      let q = point_of.(i) in
      let c = nearest.(q) in
      if assignment.(i) <> c then begin
        dirty.(assignment.(i)) <- true;
        dirty.(c) <- true;
        assignment.(i) <- c;
        changed := true
      end;
      inertia := !inertia +. nearest_d.(q)
    done;
    (!changed, !inertia)
  in
  let counts = ws.counts in
  let recompute () =
    Array.fill counts 0 k 0;
    for i = 0 to n - 1 do
      counts.(assignment.(i)) <- counts.(assignment.(i)) + 1
    done;
    (* a cluster with members sums them, in index order, from +0.0, then
       scales; an empty cluster keeps its previous centroid. A cluster
       whose members are those its row was summed from would sum to the
       same bits, so only dirty ones are summed again. *)
    for c = 0 to k - 1 do
      if dirty.(c) && counts.(c) > 0 then Array.fill centroids (c * dim) dim 0.0
    done;
    for i = 0 to n - 1 do
      let c = assignment.(i) in
      if dirty.(c) then begin
        let p = point_of.(i) and base = c * dim in
        for j = ws.offsets.(p) to ws.offsets.(p + 1) - 1 do
          let d = base + ws.indices.(j) in
          centroids.(d) <- centroids.(d) +. ws.values.(j)
        done
      end
    done;
    for c = 0 to k - 1 do
      if dirty.(c) then begin
        if counts.(c) > 0 then begin
          let inv = 1.0 /. float_of_int counts.(c) in
          for d = c * dim to (c * dim) + dim - 1 do
            centroids.(d) <- centroids.(d) *. inv
          done;
          moved.(c) <- true
        end;
        dirty.(c) <- false
      end
    done
  in
  let rec iterate i _inertia =
    let changed, inertia' = assign () in
    if changed && i < max_iterations then begin
      recompute ();
      iterate (i + 1) inertia'
    end
    else inertia'
  in
  let inertia = iterate 0 infinity in
  { k; assignment = Array.copy assignment; inertia }
