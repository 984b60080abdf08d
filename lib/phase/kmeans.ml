module Rng = Pbse_util.Rng

type vector = (int * float) array

(* The kernel is two [for] loops over [ref] accumulators, inlined at
   each call, so no float it computes is boxed. It keeps the operation
   order of the plain fold it replaced, [(acc +. d*.d) -. c*.c] from
   [|c|^2], exactly: any reassociation can move an assignment, and with
   it a report byte. *)

let[@inline] norm2 centroid =
  let acc = ref 0.0 in
  for d = 0 to Array.length centroid - 1 do
    let x = centroid.(d) in
    acc := !acc +. (x *. x)
  done;
  !acc

let[@inline] distance2_with_norm v centroid c2 =
  (* |v - c|^2 = |c|^2 + sum_over_v ((v_i - c_i)^2 - c_i^2) *)
  let acc = ref c2 in
  for j = 0 to Array.length v - 1 do
    let dim, x = v.(j) in
    let c = centroid.(dim) in
    let d = x -. c in
    acc := !acc +. (d *. d) -. (c *. c)
  done;
  !acc

type clustering = {
  k : int;
  assignment : int array;
  centroids : float array array;
  inertia : float;
}

let max_iterations = 25

let cluster rng ~k ~dim vectors =
  if k < 1 then invalid_arg "Kmeans.cluster: k < 1";
  if dim < 1 then invalid_arg "Kmeans.cluster: dim < 1";
  let n = Array.length vectors in
  if n = 0 then invalid_arg "Kmeans.cluster: no vectors";
  let dense v =
    let c = Array.make dim 0.0 in
    Array.iter (fun (d, x) -> c.(d) <- x) v;
    c
  in
  (* k-means++ seeding; every centroid is a fresh array the clustering
     owns, so [recompute] may overwrite it in place *)
  let centroids = Array.make k [||] in
  let d2 = Array.make n 0.0 in
  let draw c choice =
    let centroid = dense vectors.(choice) in
    centroids.(c) <- centroid;
    let c2 = norm2 centroid in
    for i = 0 to n - 1 do
      let d = distance2_with_norm vectors.(i) centroid c2 in
      if c = 0 || d < d2.(i) then d2.(i) <- d
    done
  in
  draw 0 (Rng.int rng n);
  for c = 1 to k - 1 do
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. d2.(i)
    done;
    let choice =
      if !total <= 0.0 then Rng.int rng n
      else begin
        let r = Rng.float rng !total in
        (* the first index whose running sum reaches [r] *)
        let acc = ref 0.0 and chosen = ref (n - 1) and i = ref 0 in
        while !i < n do
          acc := !acc +. d2.(!i);
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
  let assignment = Array.make n 0 in
  let norms = Array.make k 0.0 in
  let assign () =
    for c = 0 to k - 1 do
      norms.(c) <- norm2 centroids.(c)
    done;
    let changed = ref false in
    let inertia = ref 0.0 in
    for i = 0 to n - 1 do
      let v = vectors.(i) in
      let best = ref 0 and best_d = ref infinity in
      for c = 0 to k - 1 do
        let d = distance2_with_norm v centroids.(c) norms.(c) in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      if assignment.(i) <> !best then begin
        assignment.(i) <- !best;
        changed := true
      end;
      inertia := !inertia +. !best_d
    done;
    (!changed, !inertia)
  in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let counts = Array.make k 0 in
  let recompute () =
    Array.iter (fun s -> Array.fill s 0 dim 0.0) sums;
    Array.fill counts 0 k 0;
    for i = 0 to n - 1 do
      let c = assignment.(i) in
      let v = vectors.(i) and sum = sums.(c) in
      counts.(c) <- counts.(c) + 1;
      for j = 0 to Array.length v - 1 do
        let d, x = v.(j) in
        sum.(d) <- sum.(d) +. x
      done
    done;
    for c = 0 to k - 1 do
      if counts.(c) > 0 then begin
        let inv = 1.0 /. float_of_int counts.(c) in
        let sum = sums.(c) and centroid = centroids.(c) in
        for d = 0 to dim - 1 do
          centroid.(d) <- sum.(d) *. inv
        done
      end
      (* empty clusters keep their previous centroid *)
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
  { k; assignment; centroids; inertia }
