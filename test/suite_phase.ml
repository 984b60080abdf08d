open Pbse_phase
module Bbv = Pbse_concolic.Bbv
module Rng = Pbse_util.Rng

(* --- k-means --------------------------------------------------------------- *)

let vec l = Array.of_list l

(* k-means for [k] on a fresh workspace *)
let cluster rng ~k ~dim vectors = Kmeans.run (Kmeans.workspace ~max_k:k ~dim vectors) rng ~k

let test_kmeans_single_cluster () =
  let vectors = [| vec [ (0, 1.0) ]; vec [ (0, 1.0) ]; vec [ (0, 1.0) ] |] in
  let c = cluster (Rng.create 1) ~k:1 ~dim:1 vectors in
  Alcotest.(check (array int)) "all in cluster 0" [| 0; 0; 0 |] c.Kmeans.assignment;
  Alcotest.(check (float 1e-9)) "zero inertia" 0.0 c.Kmeans.inertia

let test_kmeans_separates_two_groups () =
  let a = vec [ (0, 1.0) ] and b = vec [ (5, 1.0) ] in
  let vectors = [| a; b; a; b; a; b |] in
  let c = cluster (Rng.create 3) ~k:2 ~dim:6 vectors in
  let c0 = c.Kmeans.assignment.(0) in
  let c1 = c.Kmeans.assignment.(1) in
  Alcotest.(check bool) "two distinct clusters" true (c0 <> c1);
  Alcotest.(check (array int)) "alternating assignment" [| c0; c1; c0; c1; c0; c1 |]
    c.Kmeans.assignment;
  Alcotest.(check (float 1e-9)) "perfect separation" 0.0 c.Kmeans.inertia

let test_kmeans_deterministic () =
  let vectors =
    Array.init 20 (fun i -> vec [ (i mod 4, 1.0); (5 + (i mod 3), 0.5) ])
  in
  let c1 = cluster (Rng.create 42) ~k:3 ~dim:8 vectors in
  let c2 = cluster (Rng.create 42) ~k:3 ~dim:8 vectors in
  Alcotest.(check (array int)) "same assignment" c1.Kmeans.assignment c2.Kmeans.assignment

let test_kmeans_rejects_bad_input () =
  let check_raises name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  check_raises "k=0" (fun () -> cluster (Rng.create 1) ~k:0 ~dim:1 [| vec [] |]);
  check_raises "no vectors" (fun () -> cluster (Rng.create 1) ~k:1 ~dim:1 [||]);
  check_raises "dim=0" (fun () -> cluster (Rng.create 1) ~k:1 ~dim:0 [| vec [] |])

let prop_kmeans_assignment_in_range =
  QCheck.Test.make ~count:100 ~name:"kmeans assignments stay in [0, k)"
    QCheck.(make Gen.(triple (int_range 1 6) (int_range 1 30) (int_range 0 10000)))
    (fun (k, n, seed) ->
      let vectors =
        Array.init n (fun i -> vec [ (i mod 5, float_of_int (i mod 7) /. 7.0) ])
      in
      let c = cluster (Rng.create seed) ~k ~dim:5 vectors in
      Array.for_all (fun a -> a >= 0 && a < k) c.Kmeans.assignment)

(* The cached-norm kernel and the clustering built on it must reproduce
   the reference arithmetic bit for bit: a reassociated sum can flip a
   nearest-centroid comparison, and with it a phase and a report byte. *)

let bits = Int64.bits_of_float

(* Coordinates include exact zeros, negative zero and negative values. *)
let gen_coord =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.0);
        (1, return (-0.0));
        (3, map (fun i -> float_of_int i /. 7.0) (int_range (-20) 20));
        (4, float_range (-10.0) 10.0);
      ])

(* A sparse vector over [0, dim): sorted, no duplicates; [last] forces
   the last dimension in. *)
let gen_sparse dim =
  QCheck.Gen.(
    pair bool (list_repeat dim (pair bool gen_coord)) >|= fun (last, cells) ->
    List.mapi
      (fun d (keep, x) -> if keep || (last && d = dim - 1) then Some (d, x) else None)
      cells
    |> List.filter_map Fun.id |> Array.of_list)

(* The k-means of the commit before the cached-norm kernel, copied
   verbatim: the oracle for [Kmeans.run]. *)
module Oracle_kmeans = struct
  type vector = (int * float) array

  let distance2 v centroid =
    (* |v - c|^2 = |c|^2 + sum_over_v ((v_i - c_i)^2 - c_i^2) *)
    let c2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 centroid in
    Array.fold_left
      (fun acc (dim, x) ->
        let c = centroid.(dim) in
        let d = x -. c in
        acc +. (d *. d) -. (c *. c))
      c2 v

  type clustering = {
    k : int;
    assignment : int array;
    centroids : float array array;
    inertia : float;
  }

  let max_iterations = 25

  let cluster rng ~k ~dim (vectors : vector array) =
    if k < 1 then invalid_arg "Kmeans.cluster: k < 1";
    if dim < 1 then invalid_arg "Kmeans.cluster: dim < 1";
    let n = Array.length vectors in
    if n = 0 then invalid_arg "Kmeans.cluster: no vectors";
    let dense v =
      let c = Array.make dim 0.0 in
      Array.iter (fun (d, x) -> c.(d) <- x) v;
      c
    in
    (* k-means++ seeding *)
    let centroids = Array.make k [||] in
    centroids.(0) <- dense vectors.(Rng.int rng n);
    let d2 = Array.map (fun v -> distance2 v centroids.(0)) vectors in
    for c = 1 to k - 1 do
      let total = Array.fold_left ( +. ) 0.0 d2 in
      let choice =
        if total <= 0.0 then Rng.int rng n
        else begin
          let r = Rng.float rng total in
          let acc = ref 0.0 in
          let chosen = ref (n - 1) in
          (try
             Array.iteri
               (fun i w ->
                 acc := !acc +. w;
                 if !acc >= r then begin
                   chosen := i;
                   raise Exit
                 end)
               d2
           with Exit -> ());
          !chosen
        end
      in
      centroids.(c) <- dense vectors.(choice);
      Array.iteri
        (fun i v ->
          let d = distance2 v centroids.(c) in
          if d < d2.(i) then d2.(i) <- d)
        vectors
    done;
    let assignment = Array.make n 0 in
    let assign () =
      let changed = ref false in
      let inertia = ref 0.0 in
      Array.iteri
        (fun i v ->
          let best = ref 0 and best_d = ref infinity in
          for c = 0 to k - 1 do
            let d = distance2 v centroids.(c) in
            if d < !best_d then begin
              best_d := d;
              best := c
            end
          done;
          if assignment.(i) <> !best then begin
            assignment.(i) <- !best;
            changed := true
          end;
          inertia := !inertia +. !best_d)
        vectors;
      (!changed, !inertia)
    in
    let recompute () =
      let sums = Array.init k (fun _ -> Array.make dim 0.0) in
      let counts = Array.make k 0 in
      Array.iteri
        (fun i v ->
          let c = assignment.(i) in
          counts.(c) <- counts.(c) + 1;
          Array.iter (fun (d, x) -> sums.(c).(d) <- sums.(c).(d) +. x) v)
        vectors;
      for c = 0 to k - 1 do
        if counts.(c) > 0 then begin
          let inv = 1.0 /. float_of_int counts.(c) in
          Array.iteri (fun d x -> sums.(c).(d) <- x *. inv) sums.(c);
          centroids.(c) <- sums.(c)
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
end

let prop_cached_norm_kernel_bit_equal =
  QCheck.Test.make ~count:500 ~name:"kmeans cached-norm kernel = distance2 bit for bit"
    QCheck.(
      make
        Gen.(
          int_range 1 16 >>= fun dim ->
          pair (gen_sparse dim) (array_repeat dim gen_coord)))
    (fun (v, centroid) ->
      let ws = Kmeans.workspace ~max_k:1 ~dim:(Array.length centroid) [| v |] in
      bits (Kmeans.distance2 ws 0 centroid) = bits (Oracle_kmeans.distance2 v centroid))

let prop_cluster_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"kmeans cluster = reference algorithm bit for bit"
    QCheck.(
      make
        Gen.(
          int_range 1 10 >>= fun dim ->
          quad (int_range 1 8) (int_range 0 100_000) (return dim)
            (array_size (int_range 1 40) (gen_sparse dim))))
    (fun (k, seed, dim, vectors) ->
      let got = cluster (Rng.create seed) ~k ~dim vectors in
      let want = Oracle_kmeans.cluster (Rng.create seed) ~k ~dim vectors in
      got.Kmeans.assignment = want.Oracle_kmeans.assignment
      && bits got.Kmeans.inertia = bits want.Oracle_kmeans.inertia)

(* Sets in which some vectors are bitwise copies (fresh arrays, equal
   bits) of others: the distinct-vector table must merge exactly those,
   never [+0.0] with [-0.0] or an explicit zero with a missing one. Each
   set is clustered once for [k] on a fresh workspace, and once for every
   k in 1..k in turn on one shared workspace and one shared generator,
   as [Phase.divide] does: nothing one run leaves in the workspace may
   reach the next. *)
let prop_cluster_with_copies_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"kmeans cluster with copied vectors = reference"
    QCheck.(
      make
        Gen.(
          int_range 1 10 >>= fun dim ->
          quad (int_range 1 8) (int_range 0 100_000) (return dim)
            (pair
               (array_size (int_range 1 8) (gen_sparse dim))
               (array_size (int_range 1 40) (int_bound 1_000)))))
    (fun (k, seed, dim, (base, picks)) ->
      let vectors =
        Array.map (fun j -> Array.copy base.(j mod Array.length base)) picks
      in
      let same (got : Kmeans.clustering) (want : Oracle_kmeans.clustering) =
        got.Kmeans.assignment = want.Oracle_kmeans.assignment
        && bits got.Kmeans.inertia = bits want.Oracle_kmeans.inertia
      in
      let fresh =
        same
          (cluster (Rng.create seed) ~k ~dim vectors)
          (Oracle_kmeans.cluster (Rng.create seed) ~k ~dim vectors)
      in
      let ws = Kmeans.workspace ~max_k:k ~dim vectors in
      let rng = Rng.create seed and oracle_rng = Rng.create seed in
      fresh
      && List.for_all
           (fun k ->
             let got = Kmeans.run ws rng ~k in
             same got (Oracle_kmeans.cluster oracle_rng ~k ~dim vectors))
           (List.init k (fun i -> i + 1)))

(* [Kmeans.run] keeps each distance between Lloyd passes and sums again
   only the clusters whose members changed; the oracle measures every
   distance and sums every cluster on every pass. Many vectors drawn
   around a few centres, with bitwise copies among them, take several
   passes to settle, so rows move in some passes and stay in others. *)
let gen_clustered dim =
  QCheck.Gen.(
    int_range 1 4 >>= fun ncentres ->
    array_repeat ncentres (gen_sparse dim) >>= fun centres ->
    array_size (int_range 20 120)
      (pair
         (int_bound (ncentres - 1))
         (frequency [ (1, return None); (3, map Option.some (gen_sparse dim)) ]))
    >|= Array.map (fun (c, noise) ->
            match noise with
            | None -> Array.copy centres.(c)
            | Some v ->
              (* the centre plus a small sparse offset, merged by dimension *)
              let dense = Array.make dim None in
              Array.iter (fun (d, x) -> dense.(d) <- Some x) centres.(c);
              Array.iter
                (fun (d, x) ->
                  let base = Option.value dense.(d) ~default:0.0 in
                  dense.(d) <- Some (base +. (x /. 16.0)))
                v;
              Array.to_list dense
              |> List.mapi (fun d x -> Option.map (fun x -> (d, x)) x)
              |> List.filter_map Fun.id |> Array.of_list))

let same_clustering (got : Kmeans.clustering) (want : Oracle_kmeans.clustering) =
  got.Kmeans.assignment = want.Oracle_kmeans.assignment
  && bits got.Kmeans.inertia = bits want.Oracle_kmeans.inertia

let prop_distance_table_matches_full_recompute =
  QCheck.Test.make ~count:300 ~name:"kmeans distance table = full recompute bit for bit"
    QCheck.(
      make
        Gen.(
          int_range 1 8 >>= fun dim ->
          triple (int_range 1 12) (int_range 0 100_000) (gen_clustered dim)
          >|= fun (k, seed, vectors) -> (dim, k, seed, vectors)))
    (fun (dim, k, seed, vectors) ->
      let ws = Kmeans.workspace ~max_k:k ~dim vectors in
      let rng = Rng.create seed and oracle_rng = Rng.create seed in
      List.for_all
        (fun k ->
          same_clustering (Kmeans.run ws rng ~k)
            (Oracle_kmeans.cluster oracle_rng ~k ~dim vectors))
        (List.init k (fun i -> i + 1)))

(* Fewer distinct vectors than clusters: seeding draws copies, so some
   clusters end empty and keep their previous row. Over a range of
   seeds the runs must match the oracle, and some must end with an
   empty cluster, or the case was not reached. *)
let test_distance_table_empty_clusters () =
  let base =
    [| vec [ (0, 1.0) ]; vec [ (1, 1.0) ]; vec [ (0, 0.5); (2, -0.0) ] |]
  in
  let vectors = Array.init 30 (fun i -> Array.copy base.(i * 7 mod 3)) in
  let empties = ref 0 in
  for seed = 0 to 199 do
    let k = 2 + (seed mod 6) in
    let got = cluster (Rng.create seed) ~k ~dim:3 vectors in
    let want = Oracle_kmeans.cluster (Rng.create seed) ~k ~dim:3 vectors in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d, k %d matches the oracle" seed k)
      true (same_clustering got want);
    if
      List.exists
        (fun c -> not (Array.mem c got.Kmeans.assignment))
        (List.init k Fun.id)
    then incr empties
  done;
  Alcotest.(check bool) "some run ends with an empty cluster" true (!empties > 0)

(* A clustering owns its assignment: a later run on the same workspace
   does not write through it. *)
let test_kmeans_assignment_not_aliased () =
  let vectors = Array.init 12 (fun i -> vec [ (i mod 3, 1.0); (3, float_of_int i) ]) in
  let ws = Kmeans.workspace ~max_k:3 ~dim:4 vectors in
  let c = Kmeans.run ws (Rng.create 5) ~k:3 in
  let snapshot = Array.copy c.Kmeans.assignment in
  ignore (Kmeans.run ws (Rng.create 6) ~k:1);
  Alcotest.(check (array int)) "assignment unchanged" snapshot c.Kmeans.assignment;
  Alcotest.(check (array int)) "same run, same answer" snapshot
    (Kmeans.run ws (Rng.create 5) ~k:3).Kmeans.assignment

(* --- phase division --------------------------------------------------------- *)

(* Craft BBVs imitating two regimes: intervals 0..9 dominated by block 1
   (a loop: the trap), intervals 10..14 spread over distinct blocks. *)
let make_bbv index counts coverage : Bbv.t =
  let counts = List.sort (fun (a, _) (b, _) -> Int.compare a b) counts in
  {
    Bbv.index;
    t_start = index * 100;
    t_end = (index * 100) + 100;
    counts = Array.of_list counts;
    total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts;
    coverage;
  }

let two_regime_bbvs () =
  let looping = List.init 10 (fun i -> make_bbv i [ (1, 90); (2, 10) ] 20) in
  let exploring = List.init 5 (fun i -> make_bbv (10 + i) [ (10 + i, 50) ] (30 + (i * 10))) in
  looping @ exploring

let test_divide_finds_trap () =
  let division = Phase.divide (Rng.create 7) (two_regime_bbvs ()) in
  Alcotest.(check bool) "at least one trap" true (division.Phase.trap_count >= 1);
  (* the looping regime must be a trap phase *)
  let looping_cluster = division.Phase.assignment.(0) in
  let trap_of_looping =
    List.exists
      (fun p -> p.Phase.pid = looping_cluster && p.Phase.trap)
      division.Phase.phases
  in
  Alcotest.(check bool) "looping cluster is a trap" true trap_of_looping

let test_divide_phases_ordered_by_time () =
  let division = Phase.divide (Rng.create 7) (two_regime_bbvs ()) in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Phase.first_vtime <= b.Phase.first_vtime && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (ordered division.Phase.phases)

let test_trap_threshold () =
  Alcotest.(check int) "minimum 2" 2 (Phase.trap_run_threshold 10);
  Alcotest.(check int) "5 percent" 10 (Phase.trap_run_threshold 200)

let test_divide_empty_is_one_phase () =
  (* [divide] is total: no BBVs degrades to a single non-trap phase so
     the driver can still schedule everything in one queue *)
  let division = Phase.divide (Rng.create 1) [] in
  Alcotest.(check int) "k" 1 division.Phase.k;
  Alcotest.(check int) "one phase" 1 (List.length division.Phase.phases);
  Alcotest.(check int) "no traps" 0 division.Phase.trap_count;
  (match division.Phase.phases with
   | [ p ] -> Alcotest.(check bool) "not trap" false p.Phase.trap
   | _ -> Alcotest.fail "expected exactly one phase");
  (* every interval maps to the single phase *)
  Alcotest.(check (option int)) "interval mapped" (Some 0)
    (Phase.phase_of_interval division [] 17)

let test_phase_of_interval () =
  let bbvs = two_regime_bbvs () in
  let division = Phase.divide (Rng.create 7) bbvs in
  (match Phase.phase_of_interval division bbvs 0 with
   | Some pid -> Alcotest.(check int) "interval 0 in looping cluster"
                   division.Phase.assignment.(0) pid
   | None -> Alcotest.fail "interval 0 should map");
  (* an unrecorded later interval maps to the nearest earlier one *)
  match Phase.phase_of_interval division bbvs 100 with
  | Some pid ->
    Alcotest.(check int) "nearest earlier" division.Phase.assignment.(14) pid
  | None -> Alcotest.fail "interval 100 should map backwards"

let division_of_assignment assignment =
  {
    Phase.mode = Phase.Bbv_with_coverage;
    k = 1 + Array.fold_left max 0 assignment;
    assignment;
    phases = [];
    trap_count = 0;
  }

let test_phase_of_interval_duplicates () =
  (* out of order, with indices 1 and 4 each recorded twice under
     different clusters; the expected phases are what the linear scan
     over [bbvs] this lookup replaced returns *)
  let indices = [ 4; 1; 4; 7; 2; 1 ] in
  let bbvs = List.map (fun i -> make_bbv i [ (1, 1) ] 1) indices in
  let division = division_of_assignment [| 0; 1; 2; 3; 4; 5 |] in
  let lookup = Phase.phase_of_interval division bbvs in
  List.iter
    (fun (interval, want) ->
      Alcotest.(check (option int)) (Printf.sprintf "interval %d" interval) want
        (lookup interval))
    [
      (-1, None);
      (0, None);
      (1, Some 1);
      (2, Some 4);
      (3, Some 4);
      (4, Some 0);
      (5, Some 0);
      (6, Some 0);
      (7, Some 3);
      (8, Some 3);
      (100, Some 3);
    ]

(* Golden divisions: the default session's division of each target's
   smallest benign seed, opened with a one-hour (120k-unit) deadline.
   The values were captured on the reference k-means, before its
   distance kernel cached centroid norms; a change to the kernel's
   float arithmetic that moves an assignment fails here by name. *)
let golden_divisions =
  [
    ("readelf", 16, 12, "GGGGBBBBBBBBBBBGEEGGNFFFNNFNFNNFAKKAAKLLoPPKLDDDDjKHHcicMMM");
    ( "pngtest",
      3,
      3,
      "AAAAAAAAABBBAABBBAABBBAABBBAABBBAABBBBAAACCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC"
    );
    ("gif2tiff", 11, 8, "BBEEHHHCCCCgDFFDFFDFFDDFDDFDDFIIIIjAAAAAAAAAAAAAk");
    ( "tiff2rgba",
      4,
      4,
      "CCCCCCCCCCCCBBBBBBBBBBBBBBBBAAAAAAAABBBBBBBBBBBBAAAADDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD"
    );
    ("tiff2bw", 14, 7, "nKKIIIfDDGGBBBBBBBlCChCaChaChCCChCaChaChmEEEEEEj");
    ( "dwarfdump",
      8,
      5,
      "BBBBBBDDDDDDDDDBBBBBBBBBBBBBBBDDDDBBCCggCCCCCCggCCCCgCCCCCCCgCCCCfCCCCCCCCCCCCCEEEEEHEEHHHHHaaaHaaHHaaHaaaa"
    );
    ("tcpdump", 8, 5, "DDAAgBBBBBBBBBBfHHcEEEEEEEEEf");
  ]

let test_golden_divisions () =
  let module Registry = Pbse_targets.Registry in
  let module Session = Pbse_session.Session in
  List.iter
    (fun (name, k, traps, strip) ->
      let t = Option.get (Registry.by_name name) in
      let session =
        Session.open_session (Registry.program t) ~seed:(Registry.smallest_seed t)
          ~deadline:120_000
      in
      let division = (Session.finish_session session).Session.division in
      Alcotest.(check int) (name ^ " k") k division.Phase.k;
      Alcotest.(check int) (name ^ " trap_count") traps division.Phase.trap_count;
      Alcotest.(check string) (name ^ " strip") strip (Phase.render_strip division))
    golden_divisions

let test_render_strip () =
  let division = Phase.divide (Rng.create 7) (two_regime_bbvs ()) in
  let strip = Phase.render_strip division in
  Alcotest.(check int) "one char per bbv" 15 (String.length strip);
  Alcotest.(check bool) "has uppercase trap letters" true
    (String.exists (fun c -> c >= 'A' && c <= 'Z') strip)

(* Phase division works in compact coordinates: a strictly increasing
   relabelling of the block ids, spread up to 100k, changes no vector
   distance, so no k, assignment, trap or strip. *)
let prop_divide_invariant_under_relabelling =
  let gen =
    QCheck.Gen.(
      let pattern = list_size (int_range 1 6) (pair (int_bound 24) (int_range 1 50)) in
      quad (int_range 0 10_000)
        (array_repeat 25 (int_range 1 4_000))
        (array_size (int_range 1 6) pattern)
        (list_size (int_range 1 40) (pair (int_bound 100) (int_bound 60))))
  in
  QCheck.Test.make ~count:200 ~name:"divide invariant under block relabelling"
    (QCheck.make gen) (fun (seed, steps, patterns, picks) ->
      let relabel = Array.make 25 0 in
      Array.iteri
        (fun id step ->
          relabel.(id) <- (if id = 0 then step - 1 else relabel.(id - 1) + step))
        steps;
      let bbvs f =
        List.mapi
          (fun i (j, coverage) ->
            let counts =
              List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
                patterns.(j mod Array.length patterns)
            in
            make_bbv i (List.map (fun (id, c) -> (f id, c)) counts) coverage)
          picks
      in
      List.for_all
        (fun mode ->
          let a = Phase.divide ~mode (Rng.create seed) (bbvs Fun.id) in
          let b = Phase.divide ~mode (Rng.create seed) (bbvs (fun id -> relabel.(id))) in
          a.Phase.k = b.Phase.k
          && a.Phase.assignment = b.Phase.assignment
          && a.Phase.trap_count = b.Phase.trap_count
          && String.equal (Phase.render_strip a) (Phase.render_strip b))
        [ Phase.Bbv_with_coverage; Phase.Bbv_only ])

(* Block ids up to 10,000 once sized every centroid and sum array to the
   largest id, straight in the major heap (about 4M words for this
   division); compact coordinates and one workspace keep it small. *)
let test_divide_allocation_guard () =
  let ids r = List.init 8 (fun j -> 10_000 - (r * 1_250) - (j * 97)) in
  let bbvs =
    List.init 60 (fun i ->
        let r = i / 10 mod 4 in
        let counts = List.map (fun id -> (id, 1 + ((id + i) mod 5))) (ids r) in
        make_bbv i counts (10 + (i / 3)))
  in
  (* the runtime folds a domain's major allocations into its statistics
     at a minor collection *)
  let major_words () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words
  in
  let before = major_words () in
  let division = Phase.divide ~max_k:20 (Rng.create 1) bbvs in
  let words = major_words () -. before in
  Alcotest.(check int) "one char per bbv" 60
    (String.length (Phase.render_strip division));
  Alcotest.(check bool) (Printf.sprintf "%.0f major words < 200k" words) true
    (words < 200_000.)

(* The paper's Fig. 4 claim: adding the coverage element finds at least as
   many trap phases as plain BBVs on executions whose coverage stalls
   inside loops. *)
let test_coverage_mode_at_least_as_many_traps () =
  (* loop regime with *stalled* coverage vs exploration with rising
     coverage; the BBV profiles of the two loop bursts are identical so
     plain BBVs merge them with the exploration in-between *)
  let burst1 = List.init 6 (fun i -> make_bbv i [ (1, 80); (2, 20) ] 20) in
  let explore = List.init 3 (fun i -> make_bbv (6 + i) [ (30 + i, 10) ] (40 + (i * 15))) in
  let burst2 = List.init 6 (fun i -> make_bbv (9 + i) [ (1, 80); (2, 20) ] 90) in
  let bbvs = burst1 @ explore @ burst2 in
  let plain = Phase.divide ~mode:Phase.Bbv_only (Rng.create 11) bbvs in
  let augmented = Phase.divide ~mode:Phase.Bbv_with_coverage (Rng.create 11) bbvs in
  Alcotest.(check bool)
    (Printf.sprintf "augmented (%d) >= plain (%d)" augmented.Phase.trap_count
       plain.Phase.trap_count)
    true
    (augmented.Phase.trap_count >= plain.Phase.trap_count)

let suite =
  [
    Alcotest.test_case "kmeans single cluster" `Quick test_kmeans_single_cluster;
    Alcotest.test_case "kmeans separates groups" `Quick test_kmeans_separates_two_groups;
    Alcotest.test_case "kmeans deterministic" `Quick test_kmeans_deterministic;
    Alcotest.test_case "kmeans rejects bad input" `Quick test_kmeans_rejects_bad_input;
    Alcotest.test_case "kmeans assignment not aliased" `Quick
      test_kmeans_assignment_not_aliased;
    QCheck_alcotest.to_alcotest prop_cached_norm_kernel_bit_equal;
    QCheck_alcotest.to_alcotest prop_cluster_matches_oracle;
    QCheck_alcotest.to_alcotest prop_cluster_with_copies_matches_oracle;
    QCheck_alcotest.to_alcotest prop_distance_table_matches_full_recompute;
    Alcotest.test_case "kmeans distance table with empty clusters" `Quick
      test_distance_table_empty_clusters;
    Alcotest.test_case "divide finds trap" `Quick test_divide_finds_trap;
    Alcotest.test_case "phases ordered by time" `Quick test_divide_phases_ordered_by_time;
    Alcotest.test_case "trap threshold" `Quick test_trap_threshold;
    Alcotest.test_case "divide empty is one phase" `Quick
      test_divide_empty_is_one_phase;
    Alcotest.test_case "phase of interval" `Quick test_phase_of_interval;
    Alcotest.test_case "phase of interval duplicates" `Quick
      test_phase_of_interval_duplicates;
    Alcotest.test_case "golden phase divisions" `Quick test_golden_divisions;
    Alcotest.test_case "render strip" `Quick test_render_strip;
    Alcotest.test_case "coverage mode finds more traps" `Quick
      test_coverage_mode_at_least_as_many_traps;
    QCheck_alcotest.to_alcotest prop_kmeans_assignment_in_range;
    QCheck_alcotest.to_alcotest prop_divide_invariant_under_relabelling;
    Alcotest.test_case "divide allocation guard" `Quick test_divide_allocation_guard;
  ]
