(* Reused scratch of one solver's query preprocessing and group search:
   the component closure's visited bytes, constraints and breadth-first
   queue, the independence grouping's union-find and groups, and the
   search's byte domains. Every mark carries the epoch it was made in, so
   [reset] voids them all in O(1), also after a call that [Out_of_budget]
   cut short. Per-byte arrays are indexed by input byte and grow on
   demand; expression ids are process-wide and unbounded, so visited
   constraints live in an open-addressed set. *)

type domains = {
  mutable near_mask : Bytes.t;
  mutable dlo : int array;
  mutable dhi : int array;
  mutable assigned : int array;
  mutable near : int array;
  mutable near_len : int array;
}

type t = {
  mutable epoch : int;
  mutable byte_epoch : int array; (* byte -> epoch of its visit or parent link *)
  mutable parent : int array; (* union-find parent, valid when [byte_epoch] is current *)
  mutable root_epoch : int array; (* root byte -> epoch its group was opened in *)
  mutable root_slot : int array; (* root byte -> its group's slot *)
  mutable queue : int array; (* visited bytes, in visit order *)
  mutable qhead : int;
  mutable qtail : int;
  mutable id_keys : int array; (* open-addressed set of visited expression ids *)
  mutable id_epoch : int array;
  mutable id_count : int;
  mutable roots : int array; (* slot -> root byte *)
  mutable members : Expr.t list array; (* slot -> constraints, newest first *)
  mutable buckets : int array; (* slot -> bucket in the reference table *)
  mutable order : int array;
  mutable ngroups : int;
  search : domains;
}

let create () =
  {
    epoch = 0;
    byte_epoch = Array.make 256 0;
    parent = Array.make 256 0;
    root_epoch = Array.make 256 0;
    root_slot = Array.make 256 0;
    queue = Array.make 64 0;
    qhead = 0;
    qtail = 0;
    id_keys = Array.make 128 0;
    id_epoch = Array.make 128 0;
    id_count = 0;
    roots = Array.make 16 0;
    members = Array.make 16 [];
    buckets = Array.make 16 0;
    order = Array.make 16 0;
    ngroups = 0;
    search =
      {
        near_mask = Bytes.empty;
        dlo = [||];
        dhi = [||];
        assigned = [||];
        near = [||];
        near_len = [||];
      };
  }

let reset w =
  w.epoch <- w.epoch + 1;
  w.qhead <- 0;
  w.qtail <- 0;
  w.id_count <- 0;
  w.ngroups <- 0

let grown a n fill =
  let b = Array.make (Int.max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Make every per-byte array hold byte [v]. *)
let fit_byte w v =
  if v >= Array.length w.byte_epoch then begin
    let n = v + 1 in
    w.byte_epoch <- grown w.byte_epoch n 0;
    w.parent <- grown w.parent n 0;
    w.root_epoch <- grown w.root_epoch n 0;
    w.root_slot <- grown w.root_slot n 0
  end

(* --- closure ------------------------------------------------------------- *)

let visit_byte w v =
  fit_byte w v;
  if w.byte_epoch.(v) <> w.epoch then begin
    w.byte_epoch.(v) <- w.epoch;
    if w.qtail >= Array.length w.queue then w.queue <- grown w.queue (w.qtail + 1) 0;
    w.queue.(w.qtail) <- v;
    w.qtail <- w.qtail + 1
  end

let visited w = Array.sub w.queue 0 w.qtail

let next_byte w =
  if w.qhead >= w.qtail then -1
  else begin
    let v = w.queue.(w.qhead) in
    w.qhead <- w.qhead + 1;
    v
  end

let slot_of mask id = (id * 0x2545F491) land mask

let rec probe (keys : int array) (epochs : int array) (epoch : int) mask (id : int) i =
  if epochs.(i) <> epoch || keys.(i) = id then i
  else probe keys epochs epoch mask id ((i + 1) land mask)

let rehash w =
  let keys = w.id_keys and epochs = w.id_epoch in
  let n = 2 * Array.length keys in
  let nkeys = Array.make n 0 and nepochs = Array.make n 0 in
  let mask = n - 1 in
  for i = 0 to Array.length keys - 1 do
    if epochs.(i) = w.epoch then begin
      let j = probe nkeys nepochs w.epoch mask keys.(i) (slot_of mask keys.(i)) in
      nkeys.(j) <- keys.(i);
      nepochs.(j) <- w.epoch
    end
  done;
  w.id_keys <- nkeys;
  w.id_epoch <- nepochs

let visit_id w id =
  let mask = Array.length w.id_keys - 1 in
  let i = probe w.id_keys w.id_epoch w.epoch mask id (slot_of mask id) in
  if w.id_epoch.(i) = w.epoch then false
  else begin
    w.id_keys.(i) <- id;
    w.id_epoch.(i) <- w.epoch;
    w.id_count <- w.id_count + 1;
    if 2 * w.id_count > Array.length w.id_keys then rehash w;
    true
  end

(* --- grouping ------------------------------------------------------------ *)

let rec find w v =
  if v >= Array.length w.byte_epoch || w.byte_epoch.(v) <> w.epoch then v
  else begin
    let p = w.parent.(v) in
    let root = find w p in
    if root <> p then w.parent.(v) <- root;
    root
  end

let union w a b =
  let ra = find w a and rb = find w b in
  if ra <> rb then begin
    fit_byte w ra;
    w.byte_epoch.(ra) <- w.epoch;
    w.parent.(ra) <- rb
  end

let add_to_group w root e =
  fit_byte w root;
  if w.root_epoch.(root) = w.epoch then begin
    let s = w.root_slot.(root) in
    w.members.(s) <- e :: w.members.(s)
  end
  else begin
    let s = w.ngroups in
    if s >= Array.length w.roots then begin
      w.roots <- grown w.roots (s + 1) 0;
      w.members <- grown w.members (s + 1) [];
      w.buckets <- grown w.buckets (s + 1) 0;
      w.order <- grown w.order (s + 1) 0
    end;
    w.root_epoch.(root) <- w.epoch;
    w.root_slot.(root) <- s;
    w.roots.(s) <- root;
    w.members.(s) <- [ e ];
    w.ngroups <- s + 1
  end

(* The groups in the order [Hashtbl.fold] lists them from a fresh
   [Hashtbl.create 16] keyed by root, into which each root was added when
   its first constraint was: that order fixes the order in which a query
   searches its groups, and so its charges. Such a table has 16 buckets
   and doubles when it holds more than twice as many bindings; a root
   lands in bucket [Hashtbl.hash root] modulo the bucket count, at the
   front of it, and a resize keeps each bucket's order. [fold] walks the
   buckets upward, each front to back, and conses: the result runs
   through the buckets downward, each in insertion order. *)
let groups w =
  let n = w.ngroups in
  let result =
    if n = 1 then [ w.members.(0) ]
    else begin
      let nbuckets = ref 16 in
      while n > 2 * !nbuckets do
        nbuckets := 2 * !nbuckets
      done;
      let mask = !nbuckets - 1 in
      for s = 0 to n - 1 do
        w.buckets.(s) <- Hashtbl.hash w.roots.(s) land mask
      done;
      (* insertion sort into walk order: bucket upward, newest first *)
      let order = w.order and buckets = w.buckets in
      for s = 0 to n - 1 do
        let j = ref s in
        while !j > 0 && buckets.(order.(!j - 1)) >= buckets.(s) do
          order.(!j) <- order.(!j - 1);
          decr j
        done;
        order.(!j) <- s
      done;
      let acc = ref [] in
      for i = 0 to n - 1 do
        acc := w.members.(order.(i)) :: !acc
      done;
      !acc
    end
  in
  for s = 0 to n - 1 do
    w.members.(s) <- []
  done;
  result

(* --- group search ---------------------------------------------------------- *)

let domains w n =
  let d = w.search in
  if n > Array.length d.dlo then begin
    let n = Int.max n (2 * Array.length d.dlo) in
    d.near_mask <- Bytes.make (256 * n) '\000';
    d.dlo <- Array.make n 0;
    d.dhi <- Array.make n 0;
    d.assigned <- Array.make n 0;
    d.near <- Array.make (16 * n) 0;
    d.near_len <- Array.make n 0
  end;
  d
