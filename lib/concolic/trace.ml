(* [index.(gid)] is gid's plot index, -1 until first sight; the array
   grows (doubling) to cover the largest gid seen. *)
type indexer = {
  mutable next : int;
  mutable index : int array;
}

let indexer () = { next = 0; index = Array.make 512 (-1) }

let index_of ix gid =
  if gid < 0 then invalid_arg "Trace.record: negative gid";
  if gid >= Array.length ix.index then begin
    let len = ref (Array.length ix.index) in
    while !len <= gid do
      len := 2 * !len
    done;
    let index = Array.make !len (-1) in
    Array.blit ix.index 0 index 0 (Array.length ix.index);
    ix.index <- index
  end;
  let i = ix.index.(gid) in
  if i >= 0 then i
  else begin
    let i = ix.next in
    ix.next <- i + 1;
    ix.index.(gid) <- i;
    i
  end

let assigned ix = ix.next

type point = {
  vtime : int;
  bb : int;
}

(* Entries in two parallel arrays, oldest first, doubled when full;
   the first [len] cells are live. [points] builds the records on
   demand. *)
type t = {
  ix : indexer;
  mutable vtimes : int array;
  mutable bbs : int array;
  mutable len : int;
}

let create ix = { ix; vtimes = Array.make 1024 0; bbs = Array.make 1024 0; len = 0 }

let record t ~vtime ~gid =
  let bb = index_of t.ix gid in
  if t.len = Array.length t.vtimes then begin
    let grow a =
      let b = Array.make (2 * t.len) 0 in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.vtimes <- grow t.vtimes;
    t.bbs <- grow t.bbs
  end;
  t.vtimes.(t.len) <- vtime;
  t.bbs.(t.len) <- bb;
  t.len <- t.len + 1

let points t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) ({ vtime = t.vtimes.(i); bb = t.bbs.(i) } :: acc)
  in
  build (t.len - 1) []

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "vtime,bb\n";
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "%d,%d\n" p.vtime p.bb))
    (points t);
  Buffer.contents buf
