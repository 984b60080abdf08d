type t = {
  covered : bool array;
  mutable count : int;
  mutable version : int;
}

let create nblocks = { covered = Array.make nblocks false; count = 0; version = 0 }

let cover t gid =
  if t.covered.(gid) then false
  else begin
    t.covered.(gid) <- true;
    t.count <- t.count + 1;
    t.version <- t.version + 1;
    true
  end

let is_covered t gid = t.covered.(gid)
let count t = t.count
let version t = t.version

let covered_ids t =
  let acc = ref [] in
  for gid = Array.length t.covered - 1 downto 0 do
    if t.covered.(gid) then acc := gid :: !acc
  done;
  !acc
