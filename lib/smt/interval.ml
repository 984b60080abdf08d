type t = {
  lo : int64;
  hi : int64;
}

let make lo hi =
  if Int64.unsigned_compare lo hi > 0 then invalid_arg "Interval.make: lo >u hi";
  { lo; hi }
