open Pbse_ir.Types

let[@inline] bool_val b = if b then 1L else 0L

(* Whether a shift by [b] moves every bit out (amounts of 64 or more). *)
let[@inline] shifts_out b = Int64.unsigned_compare b 64L >= 0

(* Unsigned division and remainder by a nonzero [d], as the standard
   library computes them, written here so that a caller inlining [binop]
   keeps every operand and result unboxed. *)
let[@inline] unsigned_div n d =
  if d < 0L then if Int64.unsigned_compare n d < 0 then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if Int64.unsigned_compare r d >= 0 then Int64.succ q else q

let[@inline] unsigned_rem n d = Int64.sub n (Int64.mul (unsigned_div n d) d)

let[@inline] binop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Udiv -> if b = 0L then 0L else unsigned_div a b
  | Sdiv ->
    if b = 0L then 0L
    else if a = Int64.min_int && b = -1L then Int64.min_int
    else Int64.div a b
  | Urem -> if b = 0L then a else unsigned_rem a b
  | Srem ->
    if b = 0L then a else if a = Int64.min_int && b = -1L then 0L else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> if shifts_out b then 0L else Int64.shift_left a (Int64.to_int b)
  | Lshr -> if shifts_out b then 0L else Int64.shift_right_logical a (Int64.to_int b)
  | Ashr ->
    if shifts_out b then if a < 0L then -1L else 0L
    else Int64.shift_right a (Int64.to_int b)
  | Eq -> bool_val (a = b)
  | Ne -> bool_val (a <> b)
  | Ult -> bool_val (Int64.unsigned_compare a b < 0)
  | Ule -> bool_val (Int64.unsigned_compare a b <= 0)
  | Slt -> bool_val (a < b)
  | Sle -> bool_val (a <= b)

let[@inline] unop op a =
  match op with
  | Neg -> Int64.neg a
  | Not -> Int64.lognot a
  | Sext8 -> Int64.shift_right (Int64.shift_left a 56) 56
  | Sext16 -> Int64.shift_right (Int64.shift_left a 48) 48
  | Sext32 -> Int64.shift_right (Int64.shift_left a 32) 32
  | Trunc8 -> Int64.logand a 0xFFL
  | Trunc16 -> Int64.logand a 0xFFFFL
  | Trunc32 -> Int64.logand a 0xFFFFFFFFL

let[@inline] truthy v = v <> 0L
