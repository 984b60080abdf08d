(* Flat evaluation tapes: one path constraint compiled into a postorder
   array of steps over numbered slots, evaluated either exactly (64-bit
   values) or as unsigned intervals. Slots [0, nreads) are the input
   bytes the constraint reads, in sorted order; the constants follow;
   every other distinct DAG node has one slot after them, in postorder,
   computed by [code.(slot - first)]. Registers are unboxed int64 cells
   of Bigarrays, reused by every evaluation of the tape: the compiler
   reads and writes them inline, with no box and no bounds check. *)

open Pbse_ir.Types

type step =
  | Bin of binop * int * int
  | Or_add of int * int
      (* disjoint possible bits: exactly an or, as an interval an
         addition, which the interval arithmetic tracks exactly — crucial
         for multi-byte field reads composed as (b0 | b1 << 8 | ...) *)
  | Un of unop * int
  | Ite of int * int * int

type registers = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  reads : int array; (* sorted distinct input indices; read k is slot k *)
  first : int; (* first computed slot *)
  code : step array; (* code.(j) computes slot first + j *)
  root : int;
  lo : registers; (* interval registers *)
  hi : registers;
  value : registers; (* exact registers *)
}

(* Every slot a step names is below the register count (compile's
   numbering), and a read index is checked when it is set. *)
let[@inline] get (r : registers) s = Bigarray.Array1.unsafe_get r s
let[@inline] set (r : registers) s x = Bigarray.Array1.unsafe_set r s x

let rec search_sorted (a : int array) (v : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = a.(mid) in
    if x = v then mid
    else if x < v then search_sorted a v (mid + 1) hi
    else search_sorted a v lo mid

let compile (e : Expr.t) =
  (* one postorder pass over the DAG: each node is visited once; [seen]
     maps a constant to its index among the constants and a computed
     node to its index among the computed ones *)
  let seen = Hashtbl.create 64 in
  let read_list = ref [] and consts = ref [] and inner = ref [] in
  let nconsts = ref 0 and ninner = ref 0 in
  let rec visit (x : Expr.t) =
    if not (Hashtbl.mem seen x.Expr.id) then
      match x.Expr.node with
      | Expr.Read i ->
        Hashtbl.add seen x.Expr.id 0;
        read_list := i :: !read_list
      | Expr.Const c ->
        Hashtbl.add seen x.Expr.id !nconsts;
        consts := c :: !consts;
        incr nconsts
      | Expr.Bin (_, a, b) ->
        visit a;
        visit b;
        computed x
      | Expr.Un (_, a) ->
        visit a;
        computed x
      | Expr.Ite (c, a, b) ->
        visit c;
        visit a;
        visit b;
        computed x
  and computed x =
    Hashtbl.add seen x.Expr.id !ninner;
    inner := x :: !inner;
    incr ninner
  in
  visit e;
  let reads = Array.of_list (List.sort_uniq Int.compare !read_list) in
  let nreads = Array.length reads in
  let first = nreads + !nconsts in
  let slot (x : Expr.t) =
    match x.Expr.node with
    | Expr.Read i -> search_sorted reads i 0 nreads
    | Expr.Const _ -> nreads + Hashtbl.find seen x.Expr.id
    | Expr.Bin _ | Expr.Un _ | Expr.Ite _ -> first + Hashtbl.find seen x.Expr.id
  in
  let code =
    Array.of_list
      (List.rev_map
         (fun (x : Expr.t) ->
           match x.Expr.node with
           | Expr.Bin (Or, a, b) when Int64.logand a.Expr.bits b.Expr.bits = 0L ->
             Or_add (slot a, slot b)
           | Expr.Bin (op, a, b) -> Bin (op, slot a, slot b)
           | Expr.Un (op, a) -> Un (op, slot a)
           | Expr.Ite (c, a, b) -> Ite (slot c, slot a, slot b)
           | Expr.Const _ | Expr.Read _ -> assert false)
         !inner)
  in
  let registers () =
    let r = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (first + !ninner) in
    Bigarray.Array1.fill r 0L;
    r
  in
  let t =
    {
      reads;
      first;
      code;
      root = slot e;
      lo = registers ();
      hi = registers ();
      value = registers ();
    }
  in
  (* constants sit in every register file for good *)
  List.iteri
    (fun j c ->
      let s = first - 1 - j in
      set t.lo s c;
      set t.hi s c;
      set t.value s c)
    !consts;
  t

let reads t = t.reads

let check_read t k =
  if k < 0 || k >= Array.length t.reads then invalid_arg "Tape: no such read"

let set_interval t k lo hi =
  check_read t k;
  set t.lo k (Int64.of_int lo);
  set t.hi k (Int64.of_int hi)

let set_value t k v =
  check_read t k;
  set t.value k (Int64.of_int (v land 0xFF))

(* --- the interval step ----------------------------------------------------

   Sound unsigned interval analysis: slot [s] holds every value [v] with
   [lo <=u v <=u hi]. Signed operators are handled precisely when
   operands provably stay in the non-negative half-range and
   conservatively otherwise. Every helper is inlined into [interval_bin]
   so the bounds stay unboxed. *)

let[@inline] ucmp a b = Int64.unsigned_compare a b
let[@inline] umin a b = if ucmp a b <= 0 then a else b
let[@inline] umax a b = if ucmp a b >= 0 then a else b

let[@inline] write t s lo hi =
  set t.lo s lo;
  set t.hi s hi

let[@inline] top t s = write t s 0L (-1L)
let[@inline] bool_any t s = write t s 0L 1L
let[@inline] bool_of t s b = if b then write t s 1L 1L else write t s 0L 0L

(* Whether every value lies in the non-negative signed half-range, i.e.
   signed and unsigned orders coincide on it. *)
let[@inline] nonneg hi = hi >= 0L

let[@inline] add_overflows a b = ucmp (Int64.add a b) a < 0

let[@inline] mul_overflows a b =
  a <> 0L && b <> 0L && ucmp (Semantics.unsigned_div (-1L) a) b < 0

(* Smallest all-ones mask covering v (unsigned). *)
let[@inline] mask_above v =
  let v = Int64.logor v (Int64.shift_right_logical v 1) in
  let v = Int64.logor v (Int64.shift_right_logical v 2) in
  let v = Int64.logor v (Int64.shift_right_logical v 4) in
  let v = Int64.logor v (Int64.shift_right_logical v 8) in
  let v = Int64.logor v (Int64.shift_right_logical v 16) in
  Int64.logor v (Int64.shift_right_logical v 32)

let[@inline] shift_left_total a n = if n >= 64 || n < 0 then 0L else Int64.shift_left a n

let[@inline] shift_right_total a n =
  if n >= 64 || n < 0 then 0L else Int64.shift_right_logical a n

(* Every value is strictly negative when read as signed — the common
   shape of "x - k" encoded as x + (-k). The [neg hi > 0] conjunct
   excludes [min_int], whose negation is itself, so the negated interval
   [(neg hi, neg lo)] is strictly positive and never rewritten again. *)
let[@inline] all_negative lo hi = lo < 0L && Int64.neg hi > 0L

let[@inline] add_plain t s alo ahi blo bhi =
  if add_overflows ahi bhi then top t s
  else write t s (Int64.add alo blo) (Int64.add ahi bhi)

let[@inline] sub_plain t s alo ahi blo bhi =
  if ucmp alo bhi >= 0 then write t s (Int64.sub alo bhi) (Int64.sub ahi blo) else top t s

let[@inline] lshr t s alo ahi blo bhi =
  let lo = if ucmp bhi 64L >= 0 then 0L else shift_right_total alo (Int64.to_int bhi) in
  write t s lo (shift_right_total ahi (Int64.to_int (umin blo 63L)))

(* Division and remainder by a possibly-zero divisor: our total semantics
   yields 0 or the dividend, both within [0, ahi]. *)
let[@inline] rem t s ahi blo bhi =
  if blo = 0L then write t s 0L ahi else write t s 0L (umin ahi (Int64.sub bhi 1L))

let[@inline] ult t s alo ahi blo bhi =
  if ucmp ahi blo < 0 then write t s 1L 1L
  else if ucmp bhi alo <= 0 then write t s 0L 0L
  else bool_any t s

let[@inline] ule t s alo ahi blo bhi =
  if ucmp ahi blo <= 0 then write t s 1L 1L
  else if ucmp bhi alo < 0 then write t s 0L 0L
  else bool_any t s

let interval_bin t s op x y =
  let alo = get t.lo x and ahi = get t.hi x and blo = get t.lo y and bhi = get t.hi y in
  match op with
  | Add ->
    (* x + (-k) is x - k; rewriting keeps loop-counter bounds precise *)
    if all_negative blo bhi then sub_plain t s alo ahi (Int64.neg bhi) (Int64.neg blo)
    else if all_negative alo ahi then
      sub_plain t s blo bhi (Int64.neg ahi) (Int64.neg alo)
    else add_plain t s alo ahi blo bhi
  | Sub ->
    if all_negative blo bhi then begin
      (* a + (-b), where -b is strictly positive *)
      let nlo = Int64.neg bhi and nhi = Int64.neg blo in
      if all_negative alo ahi then sub_plain t s nlo nhi (Int64.neg ahi) (Int64.neg alo)
      else add_plain t s alo ahi nlo nhi
    end
    else sub_plain t s alo ahi blo bhi
  | Mul ->
    if mul_overflows ahi bhi then top t s
    else write t s (Int64.mul alo blo) (Int64.mul ahi bhi)
  | Udiv ->
    if blo = 0L then write t s 0L ahi
    else write t s (Semantics.unsigned_div alo bhi) (Semantics.unsigned_div ahi blo)
  | Urem -> rem t s ahi blo bhi
  | Sdiv ->
    if nonneg ahi && nonneg bhi then
      if blo = 0L then write t s 0L ahi
      else write t s (Int64.div alo bhi) (Int64.div ahi blo)
    else top t s
  | Srem -> if nonneg ahi && nonneg bhi then rem t s ahi blo bhi else top t s
  | And -> write t s 0L (umin ahi bhi)
  | Or -> write t s (umax alo blo) (mask_above (Int64.logor ahi bhi))
  | Xor -> write t s 0L (mask_above (Int64.logor ahi bhi))
  | Shl ->
    if blo <> bhi then top t s
    else if ucmp blo 64L < 0 then begin
      let n = Int64.to_int blo in
      if ahi <> 0L && ucmp ahi (shift_right_total (-1L) n) > 0 then top t s
      else write t s (shift_left_total alo n) (shift_left_total ahi n)
    end
    else write t s 0L 0L
  | Lshr -> lshr t s alo ahi blo bhi
  | Ashr -> if nonneg ahi then lshr t s alo ahi blo bhi else top t s
  | Eq ->
    if alo = ahi && blo = bhi then bool_of t s (alo = blo)
    else if ucmp ahi blo < 0 || ucmp bhi alo < 0 then write t s 0L 0L
    else bool_any t s
  | Ne ->
    if alo = ahi && blo = bhi then bool_of t s (alo <> blo)
    else if ucmp ahi blo < 0 || ucmp bhi alo < 0 then write t s 1L 1L
    else bool_any t s
  | Ult -> ult t s alo ahi blo bhi
  | Ule -> ule t s alo ahi blo bhi
  | Slt -> if nonneg ahi && nonneg bhi then ult t s alo ahi blo bhi else bool_any t s
  | Sle -> if nonneg ahi && nonneg bhi then ule t s alo ahi blo bhi else bool_any t s

(* Sign extension is the identity while the sign bit stays clear. *)
let[@inline] sext t s lo hi limit =
  if ucmp hi limit <= 0 then write t s lo hi else top t s

let[@inline] trunc t s lo hi mask =
  if ucmp hi mask <= 0 then write t s lo hi else write t s 0L mask

let interval_un t s op x =
  let lo = get t.lo x and hi = get t.hi x in
  match op with
  | Neg -> if lo = 0L && hi = 0L then write t s 0L 0L else top t s
  | Not ->
    (* complement reverses unsigned order *)
    write t s (Int64.lognot hi) (Int64.lognot lo)
  | Sext8 -> sext t s lo hi 0x7FL
  | Sext16 -> sext t s lo hi 0x7FFFL
  | Sext32 -> sext t s lo hi 0x7FFFFFFFL
  | Trunc8 -> trunc t s lo hi 0xFFL
  | Trunc16 -> trunc t s lo hi 0xFFFFL
  | Trunc32 -> trunc t s lo hi 0xFFFFFFFFL

let run_interval t =
  let code = t.code in
  for j = 0 to Array.length code - 1 do
    let s = t.first + j in
    match Array.unsafe_get code j with
    | Bin (op, x, y) -> interval_bin t s op x y
    | Or_add (x, y) -> interval_bin t s Add x y
    | Un (op, x) -> interval_un t s op x
    | Ite (c, x, y) ->
      if get t.lo c <> 0L then write t s (get t.lo x) (get t.hi x)
      else if get t.hi c = 0L then write t s (get t.lo y) (get t.hi y)
      else write t s (umin (get t.lo x) (get t.lo y)) (umax (get t.hi x) (get t.hi y))
  done

let falsified t =
  run_interval t;
  get t.lo t.root = 0L && get t.hi t.root = 0L

let interval t =
  run_interval t;
  Interval.make (get t.lo t.root) (get t.hi t.root)

(* --- trimming a read's range ----------------------------------------------

   Every interval step but one is inclusion-isotone: narrower operands
   give a narrower result. The exception is the [all_negative] rewrite
   of [Add], [Sub] and [Or_add], which picks its arithmetic from the
   operands' signs: on [(in[0] << 56) + 1 == 0] the run over read values
   [127, 254] is falsified, yet the point run at 129 is not. While every
   operand of those steps lies in one sign half, below [2^63] or
   strictly above it, each point of the range takes the range's
   branches, so a falsified range run proves every point run in it
   falsified. *)

let[@inline] one_sign_half lo hi = hi >= 0L || (lo < 0L && lo <> Int64.min_int)

let[@inline] operand_halves t x = one_sign_half (get t.lo x) (get t.hi x)

let rec sign_guarded t (code : step array) j =
  j >= Array.length code
  || (match Array.unsafe_get code j with
      | Bin ((Add | Sub), x, y) | Or_add (x, y) ->
        operand_halves t x && operand_halves t y
      | Bin _ | Un _ | Ite _ -> true)
     && sign_guarded t code (j + 1)

(* Read [k] over the bytes [a, b] falsifies the constraint at every one
   of them: a point run when [a = b], a sign-guarded range run
   otherwise. *)
let proven t k a b =
  set t.lo k (Int64.of_int a);
  set t.hi k (Int64.of_int b);
  run_interval t;
  get t.lo t.root = 0L
  && get t.hi t.root = 0L
  && (a = b || sign_guarded t t.code 0)

(* Upward: every byte in [lo, v) is falsified. [first_from] gallops,
   trying [v, v + w - 1] and doubling [w] on success; [first_in] halves
   a range [v, b] that was not proven, down to a point, and a falsified
   point starts a new gallop after it. *)
let rec first_from t k v w hi =
  if v > hi then v
  else
    let b = Int.min (v + w - 1) hi in
    if proven t k v b then first_from t k (b + 1) (2 * w) hi
    else if b = v then v
    else first_in t k v b hi

and first_in t k v b hi =
  if v = b then if proven t k v v then first_from t k (v + 1) 1 hi else v
  else
    let m = v + ((b - v + 1) / 2) - 1 in
    if proven t k v m then first_in t k (m + 1) b hi else first_in t k v m hi

(* Downward, the mirror image: every byte in (v, hi] is falsified. *)
let rec last_from t k v w lo =
  if v < lo then v
  else
    let a = Int.max (v - w + 1) lo in
    if proven t k a v then last_from t k (a - 1) (2 * w) lo
    else if a = v then v
    else last_in t k a v lo

and last_in t k a v lo =
  if a = v then if proven t k v v then last_from t k (v - 1) 1 lo else v
  else
    let m = v - ((v - a + 1) / 2) + 1 in
    if proven t k m v then last_in t k a (m - 1) lo else last_in t k m v lo

(* Two point runs before the first block: a trim of one value costs
   what the walk pays. *)
let first_unfalsified t k lo hi =
  check_read t k;
  if lo > hi || not (proven t k lo lo) then lo else first_from t k (lo + 1) 1 hi

let last_unfalsified t k lo hi =
  check_read t k;
  if lo > hi || not (proven t k hi hi) then hi else last_from t k (hi - 1) 1 lo

(* --- the exact step ------------------------------------------------------- *)

let run_exact t =
  let code = t.code and r = t.value in
  for j = 0 to Array.length code - 1 do
    let s = t.first + j in
    match Array.unsafe_get code j with
    | Bin (op, x, y) -> set r s (Semantics.binop op (get r x) (get r y))
    | Or_add (x, y) -> set r s (Semantics.binop Or (get r x) (get r y))
    | Un (op, x) -> set r s (Semantics.unop op (get r x))
    | Ite (c, x, y) -> set r s (if Semantics.truthy (get r c) then get r x else get r y)
  done

let holds t =
  run_exact t;
  Semantics.truthy (get t.value t.root)

let value t =
  run_exact t;
  get t.value t.root
