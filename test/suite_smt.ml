open Pbse_smt
module T = Pbse_ir.Types

(* A reference AST that mirrors Expr but is built and evaluated without any
   simplification; qcheck compares the two evaluators, which verifies every
   smart-constructor rewrite against Semantics. *)
type spec =
  | Sconst of int64
  | Sread of int
  | Sbin of T.binop * spec * spec
  | Sun of T.unop * spec
  | Site of spec * spec * spec

let rec build = function
  | Sconst c -> Expr.const c
  | Sread i -> Expr.read i
  | Sbin (op, a, b) -> Expr.bin op (build a) (build b)
  | Sun (op, a) -> Expr.un op (build a)
  | Site (c, t, e) -> Expr.ite (build c) (build t) (build e)

let rec ref_eval lookup = function
  | Sconst c -> c
  | Sread i -> Int64.of_int (lookup i land 0xFF)
  | Sbin (op, a, b) -> Semantics.binop op (ref_eval lookup a) (ref_eval lookup b)
  | Sun (op, a) -> Semantics.unop op (ref_eval lookup a)
  | Site (c, t, e) ->
    if Semantics.truthy (ref_eval lookup c) then ref_eval lookup t else ref_eval lookup e

let all_binops =
  [
    T.Add; T.Sub; T.Mul; T.Udiv; T.Sdiv; T.Urem; T.Srem; T.And; T.Or; T.Xor;
    T.Shl; T.Lshr; T.Ashr; T.Eq; T.Ne; T.Ult; T.Ule; T.Slt; T.Sle;
  ]

let all_unops = [ T.Neg; T.Not; T.Sext8; T.Sext16; T.Sext32; T.Trunc8; T.Trunc16; T.Trunc32 ]

let gen_spec nvars =
  let open QCheck.Gen in
  let const_gen =
    oneof
      [
        map Int64.of_int (int_range (-4) 260);
        oneofl [ 0L; 1L; -1L; 0xFFL; 0xFFFFL; 0x100L; Int64.max_int; Int64.min_int; 64L; 63L ];
      ]
  in
  let leaf =
    oneof [ map (fun c -> Sconst c) const_gen; map (fun i -> Sread i) (int_range 0 (nvars - 1)) ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (1, leaf);
            ( 4,
              map3
                (fun op a b -> Sbin (op, a, b))
                (oneofl all_binops) (self (n / 2)) (self (n / 2)) );
            (2, map2 (fun op a -> Sun (op, a)) (oneofl all_unops) (self (n - 1)));
            ( 1,
              map3 (fun c t e -> Site (c, t, e)) (self (n / 3)) (self (n / 3)) (self (n / 3))
            );
          ])
    6

let gen_bytes nvars = QCheck.Gen.(array_size (return nvars) (int_range 0 255))

let arb_spec_and_bytes nvars =
  QCheck.make
    QCheck.Gen.(pair (gen_spec nvars) (gen_bytes nvars))

let prop_simplifier_sound =
  QCheck.Test.make ~count:2000 ~name:"expr simplifier agrees with reference semantics"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let lookup i = bytes.(i) in
      Int64.equal (Expr.eval lookup (build spec)) (ref_eval lookup spec))

let prop_lognot_negates =
  QCheck.Test.make ~count:1000 ~name:"lognot flips truthiness"
    (arb_spec_and_bytes 3)
    (fun (spec, bytes) ->
      let lookup i = bytes.(i) in
      let e = build spec in
      Bool.equal
        (Semantics.truthy (Expr.eval lookup (Expr.lognot e)))
        (not (Semantics.truthy (Expr.eval lookup e))))

let contains (iv : Interval.t) v =
  Int64.unsigned_compare iv.lo v <= 0 && Int64.unsigned_compare v iv.hi <= 0

(* [e]'s interval on its tape, read [k] (input byte [i]) ranging over
   [bound i]. *)
let tape_interval e bound =
  let tape = Tape.compile e in
  Array.iteri
    (fun k i ->
      let lo, hi = bound i in
      Tape.set_interval tape k lo hi)
    (Tape.reads tape);
  Tape.interval tape

let prop_interval_sound =
  QCheck.Test.make ~count:2000 ~name:"interval analysis bounds concrete evaluation"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let e = build spec in
      let iv = tape_interval e (fun _ -> (0, 255)) in
      contains iv (Expr.eval (fun i -> bytes.(i)) e))

let prop_interval_point_precision =
  QCheck.Test.make ~count:1000 ~name:"interval on point domains contains the point result"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let e = build spec in
      let iv = tape_interval e (fun i -> (bytes.(i), bytes.(i))) in
      contains iv (Expr.eval (fun i -> bytes.(i)) e))

(* [Semantics] divides unsigned inline; the standard library is the
   reference, on operands spread over the whole 64-bit range. *)
let prop_unsigned_division =
  let edge = [ 0L; 1L; 2L; 255L; Int64.max_int; Int64.min_int; -1L; -2L ] in
  let gen_int64 =
    QCheck.Gen.(
      oneof [ oneofl edge; map Int64.of_int (int_range (-1000) 1000); ui64 ])
  in
  QCheck.Test.make ~count:5000 ~name:"semantics unsigned division = stdlib"
    (QCheck.make QCheck.Gen.(pair gen_int64 gen_int64))
    (fun (a, b) ->
      let div = Semantics.binop T.Udiv a b and rem = Semantics.binop T.Urem a b in
      if b = 0L then div = 0L && rem = a
      else div = Int64.unsigned_div a b && rem = Int64.unsigned_rem a b)

let prop_bits_sound =
  QCheck.Test.make ~count:2000 ~name:"possible-bits mask covers every concrete value"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let e = build spec in
      let v = Expr.eval (fun i -> bytes.(i)) e in
      Int64.logand v (Int64.lognot e.Expr.bits) = 0L)

let test_bits_of_field_composition () =
  (* u16 little-endian read: bits must be exactly 0xFFFF *)
  let u16 = Expr.bin T.Or (Expr.read 0) (Expr.bin T.Shl (Expr.read 1) (Expr.const 8L)) in
  Alcotest.(check int64) "u16 bits" 0xFFFFL u16.Expr.bits;
  let u32 =
    Expr.bin T.Or u16
      (Expr.bin T.Or
         (Expr.bin T.Shl (Expr.read 2) (Expr.const 16L))
         (Expr.bin T.Shl (Expr.read 3) (Expr.const 24L)))
  in
  Alcotest.(check int64) "u32 bits" 0xFFFFFFFFL u32.Expr.bits

let test_solver_u32_magic () =
  (* the tcpdump-style gate: a 4-byte little-endian magic *)
  let solver = Solver.create () in
  let u32 =
    Expr.bin T.Or
      (Expr.bin T.Or (Expr.read 0) (Expr.bin T.Shl (Expr.read 1) (Expr.const 8L)))
      (Expr.bin T.Or
         (Expr.bin T.Shl (Expr.read 2) (Expr.const 16L))
         (Expr.bin T.Shl (Expr.read 3) (Expr.const 24L)))
  in
  (match
     Solver.check_assuming solver ~path:[] [ Expr.bin T.Eq u32 (Expr.const 0xA1B2C3D4L) ]
   with
   | Solver.Sat model, _ ->
     Alcotest.(check int) "byte 0" 0xD4 (Model.get model 0);
     Alcotest.(check int) "byte 1" 0xC3 (Model.get model 1);
     Alcotest.(check int) "byte 2" 0xB2 (Model.get model 2);
     Alcotest.(check int) "byte 3" 0xA1 (Model.get model 3)
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "u32 magic must be sat");
  let too_wide = Expr.bin T.Eq u32 (Expr.const 0x1_0000_0000L) in
  match Solver.check_assuming solver ~path:[] [ too_wide ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "33-bit magic must be unsat"

let test_check_assuming_against_path () =
  let solver = Solver.create () in
  let w = Expr.bin T.Or (Expr.read 0) (Expr.bin T.Shl (Expr.read 1) (Expr.const 8L)) in
  let path = [ Expr.bin T.Ult (Expr.const 3L) w; Expr.bin T.Ult w (Expr.const 600L) ] in
  let hint = Pbse_smt.Model.set (Pbse_smt.Model.set Model.empty 0 10) 1 0 in
  (* hint satisfies path (w = 10); the extra asks for one more loop step *)
  let extra = [ Expr.bin T.Ult (Expr.const 10L) w ] in
  (match Solver.check_assuming solver ~hint ~path extra with
   | Solver.Sat model, _ ->
     Alcotest.(check bool) "model satisfies everything" true
       (Model.satisfies model (path @ extra))
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat");
  (* contradiction with the path must be unsat, not unknown *)
  match Solver.check_assuming solver ~hint ~path [ Expr.bin T.Ult w (Expr.const 2L) ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "expected unsat"

(* --- solver vs brute force ----------------------------------------------- *)

(* the first (byte 0, byte 1) pair satisfying every spec, if any *)
let brute_force_witness specs =
  let exception Found of int * int in
  try
    for a = 0 to 255 do
      for b = 0 to 255 do
        let lookup i = if i = 0 then a else b in
        if List.for_all (fun s -> Semantics.truthy (ref_eval lookup s)) specs then
          raise (Found (a, b))
      done
    done;
    None
  with Found (a, b) -> Some (a, b)

let brute_force_sat specs = Option.is_some (brute_force_witness specs)

let gen_constraints =
  QCheck.Gen.(list_size (int_range 1 4) (gen_spec 2))

let prop_solver_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"solver agrees with 2-byte brute force"
    (QCheck.make gen_constraints)
    (fun specs ->
      let solver = Solver.create ~budget:400_000 () in
      let exprs = List.map build specs in
      match Solver.check_assuming solver ~path:[] exprs with
      | Solver.Sat model, _ ->
        Model.satisfies model exprs && brute_force_sat specs
      | Solver.Unsat, _ -> not (brute_force_sat specs)
      | Solver.Unknown, _ -> QCheck.assume_fail ())

let prop_sat_model_satisfies =
  QCheck.Test.make ~count:300 ~name:"sat models satisfy their query"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) (gen_spec 4)))
    (fun specs ->
      let solver = Solver.create () in
      let exprs = List.map build specs in
      match Solver.check_assuming solver ~path:[] exprs with
      | Solver.Sat model, _ -> Model.satisfies model exprs
      | (Solver.Unsat | Solver.Unknown), _ -> true)

(* The executor's queries: a path its hint already satisfies, plus the
   new constraints. The conjunction is split at a random point, the hint
   is brute-forced to satisfy the path half, and the incremental answer
   must match brute force on the whole conjunction. *)
let prop_check_assuming_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"check_assuming on a path agrees with brute force"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 5) (gen_spec 2)) (int_range 0 5)))
    (fun (specs, cut) ->
      let path_specs = List.filteri (fun i _ -> i < cut) specs in
      let extra_specs = List.filteri (fun i _ -> i >= cut) specs in
      match brute_force_witness path_specs with
      | None -> QCheck.assume_fail ()
      | Some (a, b) -> (
        let hint = Model.set (Model.set Model.empty 0 a) 1 b in
        let path = List.map build path_specs and extra = List.map build extra_specs in
        let solver = Solver.create ~budget:400_000 () in
        match Solver.check_assuming solver ~hint ~path extra with
        | Solver.Sat model, _ ->
          Model.satisfies model (path @ extra) && brute_force_sat specs
        | Solver.Unsat, _ -> not (brute_force_sat specs)
        | Solver.Unknown, _ -> QCheck.assume_fail ()))

(* --- evaluators vs the memoised walk -------------------------------------- *)

(* The oracles for the evaluators: [Expr.eval] as it was before small
   expressions were walked as trees, and the record-based interval
   analysis that the tape's step replaced, copied verbatim (names
   qualified, the interval record given its own type here). *)
module Oracle_eval = struct
  open Expr

  let eval lookup e =
    let memo = Hashtbl.create 64 in
    let rec go e =
      match e.node with
      | Const c -> c
      | Read i -> Int64.of_int (lookup i land 0xFF)
      | Bin _ | Un _ | Ite _ -> (
        match Hashtbl.find_opt memo e.id with
        | Some v -> v
        | None ->
          let v =
            match e.node with
            | Bin (op, a, b) -> Semantics.binop op (go a) (go b)
            | Un (op, a) -> Semantics.unop op (go a)
            | Ite (c, t, e') -> if Semantics.truthy (go c) then go t else go e'
            | Const _ | Read _ -> assert false
          in
          Hashtbl.add memo e.id v;
          v)
    in
    go e

  open Pbse_ir.Types

  type t = {
    lo : int64;
    hi : int64;
  }

  let ucmp = Int64.unsigned_compare
  let umin a b = if ucmp a b <= 0 then a else b
  let umax a b = if ucmp a b >= 0 then a else b

  let make lo hi =
    if ucmp lo hi > 0 then invalid_arg "Interval.make: lo >u hi";
    { lo; hi }

  let point v = { lo = v; hi = v }
  let top = { lo = 0L; hi = -1L }
  let bool_any = { lo = 0L; hi = 1L }
  let byte_any = { lo = 0L; hi = 255L }

  let is_point t = if t.lo = t.hi then Some t.lo else None
  let hull a b = { lo = umin a.lo b.lo; hi = umax a.hi b.hi }

  let definitely_true t = t.lo <> 0L
  let definitely_false t = t.lo = 0L && t.hi = 0L

  let bool_of b = if b then point 1L else point 0L

  (* Whether every value of the interval lies in the non-negative signed
     half-range, i.e. signed and unsigned orders coincide on it. *)
  let nonneg t = t.hi >= 0L

  (* Unsigned addition overflow test. *)
  let add_overflows a b = ucmp (Int64.add a b) a < 0

  let mul_overflows a b =
    a <> 0L && b <> 0L && ucmp (Int64.unsigned_div (-1L) a) b < 0

  (* Smallest all-ones mask covering v (unsigned). *)
  let mask_above v =
    let rec widen m =
      if ucmp m v >= 0 then m else widen (Int64.logor (Int64.shift_left m 1) 1L)
    in
    if v = 0L then 0L else if v < 0L then -1L else widen 1L

  let shift_left_total a n =
    if n >= 64 || n < 0 then 0L else Int64.shift_left a n

  let shift_right_total a n =
    if n >= 64 || n < 0 then 0L else Int64.shift_right_logical a n

  (* Every value in the interval is strictly negative when read as signed —
     the common shape of "x - k" encoded as x + (-k). The [neg hi > 0]
     conjunct excludes [min_int], whose negation is itself, guaranteeing the
     negated interval is strictly positive (no rewriting loop). *)
  let all_negative iv = iv.lo < 0L && Int64.neg iv.hi > 0L

  let negate iv = { lo = Int64.neg iv.hi; hi = Int64.neg iv.lo }

  let rec binop op a b =
    match op with
    | Add ->
      (* x + (-k) is x - k; rewriting keeps loop-counter bounds precise *)
      if all_negative b then binop Sub a (negate b)
      else if all_negative a then binop Sub b (negate a)
      else if add_overflows a.hi b.hi then top
      else { lo = Int64.add a.lo b.lo; hi = Int64.add a.hi b.hi }
    | Sub ->
      if all_negative b then binop Add a (negate b)
      else if ucmp a.lo b.hi >= 0 then
        { lo = Int64.sub a.lo b.hi; hi = Int64.sub a.hi b.lo }
      else top
    | Mul ->
      if mul_overflows a.hi b.hi then top
      else { lo = Int64.mul a.lo b.lo; hi = Int64.mul a.hi b.hi }
    | Udiv ->
      (* division by zero yields 0 in our total semantics *)
      if b.lo = 0L then { lo = 0L; hi = a.hi }
      else { lo = Int64.unsigned_div a.lo b.hi; hi = Int64.unsigned_div a.hi b.lo }
    | Urem ->
      if b.lo = 0L then { lo = 0L; hi = a.hi }
      else { lo = 0L; hi = umin a.hi (Int64.sub b.hi 1L) }
    | Sdiv -> if nonneg a && nonneg b then binop_sdiv_nonneg a b else top
    | Srem ->
      if nonneg a && nonneg b then
        if b.lo = 0L then { lo = 0L; hi = a.hi }
        else { lo = 0L; hi = umin a.hi (Int64.sub b.hi 1L) }
      else top
    | And -> { lo = 0L; hi = umin a.hi b.hi }
    | Or -> { lo = umax a.lo b.lo; hi = mask_above (Int64.logor a.hi b.hi) }
    | Xor -> { lo = 0L; hi = mask_above (Int64.logor a.hi b.hi) }
    | Shl -> (
      match is_point b with
      | Some n when ucmp n 64L < 0 ->
        let n = Int64.to_int n in
        if a.hi <> 0L && ucmp a.hi (shift_right_total (-1L) n) > 0 then top
        else { lo = shift_left_total a.lo n; hi = shift_left_total a.hi n }
      | Some _ -> point 0L
      | None -> top)
    | Lshr ->
      (* monotone: larger shifts give smaller results *)
      let lo =
        if ucmp b.hi 64L >= 0 then 0L else shift_right_total a.lo (Int64.to_int b.hi)
      in
      { lo; hi = shift_right_total a.hi (Int64.to_int (umin b.lo 63L)) }
    | Ashr -> if nonneg a then binop Lshr a b else top
    | Eq -> (
      match (is_point a, is_point b) with
      | Some x, Some y -> bool_of (x = y)
      | _ -> if ucmp a.hi b.lo < 0 || ucmp b.hi a.lo < 0 then point 0L else bool_any)
    | Ne -> (
      match (is_point a, is_point b) with
      | Some x, Some y -> bool_of (x <> y)
      | _ -> if ucmp a.hi b.lo < 0 || ucmp b.hi a.lo < 0 then point 1L else bool_any)
    | Ult ->
      if ucmp a.hi b.lo < 0 then point 1L
      else if ucmp b.hi a.lo <= 0 then point 0L
      else bool_any
    | Ule ->
      if ucmp a.hi b.lo <= 0 then point 1L
      else if ucmp b.hi a.lo < 0 then point 0L
      else bool_any
    | Slt -> if nonneg a && nonneg b then binop Ult a b else bool_any
    | Sle -> if nonneg a && nonneg b then binop Ule a b else bool_any

  and binop_sdiv_nonneg a b =
    if b.lo = 0L then { lo = 0L; hi = a.hi }
    else { lo = Int64.div a.lo b.hi; hi = Int64.div a.hi b.lo }

  let unop op a =
    match op with
    | Neg -> if a.lo = 0L && a.hi = 0L then point 0L else top
    | Not ->
      (* complement reverses unsigned order *)
      { lo = Int64.lognot a.hi; hi = Int64.lognot a.lo }
    | Sext8 -> if ucmp a.hi 0x7FL <= 0 then a else top
    | Sext16 -> if ucmp a.hi 0x7FFFL <= 0 then a else top
    | Sext32 -> if ucmp a.hi 0x7FFFFFFFL <= 0 then a else top
    | Trunc8 -> if ucmp a.hi 0xFFL <= 0 then a else { lo = 0L; hi = 0xFFL }
    | Trunc16 -> if ucmp a.hi 0xFFFFL <= 0 then a else { lo = 0L; hi = 0xFFFFL }
    | Trunc32 -> if ucmp a.hi 0xFFFFFFFFL <= 0 then a else { lo = 0L; hi = 0xFFFFFFFFL }

  (* One shared record per byte value. *)
  let byte_points = Array.init 256 (fun v -> point (Int64.of_int v))
  let byte_point v = byte_points.(v)

  let interval_eval lookup e =
    let memo = Hashtbl.create 64 in
    let rec go (e : Expr.t) =
      match e.node with
      | Expr.Const c -> point c
      | Expr.Read i ->
        let iv = lookup i in
        if ucmp iv.hi 255L > 0 then byte_any else iv
      | Expr.Bin _ | Expr.Un _ | Expr.Ite _ -> (
        match Hashtbl.find_opt memo e.id with
        | Some v -> v
        | None ->
          let v =
            match e.node with
            | Expr.Bin (Pbse_ir.Types.Or, x, y)
              when Int64.logand x.Expr.bits y.Expr.bits = 0L ->
              (* disjoint possible bits: or is addition, which the interval
                 arithmetic tracks exactly — crucial for multi-byte field
                 reads composed as (b0 | b1 << 8 | ...) *)
              binop Pbse_ir.Types.Add (go x) (go y)
            | Expr.Bin (op, x, y) -> binop op (go x) (go y)
            | Expr.Un (op, x) -> unop op (go x)
            | Expr.Ite (c, t, f) ->
              let ci = go c in
              if definitely_true ci then go t
              else if definitely_false ci then go f
              else hull (go t) (go f)
            | Expr.Const _ | Expr.Read _ -> assert false
          in
          Hashtbl.add memo e.id v;
          v)
    in
    go e

  (* The tape's reads take byte bounds: a wider bound reads as any byte,
     as [interval_eval] reads it. *)
  let byte_bound (iv : t) =
    if ucmp iv.hi 255L > 0 then (0, 255) else (Int64.to_int iv.lo, Int64.to_int iv.hi)
end

(* One DAG-building step. An operand is an input byte, a constant, or a
   term built by an earlier step (counted back from the newest), so later
   terms reuse earlier ones and hash-consing shares their nodes. *)
type operand =
  | Oread of int
  | Oconst of int64
  | Oback of int

type dag_step =
  | Dbin of T.binop * operand * operand
  | Dun of T.unop * operand
  | Dite of operand * operand * operand
  | Dfield of operand * operand (* disjoint-bit or: (a & 0xff) | ((b & 0xff) << 8) *)

(* Shift amounts of 64 and more, zero divisors, byte masks, sign bits. *)
let dag_consts =
  [ 0L; 1L; 2L; 7L; 0xFFL; 0x100L; 63L; 64L; 65L; 200L; -1L; Int64.min_int ]

let gen_operand =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun i -> Oread i) (int_range 0 2));
      (1, map (fun c -> Oconst c) (oneofl dag_consts));
      (5, map (fun k -> Oback k) (int_range 0 4));
    ]

let gen_dag_steps =
  let open QCheck.Gen in
  let o = gen_operand in
  list_size (int_range 1 24)
    (frequency
       [
         (6, map3 (fun op a b -> Dbin (op, a, b)) (oneofl all_binops) o o);
         (2, map2 (fun op a -> Dun (op, a)) (oneofl all_unops) o);
         (2, map3 (fun c t e -> Dite (c, t, e)) o o o);
         (1, map2 (fun a b -> Dfield (a, b)) o o);
       ])

(* The terms the steps build, newest first. *)
let build_dag_terms steps =
  let operand built = function
    | Oread i -> Expr.read i
    | Oconst c -> Expr.const c
    | Oback k -> (
      match List.nth_opt built k with Some e -> e | None -> Expr.read (k mod 3))
  in
  let byte e = Expr.bin T.And e (Expr.const 0xFFL) in
  List.fold_left
    (fun built step ->
      let arg = operand built in
      let e =
        match step with
        | Dbin (op, a, b) -> Expr.bin op (arg a) (arg b)
        | Dun (op, a) -> Expr.un op (arg a)
        | Dite (c, t, e) -> Expr.ite (arg c) (arg t) (arg e)
        | Dfield (a, b) ->
          Expr.bin T.Or (byte (arg a)) (Expr.bin T.Shl (byte (arg b)) (Expr.const 8L))
      in
      e :: built)
    [] steps

(* [`Small]: the largest term of at most 256 tree nodes, which the tree
   walk evaluates. [`Large]: the newest term, grown past 256 nodes by
   doubling, which the memoised walk evaluates. *)
let build_dag size steps =
  let terms = build_dag_terms steps in
  match size with
  | `Small ->
    List.fold_left
      (fun (best : Expr.t) (e : Expr.t) ->
        if e.Expr.nodes <= 256 && e.Expr.nodes > best.Expr.nodes then e else best)
      (Expr.read 0) terms
  | `Large ->
    let rec grow (e : Expr.t) =
      if e.Expr.nodes > 256 then e
      else grow (Expr.bin T.Add e (Expr.bin T.Mul e (Expr.read 1)))
    in
    let e = List.hd terms in
    grow (if e.Expr.max_read < 0 then Expr.read 0 else e)

(* Per-byte bounds: full, a point, a narrow range, or wider than a byte. *)
let gen_byte_interval =
  let open QCheck.Gen in
  frequency
    [
      (1, return (Oracle_eval.make 0L 255L));
      (2, map (fun v -> Oracle_eval.point (Int64.of_int v)) (int_range 0 255));
      ( 3,
        map2
          (fun a b -> Oracle_eval.make (Int64.of_int (min a b)) (Int64.of_int (max a b)))
          (int_range 0 255) (int_range 0 255) );
      (1, return (Oracle_eval.make 0L (-1L)));
    ]

let arb_dag =
  QCheck.make
    ~print:(fun (size, steps, _, _) ->
      Expr.to_string (build_dag size steps))
    QCheck.Gen.(
      quad (oneofl [ `Small; `Large ]) gen_dag_steps (gen_bytes 3)
        (array_repeat 3 gen_byte_interval))

let prop_eval_matches_memo_oracle =
  QCheck.Test.make ~count:2000 ~name:"expr eval = memoised oracle on shared DAGs"
    arb_dag
    (fun (size, steps, bytes, _) ->
      let e = build_dag size steps in
      let lookup i = bytes.(i) in
      Int64.equal (Expr.eval lookup e) (Oracle_eval.eval lookup e))

let prop_interval_eval_matches_memo_oracle =
  QCheck.Test.make ~count:2000 ~name:"interval eval = memoised oracle on shared DAGs"
    arb_dag
    (fun (size, steps, _, bounds) ->
      let e = build_dag size steps in
      let lookup i = bounds.(i) in
      let got = tape_interval e (fun i -> Oracle_eval.byte_bound bounds.(i)) in
      let want = Oracle_eval.interval_eval lookup e in
      Int64.equal got.Interval.lo want.Oracle_eval.lo
      && Int64.equal got.Interval.hi want.Oracle_eval.hi)

let prop_tape_value_matches_memo_oracle =
  QCheck.Test.make ~count:2000 ~name:"tape value = memoised oracle on shared DAGs"
    arb_dag
    (fun (size, steps, bytes, _) ->
      let e = build_dag size steps in
      let tape = Tape.compile e in
      Array.iteri (fun k i -> Tape.set_value tape k bytes.(i)) (Tape.reads tape);
      let value = Tape.value tape in
      Int64.equal value (Oracle_eval.eval (fun i -> bytes.(i)) e)
      && Bool.equal (Tape.holds tape) (Semantics.truthy value))

(* 80 nested self-squarings: the tree has 2^81 - 1 nodes, so [nodes]
   overflows (to -1). One more binary node over it wraps [nodes] back to
   1; every one of these must take the memoised walk and finish at once
   (a tree walk would never return). *)
let test_eval_overflowing_nodes () =
  let rec square n e = if n = 0 then e else square (n - 1) (Expr.bin T.Mul e e) in
  let e = square 80 (Expr.bin T.Add (Expr.read 0) (Expr.const 1L)) in
  Alcotest.(check bool) "nodes overflowed" true (e.Expr.nodes <= 0);
  let wrapped =
    [ ("add", Expr.bin T.Add e (Expr.read 1)); ("ult", Expr.bin T.Ult e (Expr.const 5L)) ]
  in
  List.iter
    (fun (name, w) ->
      Alcotest.(check bool) (name ^ ": nodes back in range") true
        (w.Expr.nodes > 0 && w.Expr.nodes <= 256))
    wrapped;
  let lookup _ = 3 in
  let bound _ = Oracle_eval.make 2L 9L in
  List.iter
    (fun (name, x) ->
      Alcotest.(check bool) (name ^ ": not walkable") false x.Expr.walkable;
      Alcotest.(check int64)
        (name ^ ": value") (Oracle_eval.eval lookup x) (Expr.eval lookup x);
      let tape = Tape.compile x in
      Array.iteri (fun k _ -> Tape.set_value tape k 3) (Tape.reads tape);
      Alcotest.(check int64) (name ^ ": tape value") (Oracle_eval.eval lookup x)
        (Tape.value tape);
      let got = tape_interval x (fun _ -> (2, 9)) in
      let want = Oracle_eval.interval_eval bound x in
      Alcotest.(check (pair int64 int64))
        (name ^ ": interval") (want.Oracle_eval.lo, want.Oracle_eval.hi)
        (got.Interval.lo, got.Interval.hi))
    (("squares", e) :: wrapped)

(* --- Search_core vs brute force ------------------------------------------- *)

(* One workspace serves every search of this suite, as one solver's
   serves its queries. *)
let search_ws = Workspace.create ()

(* Every assignment of bytes 0 and 1 that satisfies every spec. *)
let brute_force_models specs =
  let models = ref [] in
  for a = 0 to 255 do
    for b = 0 to 255 do
      let lookup i = if i = 0 then a else b in
      if List.for_all (fun s -> Semantics.truthy (ref_eval lookup s)) specs then
        models := (a, b) :: !models
    done
  done;
  !models

(* [solve_group] called directly, with a random hint, a random focus and
   per-byte bounds equal to the hull of the brute-force models, which are
   sound by construction (no model lies outside them). *)
let prop_search_core_matches_brute_force =
  QCheck.Test.make ~count:150 ~name:"search core agrees with 2-byte brute force"
    (QCheck.make
       QCheck.Gen.(
         triple gen_constraints
           (pair (int_range 0 255) (int_range 0 255))
           (list_size (int_range 0 3) (int_range 0 2))))
    (fun (specs, (h0, h1), focus) ->
      let exprs = List.map build specs in
      let group = Search_core.build_group search_ws ~tape:Tape.compile exprs in
      let models = brute_force_models specs in
      let hull pick =
        match models with
        | [] -> None
        | m :: rest ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) m -> (min lo (pick m), max hi (pick m)))
              (pick m, pick m) rest
          in
          Some (Interval.make (Int64.of_int lo) (Int64.of_int hi))
      in
      let bound0 = hull fst and bound1 = hull snd in
      let bounds = function 0 -> bound0 | 1 -> bound1 | _ -> None in
      let hint = Model.set (Model.set Model.empty 0 h0) 1 h1 in
      let meter = Search_core.meter ~limit:max_int in
      match
        Search_core.solve_group search_ws ~on_node:ignore meter ~hint ~focus ~bounds group
      with
      | Search_core.Gsat bindings ->
        let lookup i = Option.value (List.assoc_opt i bindings) ~default:0 in
        models <> []
        && List.for_all (fun s -> Semantics.truthy (ref_eval lookup s)) specs
      | Search_core.Gunsat -> models = []
      | Search_core.Gunknown -> false)

(* --- Search_core on sparse, wide groups ----------------------------------- *)

(* Little-endian field over input bytes [idx], lowest byte first. *)
let le_field = function
  | [] -> invalid_arg "le_field"
  | first :: rest ->
    fst
      (List.fold_left
         (fun (acc, shift) i ->
           ( Expr.bin T.Or acc
               (Expr.bin T.Shl (Expr.read i) (Expr.const (Int64.of_int shift))),
             shift + 8 ))
         (Expr.read first, 8) rest)

(* A planted model over 3-48 distinct input indices spread over
   0..4095 (both ends always drawn), constraints the planted bytes
   satisfy, a random hint and an index no constraint reads. *)
type planted = {
  indices : int array; (* sorted *)
  constraints : Expr.t list;
  hint : Model.t;
  focus : int list;
  outside : int;
}

let gen_planted st =
  let draw bound = Random.State.int st bound in
  let n = 3 + draw 46 in
  let chosen = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace chosen i ()) [ 0; 4095 ];
  while Hashtbl.length chosen < n do
    Hashtbl.replace chosen (1 + draw 4094) ()
  done;
  let indices =
    Hashtbl.fold (fun i () acc -> i :: acc) chosen []
    |> List.sort Int.compare |> Array.of_list
  in
  let planted = Array.init n (fun _ -> draw 256) in
  let read p = Expr.read indices.(p) in
  let eq e v = Expr.bin T.Eq e (Expr.const (Int64.of_int v)) in
  (* one constraint per position, so every index is in the group; a
     position is in at most one sum, which keeps the search free of
     exponential backtracking over chains of sums *)
  let in_sum = Array.make n false in
  let constrain p =
    match draw 4 with
    | 0 -> eq (read p) planted.(p)
    | 1 when not in_sum.(p) ->
      let q = (p + 1 + draw (n - 1)) mod n in
      if in_sum.(q) then eq (read p) planted.(p)
      else begin
        in_sum.(p) <- true;
        in_sum.(q) <- true;
        eq (Expr.bin T.Add (read p) (read q)) (planted.(p) + planted.(q))
      end
    | 1 -> eq (read p) planted.(p)
    | 2 when planted.(p) < 255 ->
      let bound = planted.(p) + 1 + draw (255 - planted.(p)) in
      Expr.bin T.Ult (read p) (Expr.const (Int64.of_int bound))
    | 2 -> eq (read p) planted.(p)
    | _ ->
      let width = if n >= 4 && draw 2 = 0 then 4 else 2 in
      let ps = List.init width (fun k -> (p + k) mod n) in
      let value =
        List.fold_left
          (fun (v, shift) q -> (v lor (planted.(q) lsl shift), shift + 8))
          (0, 0) ps
        |> fst
      in
      eq (le_field (List.map (fun q -> indices.(q)) ps)) value
  in
  let constraints = List.init n constrain in
  let rec pick_outside () =
    let i = draw 4096 in
    if Hashtbl.mem chosen i then pick_outside () else i
  in
  let outside = pick_outside () in
  let hint =
    Array.fold_left (fun m i -> Model.set m i (draw 256)) Model.empty indices
  in
  let hint = Model.set hint outside (1 + draw 255) in
  let focus = List.init (draw 4) (fun _ -> indices.(draw n)) in
  { indices; constraints; hint; focus; outside }

let print_planted c =
  Printf.sprintf "indices [%s]\nconstraints:\n%s\nhint [%s]\nfocus [%s]\noutside %d"
    (String.concat "; " (Array.to_list (Array.map string_of_int c.indices)))
    (String.concat "\n" (List.map Expr.to_string c.constraints))
    (String.concat "; "
       (List.map
          (fun i -> Printf.sprintf "%d=%d" i (Model.get c.hint i))
          (Array.to_list c.indices @ [ c.outside ])))
    (String.concat "; " (List.map string_of_int c.focus))
    c.outside

(* The binary byte-position search on groups wider than 2 with
   non-adjacent indices: a planted model exists, so the search must find
   a model that binds every group byte once and satisfies every
   constraint, and must leave bytes outside the group to the hint. *)
let prop_search_core_sparse_wide_groups =
  QCheck.Test.make ~count:200 ~name:"search core solves planted sparse wide groups"
    (QCheck.make ~print:print_planted gen_planted)
    (fun c ->
      let group = Search_core.build_group search_ws ~tape:Tape.compile c.constraints in
      (* far above what these groups need: a blown budget is a failure *)
      let meter = Search_core.meter ~limit:5_000_000 in
      match
        Search_core.solve_group search_ws ~on_node:ignore meter ~hint:c.hint ~focus:c.focus
          ~bounds:(fun _ -> None) group
      with
      | Search_core.Gsat bindings ->
        let model = List.fold_left (fun m (i, v) -> Model.set m i v) c.hint bindings in
        let vars = Array.to_list (Search_core.group_vars group) in
        vars = Array.to_list c.indices
        && List.sort Int.compare (List.map fst bindings) = vars
        && List.for_all
             (fun e -> Semantics.truthy (Expr.eval (Model.get model) e))
             c.constraints
        && Model.get model c.outside = Model.get c.hint c.outside
      | Search_core.Gunsat | Search_core.Gunknown -> false
      | exception Search_core.Out_of_budget -> false)

(* --- Search_core vs the tree-walking search ------------------------------- *)

(* [Search_core]'s probe and search as they were before constraints were
   compiled to tapes, copied verbatim (names qualified; intervals are
   [Oracle_eval]'s records, evaluated by its memoised walk): the oracle
   for [Search_core.solve_group]. *)
module Oracle_search = struct
  open Search_core

  (* Mutable domain of one input byte during a group solve. *)
  type domain = {
    allowed : Bytes.t; (* 256 flags *)
    mutable size : int;
    mutable dlo : int;
    mutable dhi : int;
  }

  let domain_full () = { allowed = Bytes.make 256 '\001'; size = 256; dlo = 0; dhi = 255 }

  let domain_mem d v = Bytes.get d.allowed v <> '\000'

  let domain_remove d v =
    if domain_mem d v then begin
      Bytes.set d.allowed v '\000';
      d.size <- d.size - 1;
      if d.size > 0 then begin
        while d.dlo < 256 && not (domain_mem d d.dlo) do
          d.dlo <- d.dlo + 1
        done;
        while d.dhi >= 0 && not (domain_mem d d.dhi) do
          d.dhi <- d.dhi - 1
        done
      end
    end

  (* Full and singleton domains, the common shapes, share their intervals. *)
  let domain_interval d =
    if d.dlo = 0 && d.dhi = 255 then Oracle_eval.byte_any
    else if d.dlo = d.dhi then Oracle_eval.byte_point d.dlo
    else Oracle_eval.make (Int64.of_int d.dlo) (Int64.of_int d.dhi)

  type group = {
    constraints : Expr.t array;
    vars : int array; (* sorted input indices *)
    by_var : int list array; (* position -> constraint indices *)
    creads : int list array; (* constraint -> input indices *)
  }

  let rec search_sorted (vars : int array) (v : int) lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = vars.(mid) in
      if x = v then mid
      else if x < v then search_sorted vars v (mid + 1) hi
      else search_sorted vars v lo mid

  let sorted_position vars v = search_sorted vars v 0 (Array.length vars)

  let rec mem_int (v : int) = function [] -> false | x :: rest -> x = v || mem_int v rest

  let build_group ~reads exprs =
    let constraints = Array.of_list exprs in
    let creads = Array.map reads constraints in
    let var_set = Hashtbl.create 16 in
    Array.iter (List.iter (fun v -> Hashtbl.replace var_set v ())) creads;
    let vars =
      Hashtbl.fold (fun v () acc -> v :: acc) var_set [] |> List.sort Int.compare
      |> Array.of_list
    in
    let by_var = Array.make (Array.length vars) [] in
    Array.iteri
      (fun ci reads ->
        List.iter
          (fun v ->
            let pos = sorted_position vars v in
            by_var.(pos) <- ci :: by_var.(pos))
          reads)
      creads;
    { constraints; vars; by_var; creads }

  let probe_deltas = [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ]

  let probe_neighborhood meter ~hint group focus =
    let satisfied lookup =
      Array.for_all
        (fun (c : Expr.t) ->
          spend meter (Int.min c.Expr.nodes 64);
          Semantics.truthy (Expr.eval lookup c))
        group.constraints
    in
    (* [overrides] holds at most one (input index, value) pair *)
    let try_model overrides =
      let lookup (i : int) =
        match overrides with
        | [ (j, v) ] when j = i -> v land 0xFF
        | _ -> Model.get hint i
      in
      if satisfied lookup then
        Some (Array.to_list (Array.map (fun v -> (v, lookup v)) group.vars))
      else None
    in
    let rec try_var vars =
      match vars with
      | [] -> None
      | v :: rest ->
        let base = Model.get hint v in
        let rec try_delta = function
          | [] -> try_var rest
          | d :: ds ->
            let candidate = base + d in
            if candidate >= 0 && candidate <= 255 then
              match try_model [ (v, candidate) ] with
              | Some bindings -> Some bindings
              | None -> try_delta ds
            else try_delta ds
        in
        try_delta probe_deltas
    in
    match try_model [] with
    | Some bindings -> Some bindings
    | None -> try_var focus

  let solve_group_search ~on_node meter ~hint ~bounds group =
    let nvars = Array.length group.vars in
    let domains = Array.init nvars (fun _ -> domain_full ()) in
    (* seed the domains with the learned bounds *)
    Array.iteri
      (fun pos v ->
        match bounds v with
        | None -> ()
        | Some (iv : Interval.t) ->
          let lo = Int64.to_int iv.Interval.lo and hi = Int64.to_int iv.Interval.hi in
          if lo > 0 || hi < 255 then begin
            let d = domains.(pos) in
            for x = 0 to 255 do
              if x < lo || x > hi then domain_remove d x
            done
          end)
      group.vars;
    let assignment = Array.make nvars (-1) in
    (* Interval environment: assigned variables are points, unassigned ones
       are the hull of their remaining domain. *)
    let lookup_interval input_index =
      let pos = sorted_position group.vars input_index in
      if pos < 0 then Oracle_eval.byte_any
      else if assignment.(pos) >= 0 then Oracle_eval.byte_point assignment.(pos)
      else domain_interval domains.(pos)
    in
    let interval_check ci =
      let c = group.constraints.(ci) in
      spend meter c.Expr.nodes;
      not (Oracle_eval.definitely_false (Oracle_eval.interval_eval lookup_interval c))
    in
    let exact_check ci =
      let c = group.constraints.(ci) in
      spend meter c.Expr.nodes;
      let lookup i =
        let pos = sorted_position group.vars i in
        if pos >= 0 && assignment.(pos) >= 0 then assignment.(pos) else Model.get hint i
      in
      Semantics.truthy (Expr.eval lookup c)
    in
    let propagate () =
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < 6 do
        changed := false;
        incr rounds;
        for pos = 0 to nvars - 1 do
          let narrow ci =
            if List.length group.creads.(ci) <= 6 then begin
              let c = group.constraints.(ci) in
              let false_at v =
                spend meter c.Expr.nodes;
                let lookup i =
                  let p = sorted_position group.vars i in
                  if p = pos then Oracle_eval.byte_point v
                  else if p >= 0 then domain_interval domains.(p)
                  else Oracle_eval.byte_any
                in
                Oracle_eval.definitely_false (Oracle_eval.interval_eval lookup c)
              in
              let d = domains.(pos) in
              while d.size > 0 && false_at d.dlo do
                domain_remove d d.dlo;
                changed := true
              done;
              while d.size > 0 && false_at d.dhi do
                domain_remove d d.dhi;
                changed := true
              done
            end
          in
          List.iter narrow group.by_var.(pos);
          if domains.(pos).size = 0 then raise Exit
        done
      done
    in
    let unassigned ci =
      List.exists
        (fun v -> assignment.(sorted_position group.vars v) < 0)
        group.creads.(ci)
    in
    let order = Array.init nvars (fun i -> i) in
    let finished = ref None in
    let rec assign depth =
      if depth = nvars then begin
        let n = Array.length group.constraints in
        let rec all_exact ci = ci >= n || (exact_check ci && all_exact (ci + 1)) in
        if all_exact 0 then begin
          finished :=
            Some
              (Array.to_list
                 (Array.mapi
                    (fun pos _ -> (group.vars.(pos), assignment.(pos)))
                    group.vars));
          true
        end
        else false
      end
      else begin
        let pos = order.(depth) in
        let d = domains.(pos) in
        let try_value v =
          if not (domain_mem d v) then false
          else begin
            on_node ();
            spend meter 1;
            assignment.(pos) <- v;
            let consistent =
              List.for_all
                (fun ci -> if unassigned ci then interval_check ci else exact_check ci)
                group.by_var.(pos)
            in
            let found = consistent && assign (depth + 1) in
            if not found then assignment.(pos) <- -1;
            found
          end
        in
        let hint_v = Model.get hint group.vars.(pos) land 0xFF in
        let deltas = [ 0; 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ] in
        let near =
          List.filter_map
            (fun delta ->
              let v = hint_v + delta in
              if v >= 0 && v <= 255 then Some v else None)
            deltas
        in
        let rec try_near = function
          | [] ->
            let rec scan v =
              if v > d.dhi then false
              else if (not (mem_int v near)) && try_value v then true
              else scan (v + 1)
            in
            scan d.dlo
          | v :: rest -> if try_value v then true else try_near rest
        in
        try_near near
      end
    in
    match
      (try
         if Array.exists (fun d -> d.size = 0) domains then raise Exit;
         propagate ();
         Array.sort (fun a b -> Int.compare domains.(a).size domains.(b).size) order;
         if assign 0 then `Sat else `Unsat
       with
      | Exit -> `Unsat)
    with
    | `Sat -> (
      match !finished with
      | Some bindings -> Gsat bindings
      | None -> Gunknown)
    | `Unsat -> Gunsat

  let solve_group ~on_node meter ~hint ~focus ~bounds group =
    let focus = List.filter (fun v -> sorted_position group.vars v >= 0) focus in
    match probe_neighborhood meter ~hint group focus with
    | Some bindings -> Gsat bindings
    | None -> solve_group_search ~on_node meter ~hint ~bounds group
end

(* A random group over input bytes 0-2: random terms (if-then-else
   included), little-endian u16 fields (so disjoint-bit ors reach the
   interval rules), sums of two or three bytes and single bytes compared
   with constants; with random byte bounds (sound or not: both searches
   must agree on any), a random hint, focus bytes (3 is outside the
   group) and a work limit that is often too small. *)
type search_case = {
  s_exprs : Expr.t list;
  s_bounds : (int * int) option array;
  s_hint : int array;
  s_focus : int list;
  s_limit : int;
}

let gen_search_case =
  let open QCheck.Gen in
  let read = map Expr.read (int_range 0 2) in
  let const hi = map (fun c -> Expr.const (Int64.of_int c)) (int_range 0 hi) in
  let cmp = oneofl [ T.Eq; T.Ne; T.Ult; T.Ule ] in
  let field =
    map3
      (fun (i, j) op c -> Expr.bin op (le_field [ i; j ]) c)
      (pair (int_range 0 2) (int_range 0 2))
      cmp (const 0x10000)
  in
  let sum =
    map3
      (fun (a, b, c) op k -> Expr.bin op (Expr.bin T.Add (Expr.bin T.Add a b) c) k)
      (triple read read (oneof [ read; const 0 ]))
      cmp (const 765)
  in
  let byte = map3 (fun a op c -> Expr.bin op a c) read cmp (const 255) in
  let bound =
    frequency
      [
        (2, return None);
        ( 3,
          map2 (fun a b -> Some (min a b, max a b)) (int_range 0 255) (int_range 0 255) );
      ]
  in
  let limit =
    frequency [ (1, int_range 0 400); (2, int_range 400 5_000); (3, return 200_000) ]
  in
  map
    (fun ((exprs, s_bounds), (s_hint, s_focus, s_limit)) ->
      { s_exprs = exprs; s_bounds; s_hint; s_focus; s_limit })
    (pair
       (pair
          (list_size (int_range 1 6)
             (frequency
                [ (2, map build (gen_spec 3)); (2, field); (2, sum); (1, byte) ]))
          (array_repeat 3 bound))
       (triple (gen_bytes 3) (list_size (int_range 0 3) (int_range 0 3)) limit))

let print_search_case c =
  Printf.sprintf "constraints:\n%s\nbounds [%s]\nhint [%s]\nfocus [%s]\nlimit %d"
    (String.concat "\n" (List.map Expr.to_string c.s_exprs))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (function None -> "-" | Some (lo, hi) -> Printf.sprintf "%d..%d" lo hi)
             c.s_bounds)))
    (String.concat "; " (Array.to_list (Array.map string_of_int c.s_hint)))
    (String.concat "; " (List.map string_of_int c.s_focus))
    c.s_limit

(* Same answer, same work spent, the same point of running out of budget
   and the same search-node count as the tree-walking search. *)
let prop_search_core_matches_oracle_search =
  QCheck.Test.make ~count:1000 ~name:"search core = tree-walking oracle search"
    (QCheck.make ~print:print_search_case gen_search_case)
    (fun c ->
      let hint =
        Array.fold_left
          (fun (m, i) v -> (Model.set m i v, i + 1))
          (Model.empty, 0) c.s_hint
        |> fst
      in
      let bounds i =
        if i < 0 || i >= Array.length c.s_bounds then None
        else
          Option.map
            (fun (lo, hi) -> Interval.make (Int64.of_int lo) (Int64.of_int hi))
            c.s_bounds.(i)
      in
      let run solve =
        let nodes = ref 0 in
        let meter = Search_core.meter ~limit:c.s_limit in
        let result =
          try Some (solve ~on_node:(fun () -> incr nodes) meter)
          with Search_core.Out_of_budget -> None
        in
        (result, meter.Search_core.spent, !nodes)
      in
      let got =
        let group = Search_core.build_group search_ws ~tape:Tape.compile c.s_exprs in
        run (fun ~on_node meter ->
            Search_core.solve_group search_ws ~on_node meter ~hint ~focus:c.s_focus ~bounds group)
      in
      let want =
        let group = Oracle_search.build_group ~reads:Expr.reads c.s_exprs in
        run (fun ~on_node meter ->
            Oracle_search.solve_group ~on_node meter ~hint ~focus:c.s_focus ~bounds group)
      in
      got = want)

(* --- replayed exhausted searches -------------------------------------------- *)

(* A search case run from a work count near its limit, and a second call
   that repeats it exactly, starts [r_more] units later, or moves hint
   byte [r_byte] to [r_value]. *)
type replay_case = {
  r_case : search_case;
  r_entry : int;
  r_variant : [ `Same | `Later | `Hint ];
  r_more : int;
  r_byte : int;
  r_value : int;
}

let gen_replay_case =
  let open QCheck.Gen in
  map
    (fun (c, back, (variant, more, (byte, value))) ->
      {
        r_case = c;
        r_entry = Int.max 0 (c.s_limit - back);
        r_variant = variant;
        r_more = more;
        r_byte = byte;
        r_value = value;
      })
    (triple gen_search_case (int_range 0 600)
       (triple
          (oneofl [ `Same; `Later; `Hint ])
          (int_range 1 40)
          (pair (int_range 0 2) (int_range 0 255))))

let print_replay_case r =
  Printf.sprintf "%s\nentry %d, variant %s (+%d, byte %d := %d)"
    (print_search_case r.r_case) r.r_entry
    (match r.r_variant with `Same -> "same" | `Later -> "later" | `Hint -> "hint")
    r.r_more r.r_byte r.r_value

(* [key_of] stands in for the solver's replay key: a first call that runs
   out of budget is remembered under its key with the work it spent and
   the nodes it counted, and a second call with an equal key is answered
   from that, as the solver's memo answers it. The answer must be the
   one a fresh search of the second call gives. *)
let replay_agrees key_of r =
  let c = r.r_case in
  let hint_of bytes =
    Array.fold_left (fun (m, i) v -> (Model.set m i v, i + 1)) (Model.empty, 0) bytes
    |> fst
  in
  let bounds i =
    if i < 0 || i >= Array.length c.s_bounds then None
    else
      Option.map
        (fun (lo, hi) -> Interval.make (Int64.of_int lo) (Int64.of_int hi))
        c.s_bounds.(i)
  in
  let group = Search_core.build_group search_ws ~tape:Tape.compile c.s_exprs in
  let call ~entry ~hint =
    let meter = Search_core.meter ~limit:c.s_limit in
    meter.Search_core.spent <- entry;
    let key = key_of group (Search_core.replay_key meter ~hint ~focus:c.s_focus ~bounds group) in
    let nodes = ref 0 in
    let exhausted =
      match
        Search_core.solve_group search_ws ~on_node:(fun () -> incr nodes) meter ~hint
          ~focus:c.s_focus ~bounds group
      with
      | _ -> false
      | exception Search_core.Out_of_budget -> true
    in
    (key, exhausted, meter.Search_core.spent, !nodes)
  in
  let first_hint = hint_of c.s_hint in
  let key1, exhausted1, spent1, nodes1 = call ~entry:r.r_entry ~hint:first_hint in
  let entry2, hint2 =
    match r.r_variant with
    | `Same -> (r.r_entry, first_hint)
    | `Later -> (r.r_entry + r.r_more, first_hint)
    | `Hint -> (r.r_entry, Model.set first_hint r.r_byte r.r_value)
  in
  let key2, exhausted2, spent2, nodes2 = call ~entry:entry2 ~hint:hint2 in
  (not exhausted1) || key1 <> key2 || (exhausted2 && spent2 = spent1 && nodes2 = nodes1)

let arb_replay_case = QCheck.make ~print:print_replay_case gen_replay_case

let prop_replayed_search_matches_fresh =
  QCheck.Test.make ~count:1000 ~name:"replayed exhausted search = fresh search"
    arb_replay_case
    (replay_agrees (fun _group key -> key))

(* The key must hold the work spent on entry and the hint bytes: with
   either dropped, the same script finds a second call that the memo
   would answer wrongly. *)
let test_replay_key_needs_spent_and_hint () =
  let without_spent _group key = Array.sub key 1 (Array.length key - 1) in
  let without_hint group key =
    let hints = 2 + key.(1) and m = Array.length (Search_core.group_vars group) in
    Array.append (Array.sub key 0 hints)
      (Array.sub key (hints + m) (Array.length key - hints - m))
  in
  List.iter
    (fun (name, key_of) ->
      let test = QCheck.Test.make ~count:2000 ~name arb_replay_case (replay_agrees key_of) in
      let refuted =
        match QCheck.Test.check_exn ~rand:(Random.State.make [| 30 |]) test with
        | () -> false
        | exception QCheck2.Test.Test_fail _ -> true
      in
      Alcotest.(check bool) (name ^ " is refuted") true refuted)
    [ ("key without spent", without_spent); ("key without hint", without_hint) ]

(* A query that runs out of budget charges the same work and counts the
   same nodes when it is asked again, on the same solver (a replay) as on
   a fresh one (a search). *)
let test_solver_replays_exhausted_query () =
  let x = Expr.read 0 and y = Expr.read 1 and z = Expr.read 2 in
  let sum = Expr.bin T.Add (Expr.bin T.Add x y) z in
  let query =
    [
      Expr.bin T.Eq (Expr.bin T.Mul sum sum) (Expr.const 0x1F3D1L);
      Expr.bin T.Ult x y;
      Expr.bin T.Ult y z;
    ]
  in
  let ask solver =
    let nodes = (Solver.stats solver).Solver.search_nodes in
    let result, work = Solver.check_assuming solver ~path:[] query in
    (result, work, (Solver.stats solver).Solver.search_nodes - nodes)
  in
  let solver = Solver.create ~budget:3_000 () in
  let first = ask solver in
  let again = ask solver in
  let fresh = ask (Solver.create ~budget:3_000 ()) in
  let show (r, work, nodes) =
    Printf.sprintf "%s work %d nodes %d"
      (match r with Solver.Sat _ -> "sat" | Solver.Unsat -> "unsat" | Solver.Unknown -> "unknown")
      work nodes
  in
  Alcotest.(check bool) "the budget runs out" true
    (match first with Solver.Unknown, _, _ -> true | (Solver.Sat _ | Solver.Unsat), _, _ -> false);
  Alcotest.(check string) "repeat = first" (show first) (show again);
  Alcotest.(check string) "repeat = fresh solver" (show fresh) (show again)

(* --- Search kernels vs the allocating kernels ------------------------------ *)

(* [Search_core]'s probe, search and group building, and
   [Prefix_ctx]'s endpoint trimming, as they were before their kernels
   stopped allocating: a closure per probe, a near-hint list per
   assignment, a fresh 256-byte domain per variable trimmed value by
   value, a hash table and a list sort per group. Copied verbatim (the
   result type is [Search_core]'s): the oracle for the kernels' answers
   and charges. *)
module Reference_kernels = struct
  open Search_core
  module Imap = Map.Make (Int)

  (* Mutable domain of one input byte during a group solve. *)
  type domain = {
    allowed : Bytes.t; (* 256 flags *)
    mutable size : int;
    mutable dlo : int;
    mutable dhi : int;
  }

  let domain_full () = { allowed = Bytes.make 256 '\001'; size = 256; dlo = 0; dhi = 255 }

  let domain_mem d v = Bytes.get d.allowed v <> '\000'

  let domain_remove d v =
    if domain_mem d v then begin
      Bytes.set d.allowed v '\000';
      d.size <- d.size - 1;
      if d.size > 0 then begin
        while d.dlo < 256 && not (domain_mem d d.dlo) do
          d.dlo <- d.dlo + 1
        done;
        while d.dhi >= 0 && not (domain_mem d d.dhi) do
          d.dhi <- d.dhi - 1
        done
      end
    end

  (* --- groups --------------------------------------------------------------- *)

  type group = {
    constraints : Expr.t array;
    tapes : Tape.t array; (* constraint -> its compiled tape *)
    vars : int array; (* sorted input indices *)
    by_var : int list array; (* position -> constraint indices *)
    cpos : int array array; (* constraint -> position of each of its tape's reads *)
  }

  (* Position of input index [v] in the sorted [vars], or -1: a binary
     search, cheap at the solver's group sizes (at most 48 variables). A
     top-level loop, so a lookup allocates no closure; typed [int], so its
     comparisons compile inline instead of calling the polymorphic compare. *)
  let rec search_sorted (vars : int array) (v : int) lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = vars.(mid) in
      if x = v then mid
      else if x < v then search_sorted vars v (mid + 1) hi
      else search_sorted vars v lo mid

  let sorted_position vars v = search_sorted vars v 0 (Array.length vars)

  let rec mem_int (v : int) = function [] -> false | x :: rest -> x = v || mem_int v rest

  let build_group ~tape exprs =
    let constraints = Array.of_list exprs in
    let tapes = Array.map tape constraints in
    let var_set = Hashtbl.create 16 in
    Array.iter
      (fun tp -> Array.iter (fun v -> Hashtbl.replace var_set v ()) (Tape.reads tp))
      tapes;
    let vars =
      Hashtbl.fold (fun v () acc -> v :: acc) var_set [] |> List.sort Int.compare
      |> Array.of_list
    in
    let cpos =
      Array.map (fun tp -> Array.map (sorted_position vars) (Tape.reads tp)) tapes
    in
    let by_var = Array.make (Array.length vars) [] in
    Array.iteri
      (fun ci positions ->
        Array.iter (fun pos -> by_var.(pos) <- ci :: by_var.(pos)) positions)
      cpos;
    { constraints; tapes; vars; by_var; cpos }

  (* Load constraint [ci]'s exact tape with the byte at each group position. *)
  let load_values group ci (vals : int array) =
    let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
    for k = 0 to Array.length positions - 1 do
      Tape.set_value tape k vals.(positions.(k))
    done

  (* --- hint-neighbourhood probe --------------------------------------------- *)

  (* Fast path: most fork queries in loops ask for "one more iteration" —
     a model one small step away from the hint on the newly constrained
     bytes. Probe hint +/- powers of two on each focus byte before any
     domain work; constraints are evaluated in order and the probe aborts
     on the first falsified one, so failed probes are nearly free. [vals]
     holds the hint's byte at each group position; a probe overwrites one
     and puts it back. *)
  let probe_deltas = [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ]

  let probe_neighborhood meter group (vals : int array) focus =
    let n = Array.length group.constraints in
    let rec satisfied ci =
      ci >= n
      || begin
        spend meter (Int.min group.constraints.(ci).Expr.nodes 64);
        load_values group ci vals;
        Tape.holds group.tapes.(ci) && satisfied (ci + 1)
      end
    in
    let bindings () =
      Array.to_list (Array.mapi (fun pos v -> (v, vals.(pos))) group.vars)
    in
    (* [focus] holds group positions *)
    let rec try_var = function
      | [] -> None
      | pos :: rest ->
        let base = vals.(pos) in
        let rec try_delta = function
          | [] -> try_var rest
          | d :: ds ->
            let candidate = base + d in
            if candidate >= 0 && candidate <= 255 then begin
              vals.(pos) <- candidate;
              let found = if satisfied 0 then Some (bindings ()) else None in
              vals.(pos) <- base;
              match found with Some _ -> found | None -> try_delta ds
            end
            else try_delta ds
        in
        try_delta probe_deltas
    in
    if satisfied 0 then Some (bindings ()) else try_var focus

  (* --- backtracking search -------------------------------------------------- *)

  (* [bounds] supplies externally learned per-byte intervals (the prefix
     context's); they are intersected into the initial domains. Soundness:
     a bound for byte [v] is implied by constraints that read [v], all of
     which the caller includes in [v]'s group, so the pruned values could
     never appear in a solution of this group anyway. [on_node] is the
     caller's search-node counter; [hint_vals] holds the hint's byte at
     each group position. *)
  let solve_group_search ~on_node meter ~hint_vals ~bounds group =
    let nvars = Array.length group.vars in
    let domains = Array.init nvars (fun _ -> domain_full ()) in
    (* seed the domains with the learned bounds *)
    Array.iteri
      (fun pos v ->
        match bounds v with
        | None -> ()
        | Some (iv : Interval.t) ->
          let lo = Int64.to_int iv.Interval.lo and hi = Int64.to_int iv.Interval.hi in
          if lo > 0 || hi < 255 then begin
            let d = domains.(pos) in
            for x = 0 to 255 do
              if x < lo || x > hi then domain_remove d x
            done
          end)
      group.vars;
    let assignment = Array.make nvars (-1) in
    (* Interval environment: assigned variables are points, unassigned ones
       are the hull of their remaining domain. *)
    let interval_check ci =
      spend meter group.constraints.(ci).Expr.nodes;
      let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
      for k = 0 to Array.length positions - 1 do
        let pos = positions.(k) in
        let a = assignment.(pos) in
        if a >= 0 then Tape.set_interval tape k a a
        else
          let d = domains.(pos) in
          Tape.set_interval tape k d.dlo d.dhi
      done;
      not (Tape.falsified tape)
    in
    let exact_check ci =
      spend meter group.constraints.(ci).Expr.nodes;
      let tape = group.tapes.(ci) and positions = group.cpos.(ci) in
      for k = 0 to Array.length positions - 1 do
        let pos = positions.(k) in
        let a = assignment.(pos) in
        Tape.set_value tape k (if a >= 0 then a else hint_vals.(pos))
      done;
      Tape.holds tape
    in
    (* Bound-consistency pass: trim each variable's domain endpoints while
       a constraint is definitely false there (holding the other variables
       at their domain hulls). Trimming is pay-per-prune — a constraint that
       prunes nothing costs two interval evaluations — yet converges fully
       for the monotone loop-bound chains and magic-byte equalities that
       dominate parser path conditions. *)
    let propagate () =
      let changed = ref true in
      let rounds = ref 0 in
      (* multi-byte equalities narrow one byte per round, highest first;
         six rounds cover a u32 field plus slack *)
      while !changed && !rounds < 6 do
        changed := false;
        incr rounds;
        for pos = 0 to nvars - 1 do
          let narrow ci =
            let positions = group.cpos.(ci) in
            if Array.length positions <= 6 then begin
              let nodes = group.constraints.(ci).Expr.nodes in
              let tape = group.tapes.(ci) in
              (* the other reads hold their hulls while [pos]'s endpoints move *)
              let kpos = ref 0 in
              for k = 0 to Array.length positions - 1 do
                let p = positions.(k) in
                if p = pos then kpos := k
                else
                  let d = domains.(p) in
                  Tape.set_interval tape k d.dlo d.dhi
              done;
              let kpos = !kpos in
              let false_at v =
                spend meter nodes;
                Tape.set_interval tape kpos v v;
                Tape.falsified tape
              in
              let d = domains.(pos) in
              while d.size > 0 && false_at d.dlo do
                domain_remove d d.dlo;
                changed := true
              done;
              while d.size > 0 && false_at d.dhi do
                domain_remove d d.dhi;
                changed := true
              done
            end
          in
          List.iter narrow group.by_var.(pos);
          if domains.(pos).size = 0 then raise Exit
        done
      done
    in
    let unassigned ci = Array.exists (fun pos -> assignment.(pos) < 0) group.cpos.(ci) in
    (* Depth-first search over variables, cheapest domain first, hint value
       tried first. *)
    let order = Array.init nvars (fun i -> i) in
    let finished = ref None in
    let rec assign depth =
      if depth = nvars then begin
        (* all variables assigned: every constraint must hold exactly *)
        let n = Array.length group.constraints in
        let rec all_exact ci = ci >= n || (exact_check ci && all_exact (ci + 1)) in
        if all_exact 0 then begin
          finished :=
            Some
              (Array.to_list
                 (Array.mapi (fun pos _ -> (group.vars.(pos), assignment.(pos))) group.vars));
          true
        end
        else false
      end
      else begin
        let pos = order.(depth) in
        let d = domains.(pos) in
        let try_value v =
          if not (domain_mem d v) then false
          else begin
            on_node ();
            spend meter 1;
            assignment.(pos) <- v;
            let consistent =
              List.for_all
                (fun ci -> if unassigned ci then interval_check ci else exact_check ci)
                group.by_var.(pos)
            in
            let found = consistent && assign (depth + 1) in
            if not found then assignment.(pos) <- -1;
            found
          end
        in
        (* neighbourhood-first value order: loop-step queries succeed a small
           delta away from the hint; the tail scan keeps the search complete *)
        let hint_v = hint_vals.(pos) land 0xFF in
        let deltas = [ 0; 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32; 64; -64; 128 ] in
        let near =
          List.filter_map
            (fun delta ->
              let v = hint_v + delta in
              if v >= 0 && v <= 255 then Some v else None)
            deltas
        in
        let rec try_near = function
          | [] ->
            let rec scan v =
              if v > d.dhi then false
              else if (not (mem_int v near)) && try_value v then true
              else scan (v + 1)
            in
            scan d.dlo
          | v :: rest -> if try_value v then true else try_near rest
        in
        try_near near
      end
    in
    match
      (try
         if Array.exists (fun d -> d.size = 0) domains then raise Exit;
         propagate ();
         (* order variables by narrowed domain size *)
         Array.sort (fun a b -> Int.compare domains.(a).size domains.(b).size) order;
         if assign 0 then `Sat else `Unsat
       with
      | Exit -> `Unsat)
    with
    | `Sat -> (
      match !finished with
      | Some bindings -> Gsat bindings
      | None -> Gunknown)
    | `Unsat -> Gunsat

  let solve_group ~on_node meter ~hint ~focus ~bounds group =
    let hint_vals = Array.map (Model.get hint) group.vars in
    let focus =
      List.filter_map
        (fun v ->
          let pos = sorted_position group.vars v in
          if pos >= 0 then Some pos else None)
        focus
    in
    match probe_neighborhood meter group hint_vals focus with
    | Some bindings -> Gsat bindings
    | None -> solve_group_search ~on_node meter ~hint_vals ~bounds group

  let max_trim_steps = 64

  let trim_bound tape bounds cost v (iv : Interval.t) (c : Expr.t) =
    let reads = Tape.reads tape in
    let kv = ref 0 in
    for k = 0 to Array.length reads - 1 do
      let i = reads.(k) in
      if i = v then kv := k
      else
        match Imap.find_opt i bounds with
        | Some (b : Interval.t) ->
          Tape.set_interval tape k (Int64.to_int b.Interval.lo) (Int64.to_int b.Interval.hi)
        | None -> Tape.set_interval tape k 0 255
    done;
    let kv = !kv in
    let false_at x =
      cost := !cost + c.Expr.nodes;
      Tape.set_interval tape kv x x;
      Tape.falsified tape
    in
    let lo = ref (Int64.to_int iv.Interval.lo) in
    let hi = ref (Int64.to_int iv.Interval.hi) in
    let steps = ref 0 in
    while !lo < !hi && !steps < max_trim_steps && false_at !lo do
      incr lo;
      incr steps
    done;
    steps := 0;
    while !hi > !lo && !steps < max_trim_steps && false_at !hi do
      decr hi;
      incr steps
    done;
    Interval.make (Int64.of_int !lo) (Int64.of_int !hi)
end

(* A group over input bytes 0-7 drawn with repeats from a pool of up to
   six constraints: sums of one to seven reads (seven is past
   propagation's limit) against constants, little-endian u16 fields,
   product residues and random terms; bounds that are absent,
   empty (past 255, or wrapping), single-valued, at 0 or 255, or
   random; hint bytes at 0, at 255 or random; focus bytes (8 is outside
   the group) and a work limit that is often too small. *)
type kernel_case = {
  k_exprs : Expr.t list;
  k_bounds : Interval.t option array;
  k_hint : int array;
  k_focus : int list;
  k_limit : int;
}

let gen_kernel_case =
  let open QCheck.Gen in
  let byte = int_range 0 7 in
  let cmp = oneofl [ T.Eq; T.Ne; T.Ult; T.Ule ] in
  let const hi = map (fun c -> Expr.const (Int64.of_int c)) (int_range 0 hi) in
  let sum =
    int_range 1 7 >>= fun k ->
    map3
      (fun reads op c ->
        let total =
          List.fold_left (fun acc i -> Expr.bin T.Add acc (Expr.read i)) (Expr.read (List.hd reads))
            (List.tl reads)
        in
        Expr.bin op total c)
      (list_repeat k byte) cmp (const (k * 255))
  in
  let field = map3 (fun (i, j) op c -> Expr.bin op (le_field [ i; j ]) c) (pair byte byte) cmp (const 0x10000) in
  let residue =
    map3
      (fun (i, j) m c ->
        Expr.bin T.Eq
          (Expr.bin T.Urem (Expr.bin T.Mul (Expr.read i) (Expr.read j)) (Expr.const (Int64.of_int m)))
          (Expr.const (Int64.of_int (c mod m))))
      (pair byte byte) (int_range 2 251) (int_range 0 250)
  in
  let term = map build (gen_spec 8) in
  let constraint_ = frequency [ (3, sum); (2, field); (1, residue); (2, term) ] in
  let byte_value = frequency [ (1, return 0); (1, return 255); (2, int_range 0 255) ] in
  let bound =
    let iv lo hi = Some (Interval.make (Int64.of_int lo) (Int64.of_int hi)) in
    frequency
      [
        (6, return None);
        (1, return (iv 256 300));
        (1, return (Some (Interval.make 7L (-1L))));
        (4, map (fun v -> iv v v) byte_value);
        (2, map (fun v -> iv 0 v) (int_range 0 255));
        (2, map (fun v -> iv v 255) (int_range 0 255));
        (4, map2 (fun a b -> iv (min a b) (max a b)) (int_range 0 255) (int_range 0 255));
      ]
  in
  let limit = frequency [ (1, int_range 0 400); (2, int_range 400 5_000); (3, return 200_000) ] in
  list_size (int_range 1 6) constraint_ >>= fun pool ->
  let pool = Array.of_list pool in
  map
    (fun ((exprs, k_bounds), (k_hint, k_focus, k_limit)) ->
      { k_exprs = List.map (fun i -> pool.(i)) exprs; k_bounds; k_hint; k_focus; k_limit })
    (pair
       (pair (list_size (int_range 1 8) (int_range 0 (Array.length pool - 1))) (array_repeat 8 bound))
       (triple (array_repeat 8 byte_value) (list_size (int_range 0 3) (int_range 0 8)) limit))

let print_kernel_case c =
  Printf.sprintf "constraints:\n%s\nbounds [%s]\nhint [%s]\nfocus [%s]\nlimit %d"
    (String.concat "\n" (List.map Expr.to_string c.k_exprs))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (function
               | None -> "-"
               | Some (iv : Interval.t) -> Printf.sprintf "%Ld..%Ld" iv.Interval.lo iv.Interval.hi)
             c.k_bounds)))
    (String.concat "; " (Array.to_list (Array.map string_of_int c.k_hint)))
    (String.concat "; " (List.map string_of_int c.k_focus))
    c.k_limit

(* The answer, the work spent, the node count and whether the budget ran
   out, under [limit], for the kernels and for the reference. *)
let run_kernels c ~limit =
  let hint =
    Array.fold_left (fun (m, i) v -> (Model.set m i v, i + 1)) (Model.empty, 0) c.k_hint |> fst
  in
  let bounds i = if i >= 0 && i < Array.length c.k_bounds then c.k_bounds.(i) else None in
  let run solve =
    let nodes = ref 0 in
    let meter = Search_core.meter ~limit in
    let result =
      try Some (solve ~on_node:(fun () -> incr nodes) meter)
      with Search_core.Out_of_budget -> None
    in
    (result, meter.Search_core.spent, !nodes)
  in
  let got =
    let group = Search_core.build_group search_ws ~tape:Tape.compile c.k_exprs in
    run (fun ~on_node meter ->
        Search_core.solve_group search_ws ~on_node meter ~hint ~focus:c.k_focus ~bounds group)
  in
  let want =
    let group = Reference_kernels.build_group ~tape:Tape.compile c.k_exprs in
    run (fun ~on_node meter ->
        Reference_kernels.solve_group ~on_node meter ~hint ~focus:c.k_focus ~bounds group)
  in
  (got, want)

let arb_kernel_case = QCheck.make ~print:print_kernel_case gen_kernel_case

let prop_search_kernels_match_reference =
  QCheck.Test.make ~count:1000 ~name:"search kernels = allocating kernels" arb_kernel_case
    (fun c ->
      let got, want = run_kernels c ~limit:c.k_limit in
      got = want)

(* Small cases, cut at every unit of work they spend: the kernels must
   run out of budget at the same point, with the same nodes counted. *)
let prop_search_kernels_match_reference_at_every_cut =
  QCheck.Test.make ~count:150 ~name:"search kernels = allocating kernels at every budget cut"
    arb_kernel_case (fun c ->
      let (_, spent, _), _ = run_kernels c ~limit:200_000 in
      QCheck.assume (spent <= 1_500);
      let rec agree limit =
        limit > spent + 1
        || begin
          let got, want = run_kernels c ~limit in
          got = want && agree (limit + 1)
        end
      in
      agree 0)

(* --- trimming a read's range ------------------------------------------------ *)

(* A little-endian field of reads ([`R i]) and constant bytes ([`K b]),
   lowest byte first, composed as a parser composes it. *)
let mixed_field parts =
  let shifted i p =
    let x = match p with `R r -> Expr.read r | `K b -> Expr.const (Int64.of_int b) in
    if i = 0 then x else Expr.bin T.Shl x (Expr.const (Int64.of_int (8 * i)))
  in
  match List.mapi shifted parts with
  | [] -> invalid_arg "mixed_field"
  | first :: rest -> List.fold_left (fun acc x -> Expr.bin T.Or acc x) first rest

(* Constraints over bytes 0-2 shaped to straddle the signed half-ranges
   that the interval step's [all_negative] rewrite tells apart: a byte
   shifted into the top bits, complemented, subtracted from a constant
   or offset by a constant at or past [2^63], summed and compared with
   edge constants; and little-endian fields of reads and constant
   bytes, compared as the parsers compare them. *)
let gen_straddling =
  let open QCheck.Gen in
  let byte = int_range 0 2 in
  let big = oneofl [ Int64.min_int; Int64.add Int64.min_int 1L; -1L; -2L; -128L; -256L ] in
  let edge = oneof [ big; map Int64.of_int (int_range 0 300); oneofl [ Int64.max_int; 0x100L ] ] in
  let const_of g = map Expr.const g in
  let base =
    oneof
      [
        map Expr.read byte;
        map2 (fun i n -> Expr.bin T.Shl (Expr.read i) (Expr.const (Int64.of_int n))) byte
          (oneofl [ 48; 55; 56; 57; 63 ]);
        map (fun i -> Expr.un T.Not (Expr.read i)) byte;
        map2 (fun c i -> Expr.bin T.Sub c (Expr.read i)) (const_of edge) byte;
        map2 (fun i c -> Expr.bin T.Add (Expr.read i) c) byte (const_of big);
      ]
  in
  let term =
    frequency
      [
        (3, base);
        (2, map3 (fun op a b -> Expr.bin op a b) (oneofl [ T.Add; T.Sub; T.Or ]) base base);
        ( 1,
          map2
            (fun a c -> Expr.bin T.Add (Expr.bin T.Shl a (Expr.const 56L)) c)
            base (const_of edge) );
      ]
  in
  let part =
    frequency [ (2, map (fun i -> `R i) byte); (1, map (fun b -> `K b) (int_range 0 255)) ]
  in
  let field =
    map3
      (fun parts op c -> Expr.bin op (mixed_field parts) (Expr.const (Int64.of_int c)))
      (oneof [ list_repeat 2 part; list_repeat 4 part ])
      (oneofl [ T.Eq; T.Ne; T.Ult; T.Ule; T.Sle; T.Slt ])
      (oneof [ int_range 0 0xFFFF; int_range 0 0x3FFFFFFF ])
  in
  let cmp = oneofl [ T.Eq; T.Ne; T.Ult; T.Ule; T.Slt; T.Sle ] in
  frequency
    [
      (4, map3 (fun op a c -> Expr.bin op a c) cmp term (const_of edge));
      (1, map3 (fun op a b -> Expr.bin op a b) cmp term term);
      (2, field);
      (1, map build (gen_spec 3));
    ]

(* A constraint, the read [k] to trim, the other reads' intervals and a
   range [lo, hi], now and then empty ([lo = hi + 1]). *)
let gen_trim_kernel_case =
  let open QCheck.Gen in
  let interval = map2 (fun a b -> (Int.min a b, Int.max a b)) (int_range 0 255) (int_range 0 255) in
  let range =
    frequency
      [
        (4, interval);
        (1, return (0, 255));
        (1, map (fun v -> (v, v)) (int_range 0 255));
        (1, map (fun v -> (v + 1, v)) (int_range 0 254));
      ]
  in
  quad gen_straddling (int_range 0 2) (array_repeat 3 interval) range

let print_trim_kernel_case (e, k, others, (lo, hi)) =
  Printf.sprintf "%s\nread %d over [%d, %d], others [%s]" (Expr.to_string e) k lo hi
    (String.concat "; "
       (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "%d..%d" a b) others)))

(* The walks the kernels replace: one point run per byte. *)
let point_falsified tape k v =
  Tape.set_interval tape k v v;
  Tape.falsified tape

let rec walk_up tape k v hi =
  if v <= hi && point_falsified tape k v then walk_up tape k (v + 1) hi else v

let rec walk_down tape k v lo =
  if v >= lo && point_falsified tape k v then walk_down tape k (v - 1) lo else v

let prop_trim_kernels_match_point_walks =
  QCheck.Test.make ~count:3000 ~name:"first/last_unfalsified = point-run walks"
    (QCheck.make ~print:print_trim_kernel_case gen_trim_kernel_case)
    (fun (e, k, others, (lo, hi)) ->
      let tape = Tape.compile e in
      let reads = Tape.reads tape in
      QCheck.assume (Array.length reads > 0);
      let k = k mod Array.length reads in
      Array.iteri
        (fun j _ -> if j <> k then Tape.set_interval tape j (fst others.(j)) (snd others.(j)))
        reads;
      let first = Tape.first_unfalsified tape k lo hi in
      let last = Tape.last_unfalsified tape k lo hi in
      first = walk_up tape k lo hi && last = walk_down tape k hi lo)

(* A range run over [127, 254] of [(in[0] << 56) + 1 == 0] is falsified,
   but its sum straddles [2^63]: the point run at 129 is not. *)
let test_trim_kernel_sign_guard () =
  let e =
    Expr.bin T.Eq
      (Expr.bin T.Add (Expr.bin T.Shl (Expr.read 0) (Expr.const 56L)) Expr.one)
      (Expr.const 0L)
  in
  let tape = Tape.compile e in
  Tape.set_interval tape 0 127 254;
  Alcotest.(check bool) "the range run reads falsified" true (Tape.falsified tape);
  (* from 3, the gallop's block [67, 130] straddles 2^63 *)
  for lo = 0 to 129 do
    Alcotest.(check int)
      (Printf.sprintf "first from %d" lo)
      129
      (Tape.first_unfalsified tape 0 lo 255)
  done;
  Alcotest.(check int) "last downward" 255 (Tape.last_unfalsified tape 0 0 255);
  Alcotest.(check int) "none below 129" (-1) (Tape.last_unfalsified tape 0 0 128)

(* [n] charges of [nodes] lumped into one stop where [n] single charges
   stop, for every limit around every charge boundary. *)
let test_spend_runs_cuts () =
  let single spent limit nodes n =
    let m = { (Search_core.meter ~limit) with Search_core.spent } in
    match
      for _ = 1 to n do
        Search_core.spend m nodes
      done
    with
    | () -> (false, m.Search_core.spent)
    | exception Search_core.Out_of_budget -> (true, m.Search_core.spent)
  in
  let lumped spent limit nodes n =
    let m = { (Search_core.meter ~limit) with Search_core.spent } in
    match Search_core.spend_runs m nodes n with
    | () -> (false, m.Search_core.spent)
    | exception Search_core.Out_of_budget -> (true, m.Search_core.spent)
  in
  for nodes = 0 to 5 do
    for n = 0 to 6 do
      for spent = 0 to 9 do
        for limit = spent - 2 to spent + (nodes * n) + 2 do
          let name = Printf.sprintf "spent %d, limit %d, %d x %d" spent limit n nodes in
          Alcotest.(check (pair bool int))
            name (single spent limit nodes n) (lumped spent limit nodes n)
        done
      done
    done
  done

(* A path over bytes 0-3, newest constraint first: single bytes, sums
   and u16 fields against constants, now and then a 3-byte sum (which
   learns no bound) or a constant; windows that bound a byte to
   [a, a + w - 1] for [w] of 1 (a point), 63, 64 or 65, around the
   64-value trimming cap, each end reached by a ladder of bounds at
   most 64 values apart; and 2- and 4-byte little-endian fields that mix
   at most two reads with constant bytes, compared with a constant near
   a value the field takes. *)
let gen_trim_path =
  let open QCheck.Gen in
  let byte = int_range 0 3 in
  let cmp = oneofl [ T.Eq; T.Ne; T.Ult; T.Ule ] in
  let const hi = map (fun c -> Expr.const (Int64.of_int c)) (int_range 0 hi) in
  let single = map3 (fun i op c -> Expr.bin op (Expr.read i) c) byte cmp (const 255) in
  let flipped = map3 (fun i op c -> Expr.bin op c (Expr.read i)) byte cmp (const 255) in
  let sum2 =
    map3 (fun (i, j) op c -> Expr.bin op (Expr.bin T.Add (Expr.read i) (Expr.read j)) c) (pair byte byte) cmp
      (const 510)
  in
  let field = map3 (fun (i, j) op c -> Expr.bin op (le_field [ i; j ]) c) (pair byte byte) cmp (const 0x10000) in
  let sum3 =
    map2
      (fun (i, j, k) c ->
        Expr.bin T.Ult (Expr.bin T.Add (Expr.bin T.Add (Expr.read i) (Expr.read j)) (Expr.read k)) c)
      (triple byte byte byte) (const 765)
  in
  let window =
    map3
      (fun i w a ->
        let a = Int.min a (256 - w) in
        let top = a + w - 1 in
        let dedup l = List.sort_uniq Int.compare l in
        let lower =
          List.map
            (fun c -> Expr.bin T.Ule (Expr.const (Int64.of_int c)) (Expr.read i))
            (dedup [ Int.min a 64; Int.min a 128; Int.min a 192; a ])
        in
        let upper =
          List.map
            (fun c -> Expr.bin T.Ule (Expr.read i) (Expr.const (Int64.of_int c)))
            (List.rev (dedup [ Int.max top 191; Int.max top 127; Int.max top 63; top ]))
        in
        (* newest first *)
        List.rev (lower @ upper))
      byte (oneofl [ 1; 63; 64; 65 ]) (int_range 0 255)
  in
  let wide_field =
    let parts = oneof [ list_repeat 2 (int_range 0 3); list_repeat 4 (int_range 0 3) ] in
    parts >>= fun slots ->
    (* slot 0 and 1 are the reads [i] and [j], 2 and 3 constant bytes *)
    map3
      (fun (i, j) (k0, k1) (op, values, delta) ->
        let byte_of slot = match slot with 0 -> `R i | 1 -> `R j | 2 -> `K k0 | _ -> `K k1 in
        let parts = List.map byte_of slots in
        let value =
          List.fold_left ( lor ) 0
            (List.mapi (fun n p -> (match p with `R r -> values.(r) | `K b -> b) lsl (8 * n)) parts)
        in
        [ Expr.bin op (mixed_field parts) (Expr.const (Int64.of_int (Int.max 0 (value + delta)))) ])
      (pair byte byte)
      (pair (int_range 0 255) (int_range 0 255))
      (triple
         (oneofl [ T.Eq; T.Ne; T.Ult; T.Ule; T.Sle ])
         (array_repeat 4 (int_range 0 255))
         (int_range (-2) 2))
  in
  let one g = map (fun c -> [ c ]) g in
  map List.concat
    (list_size (int_range 1 12)
       (frequency
          [
            (3, one single);
            (2, one flipped);
            (2, one sum2);
            (2, one field);
            (1, one sum3);
            (1, one (oneofl [ Expr.one; Expr.const 3L ]));
            (2, window);
            (2, wide_field);
          ]))

(* The bounds a fresh prefix context learns along [path] and the work it
   charges, with [Reference_kernels.trim_bound] in [Prefix_ctx.extend]'s
   place: no model is noted, so the charge is the index's and the
   trimming's. *)
let reference_trimmed path =
  let module Imap = Reference_kernels.Imap in
  let cost = ref 0 in
  let bounds =
    List.fold_left
      (fun parent (c : Expr.t) ->
        match Expr.is_const c with
        | Some _ -> parent
        | None ->
          let r = Expr.reads c in
          cost := !cost + 1 + List.length r;
          if List.length r <= 2 then begin
            let tape = Tape.compile c in
            List.fold_left
              (fun m v ->
                let iv = Option.value (Imap.find_opt v m) ~default:(Interval.make 0L 255L) in
                let iv' = Reference_kernels.trim_bound tape parent cost v iv c in
                if iv'.Interval.lo = iv.Interval.lo && iv'.Interval.hi = iv.Interval.hi then m
                else Imap.add v iv' m)
              parent r
          end
          else parent)
      Imap.empty (List.rev path)
  in
  (List.init 4 (fun v -> Imap.find_opt v bounds), !cost)

let prop_trim_bound_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"prefix endpoint trimming = allocating trimming"
    (QCheck.make ~print:(fun p -> String.concat "\n" (List.map Expr.to_string p)) gen_trim_path)
    (fun path ->
      let o = Prefix_ctx.find_or_build (Prefix_ctx.create ()) ~reads:Expr.reads ~tape:Tape.compile path in
      let show = Option.map (fun (iv : Interval.t) -> (iv.Interval.lo, iv.Interval.hi)) in
      let got = (List.init 4 (fun v -> show (Prefix_ctx.bound o.Prefix_ctx.ctx v)), o.Prefix_ctx.cost) in
      let bounds, cost = reference_trimmed path in
      got = (List.map show bounds, cost))

(* A search that exhausts the solver's default budget allocates no words
   of its own per probe, check or assignment. The group is pigeonhole:
   seven bytes below 6, pairwise distinct. Interval propagation trims
   each byte to [0, 5] and then cannot refute the distinctness, so the
   search walks until the budget runs out. What it allocates is the
   tapes': where [Semantics] is not inlined into them (the dev build),
   each exact step boxes its operands. The dev build measured 135,014
   words for this search, and 382,636 with the kernels that built a
   near-hint list per assignment and a closure per probe; the bound is
   twice the former. *)
let exhausted_search_word_bound = 270_028

let test_exhausted_search_allocation () =
  let n = 7 in
  let below = List.init n (fun i -> Expr.bin T.Ult (Expr.read i) (Expr.const 6L)) in
  let distinct =
    List.concat
      (List.init n (fun i ->
           List.init (n - 1 - i) (fun k -> Expr.bin T.Ne (Expr.read i) (Expr.read (i + 1 + k)))))
  in
  let ws = Workspace.create () in
  let group = Search_core.build_group ws ~tape:Tape.compile (below @ distinct) in
  let search () =
    let meter = Search_core.meter ~limit:60_000 in
    match
      Search_core.solve_group ws ~on_node:ignore meter ~hint:Model.empty ~focus:[ 0 ]
        ~bounds:(fun _ -> None) group
    with
    | _ -> Alcotest.fail "the search must run out of budget"
    | exception Search_core.Out_of_budget -> meter.Search_core.spent
  in
  (* the first search grows the workspace's buffers *)
  let first = search () in
  let before = Gc.minor_words () in
  let spent = search () in
  let words = Gc.minor_words () -. before in
  Printf.printf "exhausted search: %d units, %.0f minor words\n%!" spent words;
  Alcotest.(check int) "same work both times" first spent;
  Alcotest.(check bool) "past the budget" true (spent > 60_000);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words within %d" words exhausted_search_word_bound)
    true
    (words <= float_of_int exhausted_search_word_bound)

(* --- preprocessing workspace ---------------------------------------------- *)

(* The component closure and the independence grouping as they were
   before they shared the solver's workspace: hash tables and a queue per
   call. The closure runs over the prefix index that [Prefix_ctx] builds,
   rebuilt here from the path: oldest constraint first, constants
   skipped, each reading byte listing its constraints newest first. *)
module Reference_preprocessing = struct
  let index path =
    let by_var = Hashtbl.create 64 and creads = Hashtbl.create 64 in
    List.iter
      (fun (c : Expr.t) ->
        match Expr.is_const c with
        | Some _ -> ()
        | None ->
          let r = Expr.reads c in
          List.iter
            (fun v ->
              let existing = Option.value ~default:[] (Hashtbl.find_opt by_var v) in
              Hashtbl.replace by_var v (c :: existing))
            r;
          Hashtbl.replace creads c.Expr.id r)
      (List.rev path);
    (by_var, creads)

  let closure (by_var, creads) ~reads ~spend extra =
    let in_component = Hashtbl.create 64 in
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let queue = Queue.create () in
    let selected = ref extra in
    let add_var v =
      if not (Hashtbl.mem in_component v) then begin
        Hashtbl.replace in_component v ();
        Queue.add v queue
      end
    in
    List.iter
      (fun (x : Expr.t) ->
        Hashtbl.replace seen x.Expr.id ();
        List.iter add_var (reads x))
      extra;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      match Hashtbl.find_opt by_var v with
      | None -> ()
      | Some cs ->
        List.iter
          (fun (c : Expr.t) ->
            if not (Hashtbl.mem seen c.Expr.id) then begin
              Hashtbl.replace seen c.Expr.id ();
              spend 1;
              selected := c :: !selected;
              match Hashtbl.find_opt creads c.Expr.id with
              | Some r -> List.iter add_var r
              | None -> ()
            end)
          cs
    done;
    !selected

  let group_constraints ~reads exprs =
    let parent = Hashtbl.create 64 in
    let rec find (v : int) =
      match Hashtbl.find_opt parent v with
      | None -> v
      | Some p ->
        let root = find p in
        if root <> p then Hashtbl.replace parent v root;
        root
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    List.iter
      (fun e -> match reads e with [] -> () | first :: rest -> List.iter (union first) rest)
      exprs;
    let groups = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match reads e with
        | [] -> ()
        | first :: _ ->
          let root = find first in
          let existing = try Hashtbl.find groups root with Not_found -> [] in
          Hashtbl.replace groups root (e :: existing))
      exprs;
    Hashtbl.fold (fun _ es acc -> es :: acc) groups []
end

(* Constraints drawn with repeats from a pool over bytes [0, span): single
   bytes against constants (many small groups), sums and u16 fields over
   two or three bytes (merging them), and constants. *)
let gen_constraint_pool span =
  let open QCheck.Gen in
  let byte = int_range 0 (span - 1) in
  let single =
    map3
      (fun v op k -> Expr.bin op (Expr.read v) (Expr.const (Int64.of_int k)))
      byte
      (oneofl [ T.Eq; T.Ne; T.Ult; T.Ule ])
      (int_range 1 254)
  in
  let sum =
    map3
      (fun a b c ->
        Expr.bin T.Ult (Expr.bin T.Add (Expr.bin T.Add (Expr.read a) (Expr.read b)) (Expr.read c))
          (Expr.const 300L))
      byte byte byte
  in
  let field = map2 (fun a b -> Expr.bin T.Ne (le_field [ a; b ]) (Expr.const 0x1234L)) byte byte in
  let constant = oneofl [ Expr.one; Expr.const 7L ] in
  array_size (int_range 1 40)
    (frequency [ (6, single); (2, sum); (2, field); (1, constant) ])

let gen_drawn pool n = QCheck.Gen.(list_size n (map (fun i -> pool.(i)) (int_range 0 (Array.length pool - 1))))

type preprocessing_case = {
  p_path : Expr.t list;
  p_extra : Expr.t list;
  p_grouped : Expr.t list;
  p_cut : int;
}

let gen_preprocessing_case =
  let open QCheck.Gen in
  oneofl [ 8; 40; 700 ] >>= fun span ->
  gen_constraint_pool span >>= fun pool ->
  map
    (fun (((path, extra), grouped), cut) ->
      { p_path = path; p_extra = extra; p_grouped = grouped; p_cut = cut })
    (pair
       (pair
          (pair (gen_drawn pool (int_range 0 30)) (gen_drawn pool (int_range 1 4)))
          (gen_drawn pool (int_range 0 150)))
       (int_range 0 8))

let print_preprocessing_case c =
  let show l = String.concat "; " (List.map Expr.to_string l) in
  Printf.sprintf "path [%s]\nextra [%s]\ngrouped [%s]\ncut after %d" (show c.p_path)
    (show c.p_extra) (show c.p_grouped) c.p_cut

let ids groups = List.map (List.map (fun (e : Expr.t) -> e.Expr.id)) groups

(* One workspace serves every case, as one solver's serves its queries.
   Each case first runs a closure that [Out_of_budget] cuts after
   [p_cut] units, then a clean closure and a grouping: both must equal
   the reference, charges and order included. *)
let prop_workspace_matches_reference =
  let w = Workspace.create () in
  QCheck.Test.make ~count:500 ~name:"workspace closure and grouping = reference"
    (QCheck.make ~print:print_preprocessing_case gen_preprocessing_case)
    (fun c ->
      let prefixes = Prefix_ctx.create () in
      let entry =
        (Prefix_ctx.find_or_build prefixes ~reads:Expr.reads ~tape:Tape.compile c.p_path)
          .Prefix_ctx.ctx
      in
      let budget = ref c.p_cut in
      (try
         ignore
           (Prefix_ctx.closure w entry ~reads:Expr.reads
              ~spend:(fun n ->
                budget := !budget - n;
                if !budget < 0 then raise Search_core.Out_of_budget)
              c.p_extra)
       with Search_core.Out_of_budget -> ());
      let run closure =
        let spent = ref 0 in
        let selected = closure ~reads:Expr.reads ~spend:(fun n -> spent := !spent + n) c.p_extra in
        (ids [ selected ], !spent)
      in
      let got = run (Prefix_ctx.closure w entry) in
      let want = run (Reference_preprocessing.closure (Reference_preprocessing.index c.p_path)) in
      let symbolic = List.filter (fun e -> Expr.is_const e = None) c.p_grouped in
      got = want
      && ids (Simplify.group_constraints w ~reads:Expr.reads symbolic)
         = ids (Reference_preprocessing.group_constraints ~reads:Expr.reads symbolic))

(* Past 32 and 64 groups the reference table doubles its buckets, which
   reorders its groups; the workspace must follow. A closure over a
   chain of 300 bytes past byte 500 outgrows the workspace's queue, id
   set and byte arrays on the way. *)
let test_workspace_past_its_buffers () =
  let w = Workspace.create () in
  let chain =
    List.init 300 (fun i ->
        Expr.bin T.Ult
          (Expr.bin T.Add (Expr.read (500 + i)) (Expr.read (501 + i)))
          (Expr.const 400L))
  in
  let path = List.rev chain in
  let entry =
    (Prefix_ctx.find_or_build (Prefix_ctx.create ()) ~reads:Expr.reads ~tape:Tape.compile path)
      .Prefix_ctx.ctx
  in
  let extra = [ Expr.bin T.Eq (Expr.read 650) (Expr.const 3L) ] in
  let run closure =
    let spent = ref 0 in
    let selected = closure ~reads:Expr.reads ~spend:(fun n -> spent := !spent + n) extra in
    (ids [ selected ], !spent)
  in
  let want = run (Reference_preprocessing.closure (Reference_preprocessing.index path)) in
  Alcotest.(check (pair (list (list int)) int)) "long chain closure" want
    (run (Prefix_ctx.closure w entry));
  Alcotest.(check int) "whole chain selected" 300 (snd want);
  List.iter
    (fun n ->
      let exprs =
        List.init n (fun i ->
            let v = (i * 37) mod 1000 in
            Expr.bin T.Ult (Expr.read v) (Expr.const (Int64.of_int (1 + (i mod 200)))))
      in
      let exprs = exprs @ List.filteri (fun i _ -> i mod 3 = 0) exprs in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "%d groups" n)
        (ids (Reference_preprocessing.group_constraints ~reads:Expr.reads exprs))
        (ids (Simplify.group_constraints w ~reads:Expr.reads exprs)))
    [ 1; 2; 16; 31; 32; 33; 64; 65; 66; 129; 400 ]

(* --- deterministic unit tests --------------------------------------------- *)

let check_simpl name expected e =
  Alcotest.(check string) name expected (Expr.to_string e)

let test_simplifications () =
  let x = Expr.read 0 in
  check_simpl "x + 0" "in[0]" (Expr.bin T.Add x Expr.zero);
  check_simpl "x - x" "0" (Expr.bin T.Sub x x);
  check_simpl "x * 0" "0" (Expr.bin T.Mul x Expr.zero);
  check_simpl "x & 0xff is identity on a byte" "in[0]"
    (Expr.bin T.And x (Expr.const 0xFFL));
  check_simpl "x ^ x" "0" (Expr.bin T.Xor x x);
  check_simpl "x == x" "1" (Expr.bin T.Eq x x);
  check_simpl "byte == 300 is false" "0" (Expr.bin T.Eq x (Expr.const 300L));
  check_simpl "byte < 256 is true" "1" (Expr.bin T.Ult x (Expr.const 256L));
  check_simpl "counter chain collapses" "(add in[0] 3)"
    (Expr.bin T.Add (Expr.bin T.Add (Expr.bin T.Add x Expr.one) Expr.one) Expr.one);
  check_simpl "trunc8 of byte" "in[0]" (Expr.un T.Trunc8 x);
  check_simpl "sext8 of small value stays" "(and in[0] 127)"
    (Expr.un T.Sext8 (Expr.bin T.And x (Expr.const 0x7FL)))

let test_hash_consing_shares () =
  let a = Expr.bin T.Add (Expr.read 0) (Expr.const 5L) in
  let b = Expr.bin T.Add (Expr.read 0) (Expr.const 5L) in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check int) "same id" a.Expr.id b.Expr.id

(* [Expr.const] answers from a per-arena cache of 256 slots indexed by
   the constant's low bits, so [c] and [c + 256] (and [c + 2^32]) share a
   slot and evict each other. Whatever the cache holds, a constant must
   intern to one node per arena, a distinct node in another arena, and
   a repeat must hand out no id. Runs in a spawned domain so
   [use_arena] leaves the main domain's arena alone. *)
let test_const_cache_arenas () =
  let failures =
    Domain.spawn (fun () ->
        let failures = ref [] in
        let check what ok = if not ok then failures := what :: !failures in
        let a = Expr.arena () and b = Expr.arena () in
        let in_arena arena c =
          Expr.use_arena arena;
          Expr.const c
        in
        let colliding = [ 5L; 261L; 517L; 0x1_0000_0005L; -251L; 5L; 261L ] in
        let first = Hashtbl.create 16 in
        for _round = 1 to 3 do
          List.iter
            (fun c ->
              let ea = in_arena a c and eb = in_arena b c in
              check (Printf.sprintf "%Ld is a constant" c) (Expr.is_const ea = Some c);
              check
                (Printf.sprintf "%Ld differs across arenas" c)
                (ea.Expr.id <> eb.Expr.id);
              match Hashtbl.find_opt first c with
              | None -> Hashtbl.add first c (ea, eb)
              | Some (ea0, eb0) ->
                check (Printf.sprintf "%Ld interns once in a" c) (ea == ea0);
                check (Printf.sprintf "%Ld interns once in b" c) (eb == eb0))
            colliding
        done;
        let ids = Hashtbl.fold (fun _ (ea, _) acc -> ea.Expr.id :: acc) first [] in
        check "distinct constants, distinct ids"
          (List.length (List.sort_uniq Int.compare ids) = Hashtbl.length first);
        (* a repeat, a hit or an evicted slot, allocates no id *)
        let before = (in_arena a 1000L).Expr.id in
        List.iter (fun c -> ignore (in_arena a c)) colliding;
        let after = (in_arena a 1001L).Expr.id in
        check "repeats allocate no id" (after = before + 1);
        (* nodes over a cached constant hash-cons as before *)
        Expr.use_arena a;
        let e1 = Expr.bin T.Eq (Expr.read 0) (Expr.const 5L) in
        ignore (Expr.const 261L);
        let e2 = Expr.bin T.Eq (Expr.read 0) (Expr.const 5L) in
        check "a node over an evicted constant is shared" (e1 == e2);
        !failures)
    |> Domain.join
  in
  Alcotest.(check (list string)) "no failed checks" [] failures

let test_reads () =
  let e =
    Expr.bin T.Add
      (Expr.bin T.Mul (Expr.read 3) (Expr.read 1))
      (Expr.bin T.Add (Expr.read 3) (Expr.const 9L))
  in
  Alcotest.(check (list int)) "sorted distinct reads" [ 1; 3 ] (Expr.reads e);
  Alcotest.(check int) "max_read" 3 e.Expr.max_read

let test_model_roundtrip () =
  let m = Model.of_bytes (Bytes.of_string "AB") in
  Alcotest.(check int) "byte 0" 65 (Model.get m 0);
  Alcotest.(check int) "byte 1" 66 (Model.get m 1);
  Alcotest.(check int) "default 0" 0 (Model.get m 5);
  let m2 = Model.set m 1 0x142 in
  Alcotest.(check int) "set masks to byte" 0x42 (Model.get m2 1);
  Alcotest.(check string) "to_bytes" "A\x42\x00" (Bytes.to_string (Model.to_bytes ~size:3 m2))

(* A realistic parser query: a little-endian u16 magic plus a bounded count. *)
let u16le b0 b1 =
  Expr.bin T.Or (Expr.read b0) (Expr.bin T.Shl (Expr.read b1) (Expr.const 8L))

let test_solver_magic_bytes () =
  let solver = Solver.create () in
  let magic = Expr.bin T.Eq (u16le 0 1) (Expr.const 0x4D42L) in
  let count_small = Expr.bin T.Ult (Expr.read 2) (Expr.const 5L) in
  (match Solver.check_assuming solver ~path:[] [ magic; count_small ] with
   | Solver.Sat model, _ ->
     Alcotest.(check int) "low byte" 0x42 (Model.get model 0);
     Alcotest.(check int) "high byte" 0x4D (Model.get model 1);
     Alcotest.(check bool) "count" true (Model.get model 2 < 5)
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat");
  (* contradictory magic *)
  let wrong = Expr.bin T.Eq (u16le 0 1) (Expr.const 0x12345L) in
  match Solver.check_assuming solver ~path:[] [ wrong ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "expected unsat"

let test_solver_hint_reuse () =
  let solver = Solver.create () in
  let hint = Model.of_bytes (Bytes.of_string "\x07") in
  let c = Expr.bin T.Eq (Expr.read 0) (Expr.const 7L) in
  (match Solver.check_assuming solver ~hint ~path:[] [ c ] with
   | Solver.Sat model, _ -> Alcotest.(check int) "hint model kept" 7 (Model.get model 0)
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "hint hit counted" 1 (Solver.stats solver).Solver.hint_hits

let test_solver_independence_slicing () =
  let solver = Solver.create () in
  (* two independent groups; each is tiny even though together they span
     four bytes *)
  let g1 = Expr.bin T.Eq (Expr.read 0) (Expr.const 1L) in
  let g2 = Expr.bin T.Eq (u16le 2 3) (Expr.const 0x0102L) in
  match Solver.check_assuming solver ~path:[] [ g1; g2 ] with
  | Solver.Sat model, _ ->
    Alcotest.(check int) "group 1" 1 (Model.get model 0);
    Alcotest.(check int) "group 2 low" 2 (Model.get model 2);
    Alcotest.(check int) "group 2 high" 1 (Model.get model 3)
  | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat"

let test_solver_budget_unknown () =
  (* An 8-byte equality over a product is far beyond a 10-unit budget. *)
  let solver = Solver.create ~budget:10 () in
  let wide =
    let rec sum i acc = if i >= 8 then acc else sum (i + 1) (Expr.bin T.Add acc (Expr.read i)) in
    Expr.bin T.Eq (sum 1 (Expr.read 0)) (Expr.const 900L)
  in
  match Solver.check_assuming solver ~path:[] [ wide ] with
  | Solver.Unknown, work ->
    Alcotest.(check bool) "work reported" true (work > 0)
  | (Solver.Sat _ | Solver.Unsat), _ -> Alcotest.fail "expected unknown under tiny budget"

let test_solver_cache_hits () =
  let solver = Solver.create () in
  let c = Expr.bin T.Eq (Expr.read 0) (Expr.const 9L) in
  let other = Expr.bin T.Eq (Expr.read 0) (Expr.const 5L) in
  (* force a non-hint-satisfiable query twice: hint default is byte 0 =
     0. The query in between replaces the empty path's cached witness
     (byte 0 = 9) with one that falsifies [c], so the repeat reaches the
     group search and its cache *)
  ignore (Solver.check_assuming solver ~path:[] [ c ]);
  ignore (Solver.check_assuming solver ~path:[] [ other ]);
  ignore (Solver.check_assuming solver ~path:[] [ c ]);
  Alcotest.(check bool) "cache hit on repeat" true
    ((Solver.stats solver).Solver.cache_hits >= 1)

let test_cache_key_collisions () =
  let a = Expr.bin T.Eq (Expr.read 0) (Expr.const 1L) in
  let b = Expr.bin T.Eq (Expr.read 1) (Expr.const 2L) in
  (* permutations of one constraint set must collide (that is the point
     of sorting), distinct sets must not *)
  Alcotest.(check (list int))
    "order-insensitive" (Simplify.cache_key [ a; b ])
    (Simplify.cache_key [ b; a ]);
  Alcotest.(check bool) "subset gets its own key" true
    (Simplify.cache_key [ a ] <> Simplify.cache_key [ a; b ]);
  Alcotest.(check bool) "different singletons differ" true
    (Simplify.cache_key [ a ] <> Simplify.cache_key [ b ]);
  Alcotest.(check bool) "duplicate constraint changes the key" true
    (Simplify.cache_key [ a; a ] <> Simplify.cache_key [ a ]);
  (* hash consing: a structurally equal rebuild reuses the id, so the
     keys collide across separately constructed conjunctions *)
  let a' = Expr.bin T.Eq (Expr.read 0) (Expr.const 1L) in
  Alcotest.(check (list int))
    "hash-consed rebuild collides" (Simplify.cache_key [ a ])
    (Simplify.cache_key [ a' ])

let test_prefix_reuse_on_extension () =
  let solver = Solver.create () in
  let b0 = Expr.read 0 in
  let gt n = Expr.bin T.Ult (Expr.const (Int64.of_int n)) b0 in
  (* default hint (byte 0 = 0) falsifies every extra, so each query
     reaches the prefix machinery *)
  let p1 = [ gt 3 ] in
  (match Solver.check_assuming solver ~path:p1 [ gt 10 ] with
   | Solver.Sat _, _ -> ()
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "first query must be sat");
  let st = Solver.stats solver in
  Alcotest.(check int) "first query builds its prefix" 1 st.Solver.prefix_builds;
  let hits_before = st.Solver.prefix_hits in
  (* extend the same physical spine by one constraint: the indexed
     prefix is found by identity and only the delta is indexed *)
  let p2 = gt 10 :: p1 in
  (match Solver.check_assuming solver ~path:p2 [ gt 20 ] with
   | Solver.Sat _, _ -> ()
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "second query must be sat");
  let st = Solver.stats solver in
  Alcotest.(check bool) "extension reuses the indexed prefix" true
    (st.Solver.prefix_hits > hits_before);
  Alcotest.(check int) "extension indexes only the delta" 2 st.Solver.prefix_builds;
  (* an exact repeat builds nothing *)
  (match Solver.check_assuming solver ~path:p2 [ gt 30 ] with
   | Solver.Sat _, _ -> ()
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "third query must be sat");
  Alcotest.(check int) "exact repeat builds nothing" 2
    (Solver.stats solver).Solver.prefix_builds

let test_solver_unsat_chain () =
  let solver = Solver.create () in
  let a = Expr.bin T.Ult (Expr.read 0) (Expr.const 10L) in
  let b = Expr.bin T.Ult (Expr.const 20L) (Expr.read 0) in
  match Solver.check_assuming solver ~path:[] [ a; b ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "expected unsat"

(* --- golden solver counters --------------------------------------------- *)

(* The solver counters of the default session on each target's smallest
   benign seed at a 30k-unit deadline (the bench smoke budget). The
   values were captured before small expressions were walked without a
   memo table and before [Search_core] dropped its per-group hash table,
   on the commit whose kernel both changes had to match unit for unit,
   and retaken when solver Unknown answers became final (readelf's and
   gif2tiff's did not move). The Unknown answers and quarantine strikes
   were read on the commit before exhausted searches were replayed from a
   memo: a later kernel change that moves a charged work unit, a search
   node, a subsumption prune or an exhausted search fails here by name. *)
let golden_solver_counters =
  (* target, solver.queries, solver.work, solver.search_nodes,
     smt.subsumed_states, solver.unknown, quarantine.strikes *)
  [
    ("readelf", 1000, 1522668, 925, 172, 0, 0);
    ("pngtest", 168, 2367128, 1528, 87, 25, 8);
    ("gif2tiff", 1273, 752946, 4099, 118, 0, 0);
    ("tiff2rgba", 162, 2304659, 18736, 2, 36, 2);
    ("tiff2bw", 523, 2343707, 12280, 0, 33, 0);
    ("dwarfdump", 303, 1977673, 67902, 92, 20, 0);
    ("tcpdump", 474, 2792568, 63172, 68, 22, 4);
  ]

let test_golden_solver_counters () =
  let module Registry = Pbse_targets.Registry in
  let module Session = Pbse_session.Session in
  List.iter
    (fun (name, queries, work, nodes, subsumed, unknown, strikes) ->
      let t = Option.get (Registry.by_name name) in
      let report =
        Session.run (Registry.program t) ~seed:(Registry.smallest_seed t) ~deadline:30_000
      in
      let metrics = Session.scalar_metrics report in
      let check metric want =
        Alcotest.(check int) (name ^ " " ^ metric) want (List.assoc metric metrics)
      in
      check "solver.queries" queries;
      check "solver.work" work;
      check "solver.search_nodes" nodes;
      check "smt.subsumed_states" subsumed;
      check "solver.unknown" unknown;
      check "quarantine.strikes" strikes)
    golden_solver_counters

let suite =
  [
    Alcotest.test_case "simplifications" `Quick test_simplifications;
    Alcotest.test_case "hash consing" `Quick test_hash_consing_shares;
    Alcotest.test_case "const cache across arenas" `Quick test_const_cache_arenas;
    Alcotest.test_case "reads" `Quick test_reads;
    Alcotest.test_case "model roundtrip" `Quick test_model_roundtrip;
    Alcotest.test_case "solver magic bytes" `Quick test_solver_magic_bytes;
    Alcotest.test_case "solver hint reuse" `Quick test_solver_hint_reuse;
    Alcotest.test_case "solver independence slicing" `Quick test_solver_independence_slicing;
    Alcotest.test_case "solver budget unknown" `Quick test_solver_budget_unknown;
    Alcotest.test_case "solver cache hits" `Quick test_solver_cache_hits;
    Alcotest.test_case "cache key collisions" `Quick test_cache_key_collisions;
    Alcotest.test_case "prefix reuse on extension" `Quick test_prefix_reuse_on_extension;
    Alcotest.test_case "solver unsat chain" `Quick test_solver_unsat_chain;
    Alcotest.test_case "bits of field composition" `Quick test_bits_of_field_composition;
    Alcotest.test_case "solver u32 magic" `Quick test_solver_u32_magic;
    Alcotest.test_case "check_assuming" `Quick test_check_assuming_against_path;
    Alcotest.test_case "eval with overflowing nodes" `Quick test_eval_overflowing_nodes;
    Alcotest.test_case "golden solver counters" `Quick test_golden_solver_counters;
    QCheck_alcotest.to_alcotest prop_bits_sound;
    QCheck_alcotest.to_alcotest prop_unsigned_division;
    QCheck_alcotest.to_alcotest prop_simplifier_sound;
    QCheck_alcotest.to_alcotest prop_lognot_negates;
    QCheck_alcotest.to_alcotest prop_interval_sound;
    QCheck_alcotest.to_alcotest prop_interval_point_precision;
    QCheck_alcotest.to_alcotest prop_solver_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_sat_model_satisfies;
    QCheck_alcotest.to_alcotest prop_check_assuming_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_eval_matches_memo_oracle;
    QCheck_alcotest.to_alcotest prop_interval_eval_matches_memo_oracle;
    QCheck_alcotest.to_alcotest prop_tape_value_matches_memo_oracle;
    QCheck_alcotest.to_alcotest prop_search_core_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_search_core_sparse_wide_groups;
    QCheck_alcotest.to_alcotest prop_search_core_matches_oracle_search;
    QCheck_alcotest.to_alcotest prop_replayed_search_matches_fresh;
    Alcotest.test_case "replay key needs spent and hint" `Quick
      test_replay_key_needs_spent_and_hint;
    Alcotest.test_case "solver replays exhausted query" `Quick
      test_solver_replays_exhausted_query;
    QCheck_alcotest.to_alcotest prop_search_kernels_match_reference;
    QCheck_alcotest.to_alcotest prop_search_kernels_match_reference_at_every_cut;
    QCheck_alcotest.to_alcotest prop_trim_bound_matches_reference;
    QCheck_alcotest.to_alcotest prop_trim_kernels_match_point_walks;
    Alcotest.test_case "trim kernel sign guard" `Quick test_trim_kernel_sign_guard;
    Alcotest.test_case "lumped charge cuts" `Quick test_spend_runs_cuts;
    Alcotest.test_case "exhausted search allocation" `Quick test_exhausted_search_allocation;
    QCheck_alcotest.to_alcotest prop_workspace_matches_reference;
    Alcotest.test_case "workspace past its buffers" `Quick test_workspace_past_its_buffers;
  ]
