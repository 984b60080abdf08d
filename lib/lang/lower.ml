open Pbse_ir.Types
module Builder = Pbse_ir.Builder

exception Error of string * Ast.pos

let fail pos fmt = Printf.ksprintf (fun msg -> raise (Error (msg, pos))) fmt

(* name -> arity for builtins; the intrinsics in/in_size/out are included *)
let builtins =
  [
    ("in", 1); ("in_size", 0); ("out", 1); ("alloc", 1); ("free", 1);
    ("ld8", 1); ("ld16", 1); ("ld32", 1); ("ld64", 1);
    ("st8", 2); ("st16", 2); ("st32", 2); ("st64", 2);
    ("t8", 1); ("t16", 1); ("t32", 1); ("s8", 1); ("s16", 1); ("s32", 1);
    ("sdiv", 2); ("srem", 2); ("assert", 1);
  ]

let builtin_names = List.map fst builtins

type env = {
  fb : Builder.fb;
  signatures : (string, int) Hashtbl.t; (* user functions -> arity *)
  mutable scopes : (string, int) Hashtbl.t list;
  mutable loops : (string * string) list; (* continue target, break target *)
  mutable next_label : int;
}

let fresh_label env prefix =
  let n = env.next_label in
  env.next_label <- n + 1;
  Printf.sprintf "%s_%d" prefix n

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> assert false

let declare env pos name =
  match env.scopes with
  | top :: _ ->
    if Hashtbl.mem top name then fail pos "variable %s already declared in this scope" name;
    let r = Builder.fresh_reg env.fb in
    Hashtbl.replace top name r;
    r
  | [] -> assert false

let lookup env pos name =
  let rec search = function
    | [] -> fail pos "unknown variable %s" name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with Some r -> r | None -> search rest)
  in
  search env.scopes

(* dst <- operand, as an addition with zero (the IR has no move) *)
let mov env dst op = Builder.emit env.fb (Bin (dst, Add, op, Const 0L))

let rec lower_expr env (expr : Ast.expr) : operand =
  let pos = expr.Ast.epos in
  match expr.Ast.e with
  | Ast.Int v -> Const v
  | Ast.Var name -> Reg (lookup env pos name)
  | Ast.Unary (op, a) -> (
    let oa = lower_expr env a in
    let dst = Builder.fresh_reg env.fb in
    (match op with
     | Ast.Uneg -> Builder.emit env.fb (Un (dst, Neg, oa))
     | Ast.Ubitnot -> Builder.emit env.fb (Un (dst, Not, oa))
     | Ast.Ulognot -> Builder.emit env.fb (Bin (dst, Eq, oa, Const 0L)));
    Reg dst)
  | Ast.Index (base, idx) ->
    let ob = lower_expr env base in
    let oi = lower_expr env idx in
    let addr = Builder.fresh_reg env.fb in
    Builder.emit env.fb (Bin (addr, Add, ob, oi));
    let dst = Builder.fresh_reg env.fb in
    Builder.emit env.fb (Load (dst, Reg addr, W1));
    Reg dst
  | Ast.Binary (Ast.Bland, a, b) -> lower_short_circuit env ~is_and:true a b
  | Ast.Binary (Ast.Blor, a, b) -> lower_short_circuit env ~is_and:false a b
  | Ast.Binary (op, a, b) -> (
    let oa = lower_expr env a in
    let ob = lower_expr env b in
    let dst = Builder.fresh_reg env.fb in
    let emit binop x y = Builder.emit env.fb (Bin (dst, binop, x, y)) in
    (match op with
     | Ast.Badd -> emit Add oa ob
     | Ast.Bsub -> emit Sub oa ob
     | Ast.Bmul -> emit Mul oa ob
     | Ast.Bdiv -> emit Udiv oa ob
     | Ast.Brem -> emit Urem oa ob
     | Ast.Band -> emit And oa ob
     | Ast.Bor -> emit Or oa ob
     | Ast.Bxor -> emit Xor oa ob
     | Ast.Bshl -> emit Shl oa ob
     | Ast.Bshr -> emit Lshr oa ob
     | Ast.Bashr -> emit Ashr oa ob
     | Ast.Beq -> emit Eq oa ob
     | Ast.Bne -> emit Ne oa ob
     | Ast.Blt -> emit Slt oa ob
     | Ast.Ble -> emit Sle oa ob
     | Ast.Bgt -> emit Slt ob oa
     | Ast.Bge -> emit Sle ob oa
     | Ast.Bult -> emit Ult oa ob
     | Ast.Bule -> emit Ule oa ob
     | Ast.Bugt -> emit Ult ob oa
     | Ast.Buge -> emit Ule ob oa
     | Ast.Bland | Ast.Blor -> assert false);
    Reg dst)
  | Ast.Call (name, args) -> lower_call env pos name args

and lower_short_circuit env ~is_and a b =
  let dst = Builder.fresh_reg env.fb in
  let rhs_l = fresh_label env "sc_rhs" in
  let skip_l = fresh_label env "sc_skip" in
  let join_l = fresh_label env "sc_join" in
  let oa = lower_expr env a in
  if is_and then Builder.br env.fb oa rhs_l skip_l
  else Builder.br env.fb oa skip_l rhs_l;
  Builder.start_block env.fb rhs_l;
  let ob = lower_expr env b in
  Builder.emit env.fb (Bin (dst, Ne, ob, Const 0L));
  Builder.jmp env.fb join_l;
  Builder.start_block env.fb skip_l;
  mov env dst (Const (if is_and then 0L else 1L));
  Builder.jmp env.fb join_l;
  Builder.start_block env.fb join_l;
  Reg dst

and lower_call env pos name args =
  let ops () = List.map (lower_expr env) args in
  let arity n =
    if List.length args <> n then
      fail pos "%s expects %d argument%s, got %d" name n
        (if n = 1 then "" else "s")
        (List.length args)
  in
  let unary_inst make =
    arity 1;
    match ops () with
    | [ a ] ->
      let dst = Builder.fresh_reg env.fb in
      Builder.emit env.fb (make dst a);
      Reg dst
    | _ -> assert false
  in
  let binary_inst make =
    arity 2;
    match ops () with
    | [ a; b ] ->
      let dst = Builder.fresh_reg env.fb in
      Builder.emit env.fb (make dst a b);
      Reg dst
    | _ -> assert false
  in
  match name with
  | "in" ->
    arity 1;
    let dst = Builder.fresh_reg env.fb in
    Builder.emit env.fb (Call (Some dst, "in_byte", ops ()));
    Reg dst
  | "in_size" ->
    arity 0;
    let dst = Builder.fresh_reg env.fb in
    Builder.emit env.fb (Call (Some dst, "in_size", []));
    Reg dst
  | "out" ->
    arity 1;
    let dst = Builder.fresh_reg env.fb in
    Builder.emit env.fb (Call (Some dst, "out", ops ()));
    Reg dst
  | "alloc" -> unary_inst (fun dst a -> Alloc (dst, a))
  | "free" ->
    arity 1;
    (match ops () with
     | [ a ] ->
       Builder.emit env.fb (Free a);
       Const 0L
     | _ -> assert false)
  | "ld8" -> unary_inst (fun dst a -> Load (dst, a, W1))
  | "ld16" -> unary_inst (fun dst a -> Load (dst, a, W2))
  | "ld32" -> unary_inst (fun dst a -> Load (dst, a, W4))
  | "ld64" -> unary_inst (fun dst a -> Load (dst, a, W8))
  | "st8" | "st16" | "st32" | "st64" ->
    arity 2;
    (match ops () with
     | [ addr; v ] ->
       let w =
         match name with
         | "st8" -> W1
         | "st16" -> W2
         | "st32" -> W4
         | _ -> W8
       in
       Builder.emit env.fb (Store (addr, v, w));
       Const 0L
     | _ -> assert false)
  | "t8" -> unary_inst (fun dst a -> Un (dst, Trunc8, a))
  | "t16" -> unary_inst (fun dst a -> Un (dst, Trunc16, a))
  | "t32" -> unary_inst (fun dst a -> Un (dst, Trunc32, a))
  | "s8" -> unary_inst (fun dst a -> Un (dst, Sext8, a))
  | "s16" -> unary_inst (fun dst a -> Un (dst, Sext16, a))
  | "s32" -> unary_inst (fun dst a -> Un (dst, Sext32, a))
  | "sdiv" -> binary_inst (fun dst a b -> Bin (dst, Sdiv, a, b))
  | "srem" -> binary_inst (fun dst a b -> Bin (dst, Srem, a, b))
  | "assert" ->
    arity 1;
    (match ops () with
     | [ cond ] ->
       let ok_l = fresh_label env "assert_ok" in
       let fail_l = fresh_label env "assert_fail" in
       Builder.br env.fb cond ok_l fail_l;
       Builder.start_block env.fb fail_l;
       Builder.halt env.fb
         (Printf.sprintf "assertion failed at %s" (Ast.pos_to_string pos));
       Builder.start_block env.fb ok_l;
       Const 0L
     | _ -> assert false)
  | _ -> (
    match Hashtbl.find_opt env.signatures name with
    | None -> fail pos "unknown function %s" name
    | Some n ->
      arity n;
      let dst = Builder.fresh_reg env.fb in
      Builder.emit env.fb (Call (Some dst, name, ops ()));
      Reg dst)

let rec lower_stmt env (stmt : Ast.stmt) =
  let pos = stmt.Ast.spos in
  (* statements after a terminator are unreachable but still lowered *)
  if Builder.is_terminated env.fb then
    Builder.start_block env.fb (fresh_label env "dead");
  match stmt.Ast.s with
  | Ast.Svar (name, value) ->
    let ov = lower_expr env value in
    let r = declare env pos name in
    mov env r ov
  | Ast.Sassign (name, value) ->
    let ov = lower_expr env value in
    let r = lookup env pos name in
    mov env r ov
  | Ast.Sstore (base, idx, value) ->
    let ob = lower_expr env base in
    let oi = lower_expr env idx in
    let addr = Builder.fresh_reg env.fb in
    Builder.emit env.fb (Bin (addr, Add, ob, oi));
    let ov = lower_expr env value in
    Builder.emit env.fb (Store (Reg addr, ov, W1))
  | Ast.Sif (cond, then_body, else_body) ->
    let oc = lower_expr env cond in
    let then_l = fresh_label env "then" in
    let else_l = fresh_label env "else" in
    let join_l = fresh_label env "join" in
    Builder.br env.fb oc then_l else_l;
    Builder.start_block env.fb then_l;
    lower_block env then_body;
    if not (Builder.is_terminated env.fb) then Builder.jmp env.fb join_l;
    Builder.start_block env.fb else_l;
    lower_block env else_body;
    if not (Builder.is_terminated env.fb) then Builder.jmp env.fb join_l;
    Builder.start_block env.fb join_l
  | Ast.Swhile (cond, body) ->
    let head_l = fresh_label env "while_head" in
    let body_l = fresh_label env "while_body" in
    let exit_l = fresh_label env "while_exit" in
    Builder.jmp env.fb head_l;
    Builder.start_block env.fb head_l;
    let oc = lower_expr env cond in
    Builder.br env.fb oc body_l exit_l;
    Builder.start_block env.fb body_l;
    env.loops <- (head_l, exit_l) :: env.loops;
    lower_block env body;
    env.loops <- List.tl env.loops;
    if not (Builder.is_terminated env.fb) then Builder.jmp env.fb head_l;
    Builder.start_block env.fb exit_l
  | Ast.Sfor (init, cond, step, body) ->
    push_scope env;
    (match init with Some s -> lower_stmt env s | None -> ());
    let head_l = fresh_label env "for_head" in
    let body_l = fresh_label env "for_body" in
    let step_l = fresh_label env "for_step" in
    let exit_l = fresh_label env "for_exit" in
    Builder.jmp env.fb head_l;
    Builder.start_block env.fb head_l;
    (match cond with
     | Some c ->
       let oc = lower_expr env c in
       Builder.br env.fb oc body_l exit_l
     | None -> Builder.jmp env.fb body_l);
    Builder.start_block env.fb body_l;
    env.loops <- (step_l, exit_l) :: env.loops;
    lower_block env body;
    env.loops <- List.tl env.loops;
    if not (Builder.is_terminated env.fb) then Builder.jmp env.fb step_l;
    Builder.start_block env.fb step_l;
    (match step with Some s -> lower_stmt env s | None -> ());
    if not (Builder.is_terminated env.fb) then Builder.jmp env.fb head_l;
    Builder.start_block env.fb exit_l;
    pop_scope env
  | Ast.Sswitch (scrutinee, arms, default_body) ->
    let oscrut = lower_expr env scrutinee in
    let join_l = fresh_label env "switch_join" in
    let default_l = fresh_label env "switch_default" in
    let cases =
      List.map (fun (v, _) -> (v, fresh_label env "switch_case")) arms
    in
    Builder.switch env.fb oscrut cases default_l;
    List.iter2
      (fun (_, label) (_, body) ->
        Builder.start_block env.fb label;
        lower_block env body;
        if not (Builder.is_terminated env.fb) then Builder.jmp env.fb join_l)
      cases arms;
    Builder.start_block env.fb default_l;
    lower_block env default_body;
    if not (Builder.is_terminated env.fb) then Builder.jmp env.fb join_l;
    Builder.start_block env.fb join_l
  | Ast.Sreturn value ->
    let ov = Option.map (lower_expr env) value in
    Builder.ret env.fb ov
  | Ast.Sbreak -> (
    match env.loops with
    | (_, exit_l) :: _ -> Builder.jmp env.fb exit_l
    | [] -> fail pos "break outside a loop")
  | Ast.Scontinue -> (
    match env.loops with
    | (continue_l, _) :: _ -> Builder.jmp env.fb continue_l
    | [] -> fail pos "continue outside a loop")
  | Ast.Shalt message -> Builder.halt env.fb message
  | Ast.Sexpr e -> ignore (lower_expr env e)

and lower_block env stmts =
  push_scope env;
  List.iter (lower_stmt env) stmts;
  pop_scope env

let lower_func signatures (f : Ast.func) =
  let fb = Builder.create_func ~name:f.Ast.fname ~nparams:(List.length f.Ast.params) in
  let env = { fb; signatures; scopes = []; loops = []; next_label = 0 } in
  push_scope env;
  List.iteri
    (fun i p ->
      match env.scopes with
      | top :: _ ->
        if Hashtbl.mem top p then fail f.Ast.fpos "duplicate parameter %s" p;
        Hashtbl.replace top p i
      | [] -> assert false)
    f.Ast.params;
  lower_block env f.Ast.body;
  if not (Builder.is_terminated env.fb) then Builder.ret env.fb (Some (Const 0L));
  Builder.finish_func fb

let lower_program (prog : Ast.program) =
  let signatures = Hashtbl.create 32 in
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem signatures f.Ast.fname then
        fail f.Ast.fpos "duplicate function %s" f.Ast.fname;
      if List.mem f.Ast.fname builtin_names || is_intrinsic f.Ast.fname then
        fail f.Ast.fpos "function %s shadows a builtin" f.Ast.fname;
      Hashtbl.replace signatures f.Ast.fname (List.length f.Ast.params))
    prog;
  let funcs = List.map (lower_func signatures) prog in
  Builder.program ~main:"main" funcs
