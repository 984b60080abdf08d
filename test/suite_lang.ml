open Pbse_lang

let run_main ?(input = "") src =
  let prog = Frontend.compile src in
  Pbse_exec.Concrete.run prog ~input:(Bytes.of_string input)

let check_output name src expected =
  let result = run_main src in
  (match result.Pbse_exec.Concrete.outcome with
   | Pbse_exec.Concrete.Exit _ -> ()
   | _ -> Alcotest.fail (name ^ ": program did not exit cleanly"));
  Alcotest.(check (list int64)) name expected result.Pbse_exec.Concrete.output

let test_arith_and_out () =
  check_output "arith"
    "fn main() { out(2 + 3 * 4); out(10 - 7); out(1 << 6); return 0; }"
    [ 14L; 3L; 64L ]

let test_variables_and_scopes () =
  check_output "scopes"
    "fn main() {\n\
    \  var x = 5;\n\
    \  if (x > 3) { var x = 50; out(x); }\n\
    \  out(x);\n\
    \  return 0;\n\
     }"
    [ 50L; 5L ]

let test_while_loop () =
  check_output "while"
    "fn main() { var i = 0; var sum = 0; while (i < 5) { sum = sum + i; i = i + 1; } out(sum); return 0; }"
    [ 10L ]

let test_for_loop_break_continue () =
  check_output "for/break/continue"
    "fn main() {\n\
    \  var sum = 0;\n\
    \  for (var i = 0; i < 10; i = i + 1) {\n\
    \    if (i == 3) { continue; }\n\
    \    if (i == 6) { break; }\n\
    \    sum = sum + i;\n\
    \  }\n\
    \  out(sum);\n\
    \  return 0;\n\
     }"
    [ 12L ] (* 0+1+2+4+5 *)

let test_functions_and_recursion () =
  check_output "recursion"
    "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
     fn main() { out(fib(10)); return 0; }"
    [ 55L ]

let test_short_circuit () =
  (* the right operand would fault; && must not evaluate it *)
  check_output "short circuit and"
    "fn boom() { var p = 0; return p[0]; }\n\
     fn main() { var a = 0; if (a != 0 && boom()) { out(1); } else { out(2); } return 0; }"
    [ 2L ];
  check_output "short circuit or"
    "fn boom() { var p = 0; return p[0]; }\n\
     fn main() { var a = 1; if (a == 1 || boom()) { out(3); } else { out(4); } return 0; }"
    [ 3L ]

let test_memory_builtins () =
  check_output "alloc/store/load"
    "fn main() {\n\
    \  var b = alloc(16);\n\
    \  st32(b, 0xDEADBEEF);\n\
    \  out(ld32(b));\n\
    \  out(ld16(b));\n\
    \  b[8] = 0x7F;\n\
    \  out(b[8]);\n\
    \  free(b);\n\
    \  return 0;\n\
     }"
    [ 0xDEADBEEFL; 0xBEEFL; 0x7FL ]

let test_trunc_sext () =
  check_output "trunc/sext"
    "fn main() { out(t8(0x1FF)); out(s8(0xFF)); out(t16(0x12345)); return 0; }"
    [ 0xFFL; -1L; 0x2345L ]

let test_unsigned_ops () =
  check_output "unsigned compare and div"
    "fn main() {\n\
    \  var big = 0 - 1;\n\
    \  out(big <u 5);\n\
    \  out(5 <u big);\n\
    \  out(big < 5);\n\
    \  out(7 / 2);\n\
    \  out(7 % 2);\n\
    \  out(sdiv(0 - 7, 2));\n\
    \  return 0;\n\
     }"
    [ 0L; 1L; 1L; 3L; 1L; -3L ]

let test_input_intrinsics () =
  let result =
    run_main ~input:"AZ"
      "fn main() { out(in(0)); out(in(1)); out(in(7)); out(in_size()); return 0; }"
  in
  Alcotest.(check (list int64)) "input" [ 65L; 90L; 0L; 2L ]
    result.Pbse_exec.Concrete.output

let test_halt () =
  let result = run_main "fn main() { halt(\"bad state\"); }" in
  match result.Pbse_exec.Concrete.outcome with
  | Pbse_exec.Concrete.Halted { message; _ } ->
    Alcotest.(check string) "message" "bad state" message
  | _ -> Alcotest.fail "expected halt"

let test_assert_failure () =
  let result = run_main "fn main() { assert(1 == 2); return 0; }" in
  match result.Pbse_exec.Concrete.outcome with
  | Pbse_exec.Concrete.Halted { message; _ } ->
    Alcotest.(check bool) "assertion message" true
      (String.length message >= 16 && String.sub message 0 16 = "assertion failed")
  | _ -> Alcotest.fail "expected assert halt"

let test_assert_success () =
  check_output "assert passes" "fn main() { assert(1 == 1); out(9); return 0; }" [ 9L ]

let expect_error name src fragment =
  match Frontend.compile_result src with
  | Ok _ -> Alcotest.fail (name ^ ": expected a compile error")
  | Error msg ->
    let contains =
      let nl = String.length fragment and hl = String.length msg in
      let rec scan i = i + nl <= hl && (String.sub msg i nl = fragment || scan (i + 1)) in
      scan 0
    in
    if not contains then
      Alcotest.fail (Printf.sprintf "%s: error %S does not mention %S" name msg fragment)

let test_errors () =
  expect_error "unknown variable" "fn main() { out(y); return 0; }" "unknown variable y";
  expect_error "unknown function" "fn main() { out(nope(1)); return 0; }"
    "unknown function nope";
  expect_error "duplicate function" "fn f() { return 0; } fn f() { return 1; } fn main() { return 0; }"
    "duplicate function f";
  expect_error "builtin shadow" "fn alloc(n) { return 0; } fn main() { return 0; }"
    "shadows a builtin";
  expect_error "break outside loop" "fn main() { break; }" "break outside a loop";
  expect_error "arity" "fn f(a, b) { return a + b; } fn main() { return f(1); }"
    "expects 2 arguments, got 1";
  expect_error "bad lhs" "fn main() { 1 + 2 = 3; return 0; }" "left-hand side";
  expect_error "parse error" "fn main() { var = 3; }" "expected identifier";
  expect_error "lex error" "fn main() { var x = $; }" "unexpected character";
  expect_error "duplicate variable" "fn main() { var x = 1; var x = 2; return 0; }"
    "already declared";
  expect_error "no main" "fn other() { return 0; }" "main"

let test_switch_statement () =
  check_output "switch arms"
    "fn classify(x) {\n\
    \  switch (x) {\n\
    \    case 1: { return 100; }\n\
    \    case 'A': { return 200; }\n\
    \    case 0x10: { return 300; }\n\
    \    default: { return 400; }\n\
    \  }\n\
    \  return 999;\n\
     }\n\
     fn main() { out(classify(1)); out(classify(65)); out(classify(16)); out(classify(7)); return 0; }"
    [ 100L; 200L; 300L; 400L ]

let test_switch_fallthrough_free () =
  (* arms do not fall through; execution continues after the switch *)
  check_output "switch join"
    "fn main() {\n\
    \  var r = 0;\n\
    \  switch (2) {\n\
    \    case 1: { r = 10; }\n\
    \    case 2: { r = 20; }\n\
    \  }\n\
    \  out(r);\n\
    \  return 0;\n\
     }"
    [ 20L ]

let test_switch_empty_default () =
  check_output "switch without default"
    "fn main() { switch (9) { case 1: { out(1); } } out(5); return 0; }" [ 5L ]

let test_switch_errors () =
  expect_error "duplicate case"
    "fn main() { switch (1) { case 1: { } case 1: { } } return 0; }" "duplicate case";
  expect_error "duplicate default"
    "fn main() { switch (1) { default: { } default: { } } return 0; }"
    "duplicate default";
  expect_error "non-literal case"
    "fn main() { var x = 1; switch (1) { case x: { } } return 0; }"
    "integer literal"

let test_comments () =
  check_output "comments"
    "// leading comment\nfn main() { /* inline */ out(1); // trailing\n return 0; }"
    [ 1L ]

let test_char_and_hex_literals () =
  check_output "literals" "fn main() { out('A'); out(0x10); out('\\n'); return 0; }"
    [ 65L; 16L; 10L ]

let test_integer_literal_range () =
  check_output "largest literals"
    "fn main() { out(9223372036854775807); out(0xffffffffffffffff); return 0; }"
    [ Int64.max_int; -1L ];
  (* one past either bound is a lexical error at the literal, never a crash *)
  expect_error "decimal overflow" "fn main() { return 9223372036854775808; }"
    "line 1, column 20: integer literal 9223372036854775808 out of range";
  expect_error "hex overflow" "fn main() {\n  return 0x10000000000000000;\n}"
    "line 2, column 10: integer literal 0x10000000000000000 out of range"

(* qcheck: random constant expressions evaluate identically in MiniC (via
   lexer, parser, lowering and the concrete interpreter) and directly via
   the shared scalar semantics. *)
type cexpr =
  | Clit of int64
  | Cbin of Ast.binary_op * cexpr * cexpr
  | Cun of Ast.unary_op * cexpr

let rec render = function
  | Clit v ->
    if v < 0L then Printf.sprintf "(0 - %Ld)" (Int64.neg v) else Int64.to_string v
  | Cun (op, a) ->
    let s = match op with Ast.Uneg -> "-" | Ast.Ulognot -> "!" | Ast.Ubitnot -> "~" in
    Printf.sprintf "(%s%s)" s (render a)
  | Cbin (op, a, b) ->
    let s =
      match op with
      | Ast.Badd -> "+"
      | Ast.Bsub -> "-"
      | Ast.Bmul -> "*"
      | Ast.Band -> "&"
      | Ast.Bor -> "|"
      | Ast.Bxor -> "^"
      | Ast.Bshl -> "<<"
      | Ast.Bshr -> ">>"
      | Ast.Bashr -> ">>>"
      | Ast.Blt -> "<"
      | Ast.Ble -> "<="
      | Ast.Bgt -> ">"
      | Ast.Bge -> ">="
      | Ast.Bult -> "<u"
      | Ast.Bule -> "<=u"
      | Ast.Bugt -> ">u"
      | Ast.Buge -> ">=u"
      | Ast.Beq -> "=="
      | Ast.Bne -> "!="
      | Ast.Bland -> "&&"
      | Ast.Blor -> "||"
      | Ast.Bdiv | Ast.Brem -> assert false
    in
    Printf.sprintf "(%s %s %s)" (render a) s (render b)

let rec ceval = function
  | Clit v -> v
  | Cun (op, a) -> (
    let va = ceval a in
    let module S = Pbse_smt.Semantics in
    match op with
    | Ast.Uneg -> S.unop Pbse_ir.Types.Neg va
    | Ast.Ubitnot -> S.unop Pbse_ir.Types.Not va
    | Ast.Ulognot -> if va = 0L then 1L else 0L)
  | Cbin (op, a, b) -> (
    let va = ceval a and vb = ceval b in
    let module S = Pbse_smt.Semantics in
    let module T = Pbse_ir.Types in
    match op with
    | Ast.Badd -> S.binop T.Add va vb
    | Ast.Bsub -> S.binop T.Sub va vb
    | Ast.Bmul -> S.binop T.Mul va vb
    | Ast.Band -> S.binop T.And va vb
    | Ast.Bor -> S.binop T.Or va vb
    | Ast.Bxor -> S.binop T.Xor va vb
    | Ast.Bshl -> S.binop T.Shl va vb
    | Ast.Bshr -> S.binop T.Lshr va vb
    | Ast.Bashr -> S.binop T.Ashr va vb
    | Ast.Blt -> S.binop T.Slt va vb
    | Ast.Ble -> S.binop T.Sle va vb
    | Ast.Bgt -> S.binop T.Slt vb va
    | Ast.Bge -> S.binop T.Sle vb va
    | Ast.Bult -> S.binop T.Ult va vb
    | Ast.Bule -> S.binop T.Ule va vb
    | Ast.Bugt -> S.binop T.Ult vb va
    | Ast.Buge -> S.binop T.Ule vb va
    | Ast.Beq -> S.binop T.Eq va vb
    | Ast.Bne -> S.binop T.Ne va vb
    | Ast.Bland -> if va <> 0L && vb <> 0L then 1L else 0L
    | Ast.Blor -> if va <> 0L || vb <> 0L then 1L else 0L
    | Ast.Bdiv | Ast.Brem -> assert false)

let gen_cexpr =
  let open QCheck.Gen in
  let ops =
    [
      Ast.Badd; Ast.Bsub; Ast.Bmul; Ast.Band; Ast.Bor; Ast.Bxor; Ast.Bshl; Ast.Bshr;
      Ast.Bashr; Ast.Blt; Ast.Ble; Ast.Bgt; Ast.Bge; Ast.Bult; Ast.Bule; Ast.Bugt;
      Ast.Buge; Ast.Beq; Ast.Bne; Ast.Bland; Ast.Blor;
    ]
  in
  let lit = map (fun i -> Clit (Int64.of_int i)) (int_range (-100) 1000) in
  fix
    (fun self n ->
      if n <= 0 then lit
      else
        frequency
          [
            (1, lit);
            (4, map3 (fun op a b -> Cbin (op, a, b)) (oneofl ops) (self (n / 2)) (self (n / 2)));
            ( 2,
              map2
                (fun op a -> Cun (op, a))
                (oneofl [ Ast.Uneg; Ast.Ulognot; Ast.Ubitnot ])
                (self (n - 1)) );
          ])
    5

let prop_compiled_expressions_match =
  QCheck.Test.make ~count:300 ~name:"compiled constant expressions match direct evaluation"
    (QCheck.make gen_cexpr)
    (fun ce ->
      let src = Printf.sprintf "fn main() { out(%s); return 0; }" (render ce) in
      let result = run_main src in
      result.Pbse_exec.Concrete.output = [ ceval ce ])

let suite =
  [
    Alcotest.test_case "arith and out" `Quick test_arith_and_out;
    Alcotest.test_case "variables and scopes" `Quick test_variables_and_scopes;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "for/break/continue" `Quick test_for_loop_break_continue;
    Alcotest.test_case "functions and recursion" `Quick test_functions_and_recursion;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "memory builtins" `Quick test_memory_builtins;
    Alcotest.test_case "trunc/sext" `Quick test_trunc_sext;
    Alcotest.test_case "unsigned ops" `Quick test_unsigned_ops;
    Alcotest.test_case "input intrinsics" `Quick test_input_intrinsics;
    Alcotest.test_case "halt" `Quick test_halt;
    Alcotest.test_case "assert failure" `Quick test_assert_failure;
    Alcotest.test_case "assert success" `Quick test_assert_success;
    Alcotest.test_case "compile errors" `Quick test_errors;
    Alcotest.test_case "switch statement" `Quick test_switch_statement;
    Alcotest.test_case "switch join" `Quick test_switch_fallthrough_free;
    Alcotest.test_case "switch empty default" `Quick test_switch_empty_default;
    Alcotest.test_case "switch errors" `Quick test_switch_errors;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "char and hex literals" `Quick test_char_and_hex_literals;
    Alcotest.test_case "integer literal range" `Quick test_integer_literal_range;
    QCheck_alcotest.to_alcotest prop_compiled_expressions_match;
  ]
