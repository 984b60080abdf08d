open Pbse_ir
open Pbse_ir.Types

(* A tiny two-function program used across the IR tests:
   main: r1 = add r0, 1; if r1 then .then else .else; both ret.
   leaf: ret 7. *)
let sample_program () =
  let fb = Builder.create_func ~name:"main" ~nparams:1 in
  let r1 = Builder.fresh_reg fb in
  Builder.emit fb (Bin (r1, Add, Reg 0, Const 1L));
  Builder.emit fb (Call (None, "leaf", []));
  Builder.br fb (Reg r1) "then" "else";
  Builder.start_block fb "then";
  Builder.ret fb (Some (Reg r1));
  Builder.start_block fb "else";
  Builder.ret fb (Some (Const 0L));
  let main = Builder.finish_func fb in
  let fb2 = Builder.create_func ~name:"leaf" ~nparams:0 in
  Builder.ret fb2 (Some (Const 7L));
  let leaf = Builder.finish_func fb2 in
  Builder.program ~main:"main" [ main; leaf ]

(* Validation errors as Builder.program and Executor.create raise them *)
let validation_errors prog =
  match Validate.check_exn prog with () -> "" | exception Invalid_argument msg -> msg

let test_builder_roundtrip () =
  let prog = sample_program () in
  Alcotest.(check int) "two functions" 2 (Array.length prog.funcs);
  Alcotest.(check int) "main is entry" 0 prog.main;
  Alcotest.(check int) "main has three blocks" 3 (Array.length (prog.funcs.(0)).blocks);
  Alcotest.(check string) "no validation errors" "" (validation_errors prog)

let test_builder_rejects_unterminated () =
  let fb = Builder.create_func ~name:"f" ~nparams:0 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Builder.finish_func fb);
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_dangling_label () =
  let fb = Builder.create_func ~name:"f" ~nparams:0 in
  Builder.jmp fb "nowhere";
  Alcotest.(check bool) "raises" true
    (try
       ignore (Builder.finish_func fb);
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_duplicate_label () =
  let fb = Builder.create_func ~name:"f" ~nparams:0 in
  Builder.jmp fb "entry";
  Builder.start_block fb "a";
  Builder.ret fb None;
  Builder.start_block fb "a";
  Builder.ret fb None;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Builder.finish_func fb);
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_emit_after_terminator () =
  let fb = Builder.create_func ~name:"f" ~nparams:0 in
  Builder.ret fb None;
  Alcotest.(check bool) "raises" true
    (try
       Builder.emit fb (Bin (0, Add, Const 1L, Const 2L));
       false
     with Invalid_argument _ -> true)

let make_func ~name blocks nregs =
  { fname = name; nparams = 0; nregs; blocks = Array.of_list blocks }

let program_of f = { funcs = [| f |]; main = 0 }

let test_validate_catches_bad_register () =
  let f =
    make_func ~name:"f"
      [ { label = "entry"; insts = [| Bin (5, Add, Const 1L, Const 2L) |]; term = Ret None } ]
      1
  in
  Alcotest.(check string) "register error reported"
    "Ir.Validate: f/.0: register r5 out of range"
    (validation_errors (program_of f))

let test_validate_catches_bad_target () =
  let f =
    make_func ~name:"f" [ { label = "entry"; insts = [||]; term = Jmp 9 } ] 1
  in
  Alcotest.(check string) "one error" "Ir.Validate: f/.0: branch target .9 out of range"
    (validation_errors (program_of f))

let test_validate_catches_unknown_callee () =
  let f =
    make_func ~name:"f"
      [ { label = "entry"; insts = [| Call (None, "ghost", []) |]; term = Ret None } ]
      1
  in
  Alcotest.(check string) "unknown callee" "Ir.Validate: f/.0: unknown callee ghost"
    (validation_errors (program_of f))

let test_validate_program_duplicate_names () =
  let f = make_func ~name:"f" [ { label = "entry"; insts = [||]; term = Ret None } ] 1 in
  let prog = { funcs = [| f; f |]; main = 0 } in
  Alcotest.(check string) "duplicate reported"
    "Ir.Validate: <program>/.-1: duplicate function name f" (validation_errors prog)

let test_intrinsics_known () =
  Alcotest.(check bool) "in_byte" true (is_intrinsic "in_byte");
  Alcotest.(check bool) "in_size" true (is_intrinsic "in_size");
  Alcotest.(check bool) "out" true (is_intrinsic "out");
  Alcotest.(check bool) "random name" false (is_intrinsic "foo")

let test_counts () =
  let prog = sample_program () in
  Alcotest.(check int) "block count" 4 (block_count prog);
  (* main: 2 insts + 3 terms, leaf: 1 term *)
  Alcotest.(check int) "inst count" 6 (inst_count prog)

let test_cfg_ids_and_labels () =
  let prog = sample_program () in
  let cfg = Cfg.build prog in
  Alcotest.(check int) "nblocks" 4 (Cfg.nblocks cfg);
  Alcotest.(check int) "main entry id" 0 (Cfg.id cfg 0 0);
  Alcotest.(check int) "leaf entry id" 3 (Cfg.id cfg 1 0);
  Alcotest.(check string) "label" "leaf/.0" (Cfg.label cfg 3)

let test_cfg_successors_include_calls () =
  let prog = sample_program () in
  let cfg = Cfg.build prog in
  (* entry branches to .1 and .2, and calls leaf (global id 3): each is
     one edge away *)
  List.iter
    (fun gid ->
      let dist = Cfg.distances_to cfg ~targets:(fun g -> g = gid) in
      Alcotest.(check int) (Printf.sprintf "entry to %d" gid) 1 dist.(0))
    [ 1; 2; 3 ]

let test_cfg_distances () =
  let prog = sample_program () in
  let cfg = Cfg.build prog in
  let dist = Cfg.distances_to cfg ~targets:(fun gid -> gid = 1) in
  Alcotest.(check int) "target distance zero" 0 dist.(1);
  Alcotest.(check int) "entry one step away" 1 dist.(0);
  Alcotest.(check bool) "else block cannot reach" true (dist.(2) = max_int)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_printer_mentions_everything () =
  let prog = sample_program () in
  let text = Printer.program_to_string prog in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" fragment) true
        (contains text fragment))
    [ "fn main"; "fn leaf"; "add"; "call leaf()"; "br r1" ]

let suite =
  [
    Alcotest.test_case "builder roundtrip" `Quick test_builder_roundtrip;
    Alcotest.test_case "builder rejects unterminated" `Quick test_builder_rejects_unterminated;
    Alcotest.test_case "builder rejects dangling label" `Quick
      test_builder_rejects_dangling_label;
    Alcotest.test_case "builder rejects duplicate label" `Quick
      test_builder_rejects_duplicate_label;
    Alcotest.test_case "builder rejects emit after terminator" `Quick
      test_builder_rejects_emit_after_terminator;
    Alcotest.test_case "validate bad register" `Quick test_validate_catches_bad_register;
    Alcotest.test_case "validate bad target" `Quick test_validate_catches_bad_target;
    Alcotest.test_case "validate unknown callee" `Quick test_validate_catches_unknown_callee;
    Alcotest.test_case "validate duplicate names" `Quick test_validate_program_duplicate_names;
    Alcotest.test_case "intrinsics" `Quick test_intrinsics_known;
    Alcotest.test_case "block/inst counts" `Quick test_counts;
    Alcotest.test_case "cfg ids and labels" `Quick test_cfg_ids_and_labels;
    Alcotest.test_case "cfg successors with calls" `Quick test_cfg_successors_include_calls;
    Alcotest.test_case "cfg distances" `Quick test_cfg_distances;
    Alcotest.test_case "printer output" `Quick test_printer_mentions_everything;
  ]
