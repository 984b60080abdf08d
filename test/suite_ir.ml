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

let test_builder_roundtrip () =
  let prog = sample_program () in
  Alcotest.(check int) "two functions" 2 (Array.length prog.funcs);
  Alcotest.(check int) "main is entry" 0 prog.main;
  Alcotest.(check int) "main has three blocks" 3 (Array.length (prog.funcs.(0)).blocks);
  Alcotest.(check (list string)) "no validation errors" []
    (List.map Validate.error_to_string (Validate.check_program prog))

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

let test_validate_catches_bad_register () =
  let f =
    make_func ~name:"f"
      [ { label = "entry"; insts = [| Bin (5, Add, Const 1L, Const 2L) |]; term = Ret None } ]
      1
  in
  let errors = Validate.check_func ~known:(fun _ -> true) f in
  Alcotest.(check bool) "register error reported" true
    (List.exists (fun e -> e.Validate.message = "register r5 out of range") errors)

let test_validate_catches_bad_target () =
  let f =
    make_func ~name:"f" [ { label = "entry"; insts = [||]; term = Jmp 9 } ] 1
  in
  let errors = Validate.check_func ~known:(fun _ -> true) f in
  Alcotest.(check int) "one error" 1 (List.length errors)

let test_validate_catches_unknown_callee () =
  let f =
    make_func ~name:"f"
      [ { label = "entry"; insts = [| Call (None, "ghost", []) |]; term = Ret None } ]
      1
  in
  let errors = Validate.check_func ~known:(fun name -> name = "f") f in
  Alcotest.(check bool) "unknown callee" true
    (List.exists (fun e -> e.Validate.message = "unknown callee ghost") errors)

let test_validate_program_duplicate_names () =
  let f = make_func ~name:"f" [ { label = "entry"; insts = [||]; term = Ret None } ] 1 in
  let prog = { funcs = [| f; f |]; main = 0 } in
  let errors = Validate.check_program prog in
  Alcotest.(check bool) "duplicate reported" true
    (List.exists (fun e -> e.Validate.message = "duplicate function name f") errors)

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
  Alcotest.(check (pair int int)) "of_id inverse" (1, 0) (Cfg.of_id cfg 3);
  Alcotest.(check string) "label" "leaf/.0" (Cfg.label cfg 3)

let test_cfg_successors_include_calls () =
  let prog = sample_program () in
  let cfg = Cfg.build prog in
  let succs = List.sort Int.compare (Cfg.successors cfg 0) in
  (* entry branches to .1 and .2, and calls leaf (global id 3) *)
  Alcotest.(check (list int)) "successors" [ 1; 2; 3 ] succs

let test_cfg_reachability () =
  let prog = sample_program () in
  let cfg = Cfg.build prog in
  let reach = Cfg.reachable_from cfg 0 in
  Alcotest.(check (array bool)) "all reachable from main" [| true; true; true; true |] reach;
  let from_leaf = Cfg.reachable_from cfg 3 in
  Alcotest.(check (array bool)) "only leaf from leaf" [| false; false; false; true |] from_leaf

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
    Alcotest.test_case "cfg reachability" `Quick test_cfg_reachability;
    Alcotest.test_case "cfg distances" `Quick test_cfg_distances;
    Alcotest.test_case "printer output" `Quick test_printer_mentions_everything;
  ]
