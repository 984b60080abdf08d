open Pbse_exec
module Expr = Pbse_smt.Expr
module T = Pbse_ir.Types

let test_ptr_roundtrip () =
  let p = Mem.Ptr.make 7 123 in
  Alcotest.(check int) "obj" 7 (Mem.Ptr.obj p);
  Alcotest.(check int) "off" 123 (Mem.Ptr.off p);
  Alcotest.(check bool) "null is null" true (Mem.Ptr.is_null Mem.Ptr.null);
  Alcotest.(check bool) "small ints look null" true (Mem.Ptr.is_null 42L)

let test_ptr_packing_edges () =
  (* the offset field is 40 bits wide *)
  let max_off = (1 lsl 40) - 1 in
  let p = Mem.Ptr.make 3 max_off in
  Alcotest.(check int) "max offset round-trips" max_off (Mem.Ptr.off p);
  Alcotest.(check int) "obj intact at max offset" 3 (Mem.Ptr.obj p);
  (* one past the field: masked, never a carry into the object id *)
  let p = Mem.Ptr.make 3 (max_off + 1) in
  Alcotest.(check int) "offset overflow is masked" 0 (Mem.Ptr.off p);
  Alcotest.(check int) "obj survives offset overflow" 3 (Mem.Ptr.obj p);
  (* the object id gets the remaining 24 bits *)
  let max_obj = (1 lsl 24) - 1 in
  let p = Mem.Ptr.make max_obj max_off in
  Alcotest.(check int) "max obj round-trips" max_obj (Mem.Ptr.obj p);
  Alcotest.(check int) "max offset beside max obj" max_off (Mem.Ptr.off p);
  (* object-id overflow shifts out entirely: the pointer degrades to a
     null-looking value rather than aliasing a small id *)
  let p = Mem.Ptr.make (1 lsl 24) 5 in
  Alcotest.(check int) "obj overflow wraps to 0" 0 (Mem.Ptr.obj p);
  Alcotest.(check bool) "overflowed pointer is null-like" true (Mem.Ptr.is_null p);
  (* null round-trip: obj 0 is the null object whatever the offset *)
  Alcotest.(check int) "null obj" 0 (Mem.Ptr.obj Mem.Ptr.null);
  Alcotest.(check int) "null off" 0 (Mem.Ptr.off Mem.Ptr.null);
  Alcotest.(check bool) "make 0 0 is null" true (Mem.Ptr.make 0 0 = Mem.Ptr.null);
  Alcotest.(check bool) "obj-0 with offset still null" true
    (Mem.Ptr.is_null (Mem.Ptr.make 0 77))

let prop_ptr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pointer encode/decode roundtrip"
    QCheck.(pair (int_range 1 100000) (int_range 0 1000000))
    (fun (obj, off) ->
      let p = Mem.Ptr.make obj off in
      Mem.Ptr.obj p = obj && Mem.Ptr.off p = off)

let test_alloc_and_byte_roundtrip () =
  let mem, ptr = Mem.alloc Mem.empty ~size:16 in
  Alcotest.(check (option int)) "size" (Some 16) (Mem.size_of mem ptr);
  match Mem.store mem ptr T.W1 (Expr.const 0xABL) with
  | Error _ -> Alcotest.fail "store failed"
  | Ok mem -> (
    match Mem.load mem ptr T.W1 with
    | Ok v -> Alcotest.(check (option int64)) "byte back" (Some 0xABL) (Expr.is_const v)
    | Error _ -> Alcotest.fail "load failed")

let test_little_endian_widths () =
  let mem, ptr = Mem.alloc Mem.empty ~size:16 in
  match Mem.store mem ptr T.W4 (Expr.const 0x11223344L) with
  | Error _ -> Alcotest.fail "store failed"
  | Ok mem ->
    let byte_at off =
      match Mem.load mem (Int64.add ptr (Int64.of_int off)) T.W1 with
      | Ok v -> Expr.is_const v
      | Error _ -> None
    in
    Alcotest.(check (option int64)) "byte 0 is lsb" (Some 0x44L) (byte_at 0);
    Alcotest.(check (option int64)) "byte 3 is msb" (Some 0x11L) (byte_at 3);
    (match Mem.load mem ptr T.W2 with
     | Ok v -> Alcotest.(check (option int64)) "w2" (Some 0x3344L) (Expr.is_const v)
     | Error _ -> Alcotest.fail "w2 load failed");
    (match Mem.load mem ptr T.W8 with
     | Ok v ->
       Alcotest.(check (option int64)) "w8 zero-extends" (Some 0x11223344L)
         (Expr.is_const v)
     | Error _ -> Alcotest.fail "w8 load failed")

let test_persistence_on_fork () =
  let mem, ptr = Mem.alloc Mem.empty ~size:4 in
  let mem1 =
    match Mem.store mem ptr T.W1 (Expr.const 1L) with Ok m -> m | Error _ -> assert false
  in
  let mem2 =
    match Mem.store mem ptr T.W1 (Expr.const 2L) with Ok m -> m | Error _ -> assert false
  in
  let read m =
    match Mem.load m ptr T.W1 with Ok v -> Expr.is_const v | Error _ -> None
  in
  Alcotest.(check (option int64)) "first version" (Some 1L) (read mem1);
  Alcotest.(check (option int64)) "second version" (Some 2L) (read mem2);
  Alcotest.(check (option int64)) "original untouched" (Some 0L) (read mem)

let test_symbolic_cells () =
  let mem, ptr = Mem.alloc Mem.empty ~size:4 in
  let mem =
    match Mem.store mem ptr T.W1 (Expr.read 5) with Ok m -> m | Error _ -> assert false
  in
  match Mem.load mem ptr T.W2 with
  | Ok v ->
    (* low byte symbolic, high byte zero: the value is in[5] *)
    Alcotest.(check string) "expr" "in[5]" (Expr.to_string v)
  | Error _ -> Alcotest.fail "load failed"

let expect_fault name result expected =
  match result with
  | Error fault -> Alcotest.(check string) name expected (Concrete.fault_class fault)
  | Ok _ -> Alcotest.fail (name ^ ": expected fault")

let test_faults () =
  let mem, ptr = Mem.alloc Mem.empty ~size:4 in
  expect_fault "oob read" (Mem.load mem (Int64.add ptr 4L) T.W1) "oob-read";
  expect_fault "straddling oob" (Mem.load mem (Int64.add ptr 2L) T.W4) "oob-read";
  expect_fault "oob write" (Mem.store mem (Int64.add ptr 100L) T.W1 Expr.zero) "oob-write";
  expect_fault "null" (Mem.load mem Mem.Ptr.null T.W1) "null-deref";
  expect_fault "unallocated" (Mem.load mem (Mem.Ptr.make 99 0) T.W1) "oob-read";
  (match Mem.free mem ptr with
   | Ok freed ->
     expect_fault "use after free" (Mem.load freed ptr T.W1) "use-after-free";
     (match Mem.free freed ptr with
      | Error f -> Alcotest.(check string) "double free" "bad-free" (Concrete.fault_class f)
      | Ok _ -> Alcotest.fail "double free allowed")
   | Error _ -> Alcotest.fail "free failed");
  match Mem.free mem (Int64.add ptr 1L) with
  | Error f -> Alcotest.(check string) "interior free" "bad-free" (Concrete.fault_class f)
  | Ok _ -> Alcotest.fail "interior free allowed"

let test_free_null_ok () =
  match Mem.free Mem.empty Mem.Ptr.null with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "free(null) must be a no-op"

let test_alloc_limits () =
  let mem, ptr = Mem.alloc Mem.empty ~size:(Mem.max_object_size + 1) in
  Alcotest.(check bool) "huge alloc yields null" true (Mem.Ptr.is_null ptr);
  (* nothing allocated: the next allocation still gets the first object id *)
  Alcotest.(check int) "nothing allocated" 1 (Mem.Ptr.obj (snd (Mem.alloc mem ~size:1)));
  let mem, ptr = Mem.alloc Mem.empty ~size:(-1) in
  Alcotest.(check bool) "negative alloc yields null" true (Mem.Ptr.is_null ptr);
  ignore mem

let prop_store_load_roundtrip =
  QCheck.Test.make ~count:300 ~name:"store/load roundtrip at every width"
    QCheck.(triple (int_range 0 12) (oneofl [ T.W1; T.W2; T.W4; T.W8 ]) int64)
    (fun (off, width, value) ->
      QCheck.assume (off + T.bytes_of_width width <= 16);
      let mem, ptr = Mem.alloc Mem.empty ~size:16 in
      let addr = Int64.add ptr (Int64.of_int off) in
      match Mem.store mem addr width (Expr.const value) with
      | Error _ -> false
      | Ok mem -> (
        match Mem.load mem addr width with
        | Error _ -> false
        | Ok v ->
          let bits = 8 * T.bytes_of_width width in
          let expected =
            if bits = 64 then value
            else Int64.logand value (Int64.sub (Int64.shift_left 1L bits) 1L)
          in
          Expr.is_const v = Some expected))

let suite =
  [
    Alcotest.test_case "ptr roundtrip" `Quick test_ptr_roundtrip;
    Alcotest.test_case "ptr packing edges" `Quick test_ptr_packing_edges;
    Alcotest.test_case "alloc and byte roundtrip" `Quick test_alloc_and_byte_roundtrip;
    Alcotest.test_case "little endian widths" `Quick test_little_endian_widths;
    Alcotest.test_case "persistence on fork" `Quick test_persistence_on_fork;
    Alcotest.test_case "symbolic cells" `Quick test_symbolic_cells;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "free null ok" `Quick test_free_null_ok;
    Alcotest.test_case "alloc limits" `Quick test_alloc_limits;
    QCheck_alcotest.to_alcotest prop_ptr_roundtrip;
    QCheck_alcotest.to_alcotest prop_store_load_roundtrip;
  ]
