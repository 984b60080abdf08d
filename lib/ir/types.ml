(* The intermediate representation executed by every engine in this
   repository (concrete, concolic and symbolic).

   It plays the role LLVM bitcode plays for KLEE in the paper: a register
   machine over 64-bit values with byte-addressable memory, structured as
   functions of basic blocks ending in explicit terminators. Pointers are
   ordinary 64-bit values carrying an object id in the high 32 bits and a
   byte offset in the low 32 bits; the memory model decodes them. *)

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Sdiv
  | Urem
  | Srem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Eq
  | Ne
  | Ult
  | Ule
  | Slt
  | Sle

type unop =
  | Neg
  | Not (* bitwise complement *)
  | Sext8 (* sign-extend the low 8 bits to 64 *)
  | Sext16
  | Sext32
  | Trunc8 (* zero all but the low 8 bits *)
  | Trunc16
  | Trunc32

type operand =
  | Const of int64
  | Reg of int

(* Memory access width in bytes; values are little-endian, zero-extended. *)
type width =
  | W1
  | W2
  | W4
  | W8

type inst =
  | Bin of int * binop * operand * operand
  | Un of int * unop * operand
  | Load of int * operand * width
  | Store of operand * operand * width (* address, value *)
  | Alloc of int * operand (* destination register, size in bytes *)
  | Free of operand
  | Call of int option * string * operand list
  | Select of int * operand * operand * operand (* dst, cond, if-true, if-false *)

type terminator =
  | Jmp of int
  | Br of operand * int * int (* condition (nonzero = taken), then-block, else-block *)
  | Switch of operand * (int64 * int) list * int (* scrutinee, cases, default *)
  | Ret of operand option
  | Halt of string (* abnormal program termination, e.g. an explicit abort *)

type block = {
  label : string;
  insts : inst array;
  term : terminator;
}

type func = {
  fname : string;
  nparams : int; (* parameters occupy registers 0 .. nparams-1 *)
  nregs : int;
  blocks : block array;
}

type program = {
  funcs : func array;
  main : int; (* index of the entry function *)
}

let bytes_of_width = function
  | W1 -> 1
  | W2 -> 2
  | W4 -> 4
  | W8 -> 8

(* Function lookup is on every call instruction's hot path; build the
   name index once per program. *)
let func_index program =
  let table = Hashtbl.create (Array.length program.funcs * 2) in
  Array.iteri (fun i f -> Hashtbl.replace table f.fname i) program.funcs;
  table

let find_func program name =
  let rec search i =
    if i >= Array.length program.funcs then None
    else if (program.funcs.(i)).fname = name then Some i
    else search (i + 1)
  in
  search 0

(* Names the executors resolve internally instead of via [funcs]. A
   string match, so both interpreters' test on every [Call] compares
   strings directly instead of calling the polymorphic compare. *)
let is_intrinsic = function "in_byte" | "in_size" | "out" -> true | _ -> false

let block_count program =
  Array.fold_left (fun acc f -> acc + Array.length f.blocks) 0 program.funcs

let inst_count program =
  Array.fold_left
    (fun acc f ->
      Array.fold_left (fun acc b -> acc + Array.length b.insts + 1) acc f.blocks)
    0 program.funcs
