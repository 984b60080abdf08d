module Expr = Pbse_smt.Expr
module Imap = Map.Make (Int)
module T = Pbse_ir.Types

module Ptr = struct
  let off_bits = 40
  let off_mask = Int64.sub (Int64.shift_left 1L off_bits) 1L

  let make obj off =
    Int64.logor
      (Int64.shift_left (Int64.of_int obj) off_bits)
      (Int64.logand (Int64.of_int off) off_mask)

  let obj p = Int64.to_int (Int64.shift_right_logical p off_bits)
  let off p = Int64.to_int (Int64.logand p off_mask)
  let null = 0L
  let is_null p = obj p = 0
end

type fault =
  | Out_of_bounds of { obj : int; off : int; size : int; write : bool }
  | Unallocated of { obj : int; write : bool }
  | Use_after_free of { obj : int }
  | Null_access of { write : bool }
  | Bad_free of { addr : int64 }

let fault_to_string = function
  | Out_of_bounds { obj; off; size; write } ->
    Printf.sprintf "out-of-bounds %s: object %d, offset %d, size %d"
      (if write then "write" else "read")
      obj off size
  | Unallocated { obj; write } ->
    Printf.sprintf "%s of unallocated object %d" (if write then "write" else "read") obj
  | Use_after_free { obj } -> Printf.sprintf "use after free of object %d" obj
  | Null_access { write } -> Printf.sprintf "null %s" (if write then "write" else "read")
  | Bad_free { addr } -> Printf.sprintf "invalid free of 0x%Lx" addr

(* Object contents: a concrete backing buffer plus a persistent overlay of
   symbolic writes, so forked states share everything untouched. *)
type obj = {
  size : int;
  init : bytes;
  writes : Expr.t Imap.t;
  freed : bool;
}

type t = {
  objects : obj Imap.t;
  next_id : int;
}

let empty = { objects = Imap.empty; next_id = 1 }

let max_object_size = 1 lsl 20

let alloc t ~size =
  if size < 0 || size > max_object_size then (t, Ptr.null)
  else
    let o = { size; init = Bytes.make size '\000'; writes = Imap.empty; freed = false } in
    ( { objects = Imap.add t.next_id o t.objects; next_id = t.next_id + 1 },
      Ptr.make t.next_id 0 )

let free t ptr =
  if ptr = Ptr.null then Ok t
  else
    let id = Ptr.obj ptr in
    match Imap.find_opt id t.objects with
    | None -> Error (Bad_free { addr = ptr })
    | Some o ->
      if o.freed then Error (Bad_free { addr = ptr })
      else if Ptr.off ptr <> 0 then Error (Bad_free { addr = ptr })
      else Ok { t with objects = Imap.add id { o with freed = true } t.objects }

let size_of t ptr =
  match Imap.find_opt (Ptr.obj ptr) t.objects with
  | Some o when not o.freed -> Some o.size
  | Some _ | None -> None

let locate t ptr ~len ~write =
  if Ptr.is_null ptr then Error (Null_access { write })
  else
    let id = Ptr.obj ptr and off = Ptr.off ptr in
    match Imap.find_opt id t.objects with
    | None -> Error (Unallocated { obj = id; write })
    | Some o ->
      if o.freed then Error (Use_after_free { obj = id })
      else if off < 0 || off + len > o.size then
        Error (Out_of_bounds { obj = id; off; size = o.size; write })
      else Ok (id, o, off)

let load_cell o i =
  match Imap.find_opt i o.writes with
  | Some e -> e
  | None -> Expr.const (Int64.of_int (Char.code (Bytes.get o.init i)))

let load t ptr width =
  let len = T.bytes_of_width width in
  match locate t ptr ~len ~write:false with
  | Error f -> Error f
  | Ok (_, o, off) ->
    (* assemble little-endian: byte k contributes bits 8k..8k+7 *)
    let rec combine k acc =
      if k < 0 then acc
      else
        let cell = load_cell o (off + k) in
        let shifted =
          if k = 0 then cell else Expr.bin T.Shl cell (Expr.of_int (8 * k))
        in
        combine (k - 1) (Expr.bin T.Or acc shifted)
    in
    Ok (combine (len - 1) Expr.zero)

let byte_of e k =
  if k = 0 then Expr.bin T.And e (Expr.const 0xFFL)
  else Expr.bin T.And (Expr.bin T.Lshr e (Expr.of_int (8 * k))) (Expr.const 0xFFL)

let store t ptr width value =
  let len = T.bytes_of_width width in
  match locate t ptr ~len ~write:true with
  | Error f -> Error f
  | Ok (id, o, off) ->
    let rec write_bytes k writes =
      if k >= len then writes
      else
        let b = byte_of value k in
        write_bytes (k + 1) (Imap.add (off + k) b writes)
    in
    let o = { o with writes = write_bytes 0 o.writes } in
    Ok { t with objects = Imap.add id o t.objects }
