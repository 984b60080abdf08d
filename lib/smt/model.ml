module Imap = Map.Make (Int)

type t = int Imap.t

let empty = Imap.empty

let of_bytes b =
  let rec fill i acc =
    if i < 0 then acc else fill (i - 1) (Imap.add i (Char.code (Bytes.get b i)) acc)
  in
  fill (Bytes.length b - 1) empty

let get t i = match Imap.find_opt i t with Some v -> v | None -> 0

let set t i v = Imap.add i (v land 0xFF) t

let eval t e = Expr.eval (get t) e

let satisfies t cs = List.for_all (fun c -> Semantics.truthy (eval t c)) cs

let to_bytes ~size t =
  let b = Bytes.make size '\000' in
  Imap.iter (fun i v -> if i < size then Bytes.set b i (Char.chr (v land 0xFF))) t;
  b
