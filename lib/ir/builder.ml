open Types

(* Terminator with unresolved string targets. *)
type pre_term =
  | Pjmp of string
  | Pbr of operand * string * string
  | Pswitch of operand * (int64 * string) list * string
  | Pret of operand option
  | Phalt of string

type pre_block = {
  plabel : string;
  mutable pinsts : inst list; (* reversed *)
  mutable pterm : pre_term option;
}

type fb = {
  name : string;
  nparams : int;
  mutable next_reg : int;
  mutable blocks : pre_block list; (* reversed *)
  mutable current : pre_block;
}

let create_func ~name ~nparams =
  let entry = { plabel = "entry"; pinsts = []; pterm = None } in
  { name; nparams; next_reg = nparams; blocks = [ entry ]; current = entry }

let fresh_reg fb =
  let r = fb.next_reg in
  fb.next_reg <- r + 1;
  r

let is_terminated fb = fb.current.pterm <> None

let start_block fb label =
  if not (is_terminated fb) then
    invalid_arg
      (Printf.sprintf "Builder.start_block %s/%s: previous block %s not terminated"
         fb.name label fb.current.plabel);
  let block = { plabel = label; pinsts = []; pterm = None } in
  fb.blocks <- block :: fb.blocks;
  fb.current <- block

let emit fb inst =
  if is_terminated fb then
    invalid_arg
      (Printf.sprintf "Builder.emit in %s: block %s already terminated" fb.name
         fb.current.plabel);
  fb.current.pinsts <- inst :: fb.current.pinsts

let set_term fb term =
  if is_terminated fb then
    invalid_arg
      (Printf.sprintf "Builder: block %s in %s already terminated" fb.current.plabel
         fb.name);
  fb.current.pterm <- Some term

let jmp fb label = set_term fb (Pjmp label)
let br fb cond t e = set_term fb (Pbr (cond, t, e))
let switch fb scrut cases default = set_term fb (Pswitch (scrut, cases, default))
let ret fb v = set_term fb (Pret v)
let halt fb msg = set_term fb (Phalt msg)

let finish_func fb =
  let blocks = Array.of_list (List.rev fb.blocks) in
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i b ->
      if Hashtbl.mem index b.plabel then
        invalid_arg (Printf.sprintf "Builder: duplicate label %s in %s" b.plabel fb.name);
      Hashtbl.replace index b.plabel i)
    blocks;
  let resolve label =
    match Hashtbl.find_opt index label with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Builder: dangling label %s in %s" label fb.name)
  in
  let invalid_unterminated b =
    invalid_arg (Printf.sprintf "Builder: block %s in %s has no terminator" b fb.name)
  in
  let resolve_term plabel = function
    | Some (Pjmp l) -> Jmp (resolve l)
    | Some (Pbr (c, t, e)) -> Br (c, resolve t, resolve e)
    | Some (Pswitch (s, cases, d)) ->
      Switch (s, List.map (fun (v, l) -> (v, resolve l)) cases, resolve d)
    | Some (Pret v) -> Ret v
    | Some (Phalt m) -> Halt m
    | None -> invalid_unterminated plabel
  in
  let final =
    Array.map
      (fun b ->
        {
          label = b.plabel;
          insts = Array.of_list (List.rev b.pinsts);
          term = resolve_term b.plabel b.pterm;
        })
      blocks
  in
  { fname = fb.name; nparams = fb.nparams; nregs = fb.next_reg; blocks = final }

let program ~main funcs =
  let funcs = Array.of_list funcs in
  let main_index =
    let rec search i =
      if i >= Array.length funcs then
        invalid_arg (Printf.sprintf "Builder.program: no function named %s" main)
      else if (funcs.(i)).fname = main then i
      else search (i + 1)
    in
    search 0
  in
  let prog = { funcs; main = main_index } in
  Validate.check_exn prog;
  prog
