exception Error of string

let compile src =
  try Lower.lower_program (Parser.parse src) with
  | Lexer.Error (msg, pos) ->
    raise (Error (Printf.sprintf "lexical error at %s: %s" (Ast.pos_to_string pos) msg))
  | Parser.Error (msg, pos) ->
    raise (Error (Printf.sprintf "parse error at %s: %s" (Ast.pos_to_string pos) msg))
  | Lower.Error (msg, pos) ->
    raise (Error (Printf.sprintf "error at %s: %s" (Ast.pos_to_string pos) msg))
  | Invalid_argument msg -> raise (Error msg)

let compile_result src =
  match compile src with
  | prog -> Ok prog
  | exception Error msg -> Error msg
