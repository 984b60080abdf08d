type token =
  | Tint of int64
  | Tident of string
  | Tstring of string
  | Tkw_fn
  | Tkw_var
  | Tkw_if
  | Tkw_else
  | Tkw_while
  | Tkw_for
  | Tkw_return
  | Tkw_break
  | Tkw_continue
  | Tkw_halt
  | Tkw_switch
  | Tkw_case
  | Tkw_default
  | Tcolon
  | Tlparen
  | Trparen
  | Tlbrace
  | Trbrace
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tsemi
  | Tassign
  | Tplus
  | Tminus
  | Tstar
  | Tslash
  | Tpercent
  | Tamp
  | Tpipe
  | Tcaret
  | Ttilde
  | Tbang
  | Tshl
  | Tshr
  | Tashr
  | Tlt
  | Tle
  | Tgt
  | Tge
  | Tult
  | Tule
  | Tugt
  | Tuge
  | Teq
  | Tne
  | Tland
  | Tlor
  | Teof

type located = {
  tok : token;
  pos : Ast.pos;
}

exception Error of string * Ast.pos

let token_to_string = function
  | Tint v -> Printf.sprintf "integer %Ld" v
  | Tident s -> Printf.sprintf "identifier %s" s
  | Tstring s -> Printf.sprintf "string %S" s
  | Tkw_fn -> "fn"
  | Tkw_var -> "var"
  | Tkw_if -> "if"
  | Tkw_else -> "else"
  | Tkw_while -> "while"
  | Tkw_for -> "for"
  | Tkw_return -> "return"
  | Tkw_break -> "break"
  | Tkw_continue -> "continue"
  | Tkw_halt -> "halt"
  | Tkw_switch -> "switch"
  | Tkw_case -> "case"
  | Tkw_default -> "default"
  | Tcolon -> ":"
  | Tlparen -> "("
  | Trparen -> ")"
  | Tlbrace -> "{"
  | Trbrace -> "}"
  | Tlbracket -> "["
  | Trbracket -> "]"
  | Tcomma -> ","
  | Tsemi -> ";"
  | Tassign -> "="
  | Tplus -> "+"
  | Tminus -> "-"
  | Tstar -> "*"
  | Tslash -> "/"
  | Tpercent -> "%"
  | Tamp -> "&"
  | Tpipe -> "|"
  | Tcaret -> "^"
  | Ttilde -> "~"
  | Tbang -> "!"
  | Tshl -> "<<"
  | Tshr -> ">>"
  | Tashr -> ">>>"
  | Tlt -> "<"
  | Tle -> "<="
  | Tgt -> ">"
  | Tge -> ">="
  | Tult -> "<u"
  | Tule -> "<=u"
  | Tugt -> ">u"
  | Tuge -> ">=u"
  | Teq -> "=="
  | Tne -> "!="
  | Tland -> "&&"
  | Tlor -> "||"
  | Teof -> "end of input"

let keyword = function
  | "fn" -> Some Tkw_fn
  | "var" -> Some Tkw_var
  | "if" -> Some Tkw_if
  | "else" -> Some Tkw_else
  | "while" -> Some Tkw_while
  | "for" -> Some Tkw_for
  | "return" -> Some Tkw_return
  | "break" -> Some Tkw_break
  | "continue" -> Some Tkw_continue
  | "halt" -> Some Tkw_halt
  | "switch" -> Some Tkw_switch
  | "case" -> Some Tkw_case
  | "default" -> Some Tkw_default
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

type cursor = {
  src : string;
  mutable i : int;
  mutable line : int;
  mutable col : int;
}

let peek cur = if cur.i < String.length cur.src then Some cur.src.[cur.i] else None

let peek2 cur =
  if cur.i + 1 < String.length cur.src then Some cur.src.[cur.i + 1] else None

let advance cur =
  (match peek cur with
   | Some '\n' ->
     cur.line <- cur.line + 1;
     cur.col <- 1
   | Some _ -> cur.col <- cur.col + 1
   | None -> ());
  cur.i <- cur.i + 1

let pos cur = { Ast.line = cur.line; col = cur.col }

let error cur fmt = Printf.ksprintf (fun msg -> raise (Error (msg, pos cur))) fmt

let rec skip_trivia cur =
  match peek cur with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance cur;
    skip_trivia cur
  | Some '/' -> (
    match peek2 cur with
    | Some '/' ->
      let rec to_eol () =
        match peek cur with
        | Some '\n' | None -> ()
        | Some _ ->
          advance cur;
          to_eol ()
      in
      to_eol ();
      skip_trivia cur
    | Some '*' ->
      advance cur;
      advance cur;
      let rec to_close () =
        match (peek cur, peek2 cur) with
        | Some '*', Some '/' ->
          advance cur;
          advance cur
        | Some _, _ ->
          advance cur;
          to_close ()
        | None, _ -> error cur "unterminated comment"
      in
      to_close ();
      skip_trivia cur
    | Some _ | None -> ())
  | Some _ | None -> ()

(* Decimal literals range over [0, 2^63 - 1]; hexadecimal ones over
   [0x0, 0xffffffffffffffff], read as a 64-bit pattern. *)
let lex_number cur =
  let start = cur.i and p = pos cur in
  let parse digits =
    match Int64.of_string_opt digits with
    | Some v -> v
    | None ->
      let literal = String.sub cur.src start (cur.i - start) in
      raise (Error (Printf.sprintf "integer literal %s out of range" literal, p))
  in
  let hex =
    peek cur = Some '0'
    && (peek2 cur = Some 'x' || peek2 cur = Some 'X')
  in
  if hex then begin
    advance cur;
    advance cur;
    let digits_start = cur.i in
    while (match peek cur with Some c -> is_hex c | None -> false) do
      advance cur
    done;
    if cur.i = digits_start then error cur "hexadecimal literal with no digits";
    parse ("0x" ^ String.sub cur.src digits_start (cur.i - digits_start))
  end
  else begin
    while (match peek cur with Some c -> is_digit c | None -> false) do
      advance cur
    done;
    parse (String.sub cur.src start (cur.i - start))
  end

let lex_char cur =
  advance cur;
  (* opening quote *)
  let c =
    match peek cur with
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | Some 'n' -> '\n'
      | Some 't' -> '\t'
      | Some '0' -> '\000'
      | Some '\\' -> '\\'
      | Some '\'' -> '\''
      | Some c -> error cur "unknown escape \\%c" c
      | None -> error cur "unterminated character literal")
    | Some c -> c
    | None -> error cur "unterminated character literal"
  in
  advance cur;
  (match peek cur with
   | Some '\'' -> advance cur
   | Some _ | None -> error cur "unterminated character literal");
  Int64.of_int (Char.code c)

let lex_string cur =
  advance cur;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | Some '"' -> advance cur
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | Some 'n' ->
        Buffer.add_char buf '\n';
        advance cur;
        go ()
      | Some '"' ->
        Buffer.add_char buf '"';
        advance cur;
        go ()
      | Some '\\' ->
        Buffer.add_char buf '\\';
        advance cur;
        go ()
      | Some c -> error cur "unknown escape \\%c" c
      | None -> error cur "unterminated string")
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      go ()
    | None -> error cur "unterminated string"
  in
  go ();
  Buffer.contents buf

let lex_ident cur =
  let start = cur.i in
  while (match peek cur with Some c -> is_ident_char c | None -> false) do
    advance cur
  done;
  String.sub cur.src start (cur.i - start)

(* Unsigned comparison suffix: "<u", "<=u", ">u", ">=u". *)
let with_u cur unsigned signed =
  match peek cur with
  | Some 'u' ->
    advance cur;
    unsigned
  | Some _ | None -> signed

let next_token cur =
  skip_trivia cur;
  let p = pos cur in
  let simple tok =
    advance cur;
    { tok; pos = p }
  in
  match peek cur with
  | None -> { tok = Teof; pos = p }
  | Some c ->
    if is_digit c then { tok = Tint (lex_number cur); pos = p }
    else if c = '\'' then { tok = Tint (lex_char cur); pos = p }
    else if c = '"' then { tok = Tstring (lex_string cur); pos = p }
    else if is_ident_start c then begin
      let name = lex_ident cur in
      match keyword name with
      | Some kw -> { tok = kw; pos = p }
      | None -> { tok = Tident name; pos = p }
    end
    else begin
      match c with
      | '(' -> simple Tlparen
      | ')' -> simple Trparen
      | '{' -> simple Tlbrace
      | '}' -> simple Trbrace
      | '[' -> simple Tlbracket
      | ']' -> simple Trbracket
      | ',' -> simple Tcomma
      | ';' -> simple Tsemi
      | ':' -> simple Tcolon
      | '+' -> simple Tplus
      | '-' -> simple Tminus
      | '*' -> simple Tstar
      | '/' -> simple Tslash
      | '%' -> simple Tpercent
      | '^' -> simple Tcaret
      | '~' -> simple Ttilde
      | '&' ->
        advance cur;
        if peek cur = Some '&' then begin
          advance cur;
          { tok = Tland; pos = p }
        end
        else { tok = Tamp; pos = p }
      | '|' ->
        advance cur;
        if peek cur = Some '|' then begin
          advance cur;
          { tok = Tlor; pos = p }
        end
        else { tok = Tpipe; pos = p }
      | '!' ->
        advance cur;
        if peek cur = Some '=' then begin
          advance cur;
          { tok = Tne; pos = p }
        end
        else { tok = Tbang; pos = p }
      | '=' ->
        advance cur;
        if peek cur = Some '=' then begin
          advance cur;
          { tok = Teq; pos = p }
        end
        else { tok = Tassign; pos = p }
      | '<' ->
        advance cur;
        (match peek cur with
         | Some '<' ->
           advance cur;
           { tok = Tshl; pos = p }
         | Some '=' ->
           advance cur;
           { tok = with_u cur Tule Tle; pos = p }
         | Some _ | None -> { tok = with_u cur Tult Tlt; pos = p })
      | '>' ->
        advance cur;
        (match peek cur with
         | Some '>' ->
           advance cur;
           if peek cur = Some '>' then begin
             advance cur;
             { tok = Tashr; pos = p }
           end
           else { tok = Tshr; pos = p }
         | Some '=' ->
           advance cur;
           { tok = with_u cur Tuge Tge; pos = p }
         | Some _ | None -> { tok = with_u cur Tugt Tgt; pos = p })
      | c -> error cur "unexpected character %C" c
    end

let tokenize src =
  let cur = { src; i = 0; line = 1; col = 1 } in
  let rec go acc =
    let t = next_token cur in
    if t.tok = Teof then List.rev (t :: acc) else go (t :: acc)
  in
  go []
