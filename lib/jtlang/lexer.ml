(* Hand-written lexer for Jt. *)

type token =
  | INT of int
  | STR of string
  | IDENT of string
  | KW of string  (* keywords *)
  | PUNCT of string  (* operators and punctuation *)
  | EOF

(* The token stream as a list cursor. A list, not an array: the tokens
   then stay on the minor heap and die there once parsed, whereas
   filling a large (major-heap) array with them would make every token
   a remembered-set entry that the next minor collection promotes. *)
type t = {
  name : string;
  mutable rest : (token * int) list;  (* (token, line); ends with EOF *)
}

exception Error of string * int

(* A [match] on string literals compiles to word comparisons: no
   [compare] call per keyword for every identifier. *)
let is_keyword = function
  | "class" | "extends" | "static" | "final" | "volatile" | "void" | "int"
  | "bool" | "str" | "if" | "else" | "while" | "for" | "return" | "atomic"
  | "synchronized" | "new" | "null" | "true" | "false" | "this" ->
      true
  | _ -> false

(* Operators and punctuation, longest match first. The token strings
   are shared literals, so recognising one allocates nothing. *)
let punct2 c c2 =
  match (c, c2) with
  | '=', '=' -> Some "=="
  | '!', '=' -> Some "!="
  | '<', '=' -> Some "<="
  | '>', '=' -> Some ">="
  | '&', '&' -> Some "&&"
  | '|', '|' -> Some "||"
  | '+', '=' -> Some "+="
  | '-', '=' -> Some "-="
  | '*', '=' -> Some "*="
  | '/', '=' -> Some "/="
  | '+', '+' -> Some "++"
  | '-', '-' -> Some "--"
  | _ -> None

let punct1 = function
  | '{' -> Some "{"
  | '}' -> Some "}"
  | '(' -> Some "("
  | ')' -> Some ")"
  | '[' -> Some "["
  | ']' -> Some "]"
  | ';' -> Some ";"
  | ',' -> Some ","
  | '.' -> Some "."
  | '+' -> Some "+"
  | '-' -> Some "-"
  | '*' -> Some "*"
  | '/' -> Some "/"
  | '%' -> Some "%"
  | '<' -> Some "<"
  | '>' -> Some ">"
  | '=' -> Some "="
  | '!' -> Some "!"
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize name src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push tok = toks := (tok, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then raise (Error ("unterminated comment", !line));
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else incr i
      done
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      push (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let s = String.sub src start (!i - start) in
      if is_keyword s then push (KW s) else push (IDENT s)
    end
    else if c = '"' then begin
      incr i;
      let b = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then raise (Error ("unterminated string", !line));
        (match src.[!i] with
        | '"' -> fin := true
        | '\\' when !i + 1 < n ->
            incr i;
            Buffer.add_char b
              (match src.[!i] with
              | 'n' -> '\n'
              | 't' -> '\t'
              | ch -> ch)
        | ch -> Buffer.add_char b ch);
        incr i
      done;
      push (STR (Buffer.contents b))
    end
    else begin
      let c2 = if !i + 1 < n then src.[!i + 1] else '\000' in
      match punct2 c c2 with
      | Some op ->
          push (PUNCT op);
          i := !i + 2
      | None -> (
          match punct1 c with
          | Some p ->
              push (PUNCT p);
              incr i
          | None -> raise (Error (Printf.sprintf "unexpected character %C" c, !line)))
    end
  done;
  push EOF;
  { name; rest = List.rev !toks }

let peek lx = match lx.rest with (tok, _) :: _ -> tok | [] -> EOF
let peek2 lx = match lx.rest with _ :: (tok, _) :: _ -> tok | _ -> EOF
let peek3 lx = match lx.rest with _ :: _ :: (tok, _) :: _ -> tok | _ -> EOF
let line lx = match lx.rest with (_, l) :: _ -> l | [] -> 0

(* The cursor stops at EOF. *)
let advance lx = match lx.rest with _ :: (_ :: _ as tl) -> lx.rest <- tl | _ -> ()

let describe = function
  | INT n -> string_of_int n
  | STR s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "<eof>"
