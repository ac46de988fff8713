(* Recursive-descent parser for Jt. *)

open Ast

exception Error of string * int

let fail lx msg = raise (Error (msg, Lexer.line lx))

let expect_punct lx p =
  match Lexer.peek lx with
  | Lexer.PUNCT q when q = p -> Lexer.advance lx
  | t -> fail lx (Printf.sprintf "expected '%s', found %s" p (Lexer.describe t))

let expect_kw lx k =
  match Lexer.peek lx with
  | Lexer.KW q when q = k -> Lexer.advance lx
  | t -> fail lx (Printf.sprintf "expected '%s', found %s" k (Lexer.describe t))

let expect_ident lx =
  match Lexer.peek lx with
  | Lexer.IDENT s ->
      Lexer.advance lx;
      s
  | t -> fail lx ("expected identifier, found " ^ Lexer.describe t)

let eat_punct lx p =
  match Lexer.peek lx with
  | Lexer.PUNCT q when q = p ->
      Lexer.advance lx;
      true
  | _ -> false

let eat_kw lx k =
  match Lexer.peek lx with
  | Lexer.KW q when q = k ->
      Lexer.advance lx;
      true
  | _ -> false

(* type := base ("[" "]")* ; base := int|bool|str|void|Ident *)
let rec parse_type lx =
  let base =
    match Lexer.peek lx with
    | Lexer.KW "int" -> Lexer.advance lx; Tint
    | Lexer.KW "bool" -> Lexer.advance lx; Tbool
    | Lexer.KW "str" -> Lexer.advance lx; Tstr
    | Lexer.KW "void" -> Lexer.advance lx; Tvoid
    | Lexer.IDENT c -> Lexer.advance lx; Tname c
    | t -> fail lx ("expected type, found " ^ Lexer.describe t)
  in
  parse_array_suffix lx base

and parse_array_suffix lx base =
  if Lexer.peek lx = Lexer.PUNCT "[" && Lexer.peek2 lx = Lexer.PUNCT "]" then begin
    Lexer.advance lx;
    Lexer.advance lx;
    parse_array_suffix lx (Tarr base)
  end
  else base

(* Is a type at the current position (for distinguishing declarations from
   expressions)? Heuristic: primitive keyword, or Ident followed by Ident,
   or Ident [ ] . *)
let at_decl lx =
  match Lexer.peek lx with
  | Lexer.KW ("int" | "bool" | "str") -> true
  | Lexer.IDENT _ -> (
      match Lexer.peek2 lx with
      | Lexer.IDENT _ -> true
      | Lexer.PUNCT "[" ->
          (* Ident [ ] id  vs  Ident [ expr ] =  : look one more ahead *)
          Lexer.peek3 lx = Lexer.PUNCT "]"
      | _ -> false)
  | _ -> false

let rec parse_expr lx = parse_or lx

and parse_or lx =
  let l = parse_and lx in
  if eat_punct lx "||" then
    let r = parse_or lx in
    { e = Ebin (Or, l, r); eline = l.eline }
  else l

and parse_and lx =
  let l = parse_eq lx in
  if eat_punct lx "&&" then
    let r = parse_and lx in
    { e = Ebin (And, l, r); eline = l.eline }
  else l

and parse_eq lx =
  let l = parse_rel lx in
  if eat_punct lx "==" then
    let r = parse_rel lx in
    { e = Ebin (Eq, l, r); eline = l.eline }
  else if eat_punct lx "!=" then
    let r = parse_rel lx in
    { e = Ebin (Ne, l, r); eline = l.eline }
  else l

and parse_rel lx =
  let l = parse_add lx in
  let op =
    match Lexer.peek lx with
    | Lexer.PUNCT "<" -> Some Lt
    | Lexer.PUNCT "<=" -> Some Le
    | Lexer.PUNCT ">" -> Some Gt
    | Lexer.PUNCT ">=" -> Some Ge
    | _ -> None
  in
  match op with
  | Some op ->
      Lexer.advance lx;
      let r = parse_add lx in
      { e = Ebin (op, l, r); eline = l.eline }
  | None -> l

and parse_add lx =
  let rec go l =
    if eat_punct lx "+" then
      let r = parse_mul lx in
      go { e = Ebin (Add, l, r); eline = l.eline }
    else if eat_punct lx "-" then
      let r = parse_mul lx in
      go { e = Ebin (Sub, l, r); eline = l.eline }
    else l
  in
  go (parse_mul lx)

and parse_mul lx =
  let rec go l =
    if eat_punct lx "*" then
      let r = parse_unary lx in
      go { e = Ebin (Mul, l, r); eline = l.eline }
    else if eat_punct lx "/" then
      let r = parse_unary lx in
      go { e = Ebin (Div, l, r); eline = l.eline }
    else if eat_punct lx "%" then
      let r = parse_unary lx in
      go { e = Ebin (Mod, l, r); eline = l.eline }
    else l
  in
  go (parse_unary lx)

and parse_unary lx =
  let line = Lexer.line lx in
  if eat_punct lx "-" then
    let e = parse_unary lx in
    { e = Eun (Neg, e); eline = line }
  else if eat_punct lx "!" then
    let e = parse_unary lx in
    { e = Eun (Not, e); eline = line }
  else parse_postfix lx

and parse_postfix lx =
  let rec go recv =
    if eat_punct lx "." then begin
      let name = expect_ident lx in
      if name = "length" then go { e = Elen recv; eline = recv.eline }
      else if Lexer.peek lx = Lexer.PUNCT "(" then begin
        let args = parse_args lx in
        go { e = Ecall (Some recv, name, args); eline = recv.eline }
      end
      else go { e = Efield (recv, name); eline = recv.eline }
    end
    else if Lexer.peek lx = Lexer.PUNCT "[" then begin
      Lexer.advance lx;
      let idx = parse_expr lx in
      expect_punct lx "]";
      go { e = Eindex (recv, idx); eline = recv.eline }
    end
    else recv
  in
  go (parse_primary lx)

and parse_args lx =
  expect_punct lx "(";
  if eat_punct lx ")" then []
  else begin
    let rec go acc =
      let e = parse_expr lx in
      if eat_punct lx "," then go (e :: acc)
      else begin
        expect_punct lx ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_primary lx =
  let line = Lexer.line lx in
  match Lexer.peek lx with
  | Lexer.INT n ->
      Lexer.advance lx;
      { e = Eint n; eline = line }
  | Lexer.STR s ->
      Lexer.advance lx;
      { e = Estr s; eline = line }
  | Lexer.KW "true" ->
      Lexer.advance lx;
      { e = Ebool true; eline = line }
  | Lexer.KW "false" ->
      Lexer.advance lx;
      { e = Ebool false; eline = line }
  | Lexer.KW "null" ->
      Lexer.advance lx;
      { e = Enull; eline = line }
  | Lexer.KW "this" ->
      Lexer.advance lx;
      { e = Ethis; eline = line }
  | Lexer.KW "new" -> (
      Lexer.advance lx;
      let base = parse_type lx in
      match Lexer.peek lx with
      | Lexer.PUNCT "(" ->
          expect_punct lx "(";
          expect_punct lx ")";
          let cls =
            match base with
            | Tname c -> c
            | _ -> fail lx "can only 'new' a class type"
          in
          { e = Enew cls; eline = line }
      | Lexer.PUNCT "[" ->
          Lexer.advance lx;
          let len = parse_expr lx in
          expect_punct lx "]";
          (* trailing [] pairs make multi-dimensional element types *)
          let elt = parse_array_suffix lx base in
          { e = Enewarr (elt, len); eline = line }
      | t -> fail lx ("expected '(' or '[' after new, found " ^ Lexer.describe t))
  | Lexer.PUNCT "(" ->
      Lexer.advance lx;
      let e = parse_expr lx in
      expect_punct lx ")";
      e
  | Lexer.IDENT name ->
      Lexer.advance lx;
      if Lexer.peek lx = Lexer.PUNCT "(" then
        let args = parse_args lx in
        { e = Ecall (None, name, args); eline = line }
      else { e = Evar name; eline = line }
  | t -> fail lx ("expected expression, found " ^ Lexer.describe t)

(* Convert an already-parsed expression to an lvalue. *)
let lvalue_of_expr lx (e : expr) =
  match e.e with
  | Evar v -> Lvar v
  | Efield (r, f) -> Lfield (r, f)
  | Eindex (a, i) -> Lindex (a, i)
  | _ -> fail lx "invalid assignment target"

let rec parse_block lx =
  expect_punct lx "{";
  let rec go acc =
    if eat_punct lx "}" then List.rev acc else go (parse_stmt lx :: acc)
  in
  go []

(* A "simple statement" without trailing ';' — used in for-headers. *)
and parse_simple lx =
  let line = Lexer.line lx in
  if at_decl lx then begin
    let ty = parse_type lx in
    let name = expect_ident lx in
    let init = if eat_punct lx "=" then Some (parse_expr lx) else None in
    { s = Sdecl (ty, name, init); sline = line }
  end
  else begin
    let e = parse_expr lx in
    match Lexer.peek lx with
    | Lexer.PUNCT "=" ->
        Lexer.advance lx;
        let rhs = parse_expr lx in
        { s = Sassign (lvalue_of_expr lx e, rhs); sline = line }
    | Lexer.PUNCT (("+=" | "-=" | "*=" | "/=") as op) ->
        Lexer.advance lx;
        let rhs = parse_expr lx in
        let bop =
          match op with
          | "+=" -> Add
          | "-=" -> Sub
          | "*=" -> Mul
          | _ -> Div
        in
        let combined = { e = Ebin (bop, e, rhs); eline = line } in
        { s = Sassign (lvalue_of_expr lx e, combined); sline = line }
    | Lexer.PUNCT "++" ->
        Lexer.advance lx;
        let one = { e = Eint 1; eline = line } in
        let combined = { e = Ebin (Add, e, one); eline = line } in
        { s = Sassign (lvalue_of_expr lx e, combined); sline = line }
    | Lexer.PUNCT "--" ->
        Lexer.advance lx;
        let one = { e = Eint 1; eline = line } in
        let combined = { e = Ebin (Sub, e, one); eline = line } in
        { s = Sassign (lvalue_of_expr lx e, combined); sline = line }
    | _ -> { s = Sexpr e; sline = line }
  end

and parse_stmt lx =
  let line = Lexer.line lx in
  match Lexer.peek lx with
  | Lexer.PUNCT "{" -> { s = Sblock (parse_block lx); sline = line }
  | Lexer.KW "if" ->
      Lexer.advance lx;
      expect_punct lx "(";
      let c = parse_expr lx in
      expect_punct lx ")";
      let thn = parse_block lx in
      let els =
        if eat_kw lx "else" then
          if Lexer.peek lx = Lexer.KW "if" then Some [ parse_stmt lx ]
          else Some (parse_block lx)
        else None
      in
      { s = Sif (c, thn, els); sline = line }
  | Lexer.KW "while" ->
      Lexer.advance lx;
      expect_punct lx "(";
      let c = parse_expr lx in
      expect_punct lx ")";
      let body = parse_block lx in
      { s = Swhile (c, body); sline = line }
  | Lexer.KW "for" ->
      Lexer.advance lx;
      expect_punct lx "(";
      let init =
        if Lexer.peek lx = Lexer.PUNCT ";" then None else Some (parse_simple lx)
      in
      expect_punct lx ";";
      let cond =
        if Lexer.peek lx = Lexer.PUNCT ";" then None else Some (parse_expr lx)
      in
      expect_punct lx ";";
      let step =
        if Lexer.peek lx = Lexer.PUNCT ")" then None else Some (parse_simple lx)
      in
      expect_punct lx ")";
      let body = parse_block lx in
      { s = Sfor (init, cond, step, body); sline = line }
  | Lexer.KW "return" ->
      Lexer.advance lx;
      if eat_punct lx ";" then { s = Sreturn None; sline = line }
      else begin
        let e = parse_expr lx in
        expect_punct lx ";";
        { s = Sreturn (Some e); sline = line }
      end
  | Lexer.KW "atomic" ->
      Lexer.advance lx;
      { s = Satomic (parse_block lx); sline = line }
  | Lexer.KW "synchronized" ->
      Lexer.advance lx;
      expect_punct lx "(";
      let e = parse_expr lx in
      expect_punct lx ")";
      { s = Ssync (e, parse_block lx); sline = line }
  | _ ->
      let s = parse_simple lx in
      expect_punct lx ";";
      s

let parse_member lx =
  let line = Lexer.line lx in
  let m_static = ref false and m_final = ref false and m_volatile = ref false in
  let rec mods () =
    if eat_kw lx "static" then (m_static := true; mods ())
    else if eat_kw lx "final" then (m_final := true; mods ())
    else if eat_kw lx "volatile" then (m_volatile := true; mods ())
  in
  mods ();
  let ty = parse_type lx in
  let name = expect_ident lx in
  if Lexer.peek lx = Lexer.PUNCT "(" then begin
    (* method *)
    expect_punct lx "(";
    let params =
      if eat_punct lx ")" then []
      else begin
        let rec go acc =
          let pty = parse_type lx in
          let pname = expect_ident lx in
          if eat_punct lx "," then go ((pty, pname) :: acc)
          else begin
            expect_punct lx ")";
            List.rev ((pty, pname) :: acc)
          end
        in
        go []
      end
    in
    let body = parse_block lx in
    Mmethod { ret = ty; mname = name; m_static = !m_static; params; body; line }
  end
  else begin
    let finit = if eat_punct lx "=" then Some (parse_expr lx) else None in
    expect_punct lx ";";
    Mfield
      {
        fty = ty;
        fname = name;
        f_static = !m_static;
        f_final = !m_final;
        f_volatile = !m_volatile;
        finit;
        line;
      }
  end

let parse_class lx =
  let line = Lexer.line lx in
  expect_kw lx "class";
  let cname = expect_ident lx in
  let super = if eat_kw lx "extends" then Some (expect_ident lx) else None in
  expect_punct lx "{";
  let rec go acc =
    if eat_punct lx "}" then List.rev acc else go (parse_member lx :: acc)
  in
  let members = go [] in
  { cname; super; members; cline = line }

let parse_program lx =
  let rec go acc =
    match Lexer.peek lx with
    | Lexer.EOF -> List.rev acc
    | _ -> go (parse_class lx :: acc)
  in
  go []

let parse ?(name = "<jt>") src =
  let lx = Lexer.tokenize name src in
  parse_program lx
