(* Recursive-descent / precedence-climbing parser for Mini. *)

open Ast

type t = Lexer.t

let expect_punct lx p =
  match Lexer.next lx with
  | Lexer.PUNCT q when String.equal p q -> ()
  | tok ->
    syntax_error (Lexer.pos lx) "expected '%s', found %s" p
      (Lexer.token_to_string tok)

let expect_kw lx k =
  match Lexer.next lx with
  | Lexer.KW q when String.equal k q -> ()
  | tok ->
    syntax_error (Lexer.pos lx) "expected '%s', found %s" k
      (Lexer.token_to_string tok)

let expect_ident lx =
  match Lexer.next lx with
  | Lexer.IDENT s -> s
  | tok ->
    syntax_error (Lexer.pos lx) "expected identifier, found %s"
      (Lexer.token_to_string tok)

let accept_punct lx p =
  match Lexer.peek lx with
  | Lexer.PUNCT q when String.equal p q ->
    ignore (Lexer.next lx);
    true
  | _ -> false

let accept_kw lx k =
  match Lexer.peek lx with
  | Lexer.KW q when String.equal k q ->
    ignore (Lexer.next lx);
    true
  | _ -> false

let rec parse_ty lx : ty =
  match Lexer.next lx with
  | Lexer.KW "int" -> Tint
  | Lexer.KW "float" -> Tfloat
  | Lexer.KW "bool" -> Tbool
  | Lexer.KW "string" -> Tstring
  | Lexer.KW "unit" -> Tunit
  | Lexer.KW "farray" -> Tfarray
  | Lexer.KW "array" ->
    expect_punct lx "[";
    let t = parse_ty lx in
    expect_punct lx "]";
    Tarray t
  | Lexer.IDENT c -> Tclass c
  | Lexer.PUNCT "(" ->
    (* function type: (T1, ..., Tn) -> T *)
    let args =
      if accept_punct lx ")" then []
      else begin
        let rec go acc =
          let t = parse_ty lx in
          if accept_punct lx "," then go (t :: acc) else List.rev (t :: acc)
        in
        let args = go [] in
        expect_punct lx ")";
        args
      end
    in
    expect_punct lx "->";
    let r = parse_ty lx in
    Tfun (args, r)
  | tok ->
    syntax_error (Lexer.pos lx) "expected a type, found %s"
      (Lexer.token_to_string tok)

let parse_params lx : (string * ty) list =
  expect_punct lx "(";
  if accept_punct lx ")" then []
  else begin
    let rec go acc =
      let name = expect_ident lx in
      expect_punct lx ":";
      let t = parse_ty lx in
      if accept_punct lx "," then go ((name, t) :: acc)
      else List.rev ((name, t) :: acc)
    in
    let ps = go [] in
    expect_punct lx ")";
    ps
  end

let mk pos desc = { desc; pos }

let rec parse_expr lx : expr = parse_assign lx

and parse_assign lx =
  let pos = Lexer.pos lx in
  let lhs = parse_or lx in
  if accept_punct lx "=" then
    let rhs = parse_assign lx in
    mk pos (Eassign (lhs, rhs))
  else lhs

and parse_or lx =
  let pos = Lexer.pos lx in
  let a = parse_and lx in
  if accept_punct lx "||" then mk pos (Ebin (Or, a, parse_or lx)) else a

and parse_and lx =
  let pos = Lexer.pos lx in
  let a = parse_equality lx in
  if accept_punct lx "&&" then mk pos (Ebin (And, a, parse_and lx)) else a

and parse_equality lx =
  let pos = Lexer.pos lx in
  let a = parse_relational lx in
  if accept_punct lx "==" then mk pos (Ebin (Eq, a, parse_relational lx))
  else if accept_punct lx "!=" then mk pos (Ebin (Ne, a, parse_relational lx))
  else a

and parse_relational lx =
  let pos = Lexer.pos lx in
  let a = parse_additive lx in
  if accept_punct lx "<=" then mk pos (Ebin (Le, a, parse_additive lx))
  else if accept_punct lx ">=" then mk pos (Ebin (Ge, a, parse_additive lx))
  else if accept_punct lx "<" then mk pos (Ebin (Lt, a, parse_additive lx))
  else if accept_punct lx ">" then mk pos (Ebin (Gt, a, parse_additive lx))
  else a

and parse_additive lx =
  let pos = Lexer.pos lx in
  let rec go a =
    if accept_punct lx "+" then go (mk pos (Ebin (Add, a, parse_multiplicative lx)))
    else if accept_punct lx "-" then
      go (mk pos (Ebin (Sub, a, parse_multiplicative lx)))
    else a
  in
  go (parse_multiplicative lx)

and parse_multiplicative lx =
  let pos = Lexer.pos lx in
  let rec go a =
    if accept_punct lx "*" then go (mk pos (Ebin (Mul, a, parse_unary lx)))
    else if accept_punct lx "/" then go (mk pos (Ebin (Div, a, parse_unary lx)))
    else if accept_punct lx "%" then go (mk pos (Ebin (Rem, a, parse_unary lx)))
    else a
  in
  go (parse_unary lx)

and parse_unary lx =
  let pos = Lexer.pos lx in
  if accept_punct lx "!" then mk pos (Eun (Not, parse_unary lx))
  else if accept_punct lx "-" then mk pos (Eun (Neg, parse_unary lx))
  else parse_postfix lx

and parse_postfix lx =
  let e = parse_primary lx in
  parse_postfix_of lx e

and parse_postfix_of lx e =
  let pos = Lexer.pos lx in
  match Lexer.peek lx with
  | Lexer.PUNCT "." ->
    ignore (Lexer.next lx);
    let name = expect_ident lx in
    if accept_punct lx "(" then
      let args = parse_args lx in
      parse_postfix_of lx (mk pos (Emethod (e, name, args)))
    else parse_postfix_of lx (mk pos (Efield (e, name)))
  | Lexer.PUNCT "(" ->
    ignore (Lexer.next lx);
    let args = parse_args lx in
    parse_postfix_of lx (mk pos (Ecall (e, args)))
  | Lexer.PUNCT "[" ->
    ignore (Lexer.next lx);
    let i = parse_expr lx in
    expect_punct lx "]";
    parse_postfix_of lx (mk pos (Eindex (e, i)))
  | _ -> e

and parse_args lx =
  (* the opening '(' has been consumed *)
  if accept_punct lx ")" then []
  else begin
    let rec go acc =
      let e = parse_expr lx in
      if accept_punct lx "," then go (e :: acc) else List.rev (e :: acc)
    in
    let args = go [] in
    expect_punct lx ")";
    args
  end

and parse_primary lx =
  let pos = Lexer.pos lx in
  match Lexer.next lx with
  | Lexer.INT i -> mk pos (Eint i)
  | Lexer.FLOAT f -> mk pos (Efloat f)
  | Lexer.STRING s -> mk pos (Estr s)
  | Lexer.KW "true" -> mk pos (Ebool true)
  | Lexer.KW "false" -> mk pos (Ebool false)
  | Lexer.KW "null" -> mk pos Enull
  | Lexer.KW "this" -> mk pos Ethis
  | Lexer.IDENT x -> mk pos (Eident x)
  | Lexer.PUNCT "(" ->
    let e = parse_expr lx in
    expect_punct lx ")";
    e
  | Lexer.PUNCT "{" -> parse_block_body lx pos
  | Lexer.KW "if" ->
    expect_punct lx "(";
    let c = parse_expr lx in
    expect_punct lx ")";
    let t = parse_expr lx in
    let f = if accept_kw lx "else" then Some (parse_expr lx) else None in
    mk pos (Eif (c, t, f))
  | Lexer.KW "while" ->
    expect_punct lx "(";
    let c = parse_expr lx in
    expect_punct lx ")";
    let body = parse_expr lx in
    mk pos (Ewhile (c, body))
  | Lexer.KW "for" ->
    expect_punct lx "(";
    let x = expect_ident lx in
    expect_punct lx "<-";
    let a = parse_expr lx in
    expect_kw lx "until";
    let b = parse_expr lx in
    expect_punct lx ")";
    let body = parse_expr lx in
    mk pos (Efor (x, a, b, body))
  | Lexer.KW "fun" ->
    let params = parse_params lx in
    expect_punct lx "=>";
    let body = parse_expr lx in
    mk pos (Elambda (params, body))
  | Lexer.KW "new" -> (
    match Lexer.peek lx with
    | Lexer.KW "array" ->
      ignore (Lexer.next lx);
      expect_punct lx "[";
      let t = parse_ty lx in
      expect_punct lx "]";
      expect_punct lx "(";
      let n = parse_expr lx in
      expect_punct lx ")";
      mk pos (Enewarr (Tarray t, n))
    | Lexer.KW "farray" ->
      ignore (Lexer.next lx);
      expect_punct lx "(";
      let n = parse_expr lx in
      expect_punct lx ")";
      mk pos (Enewarr (Tfarray, n))
    | _ ->
      let cls = expect_ident lx in
      expect_punct lx "(";
      let args = parse_args lx in
      mk pos (Enew (cls, args)))
  | tok ->
    syntax_error pos "expected an expression, found %s"
      (Lexer.token_to_string tok)

(* A statement is an expression or a val/var binding. *)
and parse_stmt lx =
  let pos = Lexer.pos lx in
  if accept_kw lx "val" then parse_binding lx pos false
  else if accept_kw lx "var" then parse_binding lx pos true
  else parse_expr lx

and parse_binding lx pos mutable_ =
  let name = expect_ident lx in
  let annot = if accept_punct lx ":" then Some (parse_ty lx) else None in
  expect_punct lx "=";
  let init = parse_expr lx in
  mk pos (Elet (mutable_, name, annot, init))

and parse_block_body lx pos =
  (* '{' already consumed; statements separated by ';' (trailing optional) *)
  let rec go acc =
    if accept_punct lx "}" then List.rev acc
    else begin
      let s = parse_stmt lx in
      if accept_punct lx ";" then go (s :: acc)
      else begin
        expect_punct lx "}";
        List.rev (s :: acc)
      end
    end
  in
  mk pos (Eblock (go []))

let parse_member lx : member =
  let pos = Lexer.pos lx in
  if accept_kw lx "val" then begin
    let name = expect_ident lx in
    expect_punct lx ":";
    let t = parse_ty lx in
    ignore (accept_punct lx ";");
    Mfield (true, name, t)
  end
  else if accept_kw lx "var" then begin
    let name = expect_ident lx in
    expect_punct lx ":";
    let t = parse_ty lx in
    ignore (accept_punct lx ";");
    Mfield (false, name, t)
  end
  else if accept_kw lx "def" then begin
    let name = expect_ident lx in
    let params = parse_params lx in
    expect_punct lx ":";
    let ret = parse_ty lx in
    expect_punct lx "=";
    let body = parse_expr lx in
    ignore (accept_punct lx ";");
    Mmethod (name, params, ret, body)
  end
  else
    syntax_error pos "expected a class member, found %s"
      (Lexer.token_to_string (Lexer.peek lx))

let rec parse_decl lx : decl =
  let pos = Lexer.pos lx in
  if accept_kw lx "class" then begin
    let name = expect_ident lx in
    let super = if accept_kw lx "extends" then Some (expect_ident lx) else None in
    expect_punct lx "{";
    let rec members acc =
      if accept_punct lx "}" then List.rev acc
      else members (parse_member lx :: acc)
    in
    Dclass (name, super, members [], pos)
  end
  else if accept_kw lx "def" then begin
    let name = expect_ident lx in
    let params = parse_params lx in
    expect_punct lx ":";
    let ret = parse_ty lx in
    expect_punct lx "=";
    let body = parse_expr lx in
    ignore (accept_punct lx ";");
    Dfun (name, params, ret, body, pos)
  end
  else if accept_kw lx "val" then parse_global lx pos false
  else if accept_kw lx "var" then parse_global lx pos true
  else
    syntax_error pos "expected a declaration, found %s"
      (Lexer.token_to_string (Lexer.peek lx))

and parse_global lx pos mutable_ =
  let name = expect_ident lx in
  let annot = if accept_punct lx ":" then Some (parse_ty lx) else None in
  expect_punct lx "=";
  let init = parse_expr lx in
  ignore (accept_punct lx ";");
  Dglobal (mutable_, name, annot, init, pos)

let parse_program (src : string) : program =
  let lx = Lexer.create src in
  let rec go acc =
    match Lexer.peek lx with
    | Lexer.EOF -> List.rev acc
    | _ -> go (parse_decl lx :: acc)
  in
  go []
