(* Type checking and name resolution for Mini.  Produces a typed AST that
   the code generator consumes; all overloading (numeric vs string ops,
   static vs closure calls, builtin natives) is resolved here. *)

open Ast

(* ---------------- typed AST ---------------- *)

type texpr = { t : ty; tdesc : tdesc; tpos : pos }

and tdesc =
  | Cint of int
  | Cfloat of float
  | Cstr of string
  | Cbool of bool
  | Cnull
  | Local of string
  | GlobalRef of string
  | This
  | LetT of bool * string * texpr (* mutable?, name, init *)
  | AssignLocal of string * texpr
  | AssignGlobal of string * texpr
  | FieldGet of string * texpr * string (* class, receiver, field *)
  | FieldSet of string * texpr * string * texpr
  | ArrayGet of texpr * texpr
  | ArraySet of texpr * texpr * texpr
  | ArrayLen of texpr
  | Iarith of binop * texpr * texpr
  | Farith of binop * texpr * texpr
  | Icompare of binop * texpr * texpr
  | Fcompare of binop * texpr * texpr
  | StrConcat of texpr * texpr
  | StrEq of bool * texpr * texpr (* negate? *)
  | RefEq of bool * texpr * texpr
  | NullCheck of bool * texpr (* true: == null *)
  | AndT of texpr * texpr
  | OrT of texpr * texpr
  | NotT of texpr
  | INegT of texpr
  | FNegT of texpr
  | I2FT of texpr
  | F2IT of texpr
  | IfT of texpr * texpr * texpr option
  | WhileT of texpr * texpr
  | ForT of string * texpr * texpr * texpr
  | BlockT of texpr list
  | CallFun of string * texpr list (* top-level function *)
  | CallBuiltin of string * string * texpr list (* native class static *)
  | CallMethod of string * texpr * string * texpr list (* static class, recv *)
  | CallClosure of texpr * texpr list
  | NewT of string * texpr list
  | NewArrT of ty * texpr
  | LambdaT of (string * ty) list * ty * texpr

(* ---------------- symbol tables ---------------- *)

type class_info = {
  ci_name : string;
  ci_super : string option;
  ci_fields : (string * ty * bool) list; (* own fields: name, ty, final *)
  ci_methods : (string * ((string * ty) list * ty)) list;
}

type genv = {
  classes : (string, class_info) Hashtbl.t;
  funs : (string, (string * ty) list * ty) Hashtbl.t;
  globals : (string, ty * bool) Hashtbl.t; (* ty, mutable *)
}

let builtin_classes = [ "Sys"; "Str"; "Math"; "Arr"; "Lancet"; "Dom" ]

(* native class names registered by embedders (e.g. SafeInt's Big) *)
let extra_builtin_classes : string list ref = ref []

let is_builtin_class x =
  List.mem x builtin_classes || List.mem x !extra_builtin_classes

let register_builtin_class name =
  if not (is_builtin_class name) then
    extra_builtin_classes := name :: !extra_builtin_classes

let find_class genv pos name =
  match Hashtbl.find_opt genv.classes name with
  | Some ci -> ci
  | None -> type_error pos "unknown class %s" name

(* field lookup walks the superclass chain; returns defining class too *)
let rec lookup_field genv pos cls name =
  let ci = find_class genv pos cls in
  match List.find_opt (fun (n, _, _) -> String.equal n name) ci.ci_fields with
  | Some (_, ty, final) -> (cls, ty, final)
  | None -> (
    match ci.ci_super with
    | Some s -> lookup_field genv pos s name
    | None -> type_error pos "class %s has no field %s" cls name)

let rec lookup_method genv pos cls name =
  let ci = find_class genv pos cls in
  match List.assoc_opt name ci.ci_methods with
  | Some sg -> Some sg
  | None -> (
    match ci.ci_super with
    | Some s -> lookup_method genv pos s name
    | None -> None)

let rec is_subclass genv sub super =
  String.equal sub super
  ||
  match Hashtbl.find_opt genv.classes sub with
  | Some { ci_super = Some s; _ } -> is_subclass genv s super
  | _ -> false

(* assignability: reflexive, null to references, subclassing *)
let rec assignable genv ~(src : ty) ~(dst : ty) =
  match src, dst with
  | Tnull, (Tclass _ | Tstring | Tarray _ | Tfarray | Tfun _ | Tnull) -> true
  | Tclass a, Tclass b -> is_subclass genv a b
  | Tarray a, Tarray b -> a = b
  | Tfun (a1, r1), Tfun (a2, r2) ->
    List.length a1 = List.length a2
    && List.for_all2 (fun x y -> x = y) a1 a2
    && assignable genv ~src:r1 ~dst:r2
  | a, b -> a = b

let check_assignable genv pos ~src ~dst what =
  if not (assignable genv ~src ~dst) then
    type_error pos "%s: expected %s, got %s" what (ty_to_string dst)
      (ty_to_string src)

(* least upper bound of branch types for if/else *)
let lub_ty genv pos a b =
  if assignable genv ~src:a ~dst:b then b
  else if assignable genv ~src:b ~dst:a then a
  else type_error pos "branches have incompatible types %s and %s"
         (ty_to_string a) (ty_to_string b)

(* ---------------- local environments ---------------- *)

type local = { l_ty : ty; l_mutable : bool }

type env = {
  genv : genv;
  mutable locals : (string * local) list; (* innermost first *)
  self : string option; (* enclosing class *)
  in_init : bool; (* inside an init method: final fields writable *)
}

let lookup_local env name = List.assoc_opt name env.locals

(* ---------------- builtin native signatures ---------------- *)

(* Concrete monomorphic builtins; generic ones are special-cased below. *)
let builtin_sigs : (string * string, ty list * ty) Hashtbl.t =
  let h = Hashtbl.create 64 in
  let add cls name args ret = Hashtbl.replace h (cls, name) (args, ret) in
  add "Sys" "read_file" [ Tstring ] Tstring;
  add "Sys" "write_file" [ Tstring; Tstring ] Tunit;
  add "Sys" "time_ms" [] Tfloat;
  add "Sys" "steps" [] Tint;
  add "Str" "len" [ Tstring ] Tint;
  add "Str" "concat" [ Tstring; Tstring ] Tstring;
  add "Str" "split" [ Tstring; Tstring ] (Tarray Tstring);
  add "Str" "index_of" [ Tstring; Tstring ] Tint;
  add "Str" "char_at" [ Tstring; Tint ] Tint;
  add "Str" "sub" [ Tstring; Tint; Tint ] Tstring;
  add "Str" "of_int" [ Tint ] Tstring;
  add "Str" "of_float" [ Tfloat ] Tstring;
  add "Str" "of_char" [ Tint ] Tstring;
  add "Str" "to_int" [ Tstring ] Tint;
  add "Str" "to_float" [ Tstring ] Tfloat;
  add "Str" "eq" [ Tstring; Tstring ] Tbool;
  add "Str" "cmp" [ Tstring; Tstring ] Tint;
  add "Math" "sqrt" [ Tfloat ] Tfloat;
  add "Math" "exp" [ Tfloat ] Tfloat;
  add "Math" "log" [ Tfloat ] Tfloat;
  add "Math" "fabs" [ Tfloat ] Tfloat;
  add "Math" "pow" [ Tfloat; Tfloat ] Tfloat;
  add "Math" "iabs" [ Tint ] Tint;
  add "Math" "imin" [ Tint; Tint ] Tint;
  add "Math" "imax" [ Tint; Tint ] Tint;
  add "Math" "fmin" [ Tfloat; Tfloat ] Tfloat;
  add "Math" "fmax" [ Tfloat; Tfloat ] Tfloat;
  add "Lancet" "likely" [ Tbool ] Tbool;
  add "Lancet" "speculate" [ Tbool ] Tbool;
  add "Lancet" "stable" [ Tfun ([], Tbool) ] Tbool;
  add "Lancet" "slowpath" [] Tunit;
  add "Lancet" "fastpath" [] Tunit;
  add "Lancet" "ntimes" [ Tint; Tfun ([ Tint ], Tunit) ] Tunit;
  h

let register_builtin_sig ~cls ~name args ret =
  Hashtbl.replace builtin_sigs (cls, name) (args, ret)

let scoped_directives =
  [
    "inline_always"; "inline_never"; "inline_nonrec"; "unroll_top_level";
    "check_no_alloc"; "check_no_leak";
  ]

(* Typing for builtins whose signature is generic. *)
let type_builtin genv pos cls name (targs : texpr list) : ty =
  let arg i =
    match List.nth_opt targs i with
    | Some a -> a
    | None -> type_error pos "%s.%s: missing argument %d" cls name i
  in
  let arity n =
    if List.length targs <> n then
      type_error pos "%s.%s expects %d argument(s), got %d" cls name n
        (List.length targs)
  in
  match cls, name with
  | "Sys", ("print" | "println") ->
    arity 1;
    Tunit
  | "Sys", "veq" ->
    arity 2;
    Tbool
  | "Arr", "copy" -> (
    arity 1;
    match (arg 0).t with
    | (Tarray _ | Tfarray) as t -> t
    | t -> type_error pos "Arr.copy: not an array: %s" (ty_to_string t))
  | "Arr", "fill" -> (
    arity 2;
    match (arg 0).t, (arg 1).t with
    | Tarray e, s when assignable genv ~src:s ~dst:e -> Tunit
    | Tfarray, Tfloat -> Tunit
    | t, _ -> type_error pos "Arr.fill: bad arguments (%s)" (ty_to_string t))
  | "Lancet", "compile" -> (
    arity 1;
    match (arg 0).t with
    | Tfun _ as t -> t
    | t -> type_error pos "Lancet.compile: expected a function, got %s" (ty_to_string t))
  | "Lancet", "freeze" -> (
    arity 1;
    match (arg 0).t with
    | Tfun ([], r) -> r
    | t -> type_error pos "Lancet.freeze: expected a thunk, got %s" (ty_to_string t))
  | "Lancet", ("unroll" | "taint" | "untaint") ->
    arity 1;
    (arg 0).t
  | "Lancet", d when List.mem d scoped_directives -> (
    arity 1;
    match (arg 0).t with
    | Tfun ([], r) -> r
    | t -> type_error pos "Lancet.%s: expected a thunk, got %s" d (ty_to_string t))
  | "Lancet", "reset" -> (
    arity 1;
    match (arg 0).t with
    | Tfun ([], r) -> r
    | t -> type_error pos "Lancet.reset: expected a thunk, got %s" (ty_to_string t))
  | "Lancet", "shift" -> (
    arity 1;
    match (arg 0).t with
    | Tfun ([ Tfun ([ t ], r) ], r') when r = r' -> t
    | t ->
      type_error pos
        "Lancet.shift: expected ((T) -> R) -> R, got %s" (ty_to_string t))
  | "Lancet", ("at_scope" | "in_scope") -> (
    arity 3;
    check_assignable genv pos ~src:(arg 0).t ~dst:Tstring "at_scope pattern";
    check_assignable genv pos ~src:(arg 1).t ~dst:Tstring "at_scope directive";
    match (arg 2).t with
    | Tfun ([], r) -> r
    | t -> type_error pos "at_scope: expected a thunk, got %s" (ty_to_string t))
  | _ -> (
    match Hashtbl.find_opt builtin_sigs (cls, name) with
    | Some (atys, ret) ->
      arity (List.length atys);
      List.iteri
        (fun i want ->
          check_assignable genv pos ~src:(List.nth targs i).t ~dst:want
            (Printf.sprintf "%s.%s argument %d" cls name (i + 1)))
        atys;
      ret
    | None -> type_error pos "unknown builtin %s.%s" cls name)

(* ---------------- expression checking ---------------- *)

let mk t pos tdesc = { t; tdesc; tpos = pos }

let coerce_num genv pos a b =
  (* returns (a', b', is_float) with implicit int->float coercion *)
  ignore genv;
  match a.t, b.t with
  | Tint, Tint -> (a, b, false)
  | Tfloat, Tfloat -> (a, b, true)
  | Tint, Tfloat -> (mk Tfloat a.tpos (I2FT a), b, true)
  | Tfloat, Tint -> (a, mk Tfloat b.tpos (I2FT b), true)
  | ta, tb ->
    type_error pos "numeric operation on %s and %s" (ty_to_string ta)
      (ty_to_string tb)

let rec check env (e : expr) : texpr =
  let pos = e.pos in
  match e.desc with
  | Eint i -> mk Tint pos (Cint i)
  | Efloat f -> mk Tfloat pos (Cfloat f)
  | Estr s -> mk Tstring pos (Cstr s)
  | Ebool b -> mk Tbool pos (Cbool b)
  | Enull -> mk Tnull pos Cnull
  | Ethis -> (
    match env.self with
    | Some c -> mk (Tclass c) pos This
    | None -> type_error pos "'this' outside of a class")
  | Eident x -> (
    match lookup_local env x with
    | Some l -> mk l.l_ty pos (Local x)
    | None -> (
      match Hashtbl.find_opt env.genv.globals x with
      | Some (t, _) -> mk t pos (GlobalRef x)
      | None -> type_error pos "unbound variable %s" x))
  | Elet (mut, name, annot, init) ->
    let tinit = check env init in
    let t =
      match annot with
      | Some t ->
        check_assignable env.genv pos ~src:tinit.t ~dst:t
          (Printf.sprintf "initializer of %s" name);
        t
      | None -> (
        match tinit.t with
        | Tnull -> type_error pos "cannot infer the type of %s from null" name
        | t -> t)
    in
    env.locals <- (name, { l_ty = t; l_mutable = mut }) :: env.locals;
    mk Tunit pos (LetT (mut, name, tinit))
  | Eassign (lhs, rhs) -> check_assign env pos lhs rhs
  | Efield (obj, name) -> (
    let tobj = check_maybe_class env obj in
    match tobj with
    | `Class cls -> type_error pos "%s.%s: not a value" cls name
    | `Expr tobj -> (
      match tobj.t, name with
      | (Tarray _ | Tfarray), "length" -> mk Tint pos (ArrayLen tobj)
      | Tclass c, _ ->
        let _, ty, _ = lookup_field env.genv pos c name in
        mk ty pos (FieldGet (c, tobj, name))
      | t, _ -> type_error pos "field access on %s" (ty_to_string t)))
  | Eindex (a, i) -> (
    let ta = check env a in
    let ti = check env i in
    check_assignable env.genv pos ~src:ti.t ~dst:Tint "array index";
    match ta.t with
    | Tarray elem -> mk elem pos (ArrayGet (ta, ti))
    | Tfarray -> mk Tfloat pos (ArrayGet (ta, ti))
    | t -> type_error pos "indexing a non-array %s" (ty_to_string t))
  | Ebin (op, a, b) -> check_bin env pos op a b
  | Eun (Not, a) ->
    let ta = check env a in
    check_assignable env.genv pos ~src:ta.t ~dst:Tbool "operand of !";
    mk Tbool pos (NotT ta)
  | Eun (Neg, a) -> (
    let ta = check env a in
    match ta.t with
    | Tint -> mk Tint pos (INegT ta)
    | Tfloat -> mk Tfloat pos (FNegT ta)
    | t -> type_error pos "negation of %s" (ty_to_string t))
  | Eif (c, t, f) -> (
    let tc = check env c in
    check_assignable env.genv pos ~src:tc.t ~dst:Tbool "if condition";
    let scope = env.locals in
    let tt = check env t in
    env.locals <- scope;
    match f with
    | None -> mk Tunit pos (IfT (tc, tt, None))
    | Some f ->
      let tf = check env f in
      env.locals <- scope;
      let ty = lub_ty env.genv pos tt.t tf.t in
      mk ty pos (IfT (tc, tt, Some tf)))
  | Ewhile (c, body) ->
    let tc = check env c in
    check_assignable env.genv pos ~src:tc.t ~dst:Tbool "while condition";
    let scope = env.locals in
    let tbody = check env body in
    env.locals <- scope;
    mk Tunit pos (WhileT (tc, tbody))
  | Efor (x, a, b, body) ->
    let ta = check env a and tb = check env b in
    check_assignable env.genv pos ~src:ta.t ~dst:Tint "for lower bound";
    check_assignable env.genv pos ~src:tb.t ~dst:Tint "for upper bound";
    let scope = env.locals in
    env.locals <- (x, { l_ty = Tint; l_mutable = false }) :: env.locals;
    let tbody = check env body in
    env.locals <- scope;
    mk Tunit pos (ForT (x, ta, tb, tbody))
  | Eblock es ->
    let scope = env.locals in
    let ts = List.map (check env) es in
    env.locals <- scope;
    let t = match List.rev ts with [] -> Tunit | last :: _ -> last.t in
    mk t pos (BlockT ts)
  | Ecall ({ desc = Eident f; _ }, args) when lookup_local env f = None -> (
    (* not a local: top-level function or intrinsic *)
    match Hashtbl.find_opt env.genv.funs f with
    | Some (params, ret) ->
      let targs = check_args env pos f params args in
      mk ret pos (CallFun (f, targs))
    | None -> (
      match f, args with
      | "i2f", [ a ] ->
        let ta = check env a in
        check_assignable env.genv pos ~src:ta.t ~dst:Tint "i2f";
        mk Tfloat pos (I2FT ta)
      | "f2i", [ a ] ->
        let ta = check env a in
        check_assignable env.genv pos ~src:ta.t ~dst:Tfloat "f2i";
        mk Tint pos (F2IT ta)
      | _ -> (
        match Hashtbl.find_opt env.genv.globals f with
        | Some (Tfun (ptys, ret), _) ->
          let targs = check_closure_args env pos ptys args in
          mk ret pos
            (CallClosure (mk (Tfun (ptys, ret)) pos (GlobalRef f), targs))
        | Some (t, _) ->
          type_error pos "%s is not callable (type %s)" f (ty_to_string t)
        | None -> type_error pos "unknown function %s" f)))
  | Ecall (f, args) -> (
    let tf = check env f in
    match tf.t with
    | Tfun (ptys, ret) ->
      let targs = check_closure_args env pos ptys args in
      mk ret pos (CallClosure (tf, targs))
    | t -> type_error pos "calling a non-function %s" (ty_to_string t))
  | Emethod (recv, name, args) -> (
    let trecv = check_maybe_class env recv in
    match trecv with
    | `Class cls when is_builtin_class cls ->
      let targs = List.map (check env) args in
      let ret = type_builtin env.genv pos cls name targs in
      mk ret pos (CallBuiltin (cls, name, targs))
    | `Class cls -> type_error pos "class %s has no static methods" cls
    | `Expr trecv -> (
      match trecv.t with
      | Tclass c -> (
        match lookup_method env.genv pos c name with
        | Some (params, ret) ->
          let targs = check_args env pos (c ^ "." ^ name) params args in
          mk ret pos (CallMethod (c, trecv, name, targs))
        | None -> (
          (* method-valued field: obj.f(x) where f is a closure field *)
          match lookup_field env.genv pos c name with
          | _, Tfun (ptys, ret), _ ->
            let targs = check_closure_args env pos ptys args in
            let fld = mk (Tfun (ptys, ret)) pos (FieldGet (c, trecv, name)) in
            mk ret pos (CallClosure (fld, targs))
          | _ -> type_error pos "class %s has no method %s" c name
          | exception Type_error _ ->
            type_error pos "class %s has no method %s" c name))
      | t -> type_error pos "method call on %s" (ty_to_string t)))
  | Enew (cls, args) -> (
    ignore (find_class env.genv pos cls);
    match lookup_method env.genv pos cls "init" with
    | Some (params, ret) ->
      if ret <> Tunit then type_error pos "%s.init must return unit" cls;
      let targs = check_args env pos (cls ^ ".init") params args in
      mk (Tclass cls) pos (NewT (cls, targs))
    | None ->
      if args <> [] then
        type_error pos "class %s has no init but got constructor arguments" cls;
      mk (Tclass cls) pos (NewT (cls, [])))
  | Enewarr (ty, n) ->
    let tn = check env n in
    check_assignable env.genv pos ~src:tn.t ~dst:Tint "array size";
    (match ty with
    | Tarray (Tclass c) -> ignore (find_class env.genv pos c)
    | _ -> ());
    mk ty pos (NewArrT (ty, tn))
  | Elambda (params, body) ->
    let scope = env.locals in
    env.locals <-
      List.map (fun (x, t) -> (x, { l_ty = t; l_mutable = false })) params
      @ env.locals;
    let tbody = check env body in
    env.locals <- scope;
    let t = Tfun (List.map snd params, tbody.t) in
    mk t pos (LambdaT (params, tbody.t, tbody))

(* an identifier in receiver position may be a (builtin or user) class name *)
and check_maybe_class env (e : expr) =
  match e.desc with
  | Eident x
    when lookup_local env x = None
         && not (Hashtbl.mem env.genv.globals x)
         && (is_builtin_class x || Hashtbl.mem env.genv.classes x) ->
    `Class x
  | _ -> `Expr (check env e)

and check_args env pos what params args =
  if List.length params <> List.length args then
    type_error pos "%s expects %d argument(s), got %d" what
      (List.length params) (List.length args);
  List.map2
    (fun (pname, pty) a ->
      let ta = check env a in
      check_assignable env.genv pos ~src:ta.t ~dst:pty
        (Printf.sprintf "%s argument %s" what pname);
      ta)
    params args

and check_closure_args env pos ptys args =
  if List.length ptys <> List.length args then
    type_error pos "closure expects %d argument(s), got %d" (List.length ptys)
      (List.length args);
  List.map2
    (fun pty a ->
      let ta = check env a in
      check_assignable env.genv pos ~src:ta.t ~dst:pty "closure argument";
      ta)
    ptys args

and check_assign env pos lhs rhs =
  let trhs = check env rhs in
  match lhs.desc with
  | Eident x -> (
    match lookup_local env x with
    | Some l ->
      if not l.l_mutable then type_error pos "%s is immutable (val)" x;
      check_assignable env.genv pos ~src:trhs.t ~dst:l.l_ty
        (Printf.sprintf "assignment to %s" x);
      mk Tunit pos (AssignLocal (x, trhs))
    | None -> (
      match Hashtbl.find_opt env.genv.globals x with
      | Some (t, mut) ->
        if not mut then type_error pos "global %s is immutable (val)" x;
        check_assignable env.genv pos ~src:trhs.t ~dst:t
          (Printf.sprintf "assignment to %s" x);
        mk Tunit pos (AssignGlobal (x, trhs))
      | None -> type_error pos "unbound variable %s" x))
  | Efield (obj, name) -> (
    let tobj = check env obj in
    match tobj.t with
    | Tclass c ->
      let owner, fty, final = lookup_field env.genv pos c name in
      if final && not (env.in_init && env.self = Some owner) then
        type_error pos "field %s.%s is final" owner name;
      check_assignable env.genv pos ~src:trhs.t ~dst:fty
        (Printf.sprintf "assignment to field %s" name);
      mk Tunit pos (FieldSet (c, tobj, name, trhs))
    | t -> type_error pos "field assignment on %s" (ty_to_string t))
  | Eindex (a, i) -> (
    let ta = check env a and ti = check env i in
    check_assignable env.genv pos ~src:ti.t ~dst:Tint "array index";
    match ta.t with
    | Tarray elem ->
      check_assignable env.genv pos ~src:trhs.t ~dst:elem "array store";
      mk Tunit pos (ArraySet (ta, ti, trhs))
    | Tfarray ->
      check_assignable env.genv pos ~src:trhs.t ~dst:Tfloat "farray store";
      mk Tunit pos (ArraySet (ta, ti, trhs))
    | t -> type_error pos "indexed assignment on %s" (ty_to_string t))
  | _ -> type_error pos "invalid assignment target"

and check_bin env pos op a b =
  let ta = check env a and tb = check env b in
  match op with
  | Add when ta.t = Tstring || tb.t = Tstring ->
    mk Tstring pos (StrConcat (ta, tb))
  | Add | Sub | Mul | Div | Rem ->
    let ta, tb, is_float = coerce_num env.genv pos ta tb in
    if is_float then begin
      if op = Rem then type_error pos "%% is not defined on floats";
      mk Tfloat pos (Farith (op, ta, tb))
    end
    else mk Tint pos (Iarith (op, ta, tb))
  | Lt | Le | Gt | Ge -> (
    match ta.t, tb.t with
    | Tstring, Tstring ->
      (* lexicographic comparison via Str.cmp *)
      let cmp =
        mk Tint pos (CallBuiltin ("Str", "cmp", [ ta; tb ]))
      in
      mk Tbool pos (Icompare (op, cmp, mk Tint pos (Cint 0)))
    | _ ->
      let ta, tb, is_float = coerce_num env.genv pos ta tb in
      if is_float then mk Tbool pos (Fcompare (op, ta, tb))
      else mk Tbool pos (Icompare (op, ta, tb)))
  | Eq | Ne -> (
    let neg = op = Ne in
    match ta.t, tb.t with
    | Tnull, _ -> mk Tbool pos (NullCheck (not neg, tb))
    | _, Tnull -> mk Tbool pos (NullCheck (not neg, ta))
    | (Tint | Tbool), (Tint | Tbool) -> mk Tbool pos (Icompare (op, ta, tb))
    | Tfloat, Tfloat -> mk Tbool pos (Fcompare (op, ta, tb))
    | Tstring, Tstring -> mk Tbool pos (StrEq (neg, ta, tb))
    | (Tclass _ | Tarray _ | Tfarray | Tfun _), (Tclass _ | Tarray _ | Tfarray | Tfun _)
      ->
      mk Tbool pos (RefEq (neg, ta, tb))
    | x, y ->
      type_error pos "equality between %s and %s" (ty_to_string x)
        (ty_to_string y))
  | And ->
    check_assignable env.genv pos ~src:ta.t ~dst:Tbool "operand of &&";
    check_assignable env.genv pos ~src:tb.t ~dst:Tbool "operand of &&";
    mk Tbool pos (AndT (ta, tb))
  | Or ->
    check_assignable env.genv pos ~src:ta.t ~dst:Tbool "operand of ||";
    check_assignable env.genv pos ~src:tb.t ~dst:Tbool "operand of ||";
    mk Tbool pos (OrT (ta, tb))

(* ---------------- program checking ---------------- *)

type tprogram = {
  p_classes : tclass list;
  p_funs : (string * (string * ty) list * ty * texpr) list;
  p_globals : (string * bool * texpr) list; (* in declaration order *)
  p_genv : genv;
}

and tclass = {
  tc_name : string;
  tc_super : string option;
  tc_fields : (string * ty * bool) list;
  tc_methods : (string * (string * ty) list * ty * texpr) list;
}

let collect_signatures (prog : program) : genv =
  let genv =
    {
      classes = Hashtbl.create 16;
      funs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
    }
  in
  List.iter
    (fun d ->
      match d with
      | Dclass (name, super, members, pos) ->
        if Hashtbl.mem genv.classes name || is_builtin_class name then
          type_error pos "class %s redeclared" name;
        let fields =
          List.filter_map
            (function Mfield (f, n, t) -> Some (n, t, f) | Mmethod _ -> None)
            members
        in
        let methods =
          List.filter_map
            (function
              | Mmethod (n, ps, r, _) -> Some (n, (ps, r))
              | Mfield _ -> None)
            members
        in
        Hashtbl.replace genv.classes name
          { ci_name = name; ci_super = super; ci_fields = fields; ci_methods = methods }
      | Dfun (name, params, ret, _, pos) ->
        if Hashtbl.mem genv.funs name then
          type_error pos "function %s redeclared" name;
        Hashtbl.replace genv.funs name (params, ret)
      | Dglobal (mut, name, _, _, pos) ->
        if Hashtbl.mem genv.globals name then
          type_error pos "global %s redeclared" name;
        (* type filled in during checking; placeholder for forward refs *)
        ignore mut;
        ignore pos)
    prog;
  genv

let check_override genv pos cls name sg =
  match
    Option.bind
      (Hashtbl.find_opt genv.classes cls)
      (fun ci -> Option.bind ci.ci_super (fun s -> lookup_method genv pos s name))
  with
  | Some sg' when sg <> sg' ->
    type_error pos "%s.%s overrides a method with a different signature" cls name
  | _ -> ()

let check_program (prog : program) : tprogram =
  let genv = collect_signatures prog in
  (* validate super chains exist and are acyclic *)
  Hashtbl.iter
    (fun name ci ->
      match ci.ci_super with
      | None -> ()
      | Some s ->
        if not (Hashtbl.mem genv.classes s) then
          type_error no_pos "class %s extends unknown class %s" name s;
        let rec walk seen c =
          if List.mem c seen then
            type_error no_pos "inheritance cycle involving %s" c;
          match Hashtbl.find_opt genv.classes c with
          | Some { ci_super = Some s'; _ } -> walk (c :: seen) s'
          | _ -> ()
        in
        walk [ name ] s)
    genv.classes;
  (* globals must be checked in order (their initializers may use earlier
     globals and any function) *)
  let tglobals = ref [] in
  let tfuns = ref [] in
  let tclasses = ref [] in
  List.iter
    (fun d ->
      match d with
      | Dglobal (mut, name, annot, init, pos) ->
        let env = { genv; locals = []; self = None; in_init = false } in
        let tinit = check env init in
        let t =
          match annot with
          | Some t ->
            check_assignable genv pos ~src:tinit.t ~dst:t
              (Printf.sprintf "initializer of global %s" name);
            t
          | None -> (
            match tinit.t with
            | Tnull -> type_error pos "cannot infer the type of %s from null" name
            | t -> t)
        in
        Hashtbl.replace genv.globals name (t, mut);
        tglobals := (name, mut, tinit) :: !tglobals
      | Dfun (name, params, ret, body, pos) ->
        let env =
          {
            genv;
            locals =
              List.map (fun (x, t) -> (x, { l_ty = t; l_mutable = false })) params;
            self = None;
            in_init = false;
          }
        in
        let tbody = check env body in
        if ret <> Tunit then
          check_assignable genv pos ~src:tbody.t ~dst:ret
            (Printf.sprintf "body of %s" name);
        tfuns := (name, params, ret, tbody) :: !tfuns
      | Dclass (cname, super, members, pos) ->
        let tmethods =
          List.filter_map
            (function
              | Mfield _ -> None
              | Mmethod (mname, params, ret, body) ->
                check_override genv pos cname mname (params, ret);
                let env =
                  {
                    genv;
                    locals =
                      List.map
                        (fun (x, t) -> (x, { l_ty = t; l_mutable = false }))
                        params;
                    self = Some cname;
                    in_init = String.equal mname "init";
                  }
                in
                let tbody = check env body in
                if ret <> Tunit then
                  check_assignable genv pos ~src:tbody.t ~dst:ret
                    (Printf.sprintf "body of %s.%s" cname mname);
                Some (mname, params, ret, tbody))
            members
        in
        let fields =
          List.filter_map
            (function Mfield (f, n, t) -> Some (n, t, f) | Mmethod _ -> None)
            members
        in
        tclasses :=
          { tc_name = cname; tc_super = super; tc_fields = fields; tc_methods = tmethods }
          :: !tclasses)
    prog;
  {
    p_classes = List.rev !tclasses;
    p_funs = List.rev !tfuns;
    p_globals = List.rev !tglobals;
    p_genv = genv;
  }
