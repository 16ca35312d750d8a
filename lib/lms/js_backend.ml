(* Cross-compilation to JavaScript (paper Sec. 3.5): emit JS source from an
   optimized IR graph, using Lancet as a "bytecode decompilation front-end".
   Control flow uses the standard trampoline (for(;;) switch (block)) since
   the IR is an arbitrary CFG.  Calls on DOM objects arrive as [Js_call]
   extension nodes planted by the JS macros. *)

open Ir

type ext_op += Js_call of string (* method name; args.(0) is the receiver *)

let () =
  Pretty.register_ext (function
    | Js_call name -> Some (Printf.sprintf "js.%s" name)
    | _ -> None);
  (* executing a cross-compiled call on the VM is a mistake *)
  Hooks.register_ext (fun _hooks op _getters ->
      match op with
      | Js_call name ->
        Some (fun _ -> Vm.Types.vm_error "js.%s can only be cross-compiled" name)
      | _ -> None)

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let js_string_literal s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let konst_js (v : Vm.Types.value) =
  match v with
  | Vm.Types.Null -> "null"
  | Vm.Types.Int i -> string_of_int i
  | Vm.Types.Float f ->
    if Float.is_integer f then Printf.sprintf "%.1f" f else Printf.sprintf "%.17g" f
  | Vm.Types.Str s -> js_string_literal s
  | Vm.Types.Obj o ->
    (* static DOM objects cross-compile to their ambient JS names: the
       document object the closure captured becomes the global [document] *)
    let rec is_js (c : Vm.Types.cls) =
      String.equal c.Vm.Types.cname "JS"
      || match c.Vm.Types.csuper with Some s -> is_js s | None -> false
    in
    if is_js o.Vm.Types.ocls then
      String.lowercase_ascii o.Vm.Types.ocls.Vm.Types.cname
    else unsupported "heap constant in JS output"
  | Vm.Types.Arr _ | Vm.Types.Farr _ ->
    unsupported "heap constant in JS output"

(* natives with direct JavaScript equivalents *)
let native_js name (args : string list) : string =
  match name, args with
  | "Str.concat", [ a; b ] -> Printf.sprintf "(%s + %s)" a b
  | "Str.len", [ a ] -> Printf.sprintf "%s.length" a
  | "Str.of_int", [ a ] | "Str.of_float", [ a ] -> Printf.sprintf "String(%s)" a
  | "Math.sqrt", [ a ] -> Printf.sprintf "Math.sqrt(%s)" a
  | "Math.exp", [ a ] -> Printf.sprintf "Math.exp(%s)" a
  | "Math.log", [ a ] -> Printf.sprintf "Math.log(%s)" a
  | "Math.fabs", [ a ] | "Math.iabs", [ a ] -> Printf.sprintf "Math.abs(%s)" a
  | "Math.pow", [ a; b ] -> Printf.sprintf "Math.pow(%s, %s)" a b
  | "Sys.print", [ a ] | "Sys.println", [ a ] -> Printf.sprintf "console.log(%s)" a
  | _ -> unsupported "native %s in JS output" name

let cond_js = function
  | Vm.Types.Eq -> "===" | Vm.Types.Ne -> "!==" | Vm.Types.Lt -> "<"
  | Vm.Types.Le -> "<=" | Vm.Types.Gt -> ">" | Vm.Types.Ge -> ">="

let emit_function ?(name = "kernel") (g : graph) : string =
  let buf = Buffer.create 1024 in
  let out fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  let blocks = reachable_blocks g in
  let bindex = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace bindex b.bid i) blocks;
  let var s = Printf.sprintf "x%d" s in
  let rec ref_of s =
    let n = node g s in
    match n.op with
    | Konst v -> konst_js v
    | Param i -> Printf.sprintf "p%d" i
    | _ -> var s
  and expr_of (n : node) : string option =
    let a i = ref_of n.args.(i) in
    match n.op with
    | Konst _ | Param _ | Bparam -> None
    | Iop op ->
      let sym =
        match op with
        | Vm.Types.Add -> "+" | Vm.Types.Sub -> "-" | Vm.Types.Mul -> "*"
        | Vm.Types.Div -> "/" | Vm.Types.Rem -> "%" | Vm.Types.And -> "&"
        | Vm.Types.Or -> "|" | Vm.Types.Xor -> "^" | Vm.Types.Shl -> "<<"
        | Vm.Types.Shr -> ">>"
      in
      Some (Printf.sprintf "((%s %s %s) | 0)" (a 0) sym (a 1))
    | Ineg -> Some (Printf.sprintf "((-%s) | 0)" (a 0))
    | Fop op ->
      let sym =
        match op with
        | Vm.Types.FAdd -> "+" | Vm.Types.FSub -> "-"
        | Vm.Types.FMul -> "*" | Vm.Types.FDiv -> "/"
      in
      Some (Printf.sprintf "(%s %s %s)" (a 0) sym (a 1))
    | Fneg -> Some (Printf.sprintf "(-%s)" (a 0))
    | I2f -> Some (a 0)
    | F2i -> Some (Printf.sprintf "(%s | 0)" (a 0))
    | Icmp c | Fcmp c ->
      Some (Printf.sprintf "(%s %s %s ? 1 : 0)" (a 0) (cond_js c) (a 1))
    | IsNull -> Some (Printf.sprintf "(%s === null ? 1 : 0)" (a 0))
    | ClassId -> unsupported "class-id guard in JS output"
    | Getfield f -> Some (Printf.sprintf "%s.%s" (a 0) f.Vm.Types.fname)
    | Putfield f ->
      Some (Printf.sprintf "(%s.%s = %s)" (a 0) f.Vm.Types.fname (a 1))
    | Getglobal i -> Some (Printf.sprintf "G[%d]" i)
    | Putglobal i -> Some (Printf.sprintf "(G[%d] = %s)" i (a 0))
    | NewObj _ -> Some "{}"
    | Newarr | Newfarr -> Some (Printf.sprintf "new Array(%s)" (a 0))
    | Aload | Faload -> Some (Printf.sprintf "%s[%s]" (a 0) (a 1))
    | Astore | Fastore ->
      Some (Printf.sprintf "(%s[%s] = %s)" (a 0) (a 1) (a 2))
    | Alen -> Some (Printf.sprintf "%s.length" (a 0))
    | CallStatic m -> (
      let args = List.init (Array.length n.args) a in
      match m.Vm.Types.mcode with
      | Vm.Types.Native (nname, _) -> Some (native_js nname args)
      | Vm.Types.Bytecode _ ->
        unsupported "un-inlined call to %s in JS output" m.Vm.Types.mname)
    | CallVirtual (nm, _) ->
      unsupported "dynamic dispatch of %s in JS output" nm
    | CallClosure _ -> unsupported "closure call in JS output"
    | Ext (Js_call nm) ->
      let args = List.init (Array.length n.args) a in
      (match args with
      | recv :: rest ->
        Some (Printf.sprintf "%s.%s(%s)" recv nm (String.concat ", " rest))
      | [] -> unsupported "js call with no receiver")
    | Ext _ -> unsupported "extension op in JS output"
  in
  let params = String.concat ", " (List.init g.nparams (Printf.sprintf "p%d")) in
  out "function %s(%s) {\n" name params;
  (* declare all block params and node results up front *)
  let decls = ref [] in
  List.iter
    (fun b ->
      List.iter (fun (s, _) -> decls := var s :: !decls) b.params;
      List.iter
        (fun n ->
          match n.op with
          | Konst _ | Param _ | Bparam -> ()
          | _ -> decls := var n.id :: !decls)
        (body_in_order b))
    blocks;
  if !decls <> [] then out "  var %s;\n" (String.concat ", " (List.rev !decls));
  out "  var _b = %d;\n  for (;;) switch (_b) {\n" (Hashtbl.find bindex g.entry);
  let emit_jump t =
    let params = (block g t.tblock).params in
    List.iteri
      (fun i (ps, _) -> out "      %s = %s;\n" (var ps) (ref_of t.targs.(i)))
      params;
    out "      _b = %d; continue;\n" (Hashtbl.find bindex t.tblock)
  in
  List.iter
    (fun b ->
      out "    case %d:\n" (Hashtbl.find bindex b.bid);
      List.iter
        (fun n ->
          match expr_of n with
          | None -> ()
          | Some e -> out "      %s = %s;\n" (var n.id) e)
        (body_in_order b);
      (match b.term with
      | Ret s -> out "      return %s;\n" (ref_of s)
      | Jump t -> emit_jump t
      | Br (c, t1, t2) ->
        out "      if (%s) {\n" (ref_of c);
        emit_jump t1;
        out "      } else {\n";
        emit_jump t2;
        out "      }\n"
      | Exit se ->
        out "      throw new Error(%s);\n"
          (js_string_literal ("deoptimize: " ^ se.se_tag))
      | Unreachable msg ->
        out "      throw new Error(%s);\n" (js_string_literal msg)))
    blocks;
  out "  }\n}\n";
  Buffer.contents buf
