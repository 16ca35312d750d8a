(* The native tier's emitter: an IR graph becomes the source of one OCaml
   unit, which [Native_tier] builds with [ocamlopt -shared] and loads with
   Dynlink.  ocamlopt allocates registers and folds expressions by itself,
   so the emitter makes none of the lowering's lane, slot or closure
   decisions; it writes the graph down.

   - An int or float value is an OCaml local of that type; any other value
     is a [Vm.Types.value].  A block parameter, and a value used outside
     its own block, is a [ref] declared at the top of the kernel, which
     ocamlopt keeps in a register (unboxed, for a float).
   - A block entered by one edge is spliced at that edge.  A join of at
     most [inline_join] nodes whose successors are all dispatched (below) is
     copied to each edge into it.  Every other block is a case of one
     [match] inside a [while], dispatched on a [pc] local.
   - Every compare is written at its operands' types, so ocamlopt
     specializes it; a branch on a compare that [Guard_fusion] fuses
     compares in place.
   - Int ops wrap to 32 bits, [(x lsl 31) asr 31], as [Vm.Value.wrap32]
     does; [Div] and [Rem] raise the interpreter's texts.  Array accesses
     keep OCaml's bounds check, which is the interpreter's own.
   - The kernel unboxes each graph parameter once, at entry, for every way
     it is read: [Int] for an int, [Int | Float] for a float, [Farr] or
     [Arr] for an array.  A call whose arguments fail a check calls the
     typed kernel instead ([Native_abi.env.typed]), so an ill-typed call
     raises the interpreter's error after the interpreter's effects.
   - What depends on the runtime comes from the [Native_abi.env] the
     plugin's maker receives: constants that are neither ints nor floats,
     residual calls, object allocations, globals and side exits, each in
     the order of the arrays of the returned [t].  So the source, and the
     digest the plugin is keyed by, does not depend on the runtime.
   - A graph with an extension op ([Ir.Ext]) is declined.

   Side exits call [env.exits.(k)] with the frame values flattened
   innermost-first, locals then stack, as [Hooks.on_exit] receives them.
   The kernel keeps its state in locals, so two domains may run it at
   once. *)

open Ir

type call = Call_static of Vm.Types.meth | Call_virtual of string

type t = {
  body : string; (* the definition of [make] *)
  digest : string; (* hex digest of [body], which keys the plugin *)
  lines : int;
  consts : Vm.Types.value array;
  calls : call array;
  news : Vm.Types.cls array;
  exits : side_exit array;
}

exception Decline of string

(* A join with at most this many nodes is copied into each edge. *)
let inline_join = 3

type repr = Rint | Rfloat | Rval

let repr_of_ty = function
  | Tint | Tbool -> Rint
  | Tfloat -> Rfloat
  | Tstr | Tobj | Tarr | Tfarr | Tunit | Tany -> Rval

let ty_name = function Rint -> "int" | Rfloat -> "float" | Rval -> "Vm.Types.value"

let math_native (n : node) =
  match n.op with
  | CallStatic
      {
        Vm.Types.mcode =
          Native ((("Math.sqrt" | "Math.exp" | "Math.log" | "Math.fabs") as name), _);
        _;
      }
    when Array.length n.args = 1 ->
    Some name
  | _ -> None

(* The representation an op computes its result in, when it computes a
   number; [None] for a value or no result. *)
let produces (n : node) =
  match n.op with
  | Iop _ | Ineg | F2i | Icmp _ | Fcmp _ | IsNull | ClassId | Alen -> Some Rint
  | Fop _ | Fneg | I2f | Faload -> Some Rfloat
  | CallStatic _ when math_native n <> None -> Some Rfloat
  | _ -> None

(* Ops whose node holds no result of their own. *)
let no_result = function
  | Putfield _ | Putglobal _ | Astore | Fastore -> true
  | _ -> false

let int_lit i = if i = min_int then "(1 lsl 62)" else Printf.sprintf "(%d)" i

let float_lit f =
  if Float.is_finite f then Printf.sprintf "(%h)" f
  else Printf.sprintf "(Int64.float_of_bits (%LdL))" (Int64.bits_of_float f)

let cond_op : Vm.Types.cond -> string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let wrap e = Printf.sprintf "(((%s) lsl 31) asr 31)" e

let spaces = String.make 24 ' '

let add_line b ind s =
  Buffer.add_substring b spaces 0 (min 24 (2 * ind));
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let unbox_int e =
  Printf.sprintf "(match %s with Vm.Types.Int n__ -> n__ | o__ -> Native_abi.to_int o__)" e

let unbox_float e =
  Printf.sprintf
    "(match %s with Vm.Types.Float x__ -> x__ | o__ -> Native_abi.to_float o__)" e

let convert ~from ~into e =
  match (from, into) with
  | Rint, Rint | Rfloat, Rfloat | Rval, Rval -> e
  | Rint, Rfloat -> Printf.sprintf "(float_of_int %s)" e
  | Rint, Rval -> Printf.sprintf "(Vm.Types.Int %s)" e
  | Rfloat, Rval -> Printf.sprintf "(Vm.Types.Float %s)" e
  | Rval, Rint -> unbox_int e
  | Rval, Rfloat -> unbox_float e
  (* the interpreter's error for a float read as an int *)
  | Rfloat, Rint -> unbox_int (Printf.sprintf "(Vm.Types.Float %s)" e)

let emit_exn (g : graph) : t =
  let blocks = reachable_blocks g in
  let fusion = Guard_fusion.analyse ~trace:false ~backend:"native" g blocks in
  let nblocks = List.length blocks in
  let succs (b : block) =
    match b.term with
    | Jump t -> [ t ]
    | Br (_, t1, t2) -> [ t1; t2 ]
    | Ret _ | Exit _ | Unreachable _ -> []
  in
  (* in-edges, and the reverse postorder that tells back edges apart *)
  let in_edges = Hashtbl.create nblocks in
  List.iter
    (fun b ->
      List.iter
        (fun (t : target) ->
          if List.length (block g t.tblock).params <> Array.length t.targs then
            raise
              (Decline (Printf.sprintf "jump arity mismatch into block %d" t.tblock));
          Hashtbl.replace in_edges t.tblock
            (1 + Option.value ~default:0 (Hashtbl.find_opt in_edges t.tblock)))
        (succs b))
    blocks;
  let edges bid = Option.value ~default:0 (Hashtbl.find_opt in_edges bid) in
  let forest =
    Loop_forest.build ~entry:g.entry ~succs:(fun bid ->
        List.map (fun (t : target) -> t.tblock) (succs (block g bid)))
  in
  let pos = Loop_forest.position forest in
  let retreat_target = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun (t : target) ->
          if pos t.tblock <= pos b.bid then Hashtbl.replace retreat_target t.tblock ())
        (succs b))
    blocks;
  let emitted (b : block) =
    List.length (List.filter (fun n -> not (Hashtbl.mem fusion.fused n.id)) b.body)
  in
  (* Which blocks are spliced, copied into their edges, or dispatched.
     Decided in reverse postorder from the last block, so a join's forward
     successors are decided before it. *)
  let inlined = Hashtbl.create 8 in
  let dispatched bid =
    bid = g.entry || Hashtbl.mem retreat_target bid
    || (edges bid <> 1 && not (Hashtbl.mem inlined bid))
  in
  for i = Array.length forest.order - 1 downto 0 do
    let bid = forest.order.(i) in
    let b = block g bid in
    if
      bid <> g.entry
      && (not (Hashtbl.mem retreat_target bid))
      && edges bid > 1
      && emitted b <= inline_join
      && List.for_all
           (fun (t : target) ->
             t.tblock <> bid && edges t.tblock > 1 && dispatched t.tblock)
           (succs b)
    then Hashtbl.replace inlined bid ()
  done;
  let case_of = Hashtbl.create 8 in
  Array.iter
    (fun bid ->
      if dispatched bid then Hashtbl.replace case_of bid (Hashtbl.length case_of))
    forest.order;
  (* where each node is defined, and which values live past their block *)
  let def_block = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter (fun (p, _) -> Hashtbl.replace def_block p b.bid) b.params;
      List.iter (fun n -> Hashtbl.replace def_block n.id b.bid) b.body)
    blocks;
  let is_ref = Hashtbl.create 16 in
  let use_in bid s =
    match Hashtbl.find_opt def_block s with
    | Some d when d <> bid -> (
      match (node g s).op with
      | Konst _ | Param _ -> ()
      | _ -> Hashtbl.replace is_ref s ())
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter (fun (p, _) -> Hashtbl.replace is_ref p ()) b.params;
      List.iter (fun n -> Array.iter (use_in b.bid) n.args) b.body;
      match b.term with
      | Ret s -> use_in b.bid s
      | Jump t -> Array.iter (use_in b.bid) t.targs
      | Br (c, t1, t2) ->
        use_in b.bid c;
        Array.iter (use_in b.bid) t1.targs;
        Array.iter (use_in b.bid) t2.targs
      | Exit se ->
        List.iter
          (fun fd ->
            Array.iter (use_in b.bid) fd.fd_locals;
            Array.iter (use_in b.bid) fd.fd_stack)
          se.se_frames
      | Unreachable _ -> ())
    blocks;
  (* a node's representation: its op's, for a number; else its type's *)
  let repr s =
    let n = node g s in
    match produces n with Some r -> r | None -> repr_of_ty n.ty
  in
  (* what the maker binds from the env, in first-use order *)
  let consts = ref [] and nconsts = ref 0 in
  let calls = ref [] and ncalls = ref 0 in
  let news = ref [] and nnews = ref 0 in
  let exits = ref [] and nexits = ref 0 in
  let add cell count x =
    let k = !count in
    cell := x :: !cell;
    incr count;
    k
  in
  let const_of = Hashtbl.create 8 in
  (* how each graph parameter is unboxed at entry *)
  let needs = Array.make g.nparams [] in
  let need k w = if not (List.mem w needs.(k)) then needs.(k) <- w :: needs.(k) in
  let var s = if Hashtbl.mem is_ref s then Printf.sprintf "!r%d" s else Printf.sprintf "v%d" s in
  let param k = function
    | Rval -> Printf.sprintf "a%d" k
    | Rint ->
      need k `Int;
      Printf.sprintf "i%d" k
    | Rfloat ->
      need k `Float;
      Printf.sprintf "f%d" k
  in
  (* the expression for [s] read as [w] *)
  let read w s =
    let n = node g s in
    match n.op with
    | Konst (Vm.Types.Int i) -> convert ~from:Rint ~into:w (int_lit i)
    | Konst (Vm.Types.Float f) -> convert ~from:Rfloat ~into:w (float_lit f)
    | Konst Vm.Types.Null -> convert ~from:Rval ~into:w "Vm.Types.Null"
    | Konst v ->
      let k =
        match Hashtbl.find_opt const_of s with
        | Some k -> k
        | None ->
          let k = add consts nconsts v in
          Hashtbl.replace const_of s k;
          k
      in
      convert ~from:Rval ~into:w (Printf.sprintf "k%d" k)
    | Param k when k < g.nparams -> param k w
    | Param _ -> raise (Decline "parameter out of range")
    | _ -> convert ~from:(repr s) ~into:w (var s)
  in
  (* the OCaml array behind [s], unboxed at entry for a parameter *)
  let array_of kind s =
    match (node g s).op with
    | Param k when k < g.nparams ->
      need k kind;
      Printf.sprintf (if kind = `Farr then "fa%d" else "aa%d") k
    | _ ->
      let ctor, unbox =
        if kind = `Farr then ("Farr", "to_farr") else ("Arr", "to_arr")
      in
      Printf.sprintf "(match %s with Vm.Types.%s a__ -> a__ | o__ -> Native_abi.%s o__)"
        (read Rval s) ctor unbox
  in
  (* the dispatch loop's cases, written as they are emitted *)
  let buf = Buffer.create 4096 in
  let line ind s = add_line buf ind s in
  let linef ind fmt =
    Buffer.add_substring buf spaces 0 (min 24 (2 * ind));
    Printf.kbprintf (fun b -> Buffer.add_char b '\n') buf fmt
  in
  (* operands that may raise while converting are bound first, in
     argument order, as the typed kernel converts them *)
  let operand ind (n : node) j w =
    let e = read w n.args.(j) in
    if String.length e > 6 && String.sub e 0 6 = "(match" then begin
      linef ind "let o%d_%d = %s in" n.id j e;
      Printf.sprintf "o%d_%d" n.id j
    end
    else e
  in
  let operands ind w (n : node) = Array.mapi (fun j _ -> operand ind n j (w j)) n.args in
  let boxed_args ind (n : node) =
    Printf.sprintf "[| %s |]"
      (String.concat "; " (Array.to_list (operands ind (fun _ -> Rval) n)))
  in
  (* the node's result, as its op computes it, and the representation *)
  let value_of ind (n : node) : string * repr =
    let num w = operands ind (fun _ -> w) n in
    match n.op with
    | Konst _ | Param _ | Bparam -> assert false
    | Iop op -> (
      let a = num Rint in
      let x = a.(0) and y = a.(1) in
      ( (match op with
        | Add -> wrap (x ^ " + " ^ y)
        | Sub -> wrap (x ^ " - " ^ y)
        | Mul -> wrap (x ^ " * " ^ y)
        | Div ->
          Printf.sprintf
            "(let d__ = %s in if d__ = 0 then Native_abi.error \"division by zero\" else %s)"
            y (wrap (x ^ " / d__"))
        | Rem ->
          Printf.sprintf
            "(let d__ = %s in if d__ = 0 then Native_abi.error \"remainder by zero\" else %s)"
            y (wrap (x ^ " mod d__"))
        | And -> Printf.sprintf "(%s land %s)" x y
        | Or -> Printf.sprintf "(%s lor %s)" x y
        | Xor -> Printf.sprintf "(%s lxor %s)" x y
        | Shl -> wrap (Printf.sprintf "%s lsl (%s land 31)" x y)
        | Shr -> Printf.sprintf "(%s asr (%s land 31))" x y),
        Rint ))
    | Ineg -> (wrap ("- " ^ (num Rint).(0)), Rint)
    | Fop op ->
      let a = num Rfloat in
      let o =
        match op with FAdd -> "+." | FSub -> "-." | FMul -> "*." | FDiv -> "/."
      in
      (Printf.sprintf "(%s %s %s)" a.(0) o a.(1), Rfloat)
    | Fneg -> (Printf.sprintf "(-. %s)" (num Rfloat).(0), Rfloat)
    | I2f -> (Printf.sprintf "(float_of_int %s)" (num Rint).(0), Rfloat)
    | F2i -> (wrap (Printf.sprintf "int_of_float %s" (num Rfloat).(0)), Rint)
    | Icmp c ->
      let a = num Rint in
      (Printf.sprintf "(if (%s : int) %s %s then 1 else 0)" a.(0) (cond_op c) a.(1), Rint)
    | Fcmp c ->
      let a = num Rfloat in
      ( Printf.sprintf "(if (%s : float) %s %s then 1 else 0)" a.(0) (cond_op c) a.(1),
        Rint )
    | IsNull ->
      ( Printf.sprintf "(match %s with Vm.Types.Null -> 1 | _ -> 0)" (num Rval).(0),
        Rint )
    | ClassId ->
      ( Printf.sprintf
          "(match %s with Vm.Types.Obj o__ -> o__.Vm.Types.ocls.Vm.Types.cid | _ -> -1)"
          (num Rval).(0),
        Rint )
    | Getfield f ->
      ( Printf.sprintf
          "(match %s with Vm.Types.Obj o__ -> o__ | o__ -> Native_abi.to_obj o__).Vm.Types.ofields.(%d)"
          (num Rval).(0) f.Vm.Types.fidx,
        Rval )
    | Putfield f ->
      let a = num Rval in
      ( Printf.sprintf
          "(match %s with Vm.Types.Obj o__ -> o__ | o__ -> Native_abi.to_obj o__).Vm.Types.ofields.(%d) <- %s"
          a.(0) f.Vm.Types.fidx a.(1),
        Rval )
    | Getglobal gi -> (Printf.sprintf "(get_global %d)" gi, Rval)
    | Putglobal gi -> (Printf.sprintf "set_global %d %s" gi (num Rval).(0), Rval)
    | NewObj cls -> (Printf.sprintf "(new%d ())" (add news nnews cls), Rval)
    | Newarr ->
      ( Printf.sprintf "(Vm.Types.Arr (Array.make %s Vm.Types.Null))" (num Rint).(0),
        Rval )
    | Newfarr ->
      (Printf.sprintf "(Vm.Types.Farr (Array.make %s 0.0))" (num Rint).(0), Rval)
    | Aload | Faload ->
      let kind = if n.op = Aload then `Arr else `Farr in
      let ix = operand ind n 1 Rint in
      ( Printf.sprintf "(%s).(%s)" (array_of kind n.args.(0)) ix,
        if n.op = Aload then Rval else Rfloat )
    | Astore | Fastore ->
      let kind = if n.op = Astore then `Arr else `Farr in
      let ix = operand ind n 1 Rint in
      let x = operand ind n 2 (if n.op = Fastore then Rfloat else Rval) in
      (Printf.sprintf "(%s).(%s) <- %s" (array_of kind n.args.(0)) ix x, Rval)
    | Alen ->
      let a =
        match (node g n.args.(0)).op with
        | Param k when List.mem `Farr needs.(k) -> Printf.sprintf "Array.length fa%d" k
        | Param k when List.mem `Arr needs.(k) -> Printf.sprintf "Array.length aa%d" k
        | _ ->
          Printf.sprintf
            "match %s with Vm.Types.Arr x__ -> Array.length x__ | Vm.Types.Farr x__ -> Array.length x__ | _ -> Native_abi.error \"alen\""
            (num Rval).(0)
      in
      ("(" ^ a ^ ")", Rint)
    | CallStatic m -> (
      match math_native n with
      | Some name ->
        let f =
          match name with
          | "Math.sqrt" -> "sqrt"
          | "Math.exp" -> "exp"
          | "Math.log" -> "log"
          | _ -> "abs_float"
        in
        (Printf.sprintf "(%s %s)" f (num Rfloat).(0), Rfloat)
      | None ->
        let args = boxed_args ind n in
        (Printf.sprintf "(call%d %s)" (add calls ncalls (Call_static m)) args, Rval))
    | CallVirtual (name, _) ->
      let args = boxed_args ind n in
      (Printf.sprintf "(call%d %s)" (add calls ncalls (Call_virtual name)) args, Rval)
    | CallClosure _ ->
      let a = operands ind (fun _ -> Rval) n in
      ( Printf.sprintf "(call_closure %s [| %s |])" a.(0)
          (String.concat "; " (Array.to_list (Array.sub a 1 (Array.length a - 1)))),
        Rval )
    | Ext _ -> raise (Decline "extension op")
  in
  let emit_node ind (n : node) =
    match n.op with
    | Konst _ | Param _ | Bparam -> ()
    | _ when Hashtbl.mem fusion.fused n.id -> ()
    | _ ->
      let e, from = value_of ind n in
      let used = Guard_fusion.find_or fusion.uses n.id 0 > 0 in
      if no_result n.op then begin
        line ind (e ^ ";");
        if used then linef ind "let v%d = Vm.Types.Null in" n.id
      end
      else if not used then linef ind "ignore %s;" e
      else begin
        let r = repr n.id in
        let e = convert ~from ~into:r e in
        if Hashtbl.mem is_ref n.id then linef ind "r%d := %s;" n.id e
        else linef ind "let v%d : %s = %s in" n.id (ty_name r) e
      end
  in
  let cond (b : block) c =
    let operand : Guard_fusion.operand -> string = function
      | Sym s -> read Rint s
      | Class_id s ->
        Printf.sprintf
          "(match %s with Vm.Types.Obj o__ -> o__.Vm.Types.ocls.Vm.Types.cid | _ -> -1)"
          (read Rval s)
    in
    match Hashtbl.find_opt fusion.conds b.bid with
    | Some (Int_cmp (cc, x, y)) ->
      Printf.sprintf "(%s : int) %s %s" (operand x) (cond_op cc) (operand y)
    | Some (Float_cmp (cc, x, y)) ->
      Printf.sprintf "(%s : float) %s %s" (read Rfloat x) (cond_op cc) (read Rfloat y)
    | Some (Null_test x) ->
      Printf.sprintf "(match %s with Vm.Types.Null -> true | _ -> false)" (read Rval x)
    | None -> Printf.sprintf "%s <> 0" (read Rint c)
  in
  let exit_call (se : side_exit) =
    let k = add exits nexits se in
    let vals =
      List.concat_map
        (fun fd -> Array.to_list fd.fd_locals @ Array.to_list fd.fd_stack)
        se.se_frames
    in
    Printf.sprintf "exit%d [| %s |]" k (String.concat "; " (List.map (read Rval) vals))
  in
  let rec emit_block ind (b : block) =
    List.iter (emit_node ind) (body_in_order b);
    match b.term with
    | Ret s -> linef ind "result := %s; pc := -1" (read Rval s)
    | Exit se -> linef ind "result := %s; pc := -1" (exit_call se)
    | Unreachable msg ->
      line ind
        (Printf.sprintf "Native_abi.error %S"
           ("reached unreachable block: " ^ msg))
    | Jump t -> edge ind t
    | Br (c, t1, t2) ->
      linef ind "if %s then begin" (cond b c);
      edge (ind + 1) t1;
      line ind "end else begin";
      edge (ind + 1) t2;
      line ind "end"
  and edge ind (t : target) =
    let tb = block g t.tblock in
    let params = tb.params in
    if params <> [] then begin
      let temps =
        List.mapi
          (fun k (p, ty) ->
            Printf.sprintf "t%d = %s" p (read (repr_of_ty ty) t.targs.(k)))
          params
      in
      line ind ("let " ^ String.concat " and " temps ^ " in");
      List.iter (fun (p, _) -> linef ind "r%d := t%d;" p p) params
    end;
    match Hashtbl.find_opt case_of t.tblock with
    | Some k -> linef ind "pc := %d" k
    | None -> emit_block ind tb
  in
  begin
    (* the dispatch loop's cases, in reverse postorder *)
    Array.iter
      (fun bid ->
        match Hashtbl.find_opt case_of bid with
        | None -> ()
        | Some k ->
          linef 4 "| %d -> begin" k;
          emit_block 5 (block g bid);
          line 4 "end")
      forest.order;
    (* the refs, declared once per call *)
    let refs = Hashtbl.fold (fun s () acc -> s :: acc) is_ref [] |> List.sort compare in
    let init = function Rint -> "0" | Rfloat -> "0.0" | Rval -> "Vm.Types.Null" in
    let body = Buffer.create (Buffer.length buf + 1024) in
    let out ind s = add_line body ind s in
    out 0 "let make (env : Native_abi.env) =";
    out 1 "let typed = env.Native_abi.typed in";
    out 1 "let get_global = env.Native_abi.get_global in";
    out 1 "let set_global = env.Native_abi.set_global in";
    out 1 "let call_closure = env.Native_abi.call_closure in";
    for k = 0 to !nconsts - 1 do
      out 1 (Printf.sprintf "let k%d = env.Native_abi.consts.(%d) in" k k)
    done;
    for k = 0 to !ncalls - 1 do
      out 1 (Printf.sprintf "let call%d = env.Native_abi.calls.(%d) in" k k)
    done;
    for k = 0 to !nnews - 1 do
      out 1 (Printf.sprintf "let new%d = env.Native_abi.news.(%d) in" k k)
    done;
    for k = 0 to !nexits - 1 do
      out 1 (Printf.sprintf "let exit%d = env.Native_abi.exits.(%d) in" k k)
    done;
    out 1 "fun (args : Vm.Types.value array) ->";
    out 1 (Printf.sprintf "if Array.length args <> %d then typed args else" g.nparams);
    for k = 0 to g.nparams - 1 do
      out 1 (Printf.sprintf "let a%d = Array.unsafe_get args %d in" k k)
    done;
    (* the entry checks, one nested match per unboxing *)
    let closers = ref 0 in
    Array.iteri
      (fun k ws ->
        let check pat bind =
          out 1 (Printf.sprintf "match a%d with %s -> (" k pat);
          List.iter (out 1) bind;
          incr closers
        in
        if List.mem `Int ws then
          check (Printf.sprintf "Vm.Types.Int i%d" k)
            (if List.mem `Float ws then
               [ Printf.sprintf "let f%d = float_of_int i%d in" k k ]
             else [])
        else if List.mem `Float ws then
          check "(Vm.Types.Int _ | Vm.Types.Float _)"
            [
              Printf.sprintf
                "let f%d = (match a%d with Vm.Types.Float x__ -> x__ | Vm.Types.Int n__ -> float_of_int n__ | _ -> 0.0) in"
                k k;
            ];
        if List.mem `Farr ws then check (Printf.sprintf "Vm.Types.Farr fa%d" k) [];
        if List.mem `Arr ws then check (Printf.sprintf "Vm.Types.Arr aa%d" k) [])
      needs;
    out 1 "let result = ref Vm.Types.Null and pc = ref 0 in";
    List.iter
      (fun s ->
        let r = repr s in
        out 1 (Printf.sprintf "let r%d : %s ref = ref %s in" s (ty_name r) (init r)))
      refs;
    out 1 "while !pc >= 0 do";
    out 2 "match !pc with";
    Buffer.add_buffer body buf;
    out 4 "| _ -> pc := -1";
    out 1 "done;";
    out 1 "!result";
    for _ = 1 to !closers do
      out 1 ") | _ -> typed args"
    done;
    let body = Buffer.contents body in
    let rev_array l = Array.of_list (List.rev !l) in
      {
        body;
        digest = Digest.to_hex (Digest.string body);
        lines = String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 body;
        consts = rev_array consts;
        calls = rev_array calls;
        news = rev_array news;
        exits = rev_array exits;
      }
  end

let emit g = try Ok (emit_exn g) with Decline why -> Error why

(* The text of a unit holding [es]: each registers its maker under its
   own digest.  Several kernels share one unit in a submodule each, so a
   batch costs one compiler run and one load. *)
let unit_source = function
  | [ e ] -> Printf.sprintf "%s\nlet () = Native_abi.register %S make\n" e.body e.digest
  | es ->
    String.concat ""
      (List.mapi
         (fun i e ->
           Printf.sprintf "module K%d = struct\n%send\nlet () = Native_abi.register %S K%d.make\n"
             i e.body e.digest i)
         es)
