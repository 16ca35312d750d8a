(* The staged-expression IR — the analogue of LMS's [Rep[T]] layer.  A value
   of type [sym] is "a piece of generated code that computes a value when
   executed later" (the paper's Rep).  Programs are CFGs of basic blocks with
   block parameters (SSA form); side exits carry the frame-reconstruction
   metadata needed for deoptimization. *)

type ty = Tint | Tfloat | Tstr | Tbool | Tobj | Tarr | Tfarr | Tunit | Tany

type sym = int

(* Extension point: Delite parallel ops and JS/DOM calls plug in here. *)
type ext_op = ..

type op =
  | Konst of Vm.Types.value
  | Param of int (* function parameter index *)
  | Bparam (* block parameter; bound by the block's [params] list *)
  | Iop of Vm.Types.iop
  | Ineg
  | Fop of Vm.Types.fop
  | Fneg
  | I2f
  | F2i
  | Icmp of Vm.Types.cond (* int compare producing a bool (0/1) *)
  | Fcmp of Vm.Types.cond
  | IsNull
  | ClassId (* class id of an object receiver; -1 for null/non-objects *)
  | Getfield of Vm.Types.field
  | Putfield of Vm.Types.field
  | Getglobal of int
  | Putglobal of int
  | NewObj of Vm.Types.cls
  | Newarr
  | Newfarr
  | Aload
  | Astore
  | Faload
  | Fastore
  | Alen
  | CallStatic of Vm.Types.meth (* residual (un-inlined) direct call *)
  | CallVirtual of string * int (* residual dynamically-dispatched call *)
  | CallClosure of int (* residual closure call: args.(0) is callee, n params *)
  | Ext of ext_op

(* Source provenance of a staged node: the bytecode instruction (and its
   source line, via the method's line table) the node was staged from.
   Carried through CSE (first node wins) and DCE (a filter), and consulted
   by both backends for diagnostics. *)
type prov = { pv_mid : int; pv_pc : int; pv_line : int }

type node = {
  id : sym;
  op : op;
  args : sym array;
  ty : ty;
  eff : bool;
  prov : prov option;
}

type target = { tblock : int; targs : sym array }

type frame_desc = {
  fd_meth : Vm.Types.meth;
  fd_pc : int;
  fd_locals : sym array;
  fd_stack : sym array;
}

(* A side exit abandons compiled execution of the current continuation:
   [`Interpret] reconstructs interpreter frames and resumes interpretation
   (the paper's [slowpath] / OSR-out); [`Recompile] asks the registered
   recompilation callback for fresh compiled code specialized to the current
   values (the paper's [fastpath] / [stable]). *)
type side_exit = {
  se_kind : [ `Interpret | `Recompile ];
  se_frames : frame_desc list; (* innermost continuation frame first *)
  se_tag : string; (* for diagnostics and tests *)
}

type terminator =
  | Ret of sym
  | Jump of target
  | Br of sym * target * target (* condition, then-target, else-target *)
  | Exit of side_exit
  | Unreachable of string

type block = {
  bid : int;
  mutable params : (sym * ty) list;
  mutable body : node list; (* in reverse order while under construction *)
  mutable term : terminator;
}

type graph = {
  mutable entry : int;
  nparams : int;
  blocks : (int, block) Hashtbl.t;
  nodes : (sym, node) Hashtbl.t;
  mutable next_sym : int;
  mutable next_bid : int;
  mutable name : string;
}

let create ?(name = "anon") ~nparams () =
  {
    entry = 0;
    nparams;
    blocks = Hashtbl.create 16;
    nodes = Hashtbl.create 64;
    next_sym = 0;
    next_bid = 0;
    name;
  }

let node g s =
  match Hashtbl.find_opt g.nodes s with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "unknown sym %d" s)

let block g b =
  match Hashtbl.find_opt g.blocks b with
  | Some blk -> blk
  | None -> invalid_arg (Printf.sprintf "unknown block %d" b)

let fresh_sym g =
  let s = g.next_sym in
  g.next_sym <- s + 1;
  s

let new_block g =
  let bid = g.next_bid in
  g.next_bid <- bid + 1;
  let b = { bid; params = []; body = []; term = Unreachable "unfinished" } in
  Hashtbl.replace g.blocks bid b;
  b

let add_block_param g b ty =
  let s = fresh_sym g in
  let n = { id = s; op = Bparam; args = [||]; ty; eff = false; prov = None } in
  Hashtbl.replace g.nodes s n;
  b.params <- b.params @ [ (s, ty) ];
  s

(* Effects: anything that touches the heap, globals, IO or calls out. Pure
   nodes are safe to hash-cons and to delete when unused. *)
let op_effectful = function
  | Konst _ | Param _ | Bparam | Iop _ | Ineg | Fop _ | Fneg | I2f | F2i
  | Icmp _ | Fcmp _ | IsNull | ClassId | Alen ->
    false
  | Getfield f -> not f.Vm.Types.ffinal
  | Getglobal _ -> true
  | Putfield _ | Putglobal _ | NewObj _ | Newarr | Newfarr | Astore | Fastore
  | CallStatic _ | CallVirtual _ | CallClosure _ | Ext _ ->
    true
  | Aload | Faload -> true (* may observe prior stores *)

let add_node ?prov g b ~op ~args ~ty =
  let s = fresh_sym g in
  let n = { id = s; op; args; ty; eff = op_effectful op; prov } in
  Hashtbl.replace g.nodes s n;
  b.body <- n :: b.body;
  s

let body_in_order b = List.rev b.body

(* Reachable blocks from entry, in reverse-postorder-ish DFS order. *)
let reachable_blocks g =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec go bid =
    if not (Hashtbl.mem seen bid) then begin
      Hashtbl.replace seen bid ();
      let b = block g bid in
      order := b :: !order;
      match b.term with
      | Ret _ | Exit _ | Unreachable _ -> ()
      | Jump t -> go t.tblock
      | Br (_, t1, t2) ->
        go t1.tblock;
        go t2.tblock
    end
  in
  go g.entry;
  List.rev !order

let node_count g =
  List.fold_left (fun acc b -> acc + List.length b.body) 0 (reachable_blocks g)

(* Short label for diagnostics emitted from this module and the builder
   (using [Pretty] here would be a dependency cycle). *)
let op_tag = function
  | Konst _ -> "const"
  | Param _ -> "param"
  | Bparam -> "bparam"
  | Iop _ -> "iop"
  | Ineg -> "ineg"
  | Fop _ -> "fop"
  | Fneg -> "fneg"
  | I2f -> "i2f"
  | F2i -> "f2i"
  | Icmp _ -> "icmp"
  | Fcmp _ -> "fcmp"
  | IsNull -> "isnull"
  | ClassId -> "classid"
  | Getfield f -> "getfield " ^ f.Vm.Types.fowner ^ "." ^ f.Vm.Types.fname
  | Putfield f -> "putfield " ^ f.Vm.Types.fowner ^ "." ^ f.Vm.Types.fname
  | Getglobal i -> "getglobal " ^ string_of_int i
  | Putglobal i -> "putglobal " ^ string_of_int i
  | NewObj c -> "new " ^ c.Vm.Types.cname
  | Newarr -> "newarr"
  | Newfarr -> "newfarr"
  | Aload -> "aload"
  | Astore -> "astore"
  | Faload -> "faload"
  | Fastore -> "fastore"
  | Alen -> "alen"
  | CallStatic m ->
    "call " ^ m.Vm.Types.mowner.Vm.Types.cname ^ "." ^ m.Vm.Types.mname
  | CallVirtual (name, _) -> "callvirt " ^ name
  | CallClosure _ -> "callclosure"
  | Ext _ -> "ext"

(* CSE key: a canonical string built from stable ids (class/method/field ids,
   object identities), valid only for pure ops. *)
let op_key op args =
  let b = Buffer.create 32 in
  let add = Buffer.add_string b in
  (match op with
  | Konst v ->
    (match v with
    | Vm.Types.Null -> add "k:null"
    | Vm.Types.Int i -> add ("k:i" ^ string_of_int i)
    | Vm.Types.Float f -> add ("k:f" ^ string_of_float f)
    | Vm.Types.Str s -> add ("k:s" ^ s)
    | Vm.Types.Obj o -> add ("k:o" ^ string_of_int o.Vm.Types.oid)
    | Vm.Types.Arr _ | Vm.Types.Farr _ ->
      add "k:arr"; add (string_of_int (Hashtbl.hash v)))
  | Param i -> add ("p" ^ string_of_int i)
  | Bparam -> add "bp"
  | Iop o -> add ("iop" ^ string_of_int (Hashtbl.hash o))
  | Ineg -> add "ineg"
  | Fop o -> add ("fop" ^ string_of_int (Hashtbl.hash o))
  | Fneg -> add "fneg"
  | I2f -> add "i2f"
  | F2i -> add "f2i"
  | Icmp c -> add ("icmp" ^ string_of_int (Hashtbl.hash c))
  | Fcmp c -> add ("fcmp" ^ string_of_int (Hashtbl.hash c))
  | IsNull -> add "isnull"
  | ClassId -> add "clsid"
  | Getfield f ->
    add ("gf" ^ f.Vm.Types.fowner ^ "." ^ string_of_int f.Vm.Types.fidx)
  | Alen -> add "alen"
  | Getglobal _ | Putglobal _ | Putfield _ | NewObj _ | Newarr | Newfarr
  | Aload | Astore | Faload | Fastore | CallStatic _ | CallVirtual _
  | CallClosure _ | Ext _ ->
    add "effectful");
  Array.iter (fun a -> add (":" ^ string_of_int a)) args;
  Buffer.contents b

(* Remove pure nodes whose results are never used.  Uses are scanned from
   node arguments, terminators and side-exit frame descriptors. *)
let dead_code_elim g =
  let used = Hashtbl.create 64 in
  let changed = ref true in
  (* marking an unmarked sym must trigger another pass: uses may sit in an
     earlier block than the terminator or node that marked them *)
  let mark s =
    if not (Hashtbl.mem used s) then begin
      Hashtbl.replace used s ();
      changed := true
    end
  in
  let mark_target t = Array.iter mark t.targs in
  let blocks = reachable_blocks g in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        (match b.term with
        | Ret s -> mark s
        | Jump t -> mark_target t
        | Br (c, t1, t2) ->
          mark c;
          mark_target t1;
          mark_target t2
        | Exit se ->
          List.iter
            (fun fd ->
              Array.iter mark fd.fd_locals;
              Array.iter mark fd.fd_stack)
            se.se_frames
        | Unreachable _ -> ());
        List.iter
          (fun n ->
            if n.eff || Hashtbl.mem used n.id then Array.iter mark n.args)
          b.body)
      blocks
  done;
  List.iter
    (fun b ->
      (* a value-producing node that is only alive for its effect is a
         missed elimination worth reporting to the coach; unit-typed ops
         (stores, void calls) are genuinely wanted for their effect *)
      (if !Irtrace.on then
         List.iter
           (fun n ->
             if n.eff && (not (Hashtbl.mem used n.id)) && n.ty <> Tunit then
               match n.prov with
               | Some p ->
                 Irtrace.record_miss ~phase:(Phases.name Phases.Dce)
                   ~mid:p.pv_mid ~pc:p.pv_pc ~line:p.pv_line
                   (Irtrace.Dce_kept_effectful { op = op_tag n.op })
               | None -> ())
           b.body);
      b.body <- List.filter (fun n -> n.eff || Hashtbl.mem used n.id) b.body)
    blocks
