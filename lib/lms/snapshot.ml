(* Graph capture for pipeline introspection.

   [Irtrace] (in obs, below the IR) stores only plain counts, strings and
   hashes; this module is the bridge that walks an [Ir.graph] and summarizes
   it — per-op-kind node counts, per-source-line attribution via [prov], and
   a structural fingerprint of the graph's canonical form.

   The fingerprint must be stable across recompiles of the same
   (mid, spec): raw [sym] ids are allocation order, which can differ between
   builds (and between mutator and background-worker compiles), so the
   canonical form renumbers values densely in traversal order and renders
   floating constants/params inline by content.  Defs dominate uses and
   [reachable_blocks] is a DFS preorder, so every body node is numbered
   before it is referenced. *)

open Ir

(* Coarse op kind for the per-kind count tables: operand detail (which
   field, which callee) stays in the fingerprint and in [Ir.op_tag]. *)
let op_kind = function
  | Konst _ -> "const"
  | Param _ | Bparam -> "param"
  | Iop _ | Ineg -> "iop"
  | Fop _ | Fneg -> "fop"
  | I2f | F2i -> "conv"
  | Icmp _ | Fcmp _ | IsNull -> "cmp"
  | ClassId -> "classid"
  | Getfield _ -> "getfield"
  | Putfield _ -> "putfield"
  | Getglobal _ -> "getglobal"
  | Putglobal _ -> "putglobal"
  | NewObj _ | Newarr | Newfarr -> "alloc"
  | Aload | Faload -> "aload"
  | Astore | Fastore -> "astore"
  | Alen -> "alen"
  | CallStatic _ -> "call"
  | CallVirtual _ -> "callvirt"
  | CallClosure _ -> "callclosure"
  | Ext op -> Pretty.ext_name op

(* ------------------------------------------------------------------ *)
(* Structural fingerprint                                              *)

let const_str = function
  | Vm.Types.Null -> "null"
  | Vm.Types.Int i -> "i" ^ string_of_int i
  | Vm.Types.Float f -> "f" ^ string_of_float f
  | Vm.Types.Str s -> "s" ^ s
  | Vm.Types.Obj o -> "o" ^ string_of_int o.Vm.Types.oid
  | Vm.Types.Arr _ | Vm.Types.Farr _ -> "a"

let fingerprint g =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let blocks = reachable_blocks g in
  let bidx = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace bidx b.bid i) blocks;
  let bref bid =
    match Hashtbl.find_opt bidx bid with
    | Some i -> "B" ^ string_of_int i
    | None -> "B?"
  in
  let renum = Hashtbl.create 64 in
  let next = ref 0 in
  let num s =
    match Hashtbl.find_opt renum s with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      Hashtbl.replace renum s i;
      i
  in
  let arg s =
    let n = node g s in
    match n.op with
    | Konst v -> "k<" ^ const_str v ^ ">"
    | Param i -> "p" ^ string_of_int i
    | _ -> "v" ^ string_of_int (num s)
  in
  let target t =
    bref t.tblock ^ "("
    ^ String.concat "," (Array.to_list (Array.map arg t.targs))
    ^ ")"
  in
  List.iter
    (fun b ->
      add (bref b.bid);
      add "(";
      List.iter
        (fun (s, ty) ->
          add ("v" ^ string_of_int (num s) ^ ":" ^ Pretty.ty_name ty ^ ","))
        b.params;
      add "):";
      List.iter
        (fun n ->
          add ("v" ^ string_of_int (num n.id) ^ "=" ^ Pretty.op_name n.op);
          Array.iter (fun a -> add (" " ^ arg a)) n.args;
          add (":" ^ Pretty.ty_name n.ty);
          add ";")
        (body_in_order b);
      (match b.term with
      | Ret s -> add ("ret " ^ arg s)
      | Jump t -> add ("jump " ^ target t)
      | Br (c, t1, t2) -> add ("br " ^ arg c ^ "?" ^ target t1 ^ ":" ^ target t2)
      | Exit se ->
        add
          ("exit["
          ^ (match se.se_kind with
            | `Interpret -> "interp"
            | `Recompile -> "recompile")
          ^ ":" ^ se.se_tag ^ "]")
      | Unreachable msg -> add ("unreachable(" ^ msg ^ ")"));
      add "\n")
    blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

(* A branch whose condition is a *block parameter* is a materialized
   boolean: codegen lowered a compare in a predecessor block into a 0/1
   diamond join (the `val b = x < y` / `Lancet.speculate(..)` shape), so
   the backend cannot fuse the compare into this branch — the guard pays a
   join plus a re-test of the materialized value.  Walk the diamond back
   to the compare so the fusion-declined record points at real source:
   find a [Br] both of whose arms are empty blocks that jump straight to
   the condition's block passing an int constant at the parameter's
   position. *)
let materialized_cond (g : graph) (bid : int) (c : sym) : node option =
  match (node g c).op with
  | Bparam -> (
    match Hashtbl.find_opt g.blocks bid with
    | None -> None
    | Some blk -> (
      let idx = ref (-1) in
      List.iteri (fun i (s, _) -> if s = c then idx := i) blk.params;
      match !idx with
      | -1 -> None
      | i ->
        let const_arm (t : target) =
          match Hashtbl.find_opt g.blocks t.tblock with
          | Some ab when ab.body = [] -> (
            match ab.term with
            | Jump jt when jt.tblock = bid && i < Array.length jt.targs -> (
              match (node g jt.targs.(i)).op with
              | Konst (Vm.Types.Int _) -> true
              | _ -> false)
            | _ -> false)
          | _ -> false
        in
        Hashtbl.fold
          (fun _ pb acc ->
            match acc with
            | Some _ -> acc
            | None -> (
              match pb.term with
              | Br (cc, t1, t2) when const_arm t1 && const_arm t2 -> (
                let n = node g cc in
                match n.op with
                | Icmp _ | Fcmp _ | IsNull -> Some n
                | _ -> None)
              | _ -> None))
          g.blocks None))
  | _ -> None

let bump tbl k by =
  Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let sorted_counts tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Summarize [g] into an Irtrace snapshot for [phase].  [exclude] drops
   nodes a backend has folded away (fused guard compares) so the
   post-guard-lowering phase shows them as eliminated. *)
let take ?(meta = []) ?(exclude = fun _ -> false) g (phase : Phases.t) =
  if !Irtrace.on then begin
    let blocks = reachable_blocks g in
    let ops = Hashtbl.create 16 in
    let lines = Hashtbl.create 16 in
    let nodes = ref 0 in
    List.iter
      (fun b ->
        List.iter
          (fun n ->
            if not (exclude n.id) then begin
              incr nodes;
              bump ops (op_kind n.op) 1;
              match n.prov with
              | Some p when p.pv_line > 0 -> bump lines p.pv_line 1
              | _ -> ()
            end)
          (body_in_order b))
      blocks;
    let text = if Irtrace.keep_text () then Some (Pretty.graph_to_string_src g) else None in
    Irtrace.record_snapshot ~phase:(Phases.name phase)
      ~blocks:(List.length blocks) ~nodes:!nodes ~ops:(sorted_counts ops)
      ~lines:(sorted_counts lines) ~fp:(fingerprint g) ?text ~meta ()
  end
