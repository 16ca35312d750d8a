(* Branch-condition fusion, the guard-lowering analysis both execution
   backends share.

   A comparison whose only consumer is its own block's [Br] — and a
   [ClassId] feeding such an int comparison — is compiled into the branch
   itself instead of becoming a step.  This avoids the intermediate slot
   write and the boxing of the bool (and of the class id), which matters
   for devirtualization guards: the guard becomes a bare compare-and-branch
   on top of the unguarded direct call.  Restricted to same-block
   single-use nodes, so evaluation of the pure condition only moves within
   its original block.

   This module decides which nodes fuse and into which condition shape;
   each backend lowers the shapes to its own register model.  It also
   keeps the use counts it computes, so a backend folding other single-use
   nodes into their consumers needs no second pass. *)

open Ir

(* An int-compare operand: a symbol, or the class id of an object symbol
   whose [ClassId] node was fused into the compare. *)
type operand = Sym of sym | Class_id of sym

type cond =
  | Int_cmp of Vm.Types.cond * operand * operand
  | Float_cmp of Vm.Types.cond * sym * sym
  | Null_test of sym

(* Tables keyed by symbol.  A graph's symbols are far more than its live
   nodes, so a table sized to the live nodes allocates less than an array
   indexed by symbol, and stays in the minor heap. *)
module Symtbl = Hashtbl.Make (struct
  type t = sym

  let equal = Int.equal
  let hash (s : sym) = s
end)

let find_or tbl s default =
  match Symtbl.find_opt tbl s with Some v -> v | None -> default

type t = {
  fused : (sym, unit) Hashtbl.t; (* nodes compiled into a branch, no step *)
  conds : (int, cond) Hashtbl.t; (* block id -> the fused condition of its Br *)
  uses : int Symtbl.t; (* uses in nodes and terminators *)
  defined_in : int Symtbl.t; (* block id of each body node *)
}

(* [s] is a node of block [bid] with exactly one use. *)
let single_use t bid s =
  find_or t.uses s 0 = 1 && find_or t.defined_in s (-1) = bid

(* Also reports, when IR tracing is on and [trace] holds, the branch
   compares that could not fuse and a [guards:<backend>] snapshot with the
   fused nodes left out. *)
let analyse ?(trace = true) ~backend (g : graph) (blocks : block list) : t =
  let uses = Symtbl.create 64 in
  let defined_in = Symtbl.create 64 in
  let add_use s = Symtbl.replace uses s (find_or uses s 0 + 1) in
  let add_target (t : target) = Array.iter add_use t.targs in
  List.iter
    (fun b ->
      List.iter
        (fun n ->
          Symtbl.replace defined_in n.id b.bid;
          Array.iter add_use n.args)
        (body_in_order b);
      match b.term with
      | Ret s -> add_use s
      | Jump t -> add_target t
      | Br (c, t1, t2) ->
        add_use c;
        add_target t1;
        add_target t2
      | Exit se ->
        List.iter
          (fun fd ->
            Array.iter add_use fd.fd_locals;
            Array.iter add_use fd.fd_stack)
          se.se_frames
      | Unreachable _ -> ())
    blocks;
  let fused = Hashtbl.create 8 in
  let conds = Hashtbl.create 8 in
  let t = { fused; conds; uses; defined_in } in
  let fusable = single_use t in
  List.iter
    (fun b ->
      match b.term with
      | Br (c, _, _) when fusable b.bid c -> (
        let n = node g c in
        let fuse cond =
          Hashtbl.replace fused c ();
          Hashtbl.replace conds b.bid cond
        in
        let operand s =
          let m = node g s in
          match m.op with
          | ClassId when fusable b.bid s ->
            Hashtbl.replace fused s ();
            Class_id m.args.(0)
          | _ -> Sym s
        in
        match n.op with
        | Icmp cc -> fuse (Int_cmp (cc, operand n.args.(0), operand n.args.(1)))
        | Fcmp cc -> fuse (Float_cmp (cc, n.args.(0), n.args.(1)))
        | IsNull -> fuse (Null_test n.args.(0))
        | _ -> ())
      | _ -> ())
    blocks;
  if trace && !Irtrace.on then begin
    let phase = Phases.Guards backend in
    List.iter
      (fun b ->
        match b.term with
        | Br (c, _, _) when not (Hashtbl.mem fused c) -> (
          let n = node g c in
          let record (n : node) why =
            match n.prov with
            | Some p ->
              Irtrace.record_miss ~phase:(Phases.name phase) ~mid:p.pv_mid
                ~pc:p.pv_pc ~line:p.pv_line
                (Irtrace.Guard_fusion_declined { cond = op_tag n.op; why })
            | None -> ()
          in
          match n.op with
          | Icmp _ | Fcmp _ | IsNull ->
            record n
              (if find_or defined_in c (-1) <> b.bid then "cross-block"
               else "multi-use")
          | _ -> (
            match Snapshot.materialized_cond g b.bid c with
            | Some cmp -> record cmp "materialized-bool"
            | None -> ()))
        | _ -> ())
      blocks;
    Snapshot.take g phase ~exclude:(Hashtbl.mem fused)
      ~meta:[ ("fused", string_of_int (Hashtbl.length fused)) ]
  end;
  t
