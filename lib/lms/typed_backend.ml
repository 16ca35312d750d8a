(* A second, type-specialized execution backend: the analogue of Delite's
   kernel code generation.  A kernel runs on a register file of three lanes:
   an [int array] for ints and bools, a [float array] for floats and a
   [value array] for everything else.  Every operand is a slot in one of
   them, and every step is a closure over its slot indices, specialized on
   its op, e.g. [fun r -> let f = r.floats in f.(d) <- f.(a) +. f.(b)].  No
   int or float crosses a closure boundary, so a numeric loop allocates
   nothing per iteration, which is where the paper's generated kernels get
   their edge over library bytecode.

   - A constant gets one slot in each lane it is read in, written once,
     when a register file is created.
   - A read in another lane than the value's own, such as a boxed graph
     parameter used as an int, is a conversion step into a fresh slot just
     before the use, so a bad value raises where the boxed backend raises.
   - A jump copies its arguments slot to slot, lane by lane; when a source
     is also a destination, the copy goes through temp slots fixed at
     compile time.
   - Values are boxed only at calls, side exits and the return. *)

open Ir
module CB = Closure_backend

type lane = Lint | Lfloat | Lval

let lane_of_ty = function
  | Tint | Tbool -> Lint
  | Tfloat -> Lfloat
  | Tstr | Tobj | Tarr | Tfarr | Tunit | Tany -> Lval

type regs = {
  ints : int array;
  floats : float array;
  vals : Vm.Types.value array;
}

type step = regs -> unit

(* raised during compilation when a node cannot be handled; callers fall
   back to the boxed backend *)
exception Fallback of string

(* raised by a spliced guard step on the miss path, after running the side
   exit and storing its result; the kernel entry catches it *)
exception Guard_miss

(* val slot 0 receives a call's result, slots 1..nparams its arguments *)
let result_slot = 0

(* A step moving slot [a] of lane [la] into slot [b] of lane [lb]. *)
let convert (la, a) (lb, b) : step =
  match (la, lb) with
  | Lval, Lint -> fun r -> r.ints.(b) <- Vm.Value.to_int r.vals.(a)
  | Lval, Lfloat -> fun r -> r.floats.(b) <- Vm.Value.to_float r.vals.(a)
  | Lint, Lfloat -> fun r -> r.floats.(b) <- float_of_int r.ints.(a)
  | Lint, Lval -> fun r -> r.vals.(b) <- Vm.Types.Int r.ints.(a)
  | Lfloat, Lval -> fun r -> r.vals.(b) <- Vm.Types.Float r.floats.(a)
  | Lfloat, Lint -> raise (Fallback "float used as int")
  | Lint, Lint | Lfloat, Lfloat | Lval, Lval -> invalid_arg "convert: same lane"

(* A copy of [(lane, src, dst)] moves whose sources are no destinations. *)
let copy moves : step =
  let lane l =
    let m = List.filter (fun (l', _, _) -> l' = l) moves in
    ( Array.of_list (List.map (fun (_, s, _) -> s) m),
      Array.of_list (List.map (fun (_, _, d) -> d) m) )
  in
  let isrc, idst = lane Lint in
  let fsrc, fdst = lane Lfloat in
  let vsrc, vdst = lane Lval in
  fun r ->
    let a = r.ints in
    for k = 0 to Array.length isrc - 1 do
      a.(idst.(k)) <- a.(isrc.(k))
    done;
    let a = r.floats in
    for k = 0 to Array.length fsrc - 1 do
      a.(fdst.(k)) <- a.(fsrc.(k))
    done;
    let a = r.vals in
    for k = 0 to Array.length vsrc - 1 do
      a.(vdst.(k)) <- a.(vsrc.(k))
    done

(* One step running [steps] in order. *)
let seq (steps : step list) : step =
  match steps with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | _ ->
    let a = Array.of_list steps in
    fun r ->
      for j = 0 to Array.length a - 1 do
        a.(j) r
      done

let gather (v : Vm.Types.value array) (slots : int array) =
  Array.map (fun i -> v.(i)) slots

let int_op (op : Vm.Types.iop) a b d : step =
  match op with
  | Add -> fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (i.(a) + i.(b))
  | Sub -> fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (i.(a) - i.(b))
  | Mul -> fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (i.(a) * i.(b))
  | Div | Rem | And | Or | Xor | Shl | Shr ->
    fun r -> let i = r.ints in i.(d) <- Vm.Value.iop_apply op i.(a) i.(b)

let float_op (op : Vm.Types.fop) a b d : step =
  match op with
  | FAdd -> fun r -> let f = r.floats in f.(d) <- f.(a) +. f.(b)
  | FSub -> fun r -> let f = r.floats in f.(d) <- f.(a) -. f.(b)
  | FMul -> fun r -> let f = r.floats in f.(d) <- f.(a) *. f.(b)
  | FDiv -> fun r -> let f = r.floats in f.(d) <- f.(a) /. f.(b)

let int_cond (c : Vm.Types.cond) a b : regs -> bool =
  match c with
  | Eq -> fun r -> let i = r.ints in i.(a) = i.(b)
  | Ne -> fun r -> let i = r.ints in i.(a) <> i.(b)
  | Lt -> fun r -> let i = r.ints in i.(a) < i.(b)
  | Le -> fun r -> let i = r.ints in i.(a) <= i.(b)
  | Gt -> fun r -> let i = r.ints in i.(a) > i.(b)
  | Ge -> fun r -> let i = r.ints in i.(a) >= i.(b)

let float_cond (c : Vm.Types.cond) a b : regs -> bool =
  match c with
  | Eq -> fun r -> let f = r.floats in f.(a) = f.(b)
  | Ne -> fun r -> let f = r.floats in f.(a) <> f.(b)
  | Lt -> fun r -> let f = r.floats in f.(a) < f.(b)
  | Le -> fun r -> let f = r.floats in f.(a) <= f.(b)
  | Gt -> fun r -> let f = r.floats in f.(a) > f.(b)
  | Ge -> fun r -> let f = r.floats in f.(a) >= f.(b)

let class_id a d : step =
 fun r ->
  r.ints.(d) <-
    (match r.vals.(a) with Vm.Types.Obj o -> o.ocls.cid | _ -> -1)

let compile ?hooks (g : graph) : Vm.Types.value array -> Vm.Types.value =
  let open Vm.Types in
  let hooks = match hooks with Some h -> h | None -> failwith "hooks required" in
  let rt = hooks.CB.rt in
  let blocks = reachable_blocks g in
  (* slot assignment per lane *)
  let counts = [| 0; 0; 1 + g.nparams |] in
  let fresh lane =
    let k = match lane with Lint -> 0 | Lfloat -> 1 | Lval -> 2 in
    let i = counts.(k) in
    counts.(k) <- i + 1;
    i
  in
  let slots : (sym, lane * int) Hashtbl.t = Hashtbl.create 64 in
  let assign s lane =
    if not (Hashtbl.mem slots s) then Hashtbl.replace slots s (lane, fresh lane)
  in
  List.iter
    (fun b ->
      List.iter (fun (s, ty) -> assign s (lane_of_ty ty)) b.params;
      List.iter
        (fun n ->
          match n.op with
          | Konst _ | Param _ -> ()
          | _ -> assign n.id (lane_of_ty n.ty))
        (body_in_order b))
    blocks;
  let slot_of s =
    match Hashtbl.find_opt slots s with
    | Some x -> x
    | None -> (
      (* graph parameters are floating nodes *)
      match (node g s).op with
      | Param k when k < g.nparams -> (Lval, 1 + k)
      | _ -> raise (Fallback (Printf.sprintf "unassigned sym %d" s)))
  in
  (* constant pool: (slot, value) pairs per lane *)
  let consts : (sym * lane, int) Hashtbl.t = Hashtbl.create 16 in
  let kints = ref [] and kfloats = ref [] and kvals = ref [] in
  let const_slot s lane v =
    match Hashtbl.find_opt consts (s, lane) with
    | Some i -> Some i
    | None -> (
      let pool cell x =
        let i = fresh lane in
        cell := (i, x) :: !cell;
        Hashtbl.replace consts (s, lane) i;
        Some i
      in
      match (lane, v) with
      | Lint, Int x -> pool kints x
      | Lfloat, Float x -> pool kfloats x
      | Lfloat, Int x -> pool kfloats (float_of_int x)
      | Lval, v -> pool kvals v
      | (Lint | Lfloat), _ -> None)
  in
  (* The slot holding [s] in [lane].  A read from another lane adds a
     conversion step to [pre], the steps that run right before the use. *)
  let read pre lane s =
    let via src =
      let t = fresh lane in
      pre := convert src (lane, t) :: !pre;
      t
    in
    match (node g s).op with
    | Konst v -> (
      match const_slot s lane v with
      | Some i -> i
      | None -> via (Lval, Option.get (const_slot s Lval v)))
    | _ ->
      let ((l, i) as src) = slot_of s in
      if l = lane then i else via src
  in
  (* The slot a step producing a [lane] value writes node [n]'s result to.
     When [n] lives in another lane, a conversion step into [n]'s slot is
     added to [post], the steps that run right after. *)
  let write post (n : node) lane =
    let ((l, i) as dst) = slot_of n.id in
    if l = lane then i
    else begin
      (match (lane, l) with
      | Lint, Lfloat -> raise (Fallback "int result in float slot")
      | Lfloat, Lint -> raise (Fallback "float result in int slot")
      | _ -> ());
      let t = fresh lane in
      post := convert (lane, t) dst :: !post;
      t
    end
  in
  (* lowering of the fused branch-condition shapes into the int/float
     lanes; classid(x) == const, the devirtualization guard, compares the
     receiver's class id with the constant in place *)
  let fusion = Guard_fusion.analyse ~backend:"typed" g blocks in
  let fused = fusion.Guard_fusion.fused in
  let cid_eq : Guard_fusion.cond -> (sym * int) option = function
    | Int_cmp (Eq, Class_id x, Sym k) -> (
      match (node g k).op with Konst (Int k) -> Some (x, k) | _ -> None)
    | _ -> None
  in
  let int_operand pre : Guard_fusion.operand -> int = function
    | Sym s -> read pre Lint s
    | Class_id s ->
      let a = read pre Lval s in
      let t = fresh Lint in
      pre := class_id a t :: !pre;
      t
  in
  let fused_cond pre (fc : Guard_fusion.cond) : regs -> bool =
    match (cid_eq fc, fc) with
    | Some (x, k), _ ->
      let a = read pre Lval x in
      fun r -> (match r.vals.(a) with Obj o -> o.ocls.cid | _ -> -1) = k
    | None, Int_cmp (c, x, y) ->
      let a = int_operand pre x in
      let b = int_operand pre y in
      int_cond c a b
    | None, Float_cmp (c, x, y) ->
      let a = read pre Lfloat x in
      let b = read pre Lfloat y in
      float_cond c a b
    | None, Null_test x ->
      let a = read pre Lval x in
      fun r -> (match r.vals.(a) with Null -> true | _ -> false)
  in
  let compile_node n : step list =
    if Hashtbl.mem fused n.id then []
    else
      let pre = ref [] and post = ref [] in
      let arg lane k = read pre lane n.args.(k) in
      let dst lane = write post n lane in
      let step : step option =
        match n.op with
        | Konst _ | Param _ | Bparam -> None
        | Iop op ->
          let a = arg Lint 0 in
          let b = arg Lint 1 in
          Some (int_op op a b (dst Lint))
        | Ineg ->
          let a = arg Lint 0 in
          let d = dst Lint in
          Some (fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (-i.(a)))
        | Fop op ->
          let a = arg Lfloat 0 in
          let b = arg Lfloat 1 in
          Some (float_op op a b (dst Lfloat))
        | Fneg ->
          let a = arg Lfloat 0 in
          let d = dst Lfloat in
          Some (fun r -> let f = r.floats in f.(d) <- -.f.(a))
        | I2f ->
          let a = arg Lint 0 in
          let d = dst Lfloat in
          Some (fun r -> r.floats.(d) <- float_of_int r.ints.(a))
        | F2i ->
          let a = arg Lfloat 0 in
          let d = dst Lint in
          Some
            (fun r -> r.ints.(d) <- Vm.Value.wrap32 (int_of_float r.floats.(a)))
        | Icmp c ->
          let a = arg Lint 0 in
          let b = arg Lint 1 in
          let d = dst Lint in
          let t = int_cond c a b in
          Some (fun r -> r.ints.(d) <- (if t r then 1 else 0))
        | Fcmp c ->
          let a = arg Lfloat 0 in
          let b = arg Lfloat 1 in
          let d = dst Lint in
          let t = float_cond c a b in
          Some (fun r -> r.ints.(d) <- (if t r then 1 else 0))
        | IsNull ->
          let a = arg Lval 0 in
          let d = dst Lint in
          Some
            (fun r -> r.ints.(d) <- (match r.vals.(a) with Null -> 1 | _ -> 0))
        | ClassId ->
          let a = arg Lval 0 in
          Some (class_id a (dst Lint))
        | Getfield f ->
          let a = arg Lval 0 in
          let d = dst Lval in
          let i = f.fidx in
          Some
            (fun r ->
              let v = r.vals in
              v.(d) <- (Vm.Value.to_obj v.(a)).ofields.(i))
        | Putfield f ->
          let a = arg Lval 0 in
          let b = arg Lval 1 in
          let i = f.fidx in
          Some
            (fun r ->
              let v = r.vals in
              (Vm.Value.to_obj v.(a)).ofields.(i) <- v.(b))
        | Getglobal gi ->
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Vm.Runtime.get_global rt gi)
        | Putglobal gi ->
          let a = arg Lval 0 in
          Some (fun r -> Vm.Runtime.set_global rt gi r.vals.(a))
        | NewObj cls ->
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Obj (Vm.Runtime.alloc rt cls))
        | Newarr ->
          let a = arg Lint 0 in
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Arr (Array.make r.ints.(a) Null))
        | Newfarr ->
          let a = arg Lint 0 in
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Farr (Array.make r.ints.(a) 0.0))
        | Aload ->
          let a = arg Lval 0 in
          let i = arg Lint 1 in
          let d = dst Lval in
          Some
            (fun r ->
              let v = r.vals in
              v.(d) <- (Vm.Value.to_arr v.(a)).(r.ints.(i)))
        | Astore ->
          let a = arg Lval 0 in
          let i = arg Lint 1 in
          let x = arg Lval 2 in
          Some
            (fun r ->
              let v = r.vals in
              (Vm.Value.to_arr v.(a)).(r.ints.(i)) <- v.(x))
        | Faload ->
          let a = arg Lval 0 in
          let i = arg Lint 1 in
          let d = dst Lfloat in
          Some
            (fun r ->
              r.floats.(d) <- (Vm.Value.to_farr r.vals.(a)).(r.ints.(i)))
        | Fastore ->
          let a = arg Lval 0 in
          let i = arg Lint 1 in
          let x = arg Lfloat 2 in
          Some
            (fun r ->
              (Vm.Value.to_farr r.vals.(a)).(r.ints.(i)) <- r.floats.(x))
        | Alen ->
          let a = arg Lval 0 in
          let d = dst Lint in
          Some
            (fun r ->
              r.ints.(d) <-
                (match r.vals.(a) with
                | Arr x -> Array.length x
                | Farr x -> Array.length x
                | _ -> vm_error "alen"))
        (* pure math natives run on the float lane *)
        | CallStatic
            {
              mcode =
                Native
                  ((("Math.sqrt" | "Math.exp" | "Math.log" | "Math.fabs") as
                    name), _);
              _;
            }
          when Array.length n.args = 1 -> (
          let a = arg Lfloat 0 in
          let d = dst Lfloat in
          match name with
          | "Math.sqrt" -> Some (fun r -> let f = r.floats in f.(d) <- sqrt f.(a))
          | "Math.exp" -> Some (fun r -> let f = r.floats in f.(d) <- exp f.(a))
          | "Math.log" -> Some (fun r -> let f = r.floats in f.(d) <- log f.(a))
          | _ ->
            Some (fun r -> let f = r.floats in f.(d) <- abs_float f.(a)))
        | CallStatic m -> (
          let a = Array.mapi (fun k _ -> arg Lval k) n.args in
          let d = dst Lval in
          match m.mcode with
          | Native (_, fn) ->
            Some (fun r -> let v = r.vals in v.(d) <- fn rt (gather v a))
          | Bytecode _ ->
            let call = hooks.CB.call_static in
            Some (fun r -> let v = r.vals in v.(d) <- call m (gather v a)))
        | CallVirtual (name, _) ->
          let a = Array.mapi (fun k _ -> arg Lval k) n.args in
          let d = dst Lval in
          let call = hooks.CB.call_virtual in
          Some (fun r -> let v = r.vals in v.(d) <- call name (gather v a))
        | CallClosure _ ->
          let f = arg Lval 0 in
          let a =
            Array.init (Array.length n.args - 1) (fun k -> arg Lval (k + 1))
          in
          let d = dst Lval in
          let call = hooks.CB.call_closure in
          Some (fun r -> let v = r.vals in v.(d) <- call v.(f) (gather v a))
        | Ext _ -> raise (Fallback "extension op in typed kernel")
      in
      List.rev_append !pre (Option.to_list step @ List.rev !post)
  in
  (* jumps: conversion steps for cross-lane arguments, then the copy *)
  let bindex = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace bindex b.bid i) blocks;
  let idx_of bid = Hashtbl.find bindex bid in
  let compile_jump (t : target) : step list =
    let pre = ref [] in
    let moves =
      List.mapi
        (fun k (p, _) ->
          let lane, d = slot_of p in
          (lane, read pre lane t.targs.(k), d))
        (block g t.tblock).params
      |> List.filter (fun (_, s, d) -> s <> d)
    in
    let overlap =
      List.exists
        (fun (l, s, _) -> List.exists (fun (l', _, d) -> l = l' && s = d) moves)
        moves
    in
    let copies =
      if moves = [] then []
      else if not overlap then [ copy moves ]
      else
        let tmps = List.map (fun (l, _, _) -> fresh l) moves in
        [
          copy (List.map2 (fun (l, s, _) t -> (l, s, t)) moves tmps);
          copy (List.map2 (fun (l, _, d) t -> (l, t, d)) moves tmps);
        ]
    in
    List.rev_append !pre copies
  in
  let compile_exit se : regs -> value =
    let pre = ref [] in
    let a =
      List.concat_map
        (fun fd -> Array.to_list fd.fd_locals @ Array.to_list fd.fd_stack)
        se.se_frames
      |> List.map (read pre Lval)
      |> Array.of_list
    in
    let box = seq (List.rev !pre) in
    let handler = hooks.CB.on_exit in
    fun r ->
      box r;
      handler se (gather r.vals a)
  in
  (* Control-flow lowering, three layers:
     - superblock splicing: an unconditional jump to a forward block with a
       single predecessor concatenates the successor's steps in place, and
       a Br whose cold arm is a bare side-exit block becomes an in-line
       guard step (the miss path runs the exit and raises [Guard_miss]) —
       so a devirtualization guard costs exactly one compare step on the
       hot path, with no extra block boundary;
     - threading: remaining forward transfers call the successor's closure
       directly (recursion bounded by the block count);
     - trampoline: backward (loop) edges return the target index.
     [-1] means "function done" and unwinds nested forward calls. *)
  let nblocks = List.length blocks in
  let barr = Array.of_list blocks in
  let compiled : (regs -> int) array = Array.make nblocks (fun _ -> -1) in
  let npreds = Array.make nblocks 0 in
  List.iter
    (fun b ->
      let tgt (t : target) =
        let i = idx_of t.tblock in
        npreds.(i) <- npreds.(i) + 1
      in
      match b.term with
      | Jump t -> tgt t
      | Br (_, t1, t2) ->
        tgt t1;
        tgt t2
      | Ir.Ret _ | Exit _ | Unreachable _ -> ())
    blocks;
  (* a block that is only ever entered from [my_idx]'s terminator, forward:
     safe to splice into the predecessor *)
  let spliceable my_idx (t : target) =
    let i = idx_of t.tblock in
    i > my_idx && npreds.(i) = 1
  in
  let exit_only (t : target) : side_exit option =
    let tb = block g t.tblock in
    match tb.term with
    | Exit se when body_in_order tb = [] -> Some se
    | _ -> None
  in
  let branch_cond pre (b : block) c : regs -> bool =
    match Hashtbl.find_opt fusion.conds b.bid with
    | Some fc -> fused_cond pre fc
    | None ->
      let a = read pre Lint c in
      fun r -> r.ints.(a) <> 0
  in
  let rec parts i : step list * (regs -> int) =
    let b = barr.(i) in
    let steps = List.concat_map compile_node (body_in_order b) in
    match b.term with
    | Jump t when spliceable i t ->
      let tsteps, tterm = parts (idx_of t.tblock) in
      (steps @ compile_jump t @ tsteps, tterm)
    | Br (c, t1, t2) when spliceable i t1 && exit_only t2 <> None ->
      let cp2 = seq (compile_jump t2) in
      let exit_run = compile_exit (Option.get (exit_only t2)) in
      let miss r =
        cp2 r;
        r.vals.(result_slot) <- exit_run r;
        raise Guard_miss
      in
      let pre = ref [] in
      (* the devirtualization shape reads the receiver slot and compares
         its class id, no nested calls on the hit path *)
      let guard : step =
        match Option.bind (Hashtbl.find_opt fusion.conds b.bid) cid_eq with
        | Some (x, k) ->
          let a = read pre Lval x in
          fun r ->
            (match r.vals.(a) with
            | Obj o when o.ocls.cid = k -> ()
            | _ -> miss r)
        | None ->
          let cond = branch_cond pre b c in
          fun r -> if not (cond r) then miss r
      in
      let tsteps, tterm = parts (idx_of t1.tblock) in
      (steps @ List.rev_append !pre (guard :: compile_jump t1) @ tsteps, tterm)
    | term ->
      let pre = ref [] in
      let term = compile_term pre b i term in
      (steps @ List.rev !pre, term)
  and compile_term pre (b : block) (my_idx : int) term : regs -> int =
    let arm (t : target) : regs -> int =
      let nxt = idx_of t.tblock in
      match (compile_jump t, nxt > my_idx) with
      | [], true -> fun r -> compiled.(nxt) r
      | [], false -> fun _ -> nxt
      | cp, true ->
        let cp = seq cp in
        fun r ->
          cp r;
          compiled.(nxt) r
      | cp, false ->
        let cp = seq cp in
        fun r ->
          cp r;
          nxt
    in
    match term with
    | Ir.Ret s ->
      let a = read pre Lval s in
      fun r ->
        let v = r.vals in
        v.(result_slot) <- v.(a);
        -1
    | Jump t -> arm t
    | Br (c, t1, t2) ->
      let cond = branch_cond pre b c in
      let a1 = arm t1 in
      let a2 = arm t2 in
      fun r -> if cond r then a1 r else a2 r
    | Exit se ->
      let run = compile_exit se in
      fun r ->
        r.vals.(result_slot) <- run r;
        -1
    | Unreachable msg -> fun _ -> vm_error "reached unreachable block: %s" msg
  in
  List.iteri
    (fun i _ ->
      let steps, term = parts i in
      let steps = Array.of_list steps in
      compiled.(i) <-
        (match Array.length steps with
        | 0 -> term
        | 1 ->
          let s0 = steps.(0) in
          fun r ->
            s0 r;
            term r
        | len ->
          let last = len - 1 in
          fun r ->
            for j = 0 to last do
              steps.(j) r
            done;
            term r))
    blocks;
  if !Irtrace.on then
    Snapshot.take g (Phases.Schedule "typed") ~exclude:(Hashtbl.mem fused)
      ~meta:[ ("blocks", string_of_int (List.length blocks)) ];
  let entry_idx = idx_of g.entry in
  let nparams = g.nparams in
  let ni = counts.(0) and nf = counts.(1) and nv = counts.(2) in
  let kints = Array.of_list !kints
  and kfloats = Array.of_list !kfloats
  and kvals = Array.of_list !kvals in
  let registers () =
    let r =
      {
        ints = Array.make ni 0;
        floats = Array.make nf 0.0;
        vals = Array.make nv Null;
      }
    in
    Array.iter (fun (i, x) -> r.ints.(i) <- x) kints;
    Array.iter (fun (i, x) -> r.floats.(i) <- x) kfloats;
    Array.iter (fun (i, x) -> r.vals.(i) <- x) kvals;
    r
  in
  (* One pooled register file, taken for the length of a call.  A call that
     finds the pool empty (recursion, another domain, or an earlier call
     that raised) makes a fresh one.  SSA: no step reads a stale slot, and
     no step writes a constant's slot. *)
  let empty = { ints = [||]; floats = [||]; vals = [||] } in
  let pool = Atomic.make empty in
  fun args ->
    if Array.length args <> nparams then
      vm_error "typed kernel %s: expected %d args, got %d" g.name nparams
        (Array.length args);
    let r = Atomic.exchange pool empty in
    let r = if r == empty then registers () else r in
    Array.blit args 0 r.vals 1 nparams;
    (try
       let bid = ref entry_idx in
       while !bid >= 0 do
         bid := compiled.(!bid) r
       done
     with Guard_miss -> ());
    let v = r.vals.(result_slot) in
    Atomic.set pool r;
    v

(* Span-instrumented entry point: attributes backend compile time in traces
   (a no-op single branch when no observability sink is attached). *)
let compile ?hooks (g : graph) =
  Obs.span ~cat:Phases.cat_jit (Phases.span_backend "typed") (fun () ->
      compile ?hooks g)
