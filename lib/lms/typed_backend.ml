(* A second, type-specialized execution backend: the analogue of Delite's
   kernel code generation.  Symbols whose IR type is int/bool or float live
   in unboxed register lanes (an [int array] / [float array]); only
   genuinely dynamic values are boxed.  For numeric kernels this removes
   per-operation allocation entirely, which is where the paper's generated
   kernels get their edge over library bytecode. *)

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

(* raised during compilation when a node cannot be handled; callers fall
   back to the boxed backend *)
exception Fallback of string

(* raised by a spliced guard step on the miss path, after running the side
   exit and storing its result; the kernel entry catches it *)
exception Guard_miss

let compile ?hooks (g : graph) : Vm.Types.value array -> Vm.Types.value =
  let open Vm.Types in
  let hooks = match hooks with Some h -> h | None -> failwith "hooks required" in
  let rt = hooks.CB.rt in
  let blocks = reachable_blocks g in
  (* slot assignment per lane *)
  let slots : (sym, lane * int) Hashtbl.t = Hashtbl.create 64 in
  let counts = [| 0; 0; 0 |] in
  let lane_idx = function Lint -> 0 | Lfloat -> 1 | Lval -> 2 in
  let assign s lane =
    if not (Hashtbl.mem slots s) then begin
      let i = counts.(lane_idx lane) in
      counts.(lane_idx lane) <- i + 1;
      Hashtbl.replace slots s (lane, i)
    end
  in
  (* graph parameters always come in boxed; give them val slots *)
  List.iter
    (fun b ->
      List.iter (fun (s, ty) -> assign s (lane_of_ty ty)) b.params;
      List.iter
        (fun n ->
          match n.op with
          | Konst _ -> ()
          | Param _ -> assign n.id Lval
          | _ -> assign n.id (lane_of_ty n.ty))
        (body_in_order b))
    blocks;
  let slot_of s =
    (* graph parameters are floating nodes: give them boxed slots on demand *)
    (match (node g s).op with
    | Param _ -> assign s Lval
    | _ -> ());
    match Hashtbl.find_opt slots s with
    | Some x -> x
    | None -> raise (Fallback (Printf.sprintf "unassigned sym %d" s))
  in
  (* typed getters; cross-lane reads coerce through the boxed value *)
  let node_of s = node g s in
  let get_int s : regs -> int =
    let n = node_of s in
    match n.op with
    | Konst (Int i) -> fun _ -> i
    | Konst v -> fun _ -> Vm.Value.to_int v
    | _ -> (
      match slot_of s with
      | Lint, i -> fun r -> r.ints.(i)
      | Lval, i -> fun r -> Vm.Value.to_int r.vals.(i)
      | Lfloat, _ -> raise (Fallback "float used as int"))
  in
  let get_float s : regs -> float =
    let n = node_of s in
    match n.op with
    | Konst (Float f) -> fun _ -> f
    | Konst (Int i) -> fun _ -> float_of_int i
    | Konst v -> fun _ -> Vm.Value.to_float v
    | _ -> (
      match slot_of s with
      | Lfloat, i -> fun r -> r.floats.(i)
      | Lval, i -> fun r -> Vm.Value.to_float r.vals.(i)
      | Lint, i -> fun r -> float_of_int r.ints.(i))
  in
  let get_val s : regs -> value =
    let n = node_of s in
    match n.op with
    | Konst v -> fun _ -> v
    | _ -> (
      match slot_of s with
      | Lval, i -> fun r -> r.vals.(i)
      | Lint, i -> fun r -> Int r.ints.(i)
      | Lfloat, i -> fun r -> Float r.floats.(i))
  in
  let get_farr s : regs -> float array =
    let gv = get_val s in
    fun r -> Vm.Value.to_farr (gv r)
  in
  (* store the result of node [s] *)
  let set_int s =
    match slot_of s with
    | Lint, i -> fun (r : regs) (v : int) -> r.ints.(i) <- v
    | Lval, i -> fun r v -> r.vals.(i) <- Int v
    | Lfloat, _ -> raise (Fallback "int result in float slot")
  in
  let set_float s =
    match slot_of s with
    | Lfloat, i -> fun (r : regs) (v : float) -> r.floats.(i) <- v
    | Lval, i -> fun r v -> r.vals.(i) <- Float v
    | Lint, _ -> raise (Fallback "float result in int slot")
  in
  let set_val s =
    match slot_of s with
    | Lval, i -> fun (r : regs) (v : value) -> r.vals.(i) <- v
    | Lint, i -> fun r v -> r.ints.(i) <- Vm.Value.to_int v
    | Lfloat, i -> fun r v -> r.floats.(i) <- Vm.Value.to_float v
  in
  (* float fast paths for pure math natives *)
  let math_fast (m : Vm.Types.meth) : (float -> float) option =
    match m.mcode with
    | Native (name, _) -> (
      match name with
      | "Math.sqrt" -> Some sqrt
      | "Math.exp" -> Some exp
      | "Math.log" -> Some log
      | "Math.fabs" -> Some abs_float
      | _ -> None)
    | Bytecode _ -> None
  in
  (* lowering of the fused branch-condition shapes into the int/float
     lanes; classid(x) == const, the devirtualization guard, keeps its
     receiver getter and constant apart so the guard-splicing pass below
     can build a single-closure guard for it *)
  let fusion = Guard_fusion.analyse ~backend:"typed" g blocks in
  let fused = fusion.Guard_fusion.fused in
  let cid_eq : Guard_fusion.cond -> ((regs -> value) * int) option = function
    | Int_cmp (Vm.Types.Eq, Class_id x, Sym k) -> (
      match (node g k).op with Konst (Int k) -> Some (get_val x, k) | _ -> None)
    | _ -> None
  in
  let int_operand : Guard_fusion.operand -> regs -> int = function
    | Sym s -> get_int s
    | Class_id s ->
      let a = get_val s in
      fun r -> (match a r with Obj o -> o.Vm.Types.ocls.Vm.Types.cid | _ -> -1)
  in
  let fused_cond (fc : Guard_fusion.cond) : regs -> bool =
    match (cid_eq fc, fc) with
    | Some (a, k), _ ->
      fun r ->
        (match a r with Obj o -> o.Vm.Types.ocls.Vm.Types.cid | _ -> -1) = k
    | None, Int_cmp (cc, x, y) ->
      let a = int_operand x and b = int_operand y in
      fun r -> Vm.Value.cond_apply cc (a r) (b r)
    | None, Float_cmp (cc, x, y) ->
      let a = get_float x and b = get_float y in
      fun r -> Vm.Value.fcond_apply cc (a r) (b r)
    | None, Null_test x ->
      let a = get_val x in
      fun r -> (match a r with Null -> true | _ -> false)
  in
  let compile_node n : (regs -> unit) option =
    if Hashtbl.mem fused n.id then None
    else
    match n.op with
    | Konst _ | Param _ | Bparam -> None
    | Iop op ->
      let a = get_int n.args.(0) and b = get_int n.args.(1) in
      let st = set_int n.id in
      Some
        (match op with
        | Vm.Types.Add -> fun r -> st r (Vm.Value.wrap32 (a r + b r))
        | Vm.Types.Sub -> fun r -> st r (Vm.Value.wrap32 (a r - b r))
        | Vm.Types.Mul -> fun r -> st r (Vm.Value.wrap32 (a r * b r))
        | _ -> fun r -> st r (Vm.Value.iop_apply op (a r) (b r)))
    | Ineg ->
      let a = get_int n.args.(0) in
      let st = set_int n.id in
      Some (fun r -> st r (Vm.Value.wrap32 (-a r)))
    | Fop op ->
      let a = get_float n.args.(0) and b = get_float n.args.(1) in
      let st = set_float n.id in
      Some
        (match op with
        | Vm.Types.FAdd -> fun r -> st r (a r +. b r)
        | Vm.Types.FSub -> fun r -> st r (a r -. b r)
        | Vm.Types.FMul -> fun r -> st r (a r *. b r)
        | Vm.Types.FDiv -> fun r -> st r (a r /. b r))
    | Fneg ->
      let a = get_float n.args.(0) in
      let st = set_float n.id in
      Some (fun r -> st r (-.a r))
    | I2f ->
      let a = get_int n.args.(0) in
      let st = set_float n.id in
      Some (fun r -> st r (float_of_int (a r)))
    | F2i ->
      let a = get_float n.args.(0) in
      let st = set_int n.id in
      Some (fun r -> st r (Vm.Value.wrap32 (int_of_float (a r))))
    | Icmp c ->
      let a = get_int n.args.(0) and b = get_int n.args.(1) in
      let st = set_int n.id in
      Some (fun r -> st r (if Vm.Value.cond_apply c (a r) (b r) then 1 else 0))
    | Fcmp c ->
      let a = get_float n.args.(0) and b = get_float n.args.(1) in
      let st = set_int n.id in
      Some (fun r -> st r (if Vm.Value.fcond_apply c (a r) (b r) then 1 else 0))
    | IsNull ->
      let a = get_val n.args.(0) in
      let st = set_int n.id in
      Some (fun r -> st r (match a r with Null -> 1 | _ -> 0))
    | ClassId ->
      let a = get_val n.args.(0) in
      let st = set_int n.id in
      Some
        (fun r ->
          st r (match a r with Obj o -> o.Vm.Types.ocls.Vm.Types.cid | _ -> -1))
    | Getfield f ->
      let a = get_val n.args.(0) in
      let st = set_val n.id in
      let i = f.fidx in
      Some (fun r -> st r (Vm.Value.to_obj (a r)).ofields.(i))
    | Putfield f ->
      let a = get_val n.args.(0) and v = get_val n.args.(1) in
      let i = f.fidx in
      Some (fun r -> (Vm.Value.to_obj (a r)).ofields.(i) <- v r)
    | Getglobal gi ->
      let st = set_val n.id in
      Some (fun r -> st r (Vm.Runtime.get_global rt gi))
    | Putglobal gi ->
      let v = get_val n.args.(0) in
      Some (fun r -> Vm.Runtime.set_global rt gi (v r))
    | NewObj cls ->
      let st = set_val n.id in
      Some (fun r -> st r (Obj (Vm.Runtime.alloc rt cls)))
    | Newarr ->
      let a = get_int n.args.(0) in
      let st = set_val n.id in
      Some (fun r -> st r (Arr (Array.make (a r) Null)))
    | Newfarr ->
      let a = get_int n.args.(0) in
      let st = set_val n.id in
      Some (fun r -> st r (Farr (Array.make (a r) 0.0)))
    | Aload ->
      let a = get_val n.args.(0) and i = get_int n.args.(1) in
      let st = set_val n.id in
      Some (fun r -> st r (Vm.Value.to_arr (a r)).(i r))
    | Astore ->
      let a = get_val n.args.(0)
      and i = get_int n.args.(1)
      and v = get_val n.args.(2) in
      Some (fun r -> (Vm.Value.to_arr (a r)).(i r) <- v r)
    | Faload ->
      let a = get_farr n.args.(0) and i = get_int n.args.(1) in
      let st = set_float n.id in
      Some (fun r -> st r (a r).(i r))
    | Fastore ->
      let a = get_farr n.args.(0)
      and i = get_int n.args.(1)
      and v = get_float n.args.(2) in
      Some (fun r -> (a r).(i r) <- v r)
    | Alen ->
      let a = get_val n.args.(0) in
      let st = set_int n.id in
      Some
        (fun r ->
          st r
            (match a r with
            | Arr x -> Array.length x
            | Farr x -> Array.length x
            | _ -> vm_error "alen"))
    | CallStatic m -> (
      match math_fast m, n.args with
      | Some f, [| x |] ->
        let a = get_float x in
        let st = set_float n.id in
        Some (fun r -> st r (f (a r)))
      | _ ->
        let gs = Array.map get_val n.args in
        let st = set_val n.id in
        (match m.mcode with
        | Native (_, fn) ->
          Some (fun r -> st r (fn rt (Array.map (fun gv -> gv r) gs)))
        | Bytecode _ ->
          let call = hooks.CB.call_static in
          Some (fun r -> st r (call m (Array.map (fun gv -> gv r) gs)))))
    | CallVirtual (name, _) ->
      let gs = Array.map get_val n.args in
      let st = set_val n.id in
      let call = hooks.CB.call_virtual in
      Some (fun r -> st r (call name (Array.map (fun gv -> gv r) gs)))
    | CallClosure _ ->
      let gs = Array.map get_val n.args in
      let st = set_val n.id in
      let call = hooks.CB.call_closure in
      Some
        (fun r ->
          let vs = Array.map (fun gv -> gv r) gs in
          st r (call vs.(0) (Array.sub vs 1 (Array.length vs - 1))))
    | Ext _ -> raise (Fallback "extension op in typed kernel")
  in
  (* jumps: copy args into param slots with lane coercion *)
  let bindex = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace bindex b.bid i) blocks;
  let idx_of bid = Hashtbl.find bindex bid in
  let compile_jump (t : target) : regs -> unit =
    let dsts = (block g t.tblock).params in
    let dst_slots = List.map (fun (ps, _) -> slot_of ps) dsts in
    let src_slot i =
      let src = t.targs.(i) in
      match (node g src).op with
      | Konst _ -> None
      | _ -> Some (slot_of src)
    in
    let conflict =
      List.exists
        (fun i ->
          match src_slot i with
          | Some sl -> List.mem sl dst_slots
          | None -> false)
        (List.init (Array.length t.targs) Fun.id)
    in
    let copies =
      List.mapi
        (fun i (ps, _) ->
          let src = t.targs.(i) in
          match slot_of ps with
          | Lint, d ->
            let gi = get_int src in
            fun (r : regs) -> r.ints.(d) <- gi r
          | Lfloat, d ->
            let gf = get_float src in
            fun r -> r.floats.(d) <- gf r
          | Lval, d ->
            let gv = get_val src in
            fun r -> r.vals.(d) <- gv r)
        dsts
    in
    if not conflict then fun r -> List.iter (fun cp -> cp r) copies
    else begin
      (* parallel copy: gather into per-call temporaries, then write *)
      let gathers =
        List.mapi
          (fun i (ps, _) ->
            let src = t.targs.(i) in
            match slot_of ps with
            | Lint, d ->
              let gi = get_int src in
              fun r -> `I (d, gi r)
            | Lfloat, d ->
              let gf = get_float src in
              fun r -> `F (d, gf r)
            | Lval, d ->
              let gv = get_val src in
              fun r -> `V (d, gv r))
          dsts
      in
      fun r ->
        let tmp = List.map (fun gth -> gth r) gathers in
        List.iter
          (function
            | `I (d, v) -> r.ints.(d) <- v
            | `F (d, v) -> r.floats.(d) <- v
            | `V (d, v) -> r.vals.(d) <- v)
          tmp
    end
  in
  let ret_val = ref Null in
  let compile_exit se : regs -> value =
    let syms =
      List.concat_map
        (fun fd -> Array.to_list fd.fd_locals @ Array.to_list fd.fd_stack)
        se.se_frames
    in
    let gs = Array.of_list (List.map get_val syms) in
    let handler = hooks.CB.on_exit in
    fun r -> handler se (Array.map (fun gv -> gv r) gs)
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
  let branch_cond (b : block) c : regs -> bool =
    match Hashtbl.find_opt fusion.conds b.bid with
    | Some fc -> fused_cond fc
    | None ->
      let cv = get_int c in
      fun r -> cv r <> 0
  in
  let rec parts i : (regs -> unit) list * (regs -> int) =
    let b = barr.(i) in
    let steps = body_in_order b |> List.filter_map compile_node in
    match b.term with
    | Jump t when spliceable i t ->
      let tsteps, tterm = parts (idx_of t.tblock) in
      let pre =
        if Array.length t.targs = 0 then tsteps else compile_jump t :: tsteps
      in
      (steps @ pre, tterm)
    | Br (c, t1, t2)
      when spliceable i t1 && exit_only t2 <> None ->
      let cp2 = compile_jump t2 in
      let exit_run = compile_exit (Option.get (exit_only t2)) in
      let miss r =
        cp2 r;
        ret_val := exit_run r;
        raise Guard_miss
      in
      (* the devirtualization shape gets a single-closure guard: receiver
         slot -> class-id compare, no nested calls on the hit path *)
      let guard =
        match
          ( Option.bind (Hashtbl.find_opt fusion.conds b.bid) cid_eq,
            Array.length t1.targs )
        with
        | Some (a, k), 0 ->
          fun r ->
            (match a r with
            | Obj o when o.Vm.Types.ocls.Vm.Types.cid = k -> ()
            | _ -> miss r)
        | _, 0 ->
          let cond = branch_cond b c in
          fun r -> if cond r then () else miss r
        | _, _ ->
          let cond = branch_cond b c in
          let cp1 = compile_jump t1 in
          fun r -> if cond r then cp1 r else miss r
      in
      let tsteps, tterm = parts (idx_of t1.tblock) in
      (steps @ (guard :: tsteps), tterm)
    | term -> (steps, compile_term b i term)
  and compile_term (b : block) (my_idx : int) term : regs -> int =
    let arm (t : target) : regs -> int =
      let cp = compile_jump t in
      let nxt = idx_of t.tblock in
      if nxt > my_idx then fun r ->
        cp r;
        compiled.(nxt) r
      else fun r ->
        cp r;
        nxt
    in
    match term with
    | Ir.Ret s ->
      let v = get_val s in
      fun r ->
        ret_val := v r;
        -1
    | Jump t -> arm t
    | Br (c, t1, t2) ->
      let cond = branch_cond b c in
      let a1 = arm t1 and a2 = arm t2 in
      fun r -> if cond r then a1 r else a2 r
    | Exit se ->
      let run = compile_exit se in
      fun r ->
        ret_val := run r;
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
  (* param symbols get val slots; find them to seed from arguments *)
  let param_slots = Array.make nparams (-1) in
  Hashtbl.iter
    (fun s (lane, i) ->
      match (node g s).op with
      | Param k when lane = Lval -> param_slots.(k) <- i
      | _ -> ())
    slots;
  let ni = counts.(0) and nf = counts.(1) and nv = counts.(2) in
  (* pooled registers, as in the boxed backend (SSA: no stale reads) *)
  let pool : regs option Atomic.t = Atomic.make None in
  fun args ->
    if Array.length args <> nparams then
      vm_error "typed kernel %s: expected %d args, got %d" g.name nparams
        (Array.length args);
    let r =
      match Atomic.exchange pool None with
      | Some r -> r
      | None ->
        {
          ints = Array.make (max ni 1) 0;
          floats = Array.make (max nf 1) 0.0;
          vals = Array.make (max nv 1) Null;
        }
    in
    Fun.protect
      ~finally:(fun () -> Atomic.set pool (Some r))
      (fun () ->
        Array.iteri
          (fun k slot -> if slot >= 0 then r.vals.(slot) <- args.(k))
          param_slots;
        (try
           let bid = ref entry_idx in
           while !bid >= 0 do
             bid := compiled.(!bid) r
           done
         with Guard_miss -> ());
        !ret_val)

(* Span-instrumented entry point: attributes backend compile time in traces
   (a no-op single branch when no observability sink is attached). *)
let compile ?hooks (g : graph) =
  Obs.span ~cat:Phases.cat_jit (Phases.span_backend "typed") (fun () ->
      compile ?hooks g)
