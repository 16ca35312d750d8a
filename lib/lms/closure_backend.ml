(* The execution backend of the JIT: compiles an IR graph to a nest of OCaml
   closures.  Each pure/effectful node becomes one step closure writing a
   dense register slot; each block becomes a step array plus a terminator
   returning the next block index.  Specialization pays off directly: fewer
   residual nodes means fewer closure invocations per iteration. *)

open Ir

exception Compile_unsupported of string

type env = Vm.Types.value array

(* Handlers for residual calls and side exits are injected by the client
   (Lancet wires them to the interpreter / recompilation machinery). *)
type hooks = {
  rt : Vm.Types.runtime;
  call_static : Vm.Types.meth -> Vm.Types.value array -> Vm.Types.value;
  call_virtual : string -> Vm.Types.value array -> Vm.Types.value;
  call_closure : Vm.Types.value -> Vm.Types.value array -> Vm.Types.value;
  on_exit : side_exit -> Vm.Types.value array -> Vm.Types.value;
      (* receives the current values of all syms referenced by the exit's
         frame descriptors, flattened innermost-first, locals then stack *)
}

type ext_compiler =
  hooks -> ext_op -> (env -> Vm.Types.value) array -> (env -> Vm.Types.value) option

let ext_compilers : ext_compiler list ref = ref []

let register_ext f = ext_compilers := f :: !ext_compilers

let compile_ext hooks op getters =
  let rec go = function
    | [] -> raise (Compile_unsupported "unknown extension op")
    | f :: rest -> (
      match f hooks op getters with Some fn -> fn | None -> go rest)
  in
  go !ext_compilers

let default_hooks rt =
  {
    rt;
    call_static = (fun m args -> Vm.Interp.call rt m args);
    call_virtual =
      (fun name args ->
        match args.(0) with
        | Vm.Types.Obj o ->
          Vm.Interp.call rt (Vm.Classfile.resolve_virtual o.Vm.Types.ocls name) args
        | _ -> Vm.Types.vm_error "virtual call %s on non-object" name);
    call_closure = (fun f args -> Vm.Interp.call_closure rt f args);
    on_exit =
      (fun se _ ->
        Vm.Types.vm_error "unhandled side exit %s" se.se_tag);
  }

let lower ~trace hooks (g : graph) : Vm.Types.value array -> Vm.Types.value =
  let open Vm.Types in
  let rt = hooks.rt in
  let blocks = reachable_blocks g in
  (* slot assignment: 0..nparams-1 are the function arguments *)
  let slots = Hashtbl.create 64 in
  let next_slot = ref g.nparams in
  let slot_of s =
    match Hashtbl.find_opt slots s with
    | Some i -> i
    | None ->
      let i = !next_slot in
      incr next_slot;
      Hashtbl.replace slots s i;
      i
  in
  (* Pre-assign: params of the graph share arg slots *)
  let assign_node n =
    match n.op with
    | Param i -> Hashtbl.replace slots n.id i
    | Konst _ -> () (* materialized inline at use sites *)
    | _ -> ignore (slot_of n.id)
  in
  List.iter
    (fun b ->
      List.iter (fun (s, _) -> ignore (slot_of s)) b.params;
      List.iter assign_node (body_in_order b))
    blocks;
  let getter s : env -> value =
    let n = node g s in
    match n.op with
    | Konst v -> fun _ -> v
    | Param i -> fun r -> r.(i)
    | _ ->
      let i = slot_of s in
      fun r -> r.(i)
  in
  let getters args = Array.map getter args in
  (* lowering of the fused branch-condition shapes: int and class-id
     operands are compared unboxed, the bool is never materialized *)
  let fusion = Guard_fusion.analyse ~trace ~backend:"closure" g blocks in
  let fused = fusion.Guard_fusion.fused in
  let int_operand : Guard_fusion.operand -> env -> int = function
    | Sym s ->
      let gtr = getter s in
      fun r -> Vm.Value.to_int (gtr r)
    | Class_id s ->
      let a = getter s in
      fun r -> (match a r with Obj o -> o.Vm.Types.ocls.Vm.Types.cid | _ -> -1)
  in
  let fused_cond : Guard_fusion.cond -> env -> bool = function
    | Int_cmp (cc, x, y) ->
      let a = int_operand x and b = int_operand y in
      fun r -> Vm.Value.cond_apply cc (a r) (b r)
    | Float_cmp (cc, x, y) ->
      let a = getter x and b = getter y in
      fun r ->
        Vm.Value.fcond_apply cc
          (Vm.Value.to_float (a r))
          (Vm.Value.to_float (b r))
    | Null_test x ->
      let a = getter x in
      fun r -> (match a r with Null -> true | _ -> false)
  in
  (* one closure per node *)
  let compile_node n : (env -> unit) option =
    if Hashtbl.mem fused n.id then None
    else
    match n.op with
    | Konst _ | Param _ | Bparam -> None
    | Iop op ->
      let a = getter n.args.(0) and b = getter n.args.(1) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <-
            Int (Vm.Value.iop_apply op (Vm.Value.to_int (a r)) (Vm.Value.to_int (b r))))
    | Ineg ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Int (Vm.Value.wrap32 (-Vm.Value.to_int (a r))))
    | Fop op ->
      let a = getter n.args.(0) and b = getter n.args.(1) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <-
            Float
              (Vm.Value.fop_apply op (Vm.Value.to_float (a r))
                 (Vm.Value.to_float (b r))))
    | Fneg ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Float (-.Vm.Value.to_float (a r)))
    | I2f ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Float (float_of_int (Vm.Value.to_int (a r))))
    | F2i ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <- Int (Vm.Value.wrap32 (int_of_float (Vm.Value.to_float (a r)))))
    | Icmp c ->
      let a = getter n.args.(0) and b = getter n.args.(1) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <-
            Vm.Value.of_bool
              (Vm.Value.cond_apply c (Vm.Value.to_int (a r)) (Vm.Value.to_int (b r))))
    | Fcmp c ->
      let a = getter n.args.(0) and b = getter n.args.(1) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <-
            Vm.Value.of_bool
              (Vm.Value.fcond_apply c (Vm.Value.to_float (a r))
                 (Vm.Value.to_float (b r))))
    | IsNull ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <- Vm.Value.of_bool (match a r with Null -> true | _ -> false))
    | ClassId ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <-
            Int (match a r with Obj o -> o.Vm.Types.ocls.Vm.Types.cid | _ -> -1))
    | Getfield f ->
      let a = getter n.args.(0) in
      let d = slot_of n.id and i = f.fidx in
      Some (fun r -> r.(d) <- (Vm.Value.to_obj (a r)).ofields.(i))
    | Putfield f ->
      let a = getter n.args.(0) and v = getter n.args.(1) in
      let i = f.fidx in
      Some (fun r -> (Vm.Value.to_obj (a r)).ofields.(i) <- v r)
    | Getglobal gidx ->
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Vm.Runtime.get_global rt gidx)
    | Putglobal gidx ->
      let v = getter n.args.(0) in
      Some (fun r -> Vm.Runtime.set_global rt gidx (v r))
    | NewObj cls ->
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Obj (Vm.Runtime.alloc rt cls))
    | Newarr ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Arr (Array.make (Vm.Value.to_int (a r)) Null))
    | Newfarr ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- Farr (Array.make (Vm.Value.to_int (a r)) 0.0))
    | Aload ->
      let a = getter n.args.(0) and i = getter n.args.(1) in
      let d = slot_of n.id in
      Some (fun r -> r.(d) <- (Vm.Value.to_arr (a r)).(Vm.Value.to_int (i r)))
    | Astore ->
      let a = getter n.args.(0)
      and i = getter n.args.(1)
      and v = getter n.args.(2) in
      Some (fun r -> (Vm.Value.to_arr (a r)).(Vm.Value.to_int (i r)) <- v r)
    | Faload ->
      let a = getter n.args.(0) and i = getter n.args.(1) in
      let d = slot_of n.id in
      Some
        (fun r -> r.(d) <- Float (Vm.Value.to_farr (a r)).(Vm.Value.to_int (i r)))
    | Fastore ->
      let a = getter n.args.(0)
      and i = getter n.args.(1)
      and v = getter n.args.(2) in
      Some
        (fun r ->
          (Vm.Value.to_farr (a r)).(Vm.Value.to_int (i r)) <-
            Vm.Value.to_float (v r))
    | Alen ->
      let a = getter n.args.(0) in
      let d = slot_of n.id in
      Some
        (fun r ->
          r.(d) <-
            (match a r with
            | Arr x -> Int (Array.length x)
            | Farr x -> Int (Array.length x)
            | _ -> vm_error "alen"))
    | CallStatic m ->
      let gs = getters n.args in
      let d = slot_of n.id in
      let call = hooks.call_static in
      (* fast path: native methods are invoked directly *)
      (match m.mcode with
      | Native (_, fn) ->
        Some (fun r -> r.(d) <- fn rt (Array.map (fun gtr -> gtr r) gs))
      | Bytecode _ ->
        Some (fun r -> r.(d) <- call m (Array.map (fun gtr -> gtr r) gs)))
    | CallVirtual (name, _) ->
      let gs = getters n.args in
      let d = slot_of n.id in
      let call = hooks.call_virtual in
      Some (fun r -> r.(d) <- call name (Array.map (fun gtr -> gtr r) gs))
    | CallClosure _ ->
      let gs = getters n.args in
      let d = slot_of n.id in
      let call = hooks.call_closure in
      Some
        (fun r ->
          let vs = Array.map (fun gtr -> gtr r) gs in
          r.(d) <- call vs.(0) (Array.sub vs 1 (Array.length vs - 1)))
    | Ext op ->
      let gs = getters n.args in
      let d = slot_of n.id in
      let fn = compile_ext hooks op gs in
      Some (fun r -> r.(d) <- fn r)
  in
  (* dense block indices *)
  let bindex = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace bindex b.bid i) blocks;
  let idx_of bid = Hashtbl.find bindex bid in
  let nregs = !next_slot in
  let ret_slot = nregs in
  let compile_jump (t : target) : env -> unit =
    let dsts =
      Array.of_list (List.map (fun (s, _) -> slot_of s) (block g t.tblock).params)
    in
    let srcs = Array.map getter t.targs in
    if Array.length dsts <> Array.length srcs then
      raise
        (Compile_unsupported
           (Printf.sprintf "jump arity mismatch into block %d" t.tblock));
    (* check for overlap requiring a parallel copy *)
    let dst_set = Array.to_list dsts in
    let conflict =
      Array.exists
        (fun s ->
          match (node g s).op with
          | Konst _ -> false
          | _ -> List.mem (slot_of s) dst_set)
        t.targs
    in
    if not conflict then fun r ->
      for i = 0 to Array.length dsts - 1 do
        r.(dsts.(i)) <- srcs.(i) r
      done
    else fun r ->
      let tmp = Array.map (fun s -> s r) srcs in
      for i = 0 to Array.length dsts - 1 do
        r.(dsts.(i)) <- tmp.(i)
      done
  in
  let compile_exit se : env -> value =
    let syms =
      List.concat_map
        (fun fd -> Array.to_list fd.fd_locals @ Array.to_list fd.fd_stack)
        se.se_frames
    in
    let gs = Array.of_list (List.map getter syms) in
    let handler = hooks.on_exit in
    fun r -> handler se (Array.map (fun gtr -> gtr r) gs)
  in
  (* Forward control transfers are threaded: the terminator calls the
     successor block's closure directly instead of bouncing through the
     trampoline loop.  Backward (loop) edges still return an index to the
     trampoline, so recursion depth is bounded by the block count.  [-1]
     means "function done" and unwinds any nested forward calls. *)
  let nblocks = List.length blocks in
  let compiled : (env -> int) array = Array.make nblocks (fun _ -> -1) in
  let compile_term (b : block) (my_idx : int) : env -> int =
    let arm (t : target) : env -> int =
      let cp = compile_jump t in
      let nxt = idx_of t.tblock in
      if nxt > my_idx then fun r ->
        cp r;
        compiled.(nxt) r
      else fun r ->
        cp r;
        nxt
    in
    match b.term with
    | Ir.Ret s ->
      let v = getter s in
      fun r ->
        r.(ret_slot) <- v r;
        -1
    | Jump t -> arm t
    | Br (c, t1, t2) ->
      let cond =
        match Hashtbl.find_opt fusion.conds b.bid with
        | Some fc -> fused_cond fc
        | None ->
          let cv = getter c in
          fun r -> Vm.Value.truthy (cv r)
      in
      let a1 = arm t1 and a2 = arm t2 in
      fun r -> if cond r then a1 r else a2 r
    | Exit se ->
      let run = compile_exit se in
      fun r ->
        r.(ret_slot) <- run r;
        -1
    | Unreachable msg -> fun _ -> vm_error "reached unreachable block: %s" msg
  in
  List.iteri
    (fun i b ->
      let steps =
        body_in_order b |> List.filter_map compile_node |> Array.of_list
      in
      let term = compile_term b i in
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
  if trace && !Irtrace.on then
    Snapshot.take g (Phases.Schedule "closure") ~exclude:(Hashtbl.mem fused)
      ~meta:
        [ ("blocks", string_of_int nblocks); ("regs", string_of_int nregs) ];
  let entry_idx = idx_of g.entry in
  let nparams = g.nparams in
  (* Register arrays are pooled: SSA dominance guarantees every slot read on
     a path was written earlier on the same path, so stale values from a
     previous invocation are never observed.  Reentrant (recursive) calls
     simply allocate a fresh array. *)
  let pool : value array option Atomic.t = Atomic.make None in
  fun args ->
    if Array.length args <> nparams then
      vm_error "compiled %s: expected %d args, got %d" g.name nparams
        (Array.length args);
    let r =
      match Atomic.exchange pool None with
      | Some r -> r
      | None -> Array.make (nregs + 1) Null
    in
    Fun.protect
      ~finally:(fun () -> Atomic.set pool (Some r))
      (fun () ->
        Array.blit args 0 r 0 nparams;
        let bid = ref entry_idx in
        while !bid >= 0 do
          bid := compiled.(!bid) r
        done;
        r.(ret_slot))

(* Span-instrumented entry point: attributes backend compile time in traces
   (a no-op single branch when no observability sink is attached). *)
let compile ?hooks (g : graph) =
  let hooks = match hooks with Some h -> h | None -> failwith "hooks required" in
  Obs.span ~cat:Phases.cat_jit (Phases.span_backend "closure") (fun () ->
      lower ~trace:true hooks g)

(* The same code, recording no IR snapshot and no missed optimization: the
   typed backend runs it for calls whose arguments fail its entry check. *)
let compile_untraced ~hooks (g : graph) =
  Obs.span ~cat:Phases.cat_jit (Phases.span_backend "closure") (fun () ->
      lower ~trace:false hooks g)
