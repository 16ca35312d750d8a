(* Lancet's core: the staged bytecode interpreter (paper Sec. 2).

   The structure deliberately mirrors the interpreter of Fig. 6 after the
   Fig. 7 staging delta: symbolic frames hold [rep]s (IR symbols) in place of
   runtime values — the operand stack, dispatch logic and method resolution
   all run at compile time; only primitive and heap operations residualize.
   On top of that sits the abstract interpretation of Sec. 2.2: every rep has
   an [Absval.t]; smart constructors consult [evalA] to fold; objects
   allocated in compiled code stay virtual (partial escape analysis) until
   they escape; control-flow joins take lubs and loops iterate to a fixpoint.
   JIT macros (Sec. 2.3) intercept calls during this symbolic execution. *)

open Vm.Types
module Ir = Lms.Ir
module B = Lms.Builder

type rep = Ir.sym

module IntMap = Map.Make (Int)

module PairMap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* ------------------------------------------------------------------ *)
(* Abstract heap                                                       *)

type vobj = { vcls : cls; vfields : rep array }

type heap = {
  virtuals : vobj IntMap.t; (* virtual object id -> abstract fields *)
  mat : rep IntMap.t; (* virtual object id -> materialized pointer *)
  over : rep PairMap.t; (* (static oid, field idx) -> forwarded value *)
}

let empty_heap = { virtuals = IntMap.empty; mat = IntMap.empty; over = PairMap.empty }

(* ------------------------------------------------------------------ *)
(* Symbolic frames (the staged InterpreterFrame)                       *)

type back_edge_info = {
  be_header_block : Ir.block;
  be_param_slots : int list; (* canonical slot ids that are block params *)
  mutable be_snaps : snap list;
  mutable be_entered : bool; (* initial arrival consumed; later ones are back edges *)
}

and snap = {
  s_heap : heap;
  s_locals : rep array;
  s_stack : rep array;
  s_sp : int;
  s_block : Ir.block option; (* open block at capture time *)
}

type sframe = {
  sf_meth : meth;
  mutable sf_pc : int;
  sf_locals : rep array;
  sf_stack : rep array;
  mutable sf_sp : int;
  sf_parent : sframe option;
  sf_returns : (rep * snap) list ref;
  sf_active_loops : (int, back_edge_info) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Inline policy and dynamic-scope directives (Sec. 3.1)               *)

type inline_mode = Inline_always | Inline_nonrec | Inline_never

type scope_hook = {
  sh_pattern : string; (* matched as substring of "Cls.name" *)
  sh_directive : string; (* e.g. "inline_never", "unroll_top_level" *)
  sh_at : bool; (* atScope (true) vs inScope (false) *)
}

(* ------------------------------------------------------------------ *)
(* Compilation context                                                 *)

type options = {
  name : string;
  max_inline_depth : int;
  max_unroll : int;
  max_fixpoint_rounds : int;
  feedback : bool;
    (* consume interpreter inline-cache profiles: compile monomorphic
       virtual sites to guarded direct calls (deopt on guard failure) and
       polymorphic sites to short dispatch chains *)
}

let default_options =
  { name = "lancet"; max_inline_depth = 400; max_unroll = 10_000;
    max_fixpoint_rounds = 20; feedback = false }

type macro_result = Val of rep | Diverge

type ctx = {
  rt : runtime;
  bld : B.t;
  opts : options;
  avals : (rep, Absval.t) Hashtbl.t;
  taints : (rep, unit) Hashtbl.t;
  mutable heap : heap;
  mutable frame : sframe;
  mutable next_vid : int;
  mutable inline_stack : int list; (* method ids currently being inlined *)
  mutable policy : inline_mode list; (* directive stack, innermost first *)
  mutable hooks : scope_hook list;
  mutable unroll_flag : bool; (* set by unrollTopLevel, read by ntimes *)
  mutable alloc_watch : string list ref list; (* checkNoAlloc collectors *)
  mutable leak_watch : string list ref list; (* taint-leak collectors *)
  mutable evalm_memo : (int, value) Hashtbl.t; (* vid -> materialized value *)
  mutable resets : reset_scope list; (* active resetR delimiters, innermost first *)
  mutable devirt_deps : string list;
    (* virtual-call names the graph under construction speculates on
       (IC feedback or CHA); registered with the runtime at install so
       [Classfile.add_method] can invalidate the compiled code *)
}

and macro = ctx -> rep array -> macro_result

(* a resetR delimiter: shifts within abort to it (paper Sec. 3.2) *)
and reset_scope = {
  rs_caller : sframe; (* the frame in which reset was invoked *)
  rs_aborts : (rep * snap) list ref; (* values delivered by shift's body *)
}

(* Macros live in their runtime's table (the paper's Lancet.install), so a
   dropped runtime takes its macros with it. *)
type Vm.Types.macro += Macro of macro

let register_macro rt ~cls ~name fn =
  Hashtbl.replace rt.macros (cls ^ "." ^ name) (Macro fn)

(* ------------------------------------------------------------------ *)
(* evalA / constants / taint                                           *)

let evalA ctx r =
  match Hashtbl.find_opt ctx.avals r with Some a -> a | None -> Absval.Unknown

let set_aval ctx r (a : Absval.t) =
  match a with Absval.Unknown -> () | _ -> Hashtbl.replace ctx.avals r a

let tainted ctx r = Hashtbl.mem ctx.taints r

let taint ctx r = Hashtbl.replace ctx.taints r ()

let lift_const ctx (v : value) : rep =
  let r = B.const ctx.bld v in
  set_aval ctx r (Absval.const_of_value v);
  r

let propagate_taint ctx args r =
  if Array.exists (tainted ctx) args then taint ctx r

(* low-level reflect: emit an IR node, propagating taint *)
let emit ctx op args ty =
  let r = B.emit ctx.bld op args ty in
  propagate_taint ctx args r;
  r

(* ------------------------------------------------------------------ *)
(* Virtual objects: resolution, escape, materialization                *)

let fresh_vid ctx =
  let v = ctx.next_vid in
  ctx.next_vid <- v + 1;
  v

(* If [r] denotes a virtual object that has been materialized, use the
   materialized pointer instead. *)
let resolve ctx r =
  match evalA ctx r with
  | Absval.Partial (vid, _) -> (
    match IntMap.find_opt vid ctx.heap.mat with
    | Some m -> m
    | None ->
      if not (IntMap.mem vid ctx.heap.virtuals) then
        Errors.compile_error
          "internal: dangling reference to virtual object v%d" vid;
      r)
  | _ -> r

let check_alloc_watch ctx what =
  List.iter (fun coll -> coll := what :: !coll) ctx.alloc_watch

(* Materialize virtual object [vid]: emit the allocation and field stores
   that were elided so far (the escape path of partial escape analysis). *)
let rec materialize_vid ctx vid =
  match IntMap.find_opt vid ctx.heap.mat with
  | Some m -> m
  | None -> (
    match IntMap.find_opt vid ctx.heap.virtuals with
    | None -> Errors.compile_error "internal: unknown virtual object v%d" vid
    | Some vo ->
      check_alloc_watch ctx
        (Printf.sprintf "allocation of %s escapes" vo.vcls.cname);
      let m = emit ctx (Ir.NewObj vo.vcls) [||] Ir.Tobj in
      set_aval ctx m (Absval.Known vo.vcls);
      (* record first: cyclic structures terminate *)
      ctx.heap <- { ctx.heap with mat = IntMap.add vid m ctx.heap.mat };
      Array.iteri
        (fun i fr ->
          let fr = resolve_materialized ctx fr in
          ignore (emit ctx (Ir.Putfield vo.vcls.cfields.(i)) [| m; fr |] Ir.Tunit))
        vo.vfields;
      m)

(* resolve + force materialization when the rep is still virtual *)
and resolve_materialized ctx r =
  match evalA ctx r with
  | Absval.Partial (vid, _) -> (
    match IntMap.find_opt vid ctx.heap.mat with
    | Some m -> m
    | None ->
      if IntMap.mem vid ctx.heap.virtuals then materialize_vid ctx vid
      else
        Errors.compile_error
          "internal: dangling reference to virtual object v%d" vid)
  | _ -> r

(* vids reachable from the current frame chain (for canonicalization) *)
let live_vids ctx =
  let seen = Hashtbl.create 16 in
  let rec mark_rep r =
    match evalA ctx r with
    | Absval.Partial (vid, _) when not (IntMap.mem vid ctx.heap.mat) -> (
      if not (Hashtbl.mem seen vid) then begin
        Hashtbl.replace seen vid ();
        match IntMap.find_opt vid ctx.heap.virtuals with
        | Some vo -> Array.iter mark_rep vo.vfields
        | None -> ()
      end)
    | _ -> ()
  in
  let rec walk_frame f =
    Array.iter mark_rep f.sf_locals;
    for i = 0 to f.sf_sp - 1 do
      mark_rep f.sf_stack.(i)
    done;
    match f.sf_parent with Some p -> walk_frame p | None -> ()
  in
  walk_frame ctx.frame;
  seen

(* Materialize every live virtual and drop load-forwarding facts: the
   canonical state used at loop headers and deoptimization points. *)
let canonicalize ctx =
  let live = live_vids ctx in
  Hashtbl.iter (fun vid () -> ignore (materialize_vid ctx vid)) live;
  ctx.heap <- { ctx.heap with over = PairMap.empty }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let save ctx : snap =
  let f = ctx.frame in
  {
    s_heap = ctx.heap;
    s_locals = Array.copy f.sf_locals;
    s_stack = Array.copy f.sf_stack;
    s_sp = f.sf_sp;
    s_block = (if B.in_dead_code ctx.bld then None else Some (B.current ctx.bld));
  }

let restore ctx (s : snap) =
  let f = ctx.frame in
  Array.blit s.s_locals 0 f.sf_locals 0 (Array.length s.s_locals);
  Array.blit s.s_stack 0 f.sf_stack 0 (Array.length s.s_stack);
  f.sf_sp <- s.s_sp;
  ctx.heap <- s.s_heap;
  match s.s_block with
  | Some b -> B.switch_to ctx.bld b
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Symbolic operand stack                                              *)

let push ctx r =
  let f = ctx.frame in
  if f.sf_sp >= Array.length f.sf_stack then
    Errors.compile_error_at
      ~loc:(Vm.Runtime.meth_loc f.sf_meth f.sf_pc)
      "symbolic stack overflow in %s" f.sf_meth.mname;
  f.sf_stack.(f.sf_sp) <- r;
  f.sf_sp <- f.sf_sp + 1

let pop ctx =
  let f = ctx.frame in
  f.sf_sp <- f.sf_sp - 1;
  f.sf_stack.(f.sf_sp)

let pop_args ctx n =
  let a = Array.make n 0 in
  for i = n - 1 downto 0 do
    a.(i) <- pop ctx
  done;
  a

(* ------------------------------------------------------------------ *)
(* Smart constructors (constant folding through evalA, Sec. 2.2)       *)

let as_const ctx r =
  match evalA ctx r with Absval.Const v -> Some v | _ -> None

let iop_s ctx op x y =
  match as_const ctx x, as_const ctx y with
  | Some (Int a), Some (Int b) ->
    lift_const ctx (Int (Vm.Value.iop_apply op a b))
  | _ ->
    let r = emit ctx (Ir.Iop op) [| x; y |] Ir.Tint in
    r

let fop_s ctx op x y =
  match as_const ctx x, as_const ctx y with
  | Some (Float a), Some (Float b) ->
    lift_const ctx (Float (Vm.Value.fop_apply op a b))
  | _ -> emit ctx (Ir.Fop op) [| x; y |] Ir.Tfloat

let icmp_s ctx c x y =
  match as_const ctx x, as_const ctx y with
  | Some (Int a), Some (Int b) ->
    lift_const ctx (Vm.Value.of_bool (Vm.Value.cond_apply c a b))
  | _ -> emit ctx (Ir.Icmp c) [| x; y |] Ir.Tbool

let fcmp_s ctx c x y =
  match as_const ctx x, as_const ctx y with
  | Some (Float a), Some (Float b) ->
    lift_const ctx (Vm.Value.of_bool (Vm.Value.fcond_apply c a b))
  | _ -> emit ctx (Ir.Fcmp c) [| x; y |] Ir.Tbool

let isnull_s ctx x =
  match evalA ctx x with
  | Absval.Const Null -> lift_const ctx (Int 1)
  | Absval.Const _ | Absval.Static _ | Absval.StaticArr _ | Absval.Partial _
  | Absval.Known _ ->
    lift_const ctx (Int 0)
  | Absval.Unknown -> emit ctx Ir.IsNull [| x |] Ir.Tbool

(* getfield: short-cut final fields of static objects, forwarded stores,
   and fields of virtual objects (paper Sec. 2.2) *)
let getfield_s ctx (fld : field) base =
  match evalA ctx base with
  | Absval.Partial (vid, _) when not (IntMap.mem vid ctx.heap.mat) -> (
    match IntMap.find_opt vid ctx.heap.virtuals with
    | Some vo -> vo.vfields.(fld.fidx)
    | None -> Errors.compile_error "internal: virtual v%d lost" vid)
  | Absval.Static o when fld.ffinal ->
    lift_const ctx (Vm.Runtime.get_field o fld)
  | Absval.Static o -> (
    match PairMap.find_opt (o.oid, fld.fidx) ctx.heap.over with
    | Some r -> r
    | None ->
      let base = resolve ctx base in
      let r = emit ctx (Ir.Getfield fld) [| base |] Ir.Tany in
      ctx.heap <-
        { ctx.heap with over = PairMap.add (o.oid, fld.fidx) r ctx.heap.over };
      r)
  | _ ->
    let base = resolve ctx base in
    emit ctx (Ir.Getfield fld) [| base |] Ir.Tany

let putfield_s ctx (fld : field) base v =
  match evalA ctx base with
  | Absval.Partial (vid, _) when not (IntMap.mem vid ctx.heap.mat) ->
    (* purely virtual write: no code, update the abstract fields *)
    let vo = IntMap.find vid ctx.heap.virtuals in
    let vfields = Array.copy vo.vfields in
    vfields.(fld.fidx) <- v;
    ctx.heap <-
      {
        ctx.heap with
        virtuals = IntMap.add vid { vo with vfields } ctx.heap.virtuals;
      }
  | Absval.Static o ->
    let v = resolve_materialized ctx v in
    ignore (emit ctx (Ir.Putfield fld) [| resolve ctx base; v |] Ir.Tunit);
    ctx.heap <-
      { ctx.heap with over = PairMap.add (o.oid, fld.fidx) v ctx.heap.over }
  | _ ->
    (* unknown receiver may alias any static object: drop forwarded loads *)
    let v = resolve_materialized ctx v in
    ignore (emit ctx (Ir.Putfield fld) [| resolve ctx base; v |] Ir.Tunit);
    ctx.heap <- { ctx.heap with over = PairMap.empty }

let alen_s ctx a =
  match evalA ctx a with
  | Absval.StaticArr (Arr x) -> lift_const ctx (Int (Array.length x))
  | Absval.StaticArr (Farr x) -> lift_const ctx (Int (Array.length x))
  | _ -> emit ctx Ir.Alen [| resolve ctx a |] Ir.Tint

(* residual effectful op: clears forwarded loads *)
let clobber ctx = ctx.heap <- { ctx.heap with over = PairMap.empty }

(* ------------------------------------------------------------------ *)
(* evalM: materialize an abstract value back into a runtime value       *)
(* (compile-time execution, Sec. 2.3)                                   *)

let rec evalM ctx r : value =
  match evalA ctx r with
  | Absval.Const v -> v
  | Absval.Static o -> Obj o
  | Absval.StaticArr v -> v
  | Absval.Partial (vid, vcls) -> (
    if IntMap.mem vid ctx.heap.mat then
      Errors.compile_error
        "evalM: virtual %s was materialized into dynamic code" vcls.cname
    else
      match Hashtbl.find_opt ctx.evalm_memo vid with
      | Some v -> v
      | None -> (
        match IntMap.find_opt vid ctx.heap.virtuals with
        | None -> Errors.compile_error "evalM: lost virtual object"
        | Some vo ->
          let o = Vm.Runtime.alloc ctx.rt vo.vcls in
          Hashtbl.replace ctx.evalm_memo vid (Obj o);
          Array.iteri (fun i fr -> o.ofields.(i) <- evalM ctx fr) vo.vfields;
          (* the object now exists for real: treat it as static *)
          set_aval ctx r (Absval.Static o);
          Obj o))
  | Absval.Known c ->
    Errors.compile_error "evalM: value of class %s is not compile-time static"
      c.cname
  | Absval.Unknown ->
    Errors.compile_error "evalM: dynamic value cannot be evaluated at compile time"

(* ------------------------------------------------------------------ *)
(* Pure natives foldable at compile time                                *)

let pure_native name =
  let prefixes = [ "Str."; "Math." ] in
  List.exists (fun p -> String.length name > String.length p
                        && String.sub name 0 (String.length p) = p) prefixes
  || name = "Sys.veq"

let try_fold_native ctx (m : meth) (args : rep array) : rep option =
  match m.mcode with
  | Native (nname, fn) when pure_native nname ->
    let vals = Array.map (fun r -> as_const ctx r) args in
    if Array.for_all Option.is_some vals then begin
      match fn ctx.rt (Array.map Option.get vals) with
      | v -> Some (lift_const ctx v)
      | exception _ -> None (* fold failure: leave residual *)
    end
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Deoptimization metadata                                             *)

(* Build the frame descriptors for a side exit at the current point.
   [extra_innermost] reps are pushed on the innermost stack snapshot (e.g.
   the result a macro's call would have produced). *)
let frame_descs ?stop_before ctx ~(extra_innermost : rep list) :
    Ir.frame_desc list =
  canonicalize ctx;
  let stops p =
    match stop_before with Some s -> p == s | None -> false
  in
  let rec go f ~innermost =
    let stack = Array.sub f.sf_stack 0 f.sf_sp in
    let stack =
      if innermost then Array.append stack (Array.of_list extra_innermost)
      else stack
    in
    let fd =
      {
        Ir.fd_meth = f.sf_meth;
        fd_pc = f.sf_pc;
        fd_locals = Array.map (resolve ctx) (Array.copy f.sf_locals);
        fd_stack = Array.map (resolve ctx) stack;
      }
    in
    fd
    ::
    (match f.sf_parent with
    | Some p when not (stops p) -> go p ~innermost:false
    | Some _ | None -> [])
  in
  go ctx.frame ~innermost:true

let side_exit ctx ~kind ~tag ~extra =
  if ctx.alloc_watch <> [] then
    check_alloc_watch ctx (Printf.sprintf "deoptimization point (%s)" tag);
  if !Obs.enabled then begin
    (* report the guard at plant time: `lancet why` can then show which
       speculations a compile emitted even when none of them ever fires *)
    let f = ctx.frame in
    let m = f.sf_meth in
    Obs.emit
      (Obs.Guard_plant
         {
           meth = Vm.Runtime.meth_label m;
           mid = m.mid;
           tag;
           pc = f.sf_pc;
           line = Vm.Runtime.line_at m f.sf_pc;
         })
  end;
  let frames = frame_descs ctx ~extra_innermost:extra in
  B.terminate ctx.bld (Ir.Exit { se_kind = kind; se_frames = frames; se_tag = tag })

(* ------------------------------------------------------------------ *)
(* Control-flow merging                                                *)

exception Merge_bug of string

(* vids reachable from [r] that are virtual and unmaterialized in [heap] *)
let rec reachable_virtuals ctx heap r acc =
  match evalA ctx r with
  | Absval.Partial (vid, _)
    when IntMap.mem vid heap.virtuals && not (IntMap.mem vid heap.mat) ->
    if not (List.mem vid !acc) then begin
      acc := vid :: !acc;
      let vo = IntMap.find vid heap.virtuals in
      Array.iter (fun fr -> reachable_virtuals ctx heap fr acc) vo.vfields
    end
  | _ -> ()

(* Merge [items] (arrival snapshot + value rep) into a fresh join block.
   If [with_slots], the current frame's locals and stack participate;
   otherwise only the heap and the value merge (return joins).  Returns the
   merged value rep; on return the context sits in the join block. *)
(* restore only the heap and the emission point (used when the snapshot's
   frame is not the current frame, e.g. shift aborts and return joins) *)
let restore_flow ctx (s : snap) =
  ctx.heap <- s.s_heap;
  match s.s_block with
  | Some b -> B.switch_to ctx.bld b
  | None -> ()

let merge_flows ctx ~with_slots (items : (snap * rep) list) : rep =
  let restore_side = if with_slots then restore else restore_flow in
  match items with
  | [] -> Errors.compile_error "internal: merge of zero flows"
  | [ (s, v) ] ->
    restore_side ctx s;
    v
  | (s0, _) :: rest ->
    let f = ctx.frame in
    if with_slots then
      List.iter
        (fun (s, _) ->
          if s.s_sp <> s0.s_sp then
            raise (Merge_bug "operand stack depth mismatch at join"))
        rest;
    let sides = Array.of_list items in
    let nsides = Array.length sides in
    let heap_of k = (fst sides.(k)).s_heap in
    (* roots: optional current-frame slots, parent-frame slots, the values *)
    let nloc = if with_slots then Array.length f.sf_locals else 0 in
    let nstk = if with_slots then s0.s_sp else 0 in
    let root_reps k =
      let s, v = sides.(k) in
      let parents = ref [] in
      let rec walk fo =
        match fo with
        | None -> ()
        | Some (p : sframe) ->
          Array.iter (fun r -> parents := r :: !parents) p.sf_locals;
          for i = 0 to p.sf_sp - 1 do
            parents := p.sf_stack.(i) :: !parents
          done;
          walk p.sf_parent
      in
      (* without slot merging, the current frame is still a live root (its
         reps are identical across sides but keep virtuals alive) *)
      walk (if with_slots then f.sf_parent else Some f);
      Array.concat
        [
          (if with_slots then Array.sub s.s_locals 0 nloc else [||]);
          (if with_slots then Array.sub s.s_stack 0 nstk else [||]);
          Array.of_list !parents;
          [| v |];
        ]
    in
    let roots = Array.init nsides root_reps in
    let nroots = Array.length roots.(0) in
    (* common virtuals: virtual and unmaterialized on every side *)
    let keep : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let candidate vid =
      Array.to_list (Array.init nsides heap_of)
      |> List.for_all (fun h ->
             IntMap.mem vid h.virtuals && not (IntMap.mem vid h.mat))
    in
    for k = 0 to nsides - 1 do
      let acc = ref [] in
      Array.iter (fun r -> reachable_virtuals ctx (heap_of k) r acc) roots.(k);
      List.iter
        (fun vid -> if candidate vid then Hashtbl.replace keep vid ())
        !acc
    done;
    (* constraint fixpoint: demote keeps that must be materialized *)
    let changed = ref true in
    let rec demote vid =
      if Hashtbl.mem keep vid then begin
        Hashtbl.remove keep vid;
        changed := true;
        for k = 0 to nsides - 1 do
          let h = heap_of k in
          match IntMap.find_opt vid h.virtuals with
          | Some vo ->
            Array.iter
              (fun fr ->
                let acc = ref [] in
                reachable_virtuals ctx h fr acc;
                List.iter (fun w -> if Hashtbl.mem keep w then demote w) !acc)
              vo.vfields
          | None -> ()
        done
      end
    in
    let root_is_param i =
      let r0 = roots.(0).(i) in
      not (Array.for_all (fun rs -> rs.(i) = r0) roots)
    in
    let field_is_param vid idx =
      let field_rep k =
        match IntMap.find_opt vid (heap_of k).virtuals with
        | Some vo -> vo.vfields.(idx)
        | None -> raise (Merge_bug "keep vid missing on a side")
      in
      let r0 = field_rep 0 in
      let same = ref true in
      for k = 1 to nsides - 1 do
        if field_rep k <> r0 then same := false
      done;
      if not !same then true
      else
        match evalA ctx r0 with
        | Absval.Partial (w, _) when not (Hashtbl.mem keep w) -> true
        | _ -> false
    in
    while !changed do
      changed := false;
      (* param roots force their per-side reachable virtuals to materialize *)
      for i = 0 to nroots - 1 do
        if root_is_param i then
          for k = 0 to nsides - 1 do
            let acc = ref [] in
            reachable_virtuals ctx (heap_of k) roots.(k).(i) acc;
            List.iter (fun w -> if Hashtbl.mem keep w then demote w) !acc
          done
      done;
      (* param fields of kept virtuals likewise *)
      let keys = Hashtbl.fold (fun vid () l -> vid :: l) keep [] in
      List.iter
        (fun vid ->
          if Hashtbl.mem keep vid then begin
            let nf =
              match IntMap.find_opt vid (heap_of 0).virtuals with
              | Some vo -> Array.length vo.vfields
              | None -> 0
            in
            for idx = 0 to nf - 1 do
              if field_is_param vid idx then
                for k = 0 to nsides - 1 do
                  match IntMap.find_opt vid (heap_of k).virtuals with
                  | Some vo ->
                    let acc = ref [] in
                    reachable_virtuals ctx (heap_of k) vo.vfields.(idx) acc;
                    List.iter (fun w -> if Hashtbl.mem keep w then demote w) !acc
                  | None -> ()
                done
            done
          end)
        keys
    done;
    (* Virtual objects referenced by agreeing roots but not kept virtual
       must be materialized on every side; their merged pointer is shared
       if all sides agree, otherwise a join parameter. *)
    let mat_vids =
      let tbl = Hashtbl.create 8 in
      for i = 0 to nroots - 1 do
        if not (root_is_param i) then begin
          match evalA ctx roots.(0).(i) with
          | Absval.Partial (vid, _)
            when (not (Hashtbl.mem keep vid))
                 && Array.exists
                      (fun k ->
                        let h = heap_of k in
                        IntMap.mem vid h.virtuals || IntMap.mem vid h.mat)
                      (Array.init nsides Fun.id) ->
            if not (Hashtbl.mem tbl vid) then
              Hashtbl.replace tbl vid roots.(0).(i)
          | _ -> ()
        end
      done;
      Hashtbl.fold (fun vid r l -> (vid, r) :: l) tbl []
      |> List.sort compare
    in
    (* the join block and its parameter layout *)
    let jb = B.new_block ctx.bld in
    let g = B.graph ctx.bld in
    let kept_vids = Hashtbl.fold (fun v () l -> v :: l) keep [] |> List.sort compare in
    let param_roots =
      List.filter root_is_param (List.init nroots Fun.id)
    in
    let param_fields =
      List.concat_map
        (fun vid ->
          let nf =
            match IntMap.find_opt vid (heap_of 0).virtuals with
            | Some vo -> Array.length vo.vfields
            | None -> 0
          in
          List.filter_map
            (fun idx -> if field_is_param vid idx then Some (vid, idx) else None)
            (List.init nf Fun.id))
        kept_vids
    in
    let ty_of r = (Ir.node g r).Ir.ty in
    let root_params =
      List.map
        (fun i ->
          let ty =
            Array.fold_left
              (fun acc rs -> if acc = ty_of rs.(i) then acc else Ir.Tany)
              (ty_of roots.(0).(i))
              roots
          in
          (i, Ir.add_block_param g jb ty))
        param_roots
    in
    let field_params =
      List.map
        (fun (vid, idx) -> ((vid, idx), Ir.add_block_param g jb Ir.Tany))
        param_fields
    in
    let mat_params =
      List.map
        (fun (vid, _) -> (vid, Ir.add_block_param g jb Ir.Tany))
        mat_vids
    in
    (* per side: emit materializations + the jump *)
    let side_mats = Array.make nsides [] in
    let arg_avals = Hashtbl.create 16 in
    let note_aval p a =
      let cur =
        match Hashtbl.find_opt arg_avals p with Some x -> x | None -> a
      in
      Hashtbl.replace arg_avals p (if cur == a then a else Absval.lub cur a)
    in
    Array.iteri
      (fun k (s, _) ->
        restore_side ctx s;
        let args = ref [] in
        List.iter
          (fun (i, p) ->
            let a = resolve_materialized ctx roots.(k).(i) in
            note_aval p (evalA ctx a);
            if tainted ctx roots.(k).(i) then taint ctx p;
            args := a :: !args)
          root_params;
        List.iter
          (fun ((vid, idx), p) ->
            let fr =
              match IntMap.find_opt vid ctx.heap.virtuals with
              | Some vo -> vo.vfields.(idx)
              | None -> raise (Merge_bug "keep vid lost during emission")
            in
            let a = resolve_materialized ctx fr in
            note_aval p (evalA ctx a);
            if tainted ctx fr then taint ctx p;
            args := a :: !args)
          field_params;
        (* force materialization of shared-but-unkept virtuals on this side *)
        side_mats.(k) <-
          List.map
            (fun (vid, r) -> (vid, resolve_materialized ctx r))
            mat_vids;
        List.iter
          (fun (_, m) -> args := m :: !args)
          side_mats.(k);
        B.terminate ctx.bld
          (Ir.Jump { tblock = jb.bid; targs = Array.of_list (List.rev !args) }))
      sides;
    List.iter (fun (_, p) -> set_aval ctx p (Hashtbl.find arg_avals p)) root_params;
    List.iter (fun (_, p) -> set_aval ctx p (Hashtbl.find arg_avals p)) field_params;
    List.iter
      (fun (vid, p) ->
        (* the pointer param denotes the materialized object *)
        match IntMap.find_opt vid (heap_of 0).virtuals with
        | Some vo -> set_aval ctx p (Absval.Known vo.vcls)
        | None -> ())
      mat_params;
    (* merged state *)
    let merged_root i =
      match List.assoc_opt i root_params with
      | Some p -> p
      | None -> roots.(0).(i)
    in
    let virtuals =
      List.fold_left
        (fun acc vid ->
          let vo0 = IntMap.find vid (heap_of 0).virtuals in
          let vfields =
            Array.mapi
              (fun idx fr ->
                match List.assoc_opt (vid, idx) field_params with
                | Some p -> p
                | None -> fr)
              vo0.vfields
          in
          IntMap.add vid { vo0 with vfields } acc)
        IntMap.empty kept_vids
    in
    let over =
      (* keep facts equal on every side *)
      PairMap.filter
        (fun key r ->
          Array.for_all
            (fun k ->
              match PairMap.find_opt key (heap_of k).over with
              | Some r' -> r' = r
              | None -> false)
            (Array.init nsides Fun.id))
        (heap_of 0).over
    in
    let mat =
      List.fold_left
        (fun acc (vid, p) ->
          (* if every side produced the same pointer, keep it; otherwise the
             join parameter is the merged pointer *)
          let m0 = List.assoc vid side_mats.(0) in
          let all_same =
            Array.for_all (fun k -> List.assoc vid side_mats.(k) = m0)
              (Array.init nsides Fun.id)
          in
          IntMap.add vid (if all_same then m0 else p) acc)
        IntMap.empty mat_params
    in
    ctx.heap <- { virtuals; mat; over };
    if with_slots then begin
      for i = 0 to nloc - 1 do
        f.sf_locals.(i) <- merged_root i
      done;
      for i = 0 to nstk - 1 do
        f.sf_stack.(i) <- merged_root (nloc + i)
      done;
      f.sf_sp <- s0.s_sp
    end;
    B.switch_to ctx.bld jb;
    merged_root (nroots - 1)

(* ------------------------------------------------------------------ *)
(* The staged execution engine                                          *)

let rec exec_range ctx ~(stop : int -> bool) : [ `Arrived | `Dead ] =
  let f = ctx.frame in
  let code =
    match f.sf_meth.mcode with
    | Bytecode c -> c
    | Native _ -> Errors.compile_error "cannot stage a native method"
  in
  let cfg = Bcfg.of_method ctx.rt f.sf_meth in
  let continue_ = ref true in
  let result = ref `Dead in
  while !continue_ do
    let pc = f.sf_pc in
    if stop pc then begin
      result := `Arrived;
      continue_ := false
    end
    else
      match Hashtbl.find_opt f.sf_active_loops pc with
      | Some info when info.be_entered ->
        (* back edge: canonicalize, jump to the loop header block *)
        record_back_edge ctx info;
        result := `Dead;
        continue_ := false
      | Some info ->
        (* first arrival at the active header: execute it normally *)
        info.be_entered <- true;
        f.sf_pc <- pc + 1;
        (match exec_instr ctx ~stop ~cfg ~pc code.(pc) with
        | `Ok -> ()
        | `Dead ->
          result := `Dead;
          continue_ := false
        | `Done r ->
          result := r;
          continue_ := false)
      | None ->
        if Bcfg.is_loop_header cfg pc then begin
          result := run_loop ctx ~stop ~cfg pc;
          continue_ := false
        end
        else begin
          f.sf_pc <- pc + 1;
          match exec_instr ctx ~stop ~cfg ~pc code.(pc) with
          | `Ok -> ()
          | `Dead ->
            result := `Dead;
            continue_ := false
          | `Done r ->
            result := r;
            continue_ := false
        end
  done;
  !result

and record_back_edge ctx info =
  let f = ctx.frame in
  canonicalize ctx;
  let nloc = Array.length f.sf_locals in
  let slot_rep i =
    if i < nloc then resolve ctx f.sf_locals.(i)
    else resolve ctx f.sf_stack.(i - nloc)
  in
  let args = List.map slot_rep info.be_param_slots in
  let snap =
    {
      s_heap = ctx.heap;
      s_locals = Array.init nloc (fun i -> resolve ctx f.sf_locals.(i));
      s_stack = Array.init f.sf_sp (fun i -> resolve ctx f.sf_stack.(i));
      s_sp = f.sf_sp;
      s_block = None;
    }
  in
  info.be_snaps <- snap :: info.be_snaps;
  B.terminate ctx.bld
    (Ir.Jump
       { tblock = info.be_header_block.bid; targs = Array.of_list args })

(* The loop fixpoint of paper Sec. 2.2: optimistically assume everything is
   loop-invariant, execute the body, and widen (turn slots into block
   parameters) until the abstract state at the loop entry converges. *)
and run_loop ctx ~stop ~cfg h : [ `Arrived | `Dead ] =
  ignore cfg;
  let f = ctx.frame in
  canonicalize ctx;
  let entry = save ctx in
  (match entry.s_block with
  | None -> Errors.compile_error "loop entered from dead code"
  | Some _ -> ());
  let nloc = Array.length f.sf_locals in
  let nslots = nloc + entry.s_sp in
  (* resolve now, while the heap still matches the entry snapshot: later the
     executed body may have dropped materialization entries *)
  let entry_resolved =
    Array.init nslots (fun i ->
        if i < nloc then resolve ctx entry.s_locals.(i)
        else resolve ctx entry.s_stack.(i - nloc))
  in
  let entry_rep i = entry_resolved.(i) in
  let param_slots = ref [] in
  let guesses : (int, Absval.t) Hashtbl.t = Hashtbl.create 8 in
  let ty_hints : (int, Ir.ty) Hashtbl.t = Hashtbl.create 8 in
  let slot_ty i =
    let g = B.graph ctx.bld in
    let t0 = (Ir.node g (entry_rep i)).Ir.ty in
    match Hashtbl.find_opt ty_hints i with
    | Some t when t = t0 -> t
    | Some _ -> Ir.Tany
    | None -> t0
  in
  let returns_mark = List.length !(f.sf_returns) in
  let alloc_marks = List.map (fun r -> List.length !r) ctx.alloc_watch in
  let leak_marks = List.map (fun r -> List.length !r) ctx.leak_watch in
  (* drop newest (head) elements until [n] remain: single-pass by count *)
  let truncate_list l n =
    let rec drop l k = if k <= 0 then l else match l with
      | [] -> []
      | _ :: t -> drop t (k - 1)
    in
    drop l (List.length l - n)
  in
  let rollback () =
    f.sf_returns := truncate_list !(f.sf_returns) returns_mark;
    List.iter2 (fun r n -> r := truncate_list !r n) ctx.alloc_watch alloc_marks;
    List.iter2 (fun r n -> r := truncate_list !r n) ctx.leak_watch leak_marks
  in
  let rec attempt round =
    if round > ctx.opts.max_fixpoint_rounds then
      Errors.compile_error_at
        ~loc:(Vm.Runtime.meth_loc f.sf_meth f.sf_pc)
        "loop analysis did not converge in %s" f.sf_meth.mname;
    rollback ();
    restore ctx entry;
    let g = B.graph ctx.bld in
    let hb = B.new_block ctx.bld in
    let slots = List.sort compare !param_slots in
    (* entry jump *)
    let entry_args = List.map entry_rep slots in
    B.terminate ctx.bld
      (Ir.Jump { tblock = hb.bid; targs = Array.of_list entry_args });
    let params =
      List.map
        (fun i ->
          let p = Ir.add_block_param g hb (slot_ty i) in
          (match Hashtbl.find_opt guesses i with
          | Some a -> set_aval ctx p a
          | None -> ());
          (i, p))
        slots
    in
    B.switch_to ctx.bld hb;
    (* header state: params where widened, entry reps elsewhere *)
    for i = 0 to nloc - 1 do
      f.sf_locals.(i) <-
        (match List.assoc_opt i params with Some p -> p | None -> entry_rep i)
    done;
    for i = 0 to entry.s_sp - 1 do
      f.sf_stack.(i) <-
        (match List.assoc_opt (nloc + i) params with
        | Some p -> p
        | None -> entry_rep (nloc + i))
    done;
    f.sf_sp <- entry.s_sp;
    ctx.heap <- { entry.s_heap with over = PairMap.empty };
    let info =
      { be_header_block = hb; be_param_slots = slots; be_snaps = []; be_entered = false }
    in
    Hashtbl.replace f.sf_active_loops h info;
    f.sf_pc <- h;
    let out = exec_range ctx ~stop in
    Hashtbl.remove f.sf_active_loops h;
    (* convergence check against the back-edge states *)
    let changed = ref false in
    let header_rep i =
      match List.assoc_opt i params with Some p -> p | None -> entry_rep i
    in
    let ty_dirty = ref false in
    List.iter
      (fun (bs : snap) ->
        if bs.s_sp <> entry.s_sp then
          Errors.compile_error_at
            ~loc:(Vm.Runtime.meth_loc f.sf_meth f.sf_pc)
            "operand stack depth changes across loop in %s" f.sf_meth.mname;
        for i = 0 to nslots - 1 do
          let br =
            if i < nloc then bs.s_locals.(i) else bs.s_stack.(i - nloc)
          in
          (let bty = (Ir.node (B.graph ctx.bld) br).Ir.ty in
           (* hints only widen, to Tany at most, so the rounds end *)
           match Hashtbl.find_opt ty_hints i with
           | Some t when t = bty || t = Ir.Tany -> ()
           | Some _ ->
             Hashtbl.replace ty_hints i Ir.Tany;
             if List.mem i !param_slots then ty_dirty := true
           | None ->
             Hashtbl.replace ty_hints i bty;
             if List.mem i !param_slots then ty_dirty := true);
          if br <> header_rep i && not (List.mem i !param_slots) then begin
            param_slots := i :: !param_slots;
            Hashtbl.replace guesses i
              (Absval.lub
                 (evalA ctx (entry_rep i))
                 (evalA ctx br));
            changed := true
          end
          else if List.mem i !param_slots then begin
            let old =
              match Hashtbl.find_opt guesses i with
              | Some a -> a
              | None -> evalA ctx (entry_rep i)
            in
            let nw = Absval.lub old (evalA ctx br) in
            if not (Absval.equal old nw) then begin
              Hashtbl.replace guesses i nw;
              changed := true
            end
          end
        done)
      info.be_snaps;
    if !changed || !ty_dirty then attempt (round + 1) else out
  in
  (* initialize guesses for the first attempt (no params: fully optimistic) *)
  attempt 1

(* ------------------------------------------------------------------ *)
(* Instruction execution (the staged executeInstruction of Fig. 6/7)   *)

and exec_instr ctx ~stop ~cfg ~pc (i : instr) :
    [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  let f = ctx.frame in
  (* provenance: nodes staged for this instruction point back to it *)
  B.set_prov ctx.bld
    (Some
       {
         Ir.pv_mid = f.sf_meth.mid;
         pv_pc = pc;
         pv_line = Vm.Runtime.line_at f.sf_meth pc;
       });
  match i with
  | Const v ->
    push ctx (lift_const ctx v);
    `Ok
  | Load n ->
    push ctx f.sf_locals.(n);
    `Ok
  | Store n ->
    f.sf_locals.(n) <- pop ctx;
    `Ok
  | Dup ->
    let r = f.sf_stack.(f.sf_sp - 1) in
    push ctx r;
    `Ok
  | Pop ->
    ignore (pop ctx);
    `Ok
  | Swap ->
    let a = pop ctx and b = pop ctx in
    push ctx a;
    push ctx b;
    `Ok
  | Iop op ->
    let y = pop ctx in
    let x = pop ctx in
    push ctx (iop_s ctx op x y);
    `Ok
  | Ineg ->
    let x = pop ctx in
    (match as_const ctx x with
    | Some (Int a) -> push ctx (lift_const ctx (Int (Vm.Value.wrap32 (-a))))
    | _ -> push ctx (emit ctx Ir.Ineg [| x |] Ir.Tint));
    `Ok
  | Fop op ->
    let y = pop ctx in
    let x = pop ctx in
    push ctx (fop_s ctx op x y);
    `Ok
  | Fneg ->
    let x = pop ctx in
    (match as_const ctx x with
    | Some (Float a) -> push ctx (lift_const ctx (Float (-.a)))
    | _ -> push ctx (emit ctx Ir.Fneg [| x |] Ir.Tfloat));
    `Ok
  | I2f ->
    let x = pop ctx in
    (match as_const ctx x with
    | Some (Int a) -> push ctx (lift_const ctx (Float (float_of_int a)))
    | _ -> push ctx (emit ctx Ir.I2f [| x |] Ir.Tfloat));
    `Ok
  | F2i ->
    let x = pop ctx in
    (match as_const ctx x with
    | Some (Float a) ->
      push ctx (lift_const ctx (Int (Vm.Value.wrap32 (int_of_float a))))
    | _ -> push ctx (emit ctx Ir.F2i [| x |] Ir.Tint));
    `Ok
  | If (c, t) ->
    let y = pop ctx in
    let x = pop ctx in
    do_branch ctx ~stop ~cfg ~pc (icmp_s ctx c x y) ~taken:t
  | Iff (c, t) ->
    let y = pop ctx in
    let x = pop ctx in
    do_branch ctx ~stop ~cfg ~pc (fcmp_s ctx c x y) ~taken:t
  | Ifz (c, t) ->
    let x = pop ctx in
    do_branch ctx ~stop ~cfg ~pc (icmp_s ctx c x (lift_const ctx (Int 0))) ~taken:t
  | Ifnull (when_null, t) ->
    let x = pop ctx in
    let cond = isnull_s ctx x in
    let cond =
      if when_null then cond
      else
        match as_const ctx cond with
        | Some (Int v) -> lift_const ctx (Int (1 - v))
        | _ -> iop_s ctx Xor cond (lift_const ctx (Int 1))
    in
    do_branch ctx ~stop ~cfg ~pc cond ~taken:t
  | Goto t ->
    f.sf_pc <- t;
    `Ok
  | New cls ->
    let vid = fresh_vid ctx in
    let null_rep = lift_const ctx Null in
    ctx.heap <-
      {
        ctx.heap with
        virtuals =
          IntMap.add vid
            { vcls = cls; vfields = Array.make (Array.length cls.cfields) null_rep }
            ctx.heap.virtuals;
      };
    (* phantom symbol: never reaches the backend unless materialized *)
    let r = B.floating ctx.bld (Ir.NewObj cls) Ir.Tobj in
    set_aval ctx r (Absval.Partial (vid, cls));
    push ctx r;
    `Ok
  | Getfield fld ->
    let base = pop ctx in
    push ctx (getfield_s ctx fld base);
    `Ok
  | Putfield fld ->
    let v = pop ctx in
    let base = pop ctx in
    putfield_s ctx fld base v;
    `Ok
  | Getglobal g ->
    push ctx (emit ctx (Ir.Getglobal g) [||] Ir.Tany);
    `Ok
  | Putglobal g ->
    let v = resolve_materialized ctx (pop ctx) in
    ignore (emit ctx (Ir.Putglobal g) [| v |] Ir.Tunit);
    `Ok
  | Newarr ->
    let n = pop ctx in
    check_alloc_watch ctx "array allocation";
    push ctx (emit ctx Ir.Newarr [| n |] Ir.Tarr);
    `Ok
  | Newfarr ->
    let n = pop ctx in
    check_alloc_watch ctx "float array allocation";
    push ctx (emit ctx Ir.Newfarr [| n |] Ir.Tfarr);
    `Ok
  | Aload ->
    let i = pop ctx in
    let a = pop ctx in
    push ctx (emit ctx Ir.Aload [| resolve ctx a; i |] Ir.Tany);
    `Ok
  | Astore ->
    let v = resolve_materialized ctx (pop ctx) in
    let i = pop ctx in
    let a = pop ctx in
    ignore (emit ctx Ir.Astore [| resolve ctx a; i; v |] Ir.Tunit);
    `Ok
  | Faload ->
    let i = pop ctx in
    let a = pop ctx in
    push ctx (emit ctx Ir.Faload [| resolve ctx a; i |] Ir.Tfloat);
    `Ok
  | Fastore ->
    let v = pop ctx in
    let i = pop ctx in
    let a = pop ctx in
    ignore (emit ctx Ir.Fastore [| resolve ctx a; i; v |] Ir.Tunit);
    `Ok
  | Alen ->
    let a = pop ctx in
    push ctx (alen_s ctx a);
    `Ok
  | Invoke inv -> do_invoke ctx inv
  | Ret ->
    let snap = save ctx in
    f.sf_returns := (lift_const ctx Null, snap) :: !(f.sf_returns);
    `Dead
  | Retv ->
    let r = pop ctx in
    let snap = save ctx in
    f.sf_returns := (r, snap) :: !(f.sf_returns);
    `Dead
  | Trap msg ->
    B.terminate ctx.bld (Ir.Unreachable msg);
    `Dead

(* conditional branch: fold when static, otherwise execute both arms up to
   the immediate postdominator and merge *)
and do_branch ctx ~stop ~cfg ~pc cond ~taken :
    [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  let f = ctx.frame in
  let fall = f.sf_pc (* already pc + 1 *) in
  match as_const ctx cond with
  | Some (Int v) ->
    f.sf_pc <- (if v <> 0 then taken else fall);
    `Ok
  | Some _ -> Errors.compile_error "branch on non-integer constant"
  | None ->
    if ctx.leak_watch <> [] && tainted ctx cond then
      List.iter
        (fun coll -> coll := "branch depends on tainted data" :: !coll)
        ctx.leak_watch;
    let j = cfg.Bcfg.ipostdom.(pc) in
    let stop' = if j >= 0 then fun p -> p = j else stop in
    let snap0 = save ctx in
    let bt = B.new_block ctx.bld and bf = B.new_block ctx.bld in
    B.terminate ctx.bld
      (Ir.Br
         ( cond,
           { tblock = bt.bid; targs = [||] },
           { tblock = bf.bid; targs = [||] } ));
    let run_arm block target =
      restore ctx { snap0 with s_block = Some block };
      f.sf_pc <- target;
      match exec_range ctx ~stop:stop' with
      | `Arrived -> Some (save ctx, f.sf_pc)
      | `Dead -> None
    in
    let a1 = run_arm bt taken in
    let a2 = run_arm bf fall in
    let arrivals = List.filter_map Fun.id [ a1; a2 ] in
    (match arrivals with
    | [] -> `Dead
    | (_, arrival_pc) :: _ ->
      let dummy = lift_const ctx Null in
      ignore
        (merge_flows ctx ~with_slots:true
           (List.map (fun (s, _) -> (s, dummy)) arrivals));
      f.sf_pc <- arrival_pc;
      `Ok)

(* ------------------------------------------------------------------ *)
(* Calls: macros, folding, inlining, residualization (Sec. 2.3, 3.1)   *)

and contains_sub s sub = Vm.Strutil.contains s sub

and leak_sinks = [ "Sys.print"; "Sys.println"; "Sys.write_file" ]

and allocating_natives =
  [
    "Str.split"; "Str.concat"; "Str.sub"; "Str.of_int"; "Str.of_float";
    "Str.of_char"; "Sys.read_file"; "Arr.copy";
  ]

and residual_static ctx (m : meth) args : unit =
  let full = m.mowner.cname ^ "." ^ m.mname in
  let args = Array.map (resolve_materialized ctx) args in
  clobber ctx;
  (match m.mcode with
  | Bytecode _ ->
    check_alloc_watch ctx (Printf.sprintf "un-inlined call to %s" full)
  | Native (n, _) ->
    if List.mem n allocating_natives then
      check_alloc_watch ctx (Printf.sprintf "allocating native %s" n);
    if
      ctx.leak_watch <> []
      && List.mem n leak_sinks
      && Array.exists (tainted ctx) args
    then
      List.iter
        (fun coll ->
          coll := Printf.sprintf "tainted data reaches sink %s" n :: !coll)
        ctx.leak_watch);
  push ctx (emit ctx (Ir.CallStatic m) args Ir.Tany)

and residual_virtual ctx name argc args : unit =
  let args = Array.map (resolve_materialized ctx) args in
  clobber ctx;
  check_alloc_watch ctx (Printf.sprintf "dynamic dispatch of %s" name);
  push ctx (emit ctx (Ir.CallVirtual (name, argc)) args Ir.Tany)

and do_invoke ctx inv : [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  match inv with
  | Static m -> do_call ctx m (pop_args ctx m.mnargs)
  | Special m -> do_call ctx m (pop_args ctx (m.mnargs + 1))
  | Virtual (name, argc, hint) -> do_virtual ctx name argc hint None
  | Virtual_ic site ->
    do_virtual ctx site.cs_name site.cs_argc site.cs_hint (Some site)

and add_devirt_dep ctx name =
  if not (List.mem name ctx.devirt_deps) then
    ctx.devirt_deps <- name :: ctx.devirt_deps

and do_virtual ctx name argc hint site :
    [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  let args = pop_args ctx (argc + 1) in
  let recv = args.(0) in
  match Absval.exact_class (evalA ctx recv) with
  | Some cls -> (
    match Vm.Classfile.resolve_virtual_opt cls name with
    | Some m -> do_call ctx m args
    | None ->
      Errors.compile_error "class %s has no virtual method %s" cls.cname name)
  | None -> (
    (* CHA devirtualization from the front-end's static type hint; the
       unguarded direct call is protected by a dependency on [name]: a
       later [add_method] that breaks the analysis invalidates this code *)
    match hint with
    | Some cls when Vm.Classfile.no_override_below ctx.rt cls name -> (
      match Vm.Classfile.resolve_virtual_opt cls name with
      | Some m ->
        add_devirt_dep ctx name;
        do_call ctx m args
      | None ->
        residual_virtual ctx name argc args;
        `Ok)
    | _ -> (
      (* type feedback: speculate on the receiver classes the interpreter's
         inline cache observed at this site (a single [cs_state] read gives
         a consistent snapshot even against the mutator) *)
      let profile =
        if not ctx.opts.feedback then []
        else
          match site with
          | None -> []
          | Some s -> (
            match s.cs_state with
            | Ic_mono e -> [ (e.ice_cls, e.ice_meth) ]
            | Ic_poly es ->
              Array.to_list (Array.map (fun e -> (e.ice_cls, e.ice_meth)) es)
            | Ic_empty | Ic_mega -> [])
      in
      match profile with
      | [ entry ] ->
        add_devirt_dep ctx name;
        do_speculate_mono ctx name args entry
      | _ :: _ as entries ->
        (* a dispatch chain beats generic dispatch but is still a declined
           monomorphic devirtualization — worth a coach record *)
        if !Irtrace.on then record_devirt_decline ctx name site;
        add_devirt_dep ctx name;
        do_dispatch_chain ctx name argc args entries
      | [] ->
        Errors.warn "devirtualize" "could not devirtualize call to %s" name;
        if !Irtrace.on then record_devirt_decline ctx name site;
        residual_virtual ctx name argc args;
        `Ok))

and record_devirt_decline ctx name site =
  let f = ctx.frame in
  let pc = f.sf_pc - 1 (* sf_pc already advanced past the invoke *) in
  let ic_state =
    if not ctx.opts.feedback then "feedback-off"
    else
      match site with
      | None -> "no-profile"
      | Some s -> Vm.Inlinecache.state_string s
  in
  Irtrace.record_miss ~phase:(Phases.name Phases.Stage) ~mid:f.sf_meth.mid
    ~meth:(Vm.Runtime.meth_label f.sf_meth) ~pc
    ~line:(Vm.Runtime.line_at f.sf_meth pc)
    (Irtrace.Devirt_declined { callee = name; ic_state })

(* Monomorphic speculation (the paper's [speculate] shape): compare the
   receiver's class id against the single observed class and call (and
   potentially inline) the resolved target directly; the other arm is a
   deopt side-exit that resumes the interpreter AT the invoke — with the
   arguments re-pushed — so the interpreter re-dispatches generically and
   retrains the inline cache. *)
and do_speculate_mono ctx name args ((cls : cls), (m : meth)) :
    [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  let f = ctx.frame in
  let invoke_pc = f.sf_pc - 1 (* sf_pc already advanced past the invoke *) in
  let cid = emit ctx Ir.ClassId [| resolve ctx args.(0) |] Ir.Tint in
  let cond = icmp_s ctx Eq cid (lift_const ctx (Int cls.cid)) in
  let snap0 = save ctx in
  let fall_pc = f.sf_pc in
  let bt = B.new_block ctx.bld and bf = B.new_block ctx.bld in
  B.terminate ctx.bld
    (Ir.Br
       ( cond,
         { tblock = bt.bid; targs = [||] },
         { tblock = bf.bid; targs = [||] } ));
  (* miss arm: rebuild the frame as of the invoke and exit to tier 0 *)
  restore ctx { snap0 with s_block = Some bf };
  f.sf_pc <- invoke_pc;
  Array.iter (push ctx) args;
  side_exit ctx ~kind:`Interpret
    ~tag:(Printf.sprintf "devirt:%s@%s" name cls.cname)
    ~extra:[];
  (* hit arm: direct call, eligible for inlining *)
  restore ctx { snap0 with s_block = Some bt };
  f.sf_pc <- fall_pc;
  do_call ctx m args

(* Polymorphic dispatch chain: one class-id compare per observed receiver
   class with a direct call on each hit, falling through to generic
   dispatch for receivers outside the profile; the arms merge like an
   ordinary conditional. *)
and do_dispatch_chain ctx name argc args entries :
    [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  let cid = emit ctx Ir.ClassId [| resolve ctx args.(0) |] Ir.Tint in
  let arrivals = ref [] in
  let arrive () =
    let v = pop ctx in
    arrivals := (save ctx, v) :: !arrivals
  in
  let rec arm = function
    | [] ->
      (* off-profile receiver: generic dispatch, always correct *)
      residual_virtual ctx name argc args;
      arrive ()
    | ((cls : cls), (m : meth)) :: rest ->
      let cond = icmp_s ctx Eq cid (lift_const ctx (Int cls.cid)) in
      let snap0 = save ctx in
      let bt = B.new_block ctx.bld and bf = B.new_block ctx.bld in
      B.terminate ctx.bld
        (Ir.Br
           ( cond,
             { tblock = bt.bid; targs = [||] },
             { tblock = bf.bid; targs = [||] } ));
      restore ctx { snap0 with s_block = Some bt };
      (match do_call ctx m args with
      | `Ok -> arrive ()
      | `Dead | `Done _ -> ());
      restore ctx { snap0 with s_block = Some bf };
      arm rest
  in
  arm entries;
  match List.rev !arrivals with
  | [] -> `Dead
  | items ->
    push ctx (merge_flows ctx ~with_slots:true items);
    `Ok

and do_call ctx (m : meth) args : [ `Ok | `Dead | `Done of [ `Arrived | `Dead ] ] =
  let full = m.mowner.cname ^ "." ^ m.mname in
  match Hashtbl.find_opt ctx.rt.macros full with
  | Some (Macro macro) -> (
    if !Obs.enabled then
      Obs.emit
        (Obs.Macro_expand
           { name = full; in_meth = Vm.Runtime.meth_label ctx.frame.sf_meth });
    match macro ctx args with
    | Val r ->
      push ctx r;
      `Ok
    | Diverge -> `Dead)
  | _ -> (
    match m.mcode with
    | Native _ -> (
      match try_fold_native ctx m args with
      | Some r ->
        push ctx r;
        `Ok
      | None ->
        residual_static ctx m args;
        `Ok)
    | Bytecode _ -> (
      (* dynamic-scope hooks (atScope/inScope) that match this target *)
      let matching =
        List.filter (fun sh -> contains_sub full sh.sh_pattern) ctx.hooks
      in
      let at_inline_override =
        List.find_map
          (fun sh ->
            if not sh.sh_at then None
            else
              match sh.sh_directive with
              | "inline_never" -> Some Inline_never
              | "inline_always" -> Some Inline_always
              | "inline_nonrec" -> Some Inline_nonrec
              | _ -> None)
          matching
      in
      let mode =
        match at_inline_override with
        | Some m -> m
        | None -> (
          match ctx.policy with m :: _ -> m | [] -> Inline_nonrec)
      in
      let recursive = List.mem m.mid ctx.inline_stack in
      let too_deep =
        List.length ctx.inline_stack > ctx.opts.max_inline_depth
      in
      let inline_it =
        match mode with
        | Inline_never -> false
        | Inline_nonrec -> (not recursive) && not too_deep
        | Inline_always ->
          if too_deep then begin
            Errors.warn "inline" "inlineAlways hit depth limit at %s" full;
            false
          end
          else true
      in
      if not inline_it then begin
        residual_static ctx m args;
        `Ok
      end
      else begin
        (* inScope hooks install their directive inside the callee; the
           unroll_top_level directive applies around the call either way *)
        let saved_policy = ctx.policy in
        let saved_unroll = ctx.unroll_flag in
        List.iter
          (fun sh ->
            match sh.sh_directive with
            | "inline_never" when not sh.sh_at ->
              ctx.policy <- Inline_never :: ctx.policy
            | "inline_always" when not sh.sh_at ->
              ctx.policy <- Inline_always :: ctx.policy
            | "inline_nonrec" when not sh.sh_at ->
              ctx.policy <- Inline_nonrec :: ctx.policy
            | "unroll_top_level" -> ctx.unroll_flag <- true
            | _ -> ())
          matching;
        let res = exec_method ctx m args in
        ctx.policy <- saved_policy;
        ctx.unroll_flag <- saved_unroll;
        match res with
        | Val r ->
          push ctx r;
          `Ok
        | Diverge -> `Dead
      end))

(* Inline execution of a whole method body: the core of both inlining and
   [funR].  Returns the (merged) return value. *)
and exec_method ctx (m : meth) (args : rep array) : macro_result =
  exec_in_frame ctx ~parent:(Some ctx.frame) m args

(* Run [m] from [pc] with [args] in its first local slots, to every return. *)
and exec_in_frame ?(pc = 0) ctx ~parent (m : meth) (args : rep array) :
    macro_result =
  let null_rep = lift_const ctx Null in
  let locals = Array.make (max m.mnlocals (Array.length args)) null_rep in
  Array.blit args 0 locals 0 (Array.length args);
  let f =
    {
      sf_meth = m;
      sf_pc = pc;
      sf_locals = locals;
      sf_stack = Array.make (m.mmaxstack + 4) null_rep;
      sf_sp = 0;
      sf_parent = parent;
      sf_returns = ref [];
      sf_active_loops = Hashtbl.create 4;
    }
  in
  let saved_frame = ctx.frame in
  ctx.inline_stack <- m.mid :: ctx.inline_stack;
  ctx.frame <- f;
  let finish res =
    ctx.inline_stack <- List.tl ctx.inline_stack;
    ctx.frame <- saved_frame;
    res
  in
  match exec_range ctx ~stop:(fun _ -> false) with
  | `Arrived -> Errors.compile_error "internal: method walk arrived nowhere"
  | `Dead -> (
    match List.rev !(f.sf_returns) with
    | [] -> finish Diverge
    | items ->
      let v =
        merge_flows ctx ~with_slots:false
          (List.map (fun (r, s) -> (s, r)) items)
      in
      finish (Val v))

(* funR (Sec. 3.1): turn a staged closure into a function on staged values
   by inlining its apply method. *)
and funR ctx (frep : rep) : rep array -> macro_result =
  match Absval.exact_class (evalA ctx frep) with
  | Some cls -> (
    match Vm.Classfile.resolve_virtual_opt cls "apply" with
    | Some apply -> (
      fun args ->
        match apply.mcode with
        | Bytecode _ -> exec_method ctx apply (Array.append [| frep |] args)
        | Native _ ->
          (* e.g. a CompiledFn: emit a residual closure call *)
          let all = Array.map (resolve_materialized ctx)
              (Array.append [| frep |] args) in
          clobber ctx;
          Val (emit ctx (Ir.CallClosure (Array.length args)) all Ir.Tany))
    | None -> Errors.compile_error "funR: %s has no apply method" cls.cname)
  | None ->
    Errors.compile_error
      "funR: closure is not compile-time static (its class is unknown)"

(* ------------------------------------------------------------------ *)
(* Entry points: explicit compilation                                   *)

type arg_spec = Dyn | Static_value of value

(* An OSR entry: staging starts at the loop header [e_pc] instead of the
   method start, and the graph takes one parameter per local of the
   interpreter frame, typed from the value the frame held when it asked.
   Ints go to the int lane, floats to the float lane, anything else stays
   boxed; so loop-carried ints and floats are not boxed on every jump. *)
type entry = { e_pc : int; e_kinds : Ir.ty array }

let kind_of = function Int _ -> Ir.Tint | Float _ -> Ir.Tfloat | _ -> Ir.Tany

let entry_at ~pc (locals : value array) =
  { e_pc = pc; e_kinds = Array.map kind_of locals }

(* Whether a frame's [locals] fit code staged for [e]: each int or float
   parameter gets a value of its kind. *)
let admits e (locals : value array) =
  Array.length locals = Array.length e.e_kinds
  && Array.for_all2
       (fun k v -> k = Ir.Tany || kind_of v = k)
       e.e_kinds locals

let make_ctx ?(opts = default_options) rt nparams =
  let bld = B.create ~name:opts.name ~nparams () in
  let dummy_meth_frame m =
    {
      sf_meth = m;
      sf_pc = 0;
      sf_locals = [||];
      sf_stack = [||];
      sf_sp = 0;
      sf_parent = None;
      sf_returns = ref [];
      sf_active_loops = Hashtbl.create 1;
    }
  in
  let ctx =
    {
      rt;
      bld;
      opts;
      avals = Hashtbl.create 256;
      taints = Hashtbl.create 16;
      heap = empty_heap;
      frame = Obj.magic ();
      next_vid = 0;
      inline_stack = [];
      policy = [];
      hooks = [];
      unroll_flag = false;
      alloc_watch = [];
      leak_watch = [];
      evalm_memo = Hashtbl.create 16;
      resets = [];
      devirt_deps = [];
    }
  in
  (ctx, dummy_meth_frame)

(* Stage method [m] with the given argument specification.  [Static_value]
   arguments become compile-time constants (specialization with respect to
   preexisting heap objects); [Dyn] arguments become graph parameters.
   Returns the optimized graph, whose parameters are the Dyn arguments in
   order. *)
(* IR node counts of the most recent [stage] call: (after staging, after
   dead-code elimination), process-wide, for tooling that stages by hand. *)
let last_node_counts = ref (0, 0)

(* The same counts per domain: [with_compile_events] fills [Compile_end]
   from its own domain's copy, which a background worker's [stage] cannot
   overwrite. *)
let node_counts_key = Domain.DLS.new_key (fun () -> (0, 0))

(* "dsd" = dyn,static,dyn — the specialization key rendered for Irtrace;
   an OSR entry renders as "@pc:" and its parameter kinds, "@12:iid". *)
let spec_string ?entry (spec : arg_spec array) =
  match entry with
  | Some e ->
    Printf.sprintf "@%d:%s" e.e_pc
      (String.concat ""
         (Array.to_list
            (Array.map
               (function Ir.Tint -> "i" | Ir.Tfloat -> "f" | _ -> "d")
               e.e_kinds)))
  | None ->
    String.concat ""
      (Array.to_list
         (Array.map (function Dyn -> "d" | Static_value _ -> "s") spec))

(* [spec] gives the arguments of a method-entry compile; with [entry] the
   graph's parameters are the frame's locals instead and [spec] is unused. *)
let stage ?(opts = default_options) ?deps ?entry rt (m : meth)
    (spec : arg_spec array) : Ir.graph =
  Obs.span ~cat:Phases.cat_jit (Phases.span_stage opts.name) (fun () ->
      if !Irtrace.on then
        Irtrace.begin_compile ~mid:m.mid ~meth:(Vm.Runtime.meth_label m)
          ~spec:(spec_string ?entry spec);
      let ndyn =
        match entry with
        | Some e -> Array.length e.e_kinds
        | None ->
          Array.fold_left
            (fun n s -> match s with Dyn -> n + 1 | _ -> n)
            0 spec
      in
      let ctx, dummy = make_ctx ~opts rt ndyn in
      ctx.frame <- dummy m;
      let args =
        match entry with
        | Some e ->
          if not (Bcfg.is_loop_header (Bcfg.of_method rt m) e.e_pc) then
            Errors.compile_error "OSR entry @pc %d of %s is not a loop header"
              e.e_pc m.mname;
          Array.mapi (fun i k -> B.param ctx.bld i k) e.e_kinds
        | None ->
          let next_param = ref 0 in
          Array.map
            (fun s ->
              match s with
              | Dyn ->
                let p = B.param ctx.bld !next_param Ir.Tany in
                incr next_param;
                p
              | Static_value v -> lift_const ctx v)
            spec
      in
      let pc = Option.map (fun e -> e.e_pc) entry in
      (match exec_in_frame ?pc ctx ~parent:None m args with
      | Val r ->
        let r = resolve_materialized ctx r in
        if not (B.in_dead_code ctx.bld) then B.terminate ctx.bld (Ir.Ret r)
      | Diverge -> ());
      let g = B.graph ctx.bld in
      let before = Ir.node_count g in
      if !Irtrace.on then
        Lms.Snapshot.take g Phases.Stage
          ~meta:[ ("cse_hits", string_of_int (B.cse_hits ctx.bld)) ];
      Obs.span ~cat:Phases.cat_jit Phases.span_dce (fun () ->
          Ir.dead_code_elim g);
      if !Irtrace.on then Lms.Snapshot.take g Phases.Dce;
      let counts = (before, Ir.node_count g) in
      last_node_counts := counts;
      Domain.DLS.set node_counts_key counts;
      (match deps with Some r -> r := ctx.devirt_deps | None -> ());
      g)

(* build runtime interpreter frames from side-exit metadata + live values *)
let reconstruct_frames (se : Ir.side_exit) (vals : value array) :
    Vm.Interp.frame =
  (* vals are flattened innermost-first, locals then stack per frame *)
  let offsets =
    let rec go idx = function
      | [] -> []
      | (fd : Ir.frame_desc) :: rest ->
        idx
        :: go (idx + Array.length fd.fd_locals + Array.length fd.fd_stack) rest
    in
    go 0 se.se_frames
  in
  let rec build fds offs : Vm.Interp.frame option =
    match fds, offs with
    | [], [] -> None
    | (fd : Ir.frame_desc) :: rest, off :: offs_rest ->
      let parent = build rest offs_rest in
      let m = fd.fd_meth in
      let nl = Array.length fd.fd_locals in
      let ns = Array.length fd.fd_stack in
      let locals = Array.make (max m.mnlocals nl) Null in
      Array.blit vals off locals 0 nl;
      let ostack = Array.make (max (m.mmaxstack + 4) ns) Null in
      Array.blit vals (off + nl) ostack 0 ns;
      Some
        (Vm.Interp.rebuild_frame ~meth:m ~pc:fd.fd_pc ~locals ~ostack ~sp:ns
           ~parent)
    | _ -> assert false
  in
  match build se.se_frames offsets with
  | Some innermost -> innermost
  | None -> vm_error "side exit with empty frame chain"

(* First-class delimited continuations (paper Sec. 3.2, shiftR/resetR): a
   Make_cont node captures the live frame chain up to the nearest reset;
   at runtime it packages the values into a CompiledFn that, when invoked,
   reconstructs fresh interpreter frames (multi-shot) with its argument
   pushed as the shift expression's result and resumes interpretation. *)
type Ir.ext_op += Make_cont of Ir.frame_desc list

let () =
  Lms.Pretty.register_ext (function
    | Make_cont fds -> Some (Printf.sprintf "make_cont/%d" (List.length fds))
    | _ -> None);
  Lms.Hooks.register_ext (fun hooks op getters ->
      match op with
      | Make_cont fds ->
        let rt = hooks.Lms.Hooks.rt in
        Some
          (fun env ->
            let vals = Array.map (fun g -> g env) getters in
            Vm.Natives.make_compiled_fn rt (fun kargs ->
                let se =
                  { Ir.se_kind = `Interpret; se_frames = fds; se_tag = "continuation" }
                in
                let frame = reconstruct_frames se vals in
                Vm.Interp.push frame
                  (if Array.length kargs > 0 then kargs.(0) else Null);
                Vm.Interp.resume rt frame))
      | _ -> None)

let count_compiles = ref 0 (* graphs handed to a backend, every tier *)
let count_deopts = ref 0
let count_recompiles = ref 0

(* Report a side exit taken from [m]'s compiled code, explicit or tiered:
   a [Deopt] at the innermost frame's pc and source line (with inlining the
   exit may sit in a callee, so its own line table).  Returns the pc for
   the caller's own remediation. *)
let report_exit (m : meth) (se : Ir.side_exit) =
  let pc, line =
    match se.Ir.se_frames with
    | fd :: _ -> (fd.Ir.fd_pc, Vm.Runtime.line_at fd.Ir.fd_meth fd.Ir.fd_pc)
    | [] -> (-1, 0)
  in
  if !Obs.enabled then
    Obs.emit
      (Obs.Deopt
         {
           meth = Vm.Runtime.meth_label m;
           mid = m.mid;
           kind =
             (match se.Ir.se_kind with
             | `Interpret -> Obs.Interpret
             | `Recompile -> Obs.Recompile);
           tag = se.Ir.se_tag;
           pc;
           line;
         });
  pc

(* The one mode-selection step, for explicit and tiered compiles alike:
   runtime hooks with the caller's side-exit handler, the lowering's typed
   mode first, its boxed mode (labelled "closure") when the graph's types
   disagree with the typed lanes.  Returns the entry point, the mode that
   ran and the fallback reason. *)
let compile_graph rt (g : Ir.graph)
    ~(on_exit : Ir.side_exit -> value array -> value) :
    (value array -> value) * string * string option =
  incr count_compiles;
  let hooks = { (Lms.Hooks.default_hooks rt) with on_exit } in
  match Lms.Typed_backend.compile ~hooks g with
  | fn -> (fn, "typed", None)
  | exception Lms.Typed_backend.Fallback reason ->
    (Lms.Typed_backend.compile_boxed ~hooks g, "closure", Some reason)

(* graph of the most recent [compile_method], for tests and tooling *)
let last_graph : Ir.graph option ref = ref None

(* Compile_start/Compile_end around one graph build of [m] at [tier] (0:
   explicit, 1: tiered), labelled [label] (default "Cls.name").  [build]
   returns [compile_graph]'s result, which names the backend that ran and
   its fallback reason for Compile_end; the entry point is returned. *)
let with_compile_events ~tier ?label (m : meth) build =
  if not !Obs.enabled then
    let fn, _, _ = build () in
    fn
  else begin
    let meth = Option.value label ~default:(Vm.Runtime.meth_label m)
    and mid = m.mid in
    Obs.emit (Obs.Compile_start { meth; mid; tier; worker = Obs.worker_id () });
    (* a build that fails before [stage] finishes reports no nodes *)
    Domain.DLS.set node_counts_key (0, 0);
    let t0 = Obs.now () in
    let emit_end backend fallback =
      let nodes_in, nodes_out = Domain.DLS.get node_counts_key in
      Obs.emit
        (Obs.Compile_end
           {
             ci_meth = meth;
             ci_mid = mid;
             ci_tier = tier;
             ci_worker = Obs.worker_id ();
             ci_backend = backend;
             ci_fallback = fallback;
             ci_nodes_in = nodes_in;
             ci_nodes_out = nodes_out;
             ci_ms = (Obs.now () -. t0) *. 1000.;
           })
    in
    match build () with
    | fn, backend, fallback ->
      emit_end backend fallback;
      fn
    | exception e ->
      emit_end "failed" None;
      raise e
  end

(* Compile an arbitrary method with an argument specification; returns a
   function over the dynamic arguments.  A [`Recompile] side exit (the
   [stable]/[fastpath] macros) restages with the current values frozen and
   swaps the new code into the same cell, so the returned entry point stays
   valid across any number of rebuilds. *)
let compile_method ?(opts = default_options) rt (m : meth)
    (spec : arg_spec array) : value array -> value =
  let cell = ref (fun _ -> Null) in
  let rec build () =
    let fn =
      with_compile_events ~tier:0 m (fun () ->
          let g = stage ~opts rt m spec in
          last_graph := Some g;
          compile_graph rt g ~on_exit:(fun se vals ->
              incr count_deopts;
              ignore (report_exit m se);
              (match se.Ir.se_kind with
              | `Recompile ->
                incr count_recompiles;
                build ()
              | `Interpret -> ());
              Vm.Interp.resume rt (reconstruct_frames se vals)))
    in
    cell := fn
  in
  build ();
  fun args -> !cell args

(* The user-facing [Lancet.compile]: compile a closure object with respect
   to its captured state.  Returns a CompiledFn over [compile_method]'s
   entry point. *)
let compile_value ?(opts = default_options) rt (v : value) : value =
  match v with
  | Obj o -> (
    let apply = Vm.Classfile.resolve_virtual o.ocls "apply" in
    match apply.mcode with
    | Native _ -> v (* CompiledFn or other native closure: nothing to do *)
    | Bytecode _ ->
      let spec =
        Array.init (apply.mnargs + 1) (fun i ->
            if i = 0 then Static_value v else Dyn)
      in
      Vm.Natives.make_compiled_fn rt (compile_method ~opts rt apply spec))
  | _ -> vm_error "Lancet.compile: not a closure object"
