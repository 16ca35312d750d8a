(* The bytecode interpreter.  Mirrors the Graal-derived interpreter of the
   paper's Fig. 6: linked [frame] records (control, environment and
   continuation of a CESK machine), an operand stack mapped onto each frame,
   and a [loop] that executes instructions of the current frame and performs
   control transfers by swapping the current frame.

   Tier 0 of the tiered execution engine: every bytecode invoke bumps the
   callee's invocation counter and every backward jump bumps the enclosing
   method's back-edge counter; when their sum crosses the runtime's hotness
   threshold, [Runtime.tiered_fn] hands the method to the Lancet pipeline
   (via [rt.jit_hook]) and subsequent calls dispatch to the compiled entry
   point in the runtime code cache.

   A method called once never crosses that threshold at a call, so a long
   loop inside it is also watched per activation (loop-level OSR-in).  Each
   frame counts its own steps: bytecodes it ran itself, not those of its
   callees.  At a back edge with an empty operand stack, once the frame's
   own steps reach [t_threshold * 2^14], the frame asks [t_osr] for the rest
   of its method compiled from the loop header it is about to re-enter.  At
   the first back edge to that header after the code is published, the
   frame hands its locals to the code and returns the code's result as its
   own. *)

open Types

(* A frame's OSR progress: it asks once, waits at back edges to the header
   it asked for, and enters or gives up. *)
type osr = Osr_armed | Osr_waiting of int * osr_state Atomic.t | Osr_spent

type frame = {
  fmeth : meth;
  fcode : instr array; (* the Bytecode payload, hoisted out of [step] *)
  mutable pc : int;
  locals : value array;
  ostack : value array;
  mutable sp : int; (* next free stack slot *)
  mutable parent : frame option;
  mutable fbase : int;
    (* own steps are [rt.interp_steps - fbase]; while the frame waits on a
       call, [fbase] holds its own steps negated, and the return adds
       [rt.interp_steps] back *)
  mutable fosr : osr;
}

let code_of meth =
  match meth.mcode with
  | Bytecode c -> c
  | Native _ -> vm_error "no bytecode for native method %s" meth.mname

(* Rebuild an interpreter frame from deoptimization metadata (used by the
   side-exit / continuation machinery in Lancet). *)
let rebuild_frame ~meth ~pc ~locals ~ostack ~sp ~parent =
  {
    fmeth = meth;
    fcode = code_of meth;
    pc;
    locals;
    ostack;
    sp;
    parent;
    fbase = 0;
    fosr = Osr_armed;
  }

let make_frame ?parent meth args =
  let locals = Array.make (max meth.mnlocals (Array.length args)) Null in
  Array.blit args 0 locals 0 (Array.length args);
  rebuild_frame ~meth ~pc:0 ~locals
    ~ostack:(Array.make (max meth.mmaxstack 4) Null)
    ~sp:0 ~parent

let push f v =
  f.ostack.(f.sp) <- v;
  f.sp <- f.sp + 1

let pop f =
  f.sp <- f.sp - 1;
  f.ostack.(f.sp)

let pop_int f = Value.to_int (pop f)
let pop_float f = Value.to_float (pop f)

let no_args : value array = [||]

let pop_args f n =
  if n = 0 then no_args
  else begin
    let a = Array.make n Null in
    for i = n - 1 downto 0 do
      a.(i) <- pop f
    done;
    a
  end

(* Frame for a bytecode call whose arguments sit on [caller]'s operand
   stack: pop them straight into the callee's local slots, avoiding the
   intermediate argument array of [pop_args]. *)
let frame_of_call meth caller nargs ~steps =
  let locals = Array.make (max meth.mnlocals nargs) Null in
  for i = nargs - 1 downto 0 do
    caller.sp <- caller.sp - 1;
    locals.(i) <- caller.ostack.(caller.sp)
  done;
  {
    fmeth = meth;
    fcode = code_of meth;
    pc = 0;
    locals;
    ostack = Array.make (max meth.mmaxstack 4) Null;
    sp = 0;
    parent = Some caller;
    fbase = steps;
    fosr = Osr_armed;
  }

(* Where frame [f] currently is, as "Cls.meth @pc N (file:line)".  [pc] has
   already advanced past the faulting instruction when [step] raises. *)
let frame_loc f = Runtime.meth_loc f.fmeth (max 0 (f.pc - 1))

(* One timer-driven profiler sample: the whole frame chain, innermost frame
   first, each frame resolved to (method label, source line). *)
let emit_stack_sample f =
  let rec walk acc fo =
    match fo with
    | None -> List.rev acc
    | Some fr ->
      let pc = max 0 (min fr.pc (Array.length fr.fcode - 1)) in
      walk
        ((Runtime.meth_label fr.fmeth, Runtime.line_at fr.fmeth pc) :: acc)
        fr.parent
  in
  Obs.emit (Obs.Stack_sample { stack = walk [] (Some f) })

(* Run the frame chain rooted (via parents) at [frame] to completion and
   return the value produced by the outermost frame of the chain.  This is
   the single entry point used both for fresh calls and for resuming
   reconstructed continuations after deoptimization. *)
let resume rt frame =
  (* the frames of a rebuilt chain start counting here; its outer frames
     wait on a call with 0 own steps, which their [fbase] of 0 says *)
  frame.fbase <- rt.interp_steps;
  let current = ref (Some frame) in
  let result = ref Null in
  let return_value v =
    match !current with
    | None -> assert false
    | Some f -> (
      match f.parent with
      | None ->
        result := v;
        current := None
      | Some p ->
        p.fbase <- p.fbase + rt.interp_steps;
        push p v;
        current := Some p)
  in
  (* Invoke [meth] whose [nargs] arguments (receiver included) lie on top of
     [f]'s operand stack.  Bytecode callees first consult the tiered code
     cache; natives and compiled entry points complete within [f]. *)
  let invoke f meth nargs =
    match meth.mcode with
    | Native (_, fn) ->
      (* natives and compiled code complete within [f] but may run
         interpreted code of their own, whose steps are not [f]'s *)
      let args = pop_args f nargs in
      f.fbase <- f.fbase - rt.interp_steps;
      let v = fn rt args in
      f.fbase <- f.fbase + rt.interp_steps;
      push f v
    | Bytecode _ -> (
      meth.mcalls <- meth.mcalls + 1;
      if !Obs.enabled && meth.mcalls land 63 = 1 then
        Obs.emit
          (Obs.Interp_call
             {
               meth = Runtime.meth_label meth;
               mid = meth.mid;
               calls = meth.mcalls;
               backedges = meth.mbackedges;
             });
      (* semantics-preserving hierarchy churn: the invalidation fan-out of
         an [add_method] (IC flush, epoch bump, devirt kill) without the
         dispatch change *)
      if !Chaos.on && Chaos.fire Chaos.hier_churn then
        Runtime.hierarchy_changed rt ~name:meth.mname;
      match Runtime.tiered_fn rt meth with
      | Some cfn ->
        let args = pop_args f nargs in
        f.fbase <- f.fbase - rt.interp_steps;
        let v = cfn args in
        f.fbase <- f.fbase + rt.interp_steps;
        push f v
      | None ->
        f.fbase <- f.fbase - rt.interp_steps;
        current := Some (frame_of_call meth f nargs ~steps:rt.interp_steps))
  in
  (* Loop-level OSR-in at a back edge to header [h], operand stack empty. *)
  let osr_back_edge f h =
    match f.fosr with
    | Osr_spent -> ()
    | Osr_armed ->
      let t = rt.tiering in
      if rt.interp_steps - f.fbase >= t.t_threshold lsl 14 then begin
        let m = f.fmeth in
        match t.t_osr with
        | Some request when m.mtier <> Tier_blacklisted ->
          let cell = Atomic.make Osr_queued in
          f.fosr <- Osr_waiting (h, cell);
          request m h f.locals cell
        | _ -> f.fosr <- Osr_spent
      end
    | Osr_waiting (h', cell) when h' = h -> (
      match Atomic.get cell with
      | Osr_queued -> ()
      | Osr_failed -> f.fosr <- Osr_spent
      | Osr_ready code ->
        f.fosr <- Osr_spent;
        let steps = rt.interp_steps - f.fbase in
        if code.osr_admits f.locals then begin
          rt.tiering.t_osr_entries <- rt.tiering.t_osr_entries + 1;
          if !Obs.enabled then
            Obs.emit
              (Obs.Osr_entry
                 {
                   meth = Runtime.meth_label f.fmeth;
                   mid = f.fmeth.mid;
                   pc = h;
                   line = Runtime.line_at f.fmeth h;
                   steps;
                 });
          return_value (code.osr_run f.locals)
        end
        else if !Obs.enabled then
          Obs.emit
            (Obs.Osr_decline
               {
                 meth = Runtime.meth_label f.fmeth;
                 mid = f.fmeth.mid;
                 pc = h;
                 why = "the frame no longer matches the code";
                 cause =
                   Obs.Loop_steps
                     { steps; pc = h; line = Runtime.line_at f.fmeth h };
               }))
    | Osr_waiting _ -> ()
  in
  let jump f t =
    if t < f.pc then begin
      f.fmeth.mbackedges <- f.fmeth.mbackedges + 1;
      if f.sp = 0 && rt.tiering.t_enabled then osr_back_edge f t
    end;
    f.pc <- t
  in
  let step f =
    let i = f.fcode.(f.pc) in
    f.pc <- f.pc + 1;
    rt.interp_steps <- rt.interp_steps + 1;
    match i with
    | Const v -> push f v
    | Load n -> push f f.locals.(n)
    | Store n -> f.locals.(n) <- pop f
    | Dup ->
      let v = f.ostack.(f.sp - 1) in
      push f v
    | Pop -> ignore (pop f)
    | Swap ->
      let a = pop f and b = pop f in
      push f a;
      push f b
    | Iop op ->
      let y = pop_int f in
      let x = pop_int f in
      push f (Int (Value.iop_apply op x y))
    | Ineg -> push f (Int (Value.wrap32 (-pop_int f)))
    | Fop op ->
      let y = pop_float f in
      let x = pop_float f in
      push f (Float (Value.fop_apply op x y))
    | Fneg -> push f (Float (-.pop_float f))
    | I2f -> push f (Float (float_of_int (pop_int f)))
    | F2i -> push f (Int (Value.wrap32 (int_of_float (pop_float f))))
    | If (c, t) ->
      let y = pop_int f in
      let x = pop_int f in
      if Value.cond_apply c x y then jump f t
    | Iff (c, t) ->
      let y = pop_float f in
      let x = pop_float f in
      if Value.fcond_apply c x y then jump f t
    | Ifz (c, t) ->
      let x = pop_int f in
      if Value.cond_apply c x 0 then jump f t
    | Ifnull (when_null, t) ->
      let v = pop f in
      let is_null = match v with Null -> true | _ -> false in
      if is_null = when_null then jump f t
    | Goto t -> jump f t
    | New cls -> push f (Obj (Runtime.alloc rt cls))
    | Getfield fd ->
      let o = Value.to_obj (pop f) in
      push f o.ofields.(fd.fidx)
    | Putfield fd ->
      let v = pop f in
      let o = Value.to_obj (pop f) in
      o.ofields.(fd.fidx) <- v
    | Getglobal g -> push f (Runtime.get_global rt g)
    | Putglobal g -> Runtime.set_global rt g (pop f)
    | Newarr ->
      let n = pop_int f in
      push f (Arr (Array.make n Null))
    | Newfarr ->
      let n = pop_int f in
      push f (Farr (Array.make n 0.0))
    | Aload ->
      let i = pop_int f in
      let a = Value.to_arr (pop f) in
      push f a.(i)
    | Astore ->
      let v = pop f in
      let i = pop_int f in
      let a = Value.to_arr (pop f) in
      a.(i) <- v
    | Faload ->
      let i = pop_int f in
      let a = Value.to_farr (pop f) in
      push f (Float a.(i))
    | Fastore ->
      let v = pop_float f in
      let i = pop_int f in
      let a = Value.to_farr (pop f) in
      a.(i) <- v
    | Alen ->
      (match pop f with
      | Arr a -> push f (Int (Array.length a))
      | Farr a -> push f (Int (Array.length a))
      | _ -> vm_error "alen: not an array at %s" (frame_loc f))
    | Invoke (Static m) -> invoke f m m.mnargs
    | Invoke (Special m) -> invoke f m (m.mnargs + 1)
    | Invoke (Virtual_ic site) ->
      (* quickened: inline-cache dispatch — a hit is one pointer compare *)
      let m =
        match f.ostack.(f.sp - site.cs_argc - 1) with
        | Obj o -> Inlinecache.dispatch f.fmeth site o
        | Null ->
          vm_error "null receiver for %s at %s" site.cs_name (frame_loc f)
        | _ ->
          vm_error "invokevirtual %s on non-object at %s" site.cs_name
            (frame_loc f)
      in
      invoke f m (site.cs_argc + 1)
    | Invoke (Virtual (name, argc, hint)) ->
      if rt.ic_enabled then begin
        (* first execution: quicken the instruction in place to carry a
           fresh inline cache (pc already advanced past the invoke) *)
        let site =
          Inlinecache.make_site rt ~mid:f.fmeth.mid ~pc:(f.pc - 1) ~name ~argc
            ~hint
        in
        f.fcode.(f.pc - 1) <- Invoke (Virtual_ic site);
        if !Obs.enabled then
          Obs.emit
            (Obs.Ic_transition
               {
                 meth = Runtime.meth_label f.fmeth;
                 mid = f.fmeth.mid;
                 pc = f.pc - 1;
                 line = Runtime.line_at f.fmeth (f.pc - 1);
                 callee = name;
                 from_state = "none";
                 to_state = "quickened";
                 cause = Obs.Unattributed;
               });
        let m =
          match f.ostack.(f.sp - argc - 1) with
          | Obj o -> Inlinecache.dispatch f.fmeth site o
          | Null -> vm_error "null receiver for %s at %s" name (frame_loc f)
          | _ ->
            vm_error "invokevirtual %s on non-object at %s" name (frame_loc f)
        in
        invoke f m (argc + 1)
      end
      else
        let m =
          match f.ostack.(f.sp - argc - 1) with
          | Obj o -> Classfile.resolve_virtual o.ocls name
          | Null -> vm_error "null receiver for %s at %s" name (frame_loc f)
          | _ ->
            vm_error "invokevirtual %s on non-object at %s" name (frame_loc f)
        in
        invoke f m (argc + 1)
    | Ret -> return_value Null
    | Retv -> return_value (pop f)
    | Trap msg -> vm_error "trap: %s at %s" msg (frame_loc f)
  in
  while !current <> None do
    match !current with
    | Some f ->
      (* profiler checkpoint: one load+branch when sampling is off *)
      if !Obs.sampling && Obs.sample_due () then emit_stack_sample f;
      step f
    | None -> ()
  done;
  !result

let call rt meth (args : value array) =
  match meth.mcode with
  | Native (_, fn) -> fn rt args
  | Bytecode _ -> (
    meth.mcalls <- meth.mcalls + 1;
    if !Obs.enabled && meth.mcalls land 63 = 1 then
      Obs.emit
        (Obs.Interp_call
           {
             meth = Runtime.meth_label meth;
             mid = meth.mid;
             calls = meth.mcalls;
             backedges = meth.mbackedges;
           });
    if !Chaos.on && Chaos.fire Chaos.hier_churn then
      Runtime.hierarchy_changed rt ~name:meth.mname;
    match Runtime.tiered_fn rt meth with
    | Some cfn -> cfn args
    | None -> resume rt (make_frame meth args))

(* Invoke a closure-like object: dispatches its [apply] method. *)
let call_closure rt v (args : value array) =
  match v with
  | Obj o ->
    let m = Classfile.resolve_virtual o.ocls "apply" in
    call rt m (Array.append [| v |] args)
  | _ -> vm_error "not a callable object"
