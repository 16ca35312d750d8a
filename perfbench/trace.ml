(* Per-layer probes for the traced run.  Nothing here reaches inside the
   library: each layer is measured by timing the benchmark's own calls into
   that layer's public entry points (the Mini front-end phases, the hooks
   Lancet installs into the VM, the compile function handed to Bgjit) and
   by reading counters the runtime already keeps.

   Each part of a run is a process of its own, so the probe state is a
   single global record.  Fields written from a Bgjit worker domain are only touched under
   [lock]; the per-call entry wrapper runs on the mutator alone. *)

open Vm.Types

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* What to hand [Lancet.Compiler.stage] again after the run. *)
type staged =
  | Tier of meth  (** hot-method promotion: every argument dynamic *)
  | Explicit of value  (** [Lancet.compile] of a closure object *)

type t = {
  mutable loads : int;
  mutable parse_s : float;
  mutable typecheck_s : float;
  mutable codegen_s : float;
  mutable compiled_calls : int;
  mutable compiled_s : float;
  mutable inside : bool;  (** an outermost compiled call is being timed *)
  mutable compiles : int;
  mutable declined : int;
  mutable compile_s : float;
  mutable ir_nodes : int;
  mutable staged : (runtime * staged) list;
  enqueued_at : (int, float) Hashtbl.t;  (** method id -> enqueue time *)
  mutable queue_wait_s : float;
  mutable worker_s : float;
  mutable install_to_use_s : float;
  lock : Mutex.t;
}

let st =
  {
    loads = 0;
    parse_s = 0.;
    typecheck_s = 0.;
    codegen_s = 0.;
    compiled_calls = 0;
    compiled_s = 0.;
    inside = false;
    compiles = 0;
    declined = 0;
    compile_s = 0.;
    ir_nodes = 0;
    staged = [];
    enqueued_at = Hashtbl.create 16;
    queue_wait_s = 0.;
    worker_s = 0.;
    install_to_use_s = 0.;
    lock = Mutex.create ();
  }

let locked f = Mutex.protect st.lock f

(* [Mini.Front.load], phase by phase. *)
let load rt src =
  let t0 = now () in
  let parsed = Mini.Parser.parse_program src in
  let t1 = now () in
  let typed = Mini.Typecheck.check_program parsed in
  let t2 = now () in
  let prog = Mini.Codegen.compile_typed rt typed in
  let t3 = now () in
  st.loads <- st.loads + 1;
  st.parse_s <- st.parse_s +. (t1 -. t0);
  st.typecheck_s <- st.typecheck_s +. (t2 -. t1);
  st.codegen_s <- st.codegen_s +. (t3 -. t2);
  prog

(* Inclusive time inside compiled code, outermost call only: compiled code
   that calls back into the interpreter, which calls compiled code again,
   is counted once. *)
let timed_entry (fn : value array -> value) args =
  st.compiled_calls <- st.compiled_calls + 1;
  if st.inside then fn args
  else begin
    st.inside <- true;
    let t0 = now () in
    let stop () =
      st.compiled_s <- st.compiled_s +. (now () -. t0);
      st.inside <- false
    in
    match fn args with
    | v ->
      stop ();
      v
    | exception e ->
      stop ();
      raise e
  end

let nodes_after_dce () = snd !Lancet.Compiler.last_node_counts

let record_compile rt what =
  locked (fun () ->
      st.compiles <- st.compiles + 1;
      st.ir_nodes <- st.ir_nodes + nodes_after_dce ();
      st.staged <- (rt, what) :: st.staged)

(* [rt.jit_hook] on the mutator: synchronous compiles (tiered) or the
   enqueue that hands a method to the background worker (bgjit).  The
   enqueue time is noted before the call, since the worker may start before
   the hook returns. *)
let wrap_jit_hook rt =
  match rt.jit_hook with
  | None -> ()
  | Some hook ->
    rt.jit_hook <-
      Some
        (fun rt m ->
          let t0 = now () in
          locked (fun () -> Hashtbl.replace st.enqueued_at m.mid t0);
          let settle () =
            st.compile_s <- st.compile_s +. (now () -. t0)
          in
          match hook rt m with
          | exception e ->
            settle ();
            locked (fun () -> Hashtbl.remove st.enqueued_at m.mid);
            st.declined <- st.declined + 1;
            raise e
          | Jit_compiled fn ->
            settle ();
            locked (fun () -> Hashtbl.remove st.enqueued_at m.mid);
            record_compile rt (Tier m);
            Jit_compiled (timed_entry fn)
          | Jit_pending ->
            settle ();
            Jit_pending
          | Jit_declined ->
            settle ();
            locked (fun () -> Hashtbl.remove st.enqueued_at m.mid);
            st.declined <- st.declined + 1;
            Jit_declined)

(* [rt.compile_hook]: the [Lancet.compile] native.  The CompiledFn body it
   registers is replaced by a timed wrapper of itself. *)
let wrap_compile_hook rt =
  match rt.compile_hook with
  | None -> ()
  | Some hook ->
    rt.compile_hook <-
      Some
        (fun rt v ->
          let t0 = now () in
          match hook rt v with
          | exception e ->
            st.compile_s <- st.compile_s +. (now () -. t0);
            st.declined <- st.declined + 1;
            raise e
          | fnv ->
            st.compile_s <- st.compile_s +. (now () -. t0);
            record_compile rt (Explicit v);
            (match fnv with
            | Obj { ocls = { cname = "CompiledFn"; _ }; ofields; _ } ->
              let id = Vm.Value.to_int ofields.(0) in
              let body = Vm.Runtime.compiled_body rt id in
              Vm.Runtime.with_tier_lock rt (fun () ->
                  Hashtbl.replace rt.compiled id (timed_entry body))
            | _ -> ());
            fnv)

(* The compile function given to [Bgjit.create]; runs on the worker. *)
let wrap_bg_compile compile rt m =
  let t0 = now () in
  let enq =
    locked (fun () ->
        let e = Hashtbl.find_opt st.enqueued_at m.mid in
        Hashtbl.remove st.enqueued_at m.mid;
        e)
  in
  let result = compile rt m in
  let ready = now () in
  locked (fun () ->
      Option.iter (fun e -> st.queue_wait_s <- st.queue_wait_s +. (t0 -. e)) enq;
      st.worker_s <- st.worker_s +. (ready -. t0));
  match result with
  | None -> None
  | Some (fn, deps, epoch) ->
    record_compile rt (Tier m);
    let used = ref false in
    let entry = timed_entry fn in
    let first_use args =
      if not !used then begin
        used := true;
        st.install_to_use_s <- st.install_to_use_s +. (now () -. ready)
      end;
      entry args
    in
    Some (first_use, deps, epoch)

(* A fresh runtime with every probe installed; mirrors [Lancet.Api.boot_bg]
   so the background pool compiles through [wrap_bg_compile]. *)
let boot ~tiering ~jit_threads =
  let rt = Lancet.Api.boot ~tiering ~jit_threads () in
  let pool =
    if jit_threads = 0 then None
    else begin
      let pool =
        Bgjit.create ~compile:(wrap_bg_compile Lancet.Tiering.compile) rt
      in
      Bgjit.install pool;
      Some pool
    end
  in
  wrap_jit_hook rt;
  wrap_compile_hook rt;
  (rt, pool)

(* After the run: stage every compiled method again with the spec it was
   compiled under, then hand the graph to the typed backend, falling back
   to the closure backend as the tiered path does.  Splits compile time
   into staging and backend. *)
type restage = {
  stage_s : float;
  backend_s : float;
  typed : int;
  closure : int;
  failed : int;
}

let restage () =
  List.fold_left
    (fun acc (rt, what) ->
      let m, spec, opts =
        match what with
        | Tier m ->
          let nslots = m.mnargs + if m.mstatic then 0 else 1 in
          ( m,
            Array.make nslots Lancet.Compiler.Dyn,
            {
              Lancet.Compiler.default_options with
              Lancet.Compiler.name = "tier:" ^ Vm.Runtime.meth_label m;
              feedback = true;
            } )
        | Explicit v ->
          let cls = match v with Obj o -> o.ocls | _ -> assert false in
          let apply = Vm.Classfile.resolve_virtual cls "apply" in
          ( apply,
            Array.init (apply.mnargs + 1) (fun i ->
                if i = 0 then Lancet.Compiler.Static_value v
                else Lancet.Compiler.Dyn),
            Lancet.Compiler.default_options )
      in
      match
        let t0 = now () in
        let g = Lancet.Compiler.stage ~opts rt m spec in
        let t1 = now () in
        let hooks = Lms.Closure_backend.default_hooks rt in
        let typed =
          match Lms.Typed_backend.compile ~hooks g with
          | (_ : value array -> value) -> true
          | exception Lms.Typed_backend.Fallback _ ->
            let (_ : value array -> value) =
              Lms.Closure_backend.compile ~hooks g
            in
            false
        in
        (t1 -. t0, now () -. t1, typed)
      with
      | s, b, typed ->
        {
          acc with
          stage_s = acc.stage_s +. s;
          backend_s = acc.backend_s +. b;
          typed = (acc.typed + if typed then 1 else 0);
          closure = (acc.closure + if typed then 0 else 1);
        }
      | exception _ -> { acc with failed = acc.failed + 1 })
    { stage_s = 0.; backend_s = 0.; typed = 0; closure = 0; failed = 0 }
    (List.rev st.staged)
