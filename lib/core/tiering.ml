(* Tier 1 of the tiered execution engine: the [jit_hook] installed into the
   VM runtime.  When the interpreter promotes a hot bytecode method, this
   module stages it through the Lancet pipeline (all arguments dynamic),
   compiles the optimized graph through [Compiler.compile_graph] (the same
   backend selection as explicit compiles) and returns the entry point
   that [Runtime.tier_install] places in the code cache.

   Deoptimization: side exits in the compiled code reconstruct interpreter
   frames and resume interpretation (OSR-out), counting into
   [rt.tiering.t_deopts].  [`Recompile] exits (the [stable]/[fastpath]
   macros) additionally bump the method's cache generation and rebuild the
   graph with the current values frozen before resuming — the same
   cell-swapping scheme as [Compiler.compile_method], so the cached entry
   point stays valid across recompiles.

   Observability: every graph build — initial promotion and on-exit
   recompile alike — goes through [build], which is the single place that
   counts [t_compiles]; it emits [Compile_start]/[Compile_end] through
   [Compiler.with_compile_events], as explicit compiles do.  Side
   exits emit [Deopt] through [Compiler.report_exit], as explicit
   compiles' exits do, and the installed entry point samples its own
   execution time into [Exec_sample] events when a sink is attached.

   OSR-in: [osr], the runtime's [t_osr] hook, builds the rest of a method
   from a loop header for one interpreter activation through the same
   [compile_method_dyn], staged from the header ([Compiler.entry]).  The
   code belongs to that activation: it is never installed, so nothing has
   to invalidate it, and its side exits resume the interpreter as any tier-1
   exit does. *)

open Vm.Types
module C = Compiler

(* a native build gave up; the typed code keeps running *)
exception Native_declined of string

(* Hot methods are compiled fully dynamically: every parameter (receiver
   included) becomes a graph parameter, so one compilation serves every call
   site.  Specialization still happens inside: constants, virtual objects
   and JIT macros in the method body all fold as usual.  With [entry] the
   graph starts at a loop header and takes the frame's locals (OSR).
   Returns the entry point, the devirtualization dependencies and the
   hierarchy epoch the compile started from, or the compile error. *)
let compile_method_dyn ?entry rt (m : meth) :
    ((value array -> value) * string list * int, string) result =
  let nslots = m.mnargs + if m.mstatic then 0 else 1 in
  let spec = Array.make (max nslots 0) C.Dyn in
  let label = Vm.Runtime.meth_label m in
  let name =
    match entry with
    | None -> "tier:" ^ label
    | Some e -> Printf.sprintf "osr:%s@%d" label e.C.e_pc
  in
  let opts = { C.default_options with C.name; C.feedback = true } in
  let cell = ref (fun _ -> Null) in
  (* failed speculations at this entry point: a devirt guard that keeps
     missing means the profile went stale, so drop the code and let the
     method re-promote with a fresh one *)
  let devirt_fails = ref 0 in
  (* Execution-time sampling for the installed entry point: the first call
     and every 64th call thereafter flush the accumulated wall time; the
     remainder of a partial batch is flushed by an [Obs.add_flusher] hook
     (run by [Obs.flush] and the at-exit trace writer), so short runs do not
     under-report Exec_sample time.  The hook is registered on the first
     sampled call, so a run without a sink registers none; and as it
     outlives the runtime, it does not hold [m], whose [mtier] holds this
     code, whose hooks hold the runtime. *)
  let exec_total = ref 0 in
  let pend_calls = ref 0 in
  let pend_ms = ref 0.0 in
  let flusher_added = ref false in
  let mid = m.mid and def_line = Vm.Runtime.meth_def_line m in
  let flush_pending () =
    if !pend_calls > 0 then begin
      Obs.emit
        (Obs.Exec_sample
           { meth = label; mid; calls = !pend_calls; ms = !pend_ms; line = def_line });
      pend_calls := 0;
      pend_ms := 0.0
    end
  in
  (* The native tier: once its typed code has run [t_threshold] calls, a
     method-entry point hands a native upgrade of itself to the request
     hook the background JIT installs ([t_native]); without one, nothing
     is counted or built.  A job given up for a passing reason (killed,
     queue full) re-arms the count. *)
  let native_calls = ref 0 and native_armed = ref (entry = None) in
  (* the graph the typed code was lowered from, kept for its upgrade while
     a worker may build one: staging it again would cost the worker as
     much again, in time and in garbage *)
  let staged = ref None in
  let rearm () =
    native_calls := 0;
    native_armed := entry = None
  in
  let rec entry_point args =
    (match rt.tiering.t_native with
    | Some _ when !native_armed -> native_due ()
    | _ -> ());
    if not !Obs.enabled then !cell args
    else begin
      if not !flusher_added then begin
        flusher_added := true;
        Obs.add_flusher flush_pending
      end;
      let t0 = Obs.now () in
      let v = !cell args in
      incr exec_total;
      incr pend_calls;
      pend_ms := !pend_ms +. ((Obs.now () -. t0) *. 1000.);
      if !exec_total = 1 || !pend_calls >= 64 then flush_pending ();
      v
    end
  and native_due () =
    incr native_calls;
    if !native_calls >= rt.tiering.t_threshold then begin
      native_armed := false;
      Option.iter (fun request -> request (native_job ())) rt.tiering.t_native
    end
  and native_job () =
    let gen = Vm.Runtime.tier_gen rt m.mid in
    let built = ref ([], 0) in
    let declined ~transient why =
      if !Obs.enabled then
        Obs.emit
          (Obs.Compile_drop
             { meth = label; mid = m.mid; cause = Obs.Native_decline { why } });
      if transient then rearm ()
    in
    let nj_build (w : native_worker) =
      let deps = ref [] and epoch0 = Vm.Runtime.hier_epoch rt in
      let typed = !cell and kept = !staged in
      staged := None;
      match
        C.with_compile_events ~tier:1 ~label:name m (fun () ->
            let g =
              match kept with
              | Some (g, counts) ->
                Domain.DLS.set C.node_counts_key counts;
                g
              | None -> C.stage ~opts ~deps rt m spec
            in
            let hooks = { (Lms.Hooks.default_hooks rt) with on_exit } in
            match
              Lms.Native_tier.compile ~pid:w.nw_pid ~meanwhile:w.nw_meanwhile
                ~hooks ~typed g
            with
            | Ok fn -> (fn, "native", None)
            | Error why -> raise (Native_declined why))
      with
      | fn ->
        built := (!deps, epoch0);
        Ok fn
      | exception e ->
        let why =
          match e with Native_declined why -> why | e -> Printexc.to_string e
        in
        declined ~transient:(String.starts_with ~prefix:"cancelled" why) why;
        Error why
    in
    let nj_install fn =
      let deps, epoch = !built in
      Vm.Runtime.tier_upgrade_if_current rt m ~gen ~epoch ~deps (fun () ->
          cell := fn)
    in
    { nj_meth = m; nj_build; nj_install; nj_drop = declined ~transient:true }
  (* side exits of the compiled code: deopt accounting and the
     [`Recompile] / failed-devirt remediation.  OSR code runs once, for one
     activation, so a recompile exit invalidates the method's installed
     code but rebuilds nothing. *)
  and on_exit se vals =
    let t = rt.tiering in
    t.t_deopts <- t.t_deopts + 1;
    let se_pc = C.report_exit m se in
    (match se.Lms.Ir.se_kind with
    | `Recompile -> (
      Vm.Runtime.tier_invalidate
        ~why:(Obs.Recompile_exit { tag = se.Lms.Ir.se_tag })
        rt m;
      (* With background compilation installed, the rebuild goes through
         the compile queue: the mutator resumes in the interpreter
         immediately and a worker publishes the new code at the bumped
         generation.  Synchronous mode rebuilds in place. *)
      match rt.tiering.t_bg_recompile with
      | _ when entry <> None -> ()
      | Some enqueue -> enqueue m
      | None -> (
        (* the rebuild runs on the mutator, so the hierarchy cannot shift
           under it: register deps and install *)
        match build () with
        | deps', _ -> Vm.Runtime.tier_install ~deps:deps' rt m entry_point
        | exception _ -> m.mtier <- Tier_blacklisted))
    | `Interpret ->
      let tag = se.Lms.Ir.se_tag in
      if String.length tag > 7 && String.equal (String.sub tag 0 7) "devirt:"
      then begin
        let target = String.sub tag 7 (String.length tag - 7) in
        if !Obs.enabled then
          Obs.emit
            (Obs.Devirt_guard_fail
               { meth = label; mid = m.mid; pc = se_pc; target });
        incr devirt_fails;
        (* repeated misses: speculation is now slower than generic dispatch,
           so invalidate; the hot method re-promotes against the retrained
           inline cache *)
        if !devirt_fails >= 2 then
          Vm.Runtime.tier_invalidate
            ~why:(Obs.Devirt_miss { target; fails = !devirt_fails })
            rt m
      end);
    Vm.Interp.resume rt (C.reconstruct_frames se vals)
  and build () : string list * int =
    (* the hierarchy epoch read must precede staging: if [add_method] lands
       mid-compile the epoch comparison at install time catches it *)
    let epoch0 = Vm.Runtime.hier_epoch rt in
    let deps = ref [] in
    let fn =
      C.with_compile_events ~tier:1 ~label:name m (fun () ->
          let g = C.stage ~opts ~deps ?entry rt m spec in
          (* the optimized graph's structural fingerprint feeds two
             consumers: the decision journal (`lancet why` renders it and
             flags recompiles that produced identical code) and the profile
             subsystem, which records it for --profile-out and validates
             warm compiles against the recorded one for --profile-in.  OSR
             graphs are not the method's code and feed neither. *)
          if entry = None && (Forensics.enabled () || Persist.active ()) then begin
            let fp = Lms.Snapshot.fingerprint g in
            if !Obs.enabled then
              Obs.emit
                (Obs.Ir_fingerprint
                   {
                     meth = label;
                     mid = m.mid;
                     phase = Phases.name Phases.Dce;
                     fp;
                     cause = Obs.Unattributed;
                   });
            Persist.on_fingerprint ~mid:m.mid ~meth:label ~fp
          end;
          let compiled = C.compile_graph rt g ~on_exit in
          staged :=
            if entry = None && rt.tiering.t_native <> None then
              Some (g, Domain.DLS.get C.node_counts_key)
            else None;
          compiled)
    in
    cell := fn;
    devirt_fails := 0;
    rearm ();
    (* the one place compiles are counted: initial promotions and on-exit
       recompiles share this path *)
    rt.tiering.t_compiles <- rt.tiering.t_compiles + 1;
    if entry <> None then
      rt.tiering.t_osr_compiles <- rt.tiering.t_osr_compiles + 1;
    (!deps, epoch0)
  in
  match build () with
  | deps, epoch0 -> Ok (entry_point, deps, epoch0)
  | exception e -> Error (Printexc.to_string e)

(* The raw compile step, shared by the synchronous hook below and the
   background JIT workers ([Bgjit] injects it as the pool's compile
   function): stage + optimize + backend, no installation, no tier-state
   bookkeeping.  Returns the entry point together with the devirtualization
   dependencies (method names the code speculates on) and the hierarchy
   epoch the compile started from, so installers can reject code built
   against a hierarchy that changed mid-compile.  [None] means the method
   cannot be compiled. *)
let compile rt (m : meth) :
    ((value array -> value) * string list * int) option =
  match m.mcode with
  | Native _ -> None
  | Bytecode _ -> Result.to_option (compile_method_dyn rt m)

(* The [t_osr] hook: compile [m] from the loop header at [pc] for a frame
   holding [locals] and publish the outcome into [cell].  The code admits a
   frame whose locals still have the kinds it was built for, and, when it
   speculated on receiver types, only while the class hierarchy stands
   where the compile found it.  A header whose compile failed is journaled
   and never tried again. *)
let osr rt (m : meth) pc locals cell =
  let key = (m.mid, pc) in
  let failed_before () =
    Vm.Runtime.with_tier_lock rt (fun () ->
        Hashtbl.mem rt.tiering.t_osr_failed key)
  in
  let outcome =
    if failed_before () then Osr_failed
    else
      let e = C.entry_at ~pc locals in
      match compile_method_dyn ~entry:e rt m with
      | Ok (fn, deps, epoch0) ->
        Osr_ready
          {
            osr_admits =
              (fun ls ->
                C.admits e ls && (deps = [] || Vm.Runtime.hier_epoch rt = epoch0));
            osr_run = fn;
          }
      | Error err ->
        Vm.Runtime.with_tier_lock rt (fun () ->
            Hashtbl.replace rt.tiering.t_osr_failed key ());
        if !Obs.enabled then
          Obs.emit
            (Obs.Osr_decline
               {
                 meth = Vm.Runtime.meth_label m;
                 mid = m.mid;
                 pc;
                 why = err;
                 cause = Obs.Unattributed;
               });
        Osr_failed
  in
  Atomic.set cell outcome

let jit_hook rt (m : meth) : jit_result =
  (* speculative code built across a hierarchy change must not be
     installed; retry against the new epoch a few times, then decline *)
  let rec go attempts =
    match compile rt m with
    | None -> Jit_declined
    | Some (fn, deps, epoch0) ->
      if deps = [] || Vm.Runtime.hier_epoch rt = epoch0 then begin
        Vm.Runtime.devirt_register rt deps m;
        Jit_compiled fn
      end
      else begin
        (* speculative code built across a hierarchy change: discarded
           before it was ever installed *)
        if !Obs.enabled then
          Obs.emit
            (Obs.Compile_discard
               {
                 meth = Vm.Runtime.meth_label m;
                 mid = m.mid;
                 cause =
                   Obs.Epoch_mismatch
                     { expected = epoch0; found = Vm.Runtime.hier_epoch rt };
               });
        if attempts > 1 then go (attempts - 1) else Jit_declined
      end
  in
  go 3

(* Install the tier-1 compiler; promotion still requires the runtime to have
   tiering enabled ([Runtime.create ~tiering:true] or [rt.tiering.t_enabled]). *)
let install rt =
  rt.jit_hook <- Some jit_hook;
  rt.tiering.t_osr <- Some (osr rt)

(* Upgrade tier-1 code to native code on the mutator, at the call that
   makes the upgrade due, instead of queueing it for a background worker.
   For tests, which need the native code in place at a known call; no
   user option reaches it. *)
let native_sync rt =
  rt.tiering.t_native <-
    Some
      (fun job ->
        match
          job.nj_build { nw_pid = Atomic.make 0; nw_meanwhile = (fun () -> false) }
        with
        | Ok fn -> ignore (job.nj_install fn)
        | Error _ -> ())
