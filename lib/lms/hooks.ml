(* What lowered code calls back into at run time.  The handlers for residual
   calls and side exits are injected by the client (Lancet wires them to the
   interpreter and its recompilation machinery), and each library that
   plants extension ops ([Ir.Ext]: Delite calls, continuations, JS calls)
   registers a compiler for them here. *)

open Ir

exception Compile_unsupported of string

type env = Vm.Types.value array

type hooks = {
  rt : Vm.Types.runtime;
  call_static : Vm.Types.meth -> Vm.Types.value array -> Vm.Types.value;
  call_virtual : string -> Vm.Types.value array -> Vm.Types.value;
  call_closure : Vm.Types.value -> Vm.Types.value array -> Vm.Types.value;
  on_exit : side_exit -> Vm.Types.value array -> Vm.Types.value;
      (* receives the current values of all syms referenced by the exit's
         frame descriptors, flattened innermost-first, locals then stack *)
}

(* An extension op's compiler: given getters of its arguments from a boxed
   register file, the code computing its result, or [None] for an op of
   another library. *)
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
