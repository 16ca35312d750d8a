(* OptiML accelerator macros (paper Fig. 8 / Sec. 3.4): installed against a
   runtime, they intercept calls to the pure-library entry points during
   Lancet compilation and replace them with Delite op nodes.  The library
   itself contains no staging annotations — acceleration is added
   "after-the-fact". *)

module C = Lancet.Compiler
module Ir = Lms.Ir

(* emit a Delite op node; all arguments become runtime values *)
let delite_node ctx name (args : C.rep array) : C.macro_result =
  let args = Array.map (C.resolve_materialized ctx) args in
  C.clobber ctx;
  C.Val (C.emit ctx (Ir.Ext (Bridge.Delite_call name)) args Ir.Tany)

(* macros receive [recv; args...]; the receiver (the OptiML singleton) is
   dropped — the ops are static in spirit *)
let drop_recv args = Array.sub args 1 (Array.length args - 1)

let sum_macro ctx args = delite_node ctx "sum" (drop_recv args)
let sum_scalar_macro ctx args = delite_node ctx "sum_scalar" (drop_recv args)
let group_sum_macro ctx args = delite_node ctx "group_sum" (drop_recv args)
let group_count_macro ctx args = delite_node ctx "group_count" (drop_recv args)

(* ArrayOps.total_score(names): the retroactive accelerator macro for an
   existing library (Sec. 3.4 "Accelerating Existing Libraries").  It needs
   the library's own [score] function as a runtime closure: we synthesize
   one over ArrayOps.score and pass it to the fused kernel. *)
let total_score_macro ctx (args : C.rep array) : C.macro_result =
  let recv = args.(0) in
  let names = args.(1) in
  (* build a closure value calling ArrayOps.score on the real receiver *)
  let recv_v = C.evalM ctx recv in
  let rt = ctx.C.rt in
  let score_m =
    match recv_v with
    | Vm.Types.Obj o -> Vm.Classfile.resolve_virtual o.Vm.Types.ocls "score"
    | _ -> Lancet.Errors.compile_error "total_score: receiver not static"
  in
  let score_compiled =
    C.compile_method rt score_m [| C.Static_value recv_v; C.Dyn |]
  in
  let score_fn = Vm.Natives.make_compiled_fn rt score_compiled in
  delite_node ctx "total_score" [| names; C.lift_const ctx score_fn |]

let install rt =
  C.register_macro rt ~cls:"OptiML" ~name:"sum" sum_macro;
  C.register_macro rt ~cls:"OptiML" ~name:"sum_scalar" sum_scalar_macro;
  C.register_macro rt ~cls:"OptiML" ~name:"group_sum" group_sum_macro;
  C.register_macro rt ~cls:"OptiML" ~name:"group_count" group_count_macro;
  C.register_macro rt ~cls:"ArrayOps" ~name:"total_score" total_score_macro
