(* Runtime bridge between compiled bytecode and the Delite execution engine.
   Accelerator macros replace OptiML/ArrayOps calls with [Delite_call] IR
   extension nodes; this module implements those nodes: it unwraps VM values
   (DenseMatrix/DenseVector objects, closures), runs the corresponding
   parallel Delite op on the configured device, and wraps results back. *)

open Vm.Types

type Lms.Ir.ext_op += Delite_call of string

(* device used by Delite ops triggered from bytecode, set by benches *)
let device : Delite.Exec.device ref = ref Delite.Exec.Seq

(* accumulated modeled seconds spent in Delite ops (reset per measurement) *)
let op_seconds : float ref = ref 0.0
let reset_op_seconds () = op_seconds := 0.0
let note (t : Delite.Exec.timing) = op_seconds := !op_seconds +. t.modeled

(* ---- closure compilation cache ---- *)

(* Closures passed to Delite ops are Lancet-compiled once per closure class
   (receiver dynamic, so per-iteration closures reuse the same code).  The
   cache is keyed by the class record itself: class ids repeat across
   runtimes, and an entry lives no longer than its class. *)
module Class_table = Ephemeron.K1.Make (struct
  type t = cls

  let equal = ( == )
  let hash c = c.cid
end)

let closure_cache : (value array -> value) Class_table.t = Class_table.create 16

let compiled_apply rt (clo : value) : value array -> value =
  match clo with
  | Obj o -> (
    let cls = o.ocls in
    match Class_table.find_opt closure_cache cls with
    | Some fn -> fun args -> fn args
    | None ->
      let apply = Vm.Classfile.resolve_virtual cls "apply" in
      let fn =
        match apply.mcode with
        | Bytecode _ ->
          let spec =
            Array.init (apply.mnargs + 1) (fun _ -> Lancet.Compiler.Dyn)
          in
          Lancet.Compiler.compile_method rt apply spec
        | Native _ -> fun args -> Vm.Interp.call rt apply args
      in
      Class_table.replace closure_cache cls fn;
      fn)
  | _ -> vm_error "Delite bridge: not a closure"

let call1 rt clo =
  let fn = compiled_apply rt clo in
  fun v -> fn [| clo; v |]

(* ---- VM value accessors ---- *)

let obj_field o i = o.ofields.(i)

let matrix_of rt v =
  match v with
  | Obj o when o.ocls.cname = "DenseMatrix" ->
    let data = Vm.Value.to_farr (obj_field o 0) in
    let rows = Vm.Value.to_int (obj_field o 1) in
    let cols = Vm.Value.to_int (obj_field o 2) in
    (data, rows, cols)
  | _ ->
    ignore rt;
    vm_error "expected a DenseMatrix"

let vector_data v =
  match v with
  | Obj o when o.ocls.cname = "DenseVector" -> Vm.Value.to_farr (obj_field o 0)
  | Farr a -> a
  | _ -> vm_error "expected a DenseVector"

let wrap_vector rt (a : float array) : value =
  let cls = Vm.Classfile.find_class rt "DenseVector" in
  let o = Vm.Runtime.alloc rt cls in
  o.ofields.(0) <- Farr a;
  Obj o

let wrap_matrix rt (a : float array) ~rows ~cols : value =
  let cls = Vm.Classfile.find_class rt "DenseMatrix" in
  let o = Vm.Runtime.alloc rt cls in
  o.ofields.(0) <- Farr a;
  o.ofields.(1) <- Int rows;
  o.ofields.(2) <- Int cols;
  Obj o

(* ---- op implementations ---- *)

let op_sum rt (args : value array) : value =
  (* args: start stop size block *)
  let start = Vm.Value.to_int args.(0) in
  let stop = Vm.Value.to_int args.(1) in
  let size = Vm.Value.to_int args.(2) in
  let block = call1 rt args.(3) in
  let out, t =
    Delite.Rows.sum_rows ~dev:!device ~start ~stop ~size ~block:(fun i tmp ->
        let v = block (Int i) in
        let d = vector_data v in
        Array.blit d 0 tmp 0 size)
  in
  note t;
  wrap_vector rt out

let op_sum_scalar rt (args : value array) : value =
  let start = Vm.Value.to_int args.(0) in
  let stop = Vm.Value.to_int args.(1) in
  let f = call1 rt args.(2) in
  let out, t =
    Delite.Rows.sum_scalar ~dev:!device ~start ~stop ~f:(fun i ->
        Vm.Value.to_float (f (Int i)))
  in
  note t;
  Float out

let op_group_sum rt (args : value array) : value =
  (* args: start stop groups size key block *)
  let start = Vm.Value.to_int args.(0) in
  let stop = Vm.Value.to_int args.(1) in
  let groups = Vm.Value.to_int args.(2) in
  let size = Vm.Value.to_int args.(3) in
  let key = call1 rt args.(4) in
  let block = call1 rt args.(5) in
  let sums, _counts, t =
    Delite.Rows.group_sum ~dev:!device ~start ~stop ~groups ~size
      ~key:(fun i -> Vm.Value.to_int (key (Int i)))
      ~block:(fun i acc _g ->
        let d = vector_data (block (Int i)) in
        for j = 0 to size - 1 do
          acc.(j) <- acc.(j) +. d.(j)
        done)
  in
  note t;
  let flat = Array.make (groups * size) 0.0 in
  Array.iteri (fun g row -> Array.blit row 0 flat (g * size) size) sums;
  wrap_matrix rt flat ~rows:groups ~cols:size

let op_group_count rt (args : value array) : value =
  let start = Vm.Value.to_int args.(0) in
  let stop = Vm.Value.to_int args.(1) in
  let groups = Vm.Value.to_int args.(2) in
  let key = call1 rt args.(3) in
  let _sums, counts, t =
    Delite.Rows.group_sum ~dev:!device ~start ~stop ~groups ~size:0
      ~key:(fun i -> Vm.Value.to_int (key (Int i)))
      ~block:(fun _ _ _ -> ())
  in
  note t;
  Farr (Array.map float_of_int counts)

(* the whole-pipeline accelerator for totalScore: one fused pass, SoA, no
   Pair allocation, parallel *)
let op_total_score rt (args : value array) : value =
  let names = Vm.Value.to_arr args.(0) in
  let score_clo = args.(1) in
  let score = call1 rt score_clo in
  let n = Array.length names in
  let out, t =
    Delite.Rows.sum_scalar ~dev:!device ~start:0 ~stop:n ~f:(fun i ->
        let s = Vm.Value.to_float (score names.(i)) in
        float_of_int (i + 1) *. s)
  in
  note t;
  Float out

let dispatch rt name (args : value array) : value =
  match name with
  | "sum" -> op_sum rt args
  | "sum_scalar" -> op_sum_scalar rt args
  | "group_sum" -> op_group_sum rt args
  | "group_count" -> op_group_count rt args
  | "total_score" -> op_total_score rt args
  | _ -> vm_error "unknown Delite op %s" name

(* register the lowering's handler for Delite_call nodes *)
let () =
  Lms.Hooks.register_ext (fun hooks op getters ->
      match op with
      | Delite_call name ->
        let rt = hooks.Lms.Hooks.rt in
        Some
          (fun env ->
            let args = Array.map (fun g -> g env) getters in
            dispatch rt name args)
      | _ -> None);
  Lms.Pretty.register_ext (function
    | Delite_call name -> Some (Printf.sprintf "delite.%s" name)
    | _ -> None)
