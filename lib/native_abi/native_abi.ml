(* The one module a native-tier plugin links against.  A plugin is an OCaml
   unit emitted from a tier-1 graph ([Lms.Native_emit]), built with
   [ocamlopt -shared] and loaded with Dynlink ([Lms.Native_tier]).  Its
   top level registers its maker here, under the digest of its source; the
   host then looks the maker up and hands it an [env].

   Everything that depends on the runtime reaches the plugin through the
   [env]: constants that are not ints or floats, residual calls, object
   allocations, globals, side exits and the typed kernel the plugin
   replaces.  So the source does not depend on the runtime, every runtime
   that emits the same source shares one loaded copy, and the plugin
   imports no implementation but this one. *)

open Vm.Types

type env = {
  consts : value array; (* constants that are neither ints nor floats *)
  calls : (value array -> value) array; (* residual static/virtual calls *)
  call_closure : value -> value array -> value;
  news : (unit -> value) array; (* object allocations *)
  get_global : int -> value;
  set_global : int -> value -> unit;
  exits : (value array -> value) array;
      (* side exits: the tier's [on_exit] over the flattened frame values *)
  typed : value array -> value;
      (* the kernel the native code replaced, called when an argument fails
         the entry check *)
}

type maker = env -> value array -> value

let makers : (string, maker) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

(* Called by a plugin's top level while Dynlink loads it. *)
let register digest (make : maker) =
  Mutex.protect lock (fun () -> Hashtbl.replace makers digest make)

let find digest = Mutex.protect lock (fun () -> Hashtbl.find_opt makers digest)

(* The interpreter's errors, out of line so the plugin's hot paths stay
   small. *)
let error msg = raise (Vm_error msg)
let to_int = Vm.Value.to_int
let to_float = Vm.Value.to_float
let to_obj = Vm.Value.to_obj
let to_arr = Vm.Value.to_arr
let to_farr = Vm.Value.to_farr
