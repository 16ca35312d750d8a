(* Two names for the boxed mode of the one execution lowering
   ([Typed_backend]).  This module exists only for the benchmark's per-layer
   trace (perfbench/trace.ml), which calls them; everything else uses
   [Hooks.default_hooks] and [Typed_backend.compile_boxed]. *)

let default_hooks = Hooks.default_hooks

let compile ~hooks g = Typed_backend.compile_boxed ~hooks g
