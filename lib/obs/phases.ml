(* The shared vocabulary of JIT pipeline phases.

   Before this module every layer spelled phase names by hand: the compiler
   opened spans called "stage:..." and "opt:dce", the backends "backend:closure"
   and "backend:typed", the Mini front end "front:parse" — and nothing else
   could rely on those strings.  Irtrace snapshots, the `lancet ir --phase`
   filter and the Obs span labels now all derive from the one [t] below, so a
   phase renamed here renames everywhere at once.

   [t] names the points where an IR snapshot can be taken; the span helpers
   at the bottom cover the remaining (non-snapshot) span labels so no caller
   is left with a bare string literal. *)

type t =
  | Stage (* staged graph as built; builder CSE has already run *)
  | Dce (* after dead-code elimination *)
  | Guards of string (* after branch/guard fusion in the named backend *)
  | Schedule of string (* final per-backend schedule ("closure"/"typed") *)

let name = function
  | Stage -> "stage"
  | Dce -> "dce"
  | Guards b -> "guards:" ^ b
  | Schedule b -> "schedule:" ^ b

(* Pipeline order, used to render phase sequences consistently. *)
let index = function Stage -> 0 | Dce -> 1 | Guards _ -> 2 | Schedule _ -> 3

(* Loose match for CLI filters: "--phase dce" and "--phase typed" both work.
   Substring search is inlined here: obs sits below Vm so it cannot reuse
   [Vm.Strutil.contains_sub]. *)
let matches ~filter phase_name =
  let nf = String.length filter and np = String.length phase_name in
  let rec at i =
    if i + nf > np then false
    else if String.sub phase_name i nf = filter then true
    else at (i + 1)
  in
  nf = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Span labels (the Obs event-bus vocabulary)                          *)

let cat_jit = "jit"
let cat_front = "front"

(* "stage:tier:Cls.meth" — one span per staging run, named by the compile. *)
let span_stage compile_name = "stage:" ^ compile_name

(* Retains the historical "opt:" prefix: DCE is the one graph-level opt pass. *)
let span_dce = "opt:dce"
let span_backend b = "backend:" ^ b
let span_front p = "front:" ^ p
