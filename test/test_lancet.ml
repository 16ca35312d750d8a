(* Tests for the Lancet core: explicit compilation, specialization through
   abstract interpretation, partial escape analysis, JIT macros, controlled
   inlining, speculation/deoptimization and JIT analyses. *)

open Vm.Types
module C = Lancet.Compiler

let check_value = Alcotest.check Util.value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* boot a runtime with the JIT installed and a Mini program loaded *)
let load src =
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt src in
  (rt, p)

(* fetch a closure produced by Mini function [fname], compile it, and return
   both the compiled entry and a plain-interpretation entry *)
let compile_closure_of (rt, p) fname =
  let clo = Mini.Front.call p fname [||] in
  let compiled = C.compile_value rt clo in
  let call_compiled args = Vm.Interp.call_closure rt compiled args in
  let call_interp args = Vm.Interp.call_closure rt clo args in
  (call_compiled, call_interp)

let graph_nodes () =
  match !C.last_graph with
  | Some g -> Lms.Ir.node_count g
  | None -> Alcotest.fail "no graph recorded"

(* ---------- basic compilation ---------- *)

let test_compile_identity () =
  let h = load "def make(): (int) -> int = fun (x: int) => x + 1" in
  let compiled, interp = compile_closure_of h "make" in
  check_value "compiled x+1" (Int 42) (compiled [| Int 41 |]);
  check_value "interp matches" (interp [| Int 41 |]) (compiled [| Int 41 |])

let test_compile_capture_const () =
  (* captured val becomes a compile-time constant: residual code is tiny *)
  let h =
    load
      "def make(): (int) -> int = { val k = 10; val c = k * 10; fun (x: int) \
       => x * c + k }"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "x*100+10" (Int 510) (compiled [| Int 5 |]);
  (* one multiply + one add survive; the captures folded *)
  check_int "residual node count" 2 (graph_nodes ())

let test_compile_loop () =
  let h =
    load
      "def make(): (int) -> int = fun (n: int) => { var i = 0; var acc = 0; \
       while (i < n) { acc = acc + i; i = i + 1 }; acc }"
  in
  let compiled, interp = compile_closure_of h "make" in
  check_value "sum 100" (Int 4950) (compiled [| Int 100 |]);
  check_value "sum 0" (Int 0) (compiled [| Int 0 |]);
  check_value "consistent" (interp [| Int 17 |]) (compiled [| Int 17 |])

let test_compile_branch () =
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => if (x < 0) -x else x"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "abs -7" (Int 7) (compiled [| Int (-7) |]);
  check_value "abs 7" (Int 7) (compiled [| Int 7 |])

let test_constant_folding_through_branch () =
  (* statically-true condition folds the whole branch away *)
  let h =
    load
      "def make(): (int) -> int = { val flag = true; fun (x: int) => if \
       (flag) x + 1 else x - 1 }"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "took then branch" (Int 6) (compiled [| Int 5 |]);
  check_int "branch eliminated" 1 (graph_nodes ())

let test_inlined_helper () =
  (* calls are inlined by default; the helper disappears *)
  let h =
    load
      "def double(x: int): int = x * 2\n\
       def make(): (int) -> int = fun (x: int) => double(x) + double(x)"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "2x+2x" (Int 20) (compiled [| Int 5 |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "no residual calls" false (Util.contains_sub s "call Main")

let test_virtual_object_elided () =
  (* the paper's headline: object allocation compiled away entirely *)
  let h =
    load
      {|
class Pair {
  val a: int
  val b: int
  def init(a: int, b: int): unit = { this.a = a; this.b = b }
  def sum(): int = this.a + this.b
}
def make(): (int) -> int = fun (x: int) => {
  val p = new Pair(x, x * 2);
  p.sum()
}
|}
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "pair sum" (Int 15) (compiled [| Int 5 |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "no allocation in residual code" false (Util.contains_sub s "new Pair");
  check_bool "no field reads either" false (Util.contains_sub s "getfield")

let test_virtual_across_branch () =
  (* virtual object flows through a join without materializing *)
  let h =
    load
      {|
class Box2 {
  var v: int
  def init(v: int): unit = { this.v = v }
}
def make(): (int) -> int = fun (x: int) => {
  val b = new Box2(1);
  if (x > 0) { b.v = x } else { b.v = -x };
  b.v + 100
}
|}
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "pos" (Int 105) (compiled [| Int 5 |]);
  check_value "neg" (Int 103) (compiled [| Int (-3) |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "Box2 never allocated" false (Util.contains_sub s "new Box2")

let test_escape_materializes () =
  (* storing the object into an array forces materialization *)
  let h =
    load
      {|
class Cell { var v: int; def init(v: int): unit = { this.v = v } }
def make(): (array[Cell]) -> int = fun (out: array[Cell]) => {
  val c = new Cell(7);
  out[0] = c;
  c.v
}
|}
  in
  let rt, _ = h in
  let compiled, _ = compile_closure_of h "make" in
  let arr = Arr [| Null |] in
  check_value "returns field" (Int 7) (compiled [| arr |]);
  (match (Vm.Value.to_arr arr).(0) with
  | Obj o -> check_value "escaped object holds 7" (Int 7) o.ofields.(0)
  | _ -> Alcotest.fail "object did not escape");
  ignore rt

(* ---------- macros ---------- *)

let test_freeze () =
  let h =
    load
      {|
def make(): (int) -> int = {
  val table = new array[int](4);
  table[0] = 100; table[1] = 200; table[2] = 300; table[3] = 400;
  fun (i: int) => Lancet.freeze(fun () => table[2]) + i
}
|}
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "frozen read" (Int 301) (compiled [| Int 1 |]);
  (* residual: just one add — the array read happened at compile time *)
  check_int "array read folded" 1 (graph_nodes ())

let test_freeze_dynamic_fails () =
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => Lancet.freeze(fun () => x + 1)"
  in
  let rt, p = h in
  let clo = Mini.Front.call p "make" [||] in
  (match C.compile_value rt clo with
  | exception Lancet.Errors.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected Compile_error for dynamic freeze")

let test_ntimes_unrolls () =
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => { var acc = 0; Lancet.ntimes(4, \
       fun (i: int) => { acc = acc + x + i }); acc }"
  in
  let compiled, interp = compile_closure_of h "make" in
  check_value "unrolled sum" (Int 26) (compiled [| Int 5 |]);
  check_value "same as interp" (interp [| Int 5 |]) (compiled [| Int 5 |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "loop gone (no blocks with params)" false (Util.contains_sub s "jump")

let test_speculate () =
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => if (Lancet.speculate(x < 100)) \
       x + 1 else x * 1000"
  in
  let compiled, _ = compile_closure_of h "make" in
  let d0 = !C.count_deopts in
  check_value "fast path" (Int 6) (compiled [| Int 5 |]);
  check_int "no deopt on fast path" d0 !C.count_deopts;
  (* speculation fails: deoptimize into the interpreter, still correct *)
  check_value "slow path via interpreter" (Int 500000) (compiled [| Int 500 |]);
  check_int "one deopt" (d0 + 1) !C.count_deopts

let test_slowpath_diverges_branch () =
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => if (x < 100) x + 1 else { \
       Lancet.slowpath(); x * 1000 }"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "fast" (Int 2) (compiled [| Int 1 |]);
  check_value "deopt path result" (Int 7000000) (compiled [| Int 7000 |]);
  (* the slow-path multiply must NOT be in compiled code *)
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "multiply eliminated from compiled code" false
    (Util.contains_sub s "imul")

let test_stable_recompiles () =
  let h =
    load
      {|
var mode: int = 1
def make(): (int) -> int = fun (x: int) =>
  if (Lancet.stable(fun () => mode == 1)) x + 1 else x - 1
|}
  in
  let rt, p = h in
  let clo = Mini.Front.call p "make" [||] in
  let compiled = C.compile_value rt clo in
  let call args = Vm.Interp.call_closure rt compiled args in
  check_value "stable true" (Int 11) (call [| Int 10 |]);
  let r0 = !C.count_recompiles in
  (* flip the mode: guard fails once, recompilation kicks in *)
  Vm.Runtime.set_global rt 0 (Int 2);
  check_value "after flip, correct result" (Int 9) (call [| Int 10 |]);
  check_int "one recompile" (r0 + 1) !C.count_recompiles;
  (* subsequent calls run the recompiled fast path, no further deopts *)
  let d = !C.count_deopts in
  check_value "recompiled result" (Int 9) (call [| Int 10 |]);
  check_int "no new deopt" d !C.count_deopts

(* Every [stable] change rebuilds once, however many came before: after
   mode 1 -> 2 -> 1, steady calls run compiled code with no side exits.
   [compile_method] and [compile_value] share the rebuild cell. *)
let test_stable_rebuilds_repeatedly () =
  let rt, p =
    load
      {|
var mode: int = 1
def make(): (int) -> int = fun (x: int) =>
  if (Lancet.stable(fun () => mode == 1)) x + 1 else x - 1
|}
  in
  let clo = Mini.Front.call p "make" [||] in
  let apply =
    match clo with
    | Obj o -> Vm.Classfile.resolve_virtual o.ocls "apply"
    | _ -> Alcotest.fail "not a closure"
  in
  let via_method = C.compile_method rt apply [| C.Static_value clo; C.Dyn |] in
  let via_value = C.compile_value rt clo in
  List.iter
    (fun (name, call) ->
      let expect mode v =
        Vm.Runtime.set_global rt 0 (Int mode);
        check_value (name ^ " result") (Int v) (call 10)
      in
      let r0 = !C.count_recompiles in
      expect 1 11;
      expect 2 9;
      expect 1 11;
      check_int (name ^ ": one rebuild per flip") (r0 + 2) !C.count_recompiles;
      let d0 = !C.count_deopts in
      for _ = 1 to 5 do
        expect 1 11
      done;
      check_int (name ^ ": steady calls stay compiled") d0 !C.count_deopts;
      check_int (name ^ ": no further rebuilds") (r0 + 2) !C.count_recompiles)
    [
      ("compile_method", fun x -> via_method [| Int x |]);
      ( "compile_value",
        fun x -> Vm.Interp.call_closure rt via_value [| Int x |] );
    ]

let test_inline_never_directive () =
  let h =
    load
      "def helper(x: int): int = x * 3\n\
       def make(): (int) -> int = fun (x: int) => Lancet.inline_never(fun () \
       => helper(x) + 1)"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "correct result" (Int 16) (compiled [| Int 5 |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "helper remains a call" true (Util.contains_sub s ".helper")

let test_at_scope () =
  let h =
    load
      "def io_write(x: int): int = x + 1\n\
       def work(x: int): int = io_write(x) * 2\n\
       def make(): (int) -> int = fun (x: int) => Lancet.at_scope(\"io_\", \
       \"inline_never\", fun () => work(x))"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "correct" (Int 12) (compiled [| Int 5 |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  check_bool "io_write not inlined" true (Util.contains_sub s ".io_write");
  check_bool "work was inlined" false (Util.contains_sub s ".work")

let test_check_no_alloc_pass () =
  let h =
    load
      {|
class P2 { val a: int; def init(a: int): unit = { this.a = a } }
def make(): (int) -> int = fun (x: int) =>
  Lancet.check_no_alloc(fun () => { val p = new P2(x); p.a + 1 })
|}
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "no-alloc region runs" (Int 8) (compiled [| Int 7 |])

let test_check_no_alloc_fail () =
  let h =
    load
      "def make(): (int) -> array[int] = fun (x: int) => \
       Lancet.check_no_alloc(fun () => new array[int](x))"
  in
  let rt, p = h in
  let clo = Mini.Front.call p "make" [||] in
  (match C.compile_value rt clo with
  | exception Lancet.Errors.Compile_error msg ->
    check_bool "mentions allocation" true (Util.contains_sub msg "alloc")
  | _ -> Alcotest.fail "expected checkNoAlloc to fail")

let test_taint_leak () =
  let h =
    load
      "def make(): (int) -> unit = fun (x: int) => Lancet.check_no_leak(fun \
       () => { val secret = Lancet.taint(x); Sys.println(secret) })"
  in
  let rt, p = h in
  let clo = Mini.Front.call p "make" [||] in
  (match C.compile_value rt clo with
  | exception Lancet.Errors.Compile_error msg ->
    check_bool "mentions sink" true (Util.contains_sub msg "sink")
  | _ -> Alcotest.fail "expected checkNoLeak to fail")

let test_taint_untaint_ok () =
  let h =
    load
      "def make(): (int) -> unit = fun (x: int) => Lancet.check_no_leak(fun \
       () => { val secret = Lancet.taint(x); Sys.println(Lancet.untaint(secret)) })"
  in
  let compiled, _ = compile_closure_of h "make" in
  let out, _ =
    Vm.Runtime.capture_output (fst h) (fun () -> compiled [| Int 5 |])
  in
  Alcotest.(check string) "prints" "5\n" out

let test_compiled_string_ops_fold () =
  (* pure natives on constants fold at compile time *)
  let h =
    load
      {|
def make(): (int) -> int = {
  val s = "hello,world";
  fun (x: int) => Str.index_of(s, ",") + x
}
|}
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "5 + 1" (Int 6) (compiled [| Int 1 |]);
  check_int "index_of folded away" 1 (graph_nodes ())

(* the two-way integration: bytecode invoking Lancet.compile at runtime *)
let test_compile_from_bytecode () =
  let h =
    load
      {|
def main(): int = {
  val k = 10;
  val f = Lancet.compile(fun (x: int) => x * k);
  f(5) + f(6)
}
|}
  in
  let rt, p = h in
  ignore rt;
  check_value "compiled within program" (Int 110) (Mini.Front.call p "main" [||])

let suite =
  [
    Alcotest.test_case "compile-identity" `Quick test_compile_identity;
    Alcotest.test_case "capture-const" `Quick test_compile_capture_const;
    Alcotest.test_case "compile-loop" `Quick test_compile_loop;
    Alcotest.test_case "compile-branch" `Quick test_compile_branch;
    Alcotest.test_case "fold-static-branch" `Quick test_constant_folding_through_branch;
    Alcotest.test_case "inline-helper" `Quick test_inlined_helper;
    Alcotest.test_case "virtual-object-elided" `Quick test_virtual_object_elided;
    Alcotest.test_case "virtual-across-branch" `Quick test_virtual_across_branch;
    Alcotest.test_case "escape-materializes" `Quick test_escape_materializes;
    Alcotest.test_case "freeze" `Quick test_freeze;
    Alcotest.test_case "freeze-dynamic-fails" `Quick test_freeze_dynamic_fails;
    Alcotest.test_case "ntimes-unrolls" `Quick test_ntimes_unrolls;
    Alcotest.test_case "speculate-deopt" `Quick test_speculate;
    Alcotest.test_case "slowpath" `Quick test_slowpath_diverges_branch;
    Alcotest.test_case "stable-recompile" `Quick test_stable_recompiles;
    Alcotest.test_case "stable-rebuilds-repeatedly" `Quick
      test_stable_rebuilds_repeatedly;
    Alcotest.test_case "inline-never" `Quick test_inline_never_directive;
    Alcotest.test_case "at-scope" `Quick test_at_scope;
    Alcotest.test_case "check-no-alloc-pass" `Quick test_check_no_alloc_pass;
    Alcotest.test_case "check-no-alloc-fail" `Quick test_check_no_alloc_fail;
    Alcotest.test_case "taint-leak" `Quick test_taint_leak;
    Alcotest.test_case "taint-untaint" `Quick test_taint_untaint_ok;
    Alcotest.test_case "fold-pure-natives" `Quick test_compiled_string_ops_fold;
    Alcotest.test_case "compile-from-bytecode" `Quick test_compile_from_bytecode;
  ]

(* ---------- property: compiled == interpreted on random programs ------- *)

let fresh_loop = ref 100

(* Int operands for the properties: small ones, and a pair at the 32-bit
   bounds, whose sums and products wrap. *)
let int_operands = [ (0, 0); (3, -7); (11, 5); (2147483647, -2147483648) ]

let gen_mini_stmts =
  QCheck.Gen.(
    let var = oneofl [ "c"; "r" ] in
    (* constants near the 32-bit bounds, so sums wrap at 2^31, and
       squares past 2^31 *)
    let big =
      oneof
        [
          map (fun d -> string_of_int (2147483647 - d)) (int_range 0 9);
          map (fun d -> string_of_int (d - 2147483647)) (int_range 0 9);
          oneofl [ "65536"; "46341"; "(-46341)" ];
        ]
    in
    let rec gen_exp k =
      if k <= 0 then
        frequency
          [
            (3, map string_of_int (int_range (-9) 9));
            (1, big);
            (4, oneofl [ "a"; "b"; "c"; "r" ]);
          ]
      else
        frequency
          [
            (2, gen_exp 0);
            ( 3,
              map2
                (fun x y -> Printf.sprintf "(%s + %s)" x y)
                (gen_exp (k / 2)) (gen_exp (k / 2)) );
            ( 2,
              map2
                (fun x y -> Printf.sprintf "(%s - %s)" x y)
                (gen_exp (k / 2)) (gen_exp (k / 2)) );
            ( 1,
              map2
                (fun x y -> Printf.sprintf "(%s * %s)" x y)
                (gen_exp (k / 2)) (gen_exp (k / 2)) );
          ]
    in
    let rec gen_stm k =
      let assign = map2 (Printf.sprintf "%s = %s") var (gen_exp 2) in
      if k <= 0 then assign
      else
        frequency
          [
            (3, assign);
            (2, map2 (Printf.sprintf "%s; %s") (gen_stm (k / 2)) (gen_stm (k / 2)));
            ( 2,
              map3
                (fun c t f ->
                  Printf.sprintf "if (%s < 3) { %s } else { %s }" c t f)
                (gen_exp 1) (gen_stm (k / 2)) (gen_stm (k / 2)) );
            ( 1,
              map2
                (fun bound body ->
                  incr fresh_loop;
                  let v = Printf.sprintf "l%d" !fresh_loop in
                  Printf.sprintf
                    "var %s = 0; while (%s < %d) { %s; %s = %s + 1 }" v v bound
                    body v v)
                (int_range 0 6) (gen_stm (k / 3)) );
          ]
    in
    sized (fun k -> gen_stm (min k 12)))

let prop_compiled_equals_interpreted =
  QCheck.Test.make ~name:"Lancet-compiled == interpreted" ~count:120
    (QCheck.make ~print:(fun s -> s) gen_mini_stmts)
    (fun stmts ->
      let src =
        Printf.sprintf
          "def make(): (int, int) -> int = fun (a: int, b: int) => { var c = \
           0; var r = 0; %s; r }"
          stmts
      in
      let rt = Lancet.Api.boot () in
      let p = Mini.Front.load rt src in
      let clo = Mini.Front.call p "make" [||] in
      let compiled = C.compile_value rt clo in
      List.for_all
        (fun (a, b) ->
          Vm.Value.equal
            (Vm.Interp.call_closure rt clo [| Int a; Int b |])
            (Vm.Interp.call_closure rt compiled [| Int a; Int b |]))
        ((-2, 9) :: int_operands))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_compiled_equals_interpreted ]

(* ---------- delimited continuations (paper Sec. 3.2 shift/reset) ------- *)

let test_reset_no_shift () =
  let h =
    load "def make(): (int) -> int = fun (x: int) => Lancet.reset(fun () => x + 1)"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "plain reset" (Int 6) (compiled [| Int 5 |])

let test_shift_abort () =
  (* shift that never invokes k: aborts to the reset with the body's value *)
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => Lancet.reset(fun () => \
       Lancet.shift(fun (k: (int) -> int) => 42) + x)"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "abort discards continuation" (Int 42) (compiled [| Int 5 |])

let test_shift_invoke () =
  (* k(10) resumes the continuation: (10 + x) is computed in the interpreter *)
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => Lancet.reset(fun () => \
       Lancet.shift(fun (k: (int) -> int) => k(10) + 1) + x)"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "k(10) + 1 = (10 + 5) + 1" (Int 16) (compiled [| Int 5 |])

let test_shift_multishot () =
  (* invoking k twice: continuations are multi-shot *)
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => Lancet.reset(fun () => \
       Lancet.shift(fun (k: (int) -> int) => k(1) + k(2)) * x)"
  in
  let compiled, _ = compile_closure_of h "make" in
  (* k(v) = v * x; so k(1) + k(2) = x + 2x = 3x *)
  check_value "multi-shot" (Int 21) (compiled [| Int 7 |])

let test_shift_through_call () =
  (* the continuation crosses an inlined call boundary *)
  let h =
    load
      "def wrap(x: int): int = Lancet.shift(fun (k: (int) -> int) => k(x) + \
       1000)\n\
       def make(): (int) -> int = fun (x: int) => Lancet.reset(fun () => \
       wrap(x) * 2)"
  in
  let compiled, _ = compile_closure_of h "make" in
  (* k(v) = v * 2; result = x*2 + 1000 *)
  check_value "continuation across inlining" (Int 1010) (compiled [| Int 5 |])

let test_in_scope_directive () =
  (* inScope applies the directive inside the matched method *)
  let h =
    load
      "def inner(x: int): int = x * 3\n\
       def work(x: int): int = inner(x) + 1\n\
       def make(): (int) -> int = fun (x: int) => Lancet.in_scope(\"work\", \
       \"inline_never\", fun () => work(x))"
  in
  let compiled, _ = compile_closure_of h "make" in
  check_value "correct" (Int 16) (compiled [| Int 5 |]);
  let g = match !C.last_graph with Some g -> g | None -> assert false in
  let s = Lms.Pretty.graph_to_string g in
  (* work itself is inlined, but inner (inside work) is not *)
  check_bool "work inlined" false (Util.contains_sub s ".work");
  check_bool "inner residual" true (Util.contains_sub s ".inner")

let test_taint_branch () =
  (* branching on tainted data is flagged (timing side channels, Sec. 3.3) *)
  let h =
    load
      "def make(): (int) -> int = fun (x: int) => Lancet.check_no_leak(fun \
       () => { val secret = Lancet.taint(x); if (secret > 0) 1 else 0 })"
  in
  let rt, p = h in
  let clo = Mini.Front.call p "make" [||] in
  (match C.compile_value rt clo with
  | exception Lancet.Errors.Compile_error msg ->
    check_bool "mentions branch" true (Util.contains_sub msg "branch")
  | _ -> Alcotest.fail "expected branch-on-taint to be rejected");
  ignore rt

let test_ntimes_gated_unroll () =
  (* large trip counts stay loops unless unrollTopLevel is in scope *)
  let src k wrap =
    Printf.sprintf
      "def loopy(x: int): int = { var acc = 0; Lancet.ntimes(%d, fun (i: \
       int) => { acc = acc + i }); acc + x }\n\
       def make(): (int) -> int = fun (x: int) => %s"
      k wrap
  in
  let h = load (src 200 "loopy(x)") in
  let compiled, _ = compile_closure_of h "make" in
  check_value "big loop result" (Int (19900 + 5)) (compiled [| Int 5 |]);
  let s = Lms.Pretty.graph_to_string (Option.get !C.last_graph) in
  check_bool "stays a residual loop or call" true
    (Util.contains_sub s "jump" || Util.contains_sub s "ntimes");
  (* now under the directive (the paper's atScope("loopy")(unrollTopLevel)) *)
  let h2 =
    load
      (src 200
         "Lancet.at_scope(\"loopy\", \"unroll_top_level\", fun () => loopy(x))")
  in
  let compiled2, _ = compile_closure_of h2 "make" in
  check_value "unrolled result" (Int (19900 + 5)) (compiled2 [| Int 5 |]);
  let s2 = Lms.Pretty.graph_to_string (Option.get !C.last_graph) in
  check_bool "fully unrolled" false
    (Util.contains_sub s2 "jump" || Util.contains_sub s2 "ntimes")

(* typed backend == boxed backend == interpreter on random programs: both
   backends compile the same staged graph *)
let prop_typed_equals_boxed =
  QCheck.Test.make ~name:"typed backend == boxed backend" ~count:80
    (QCheck.make ~print:(fun s -> s) gen_mini_stmts)
    (fun stmts ->
      let src =
        Printf.sprintf
          "def f(a: int, b: int): int = { var c = 0; var r = 0; %s; r }" stmts
      in
      let rt = Lancet.Api.boot () in
      let p = Mini.Front.load rt src in
      let m = Mini.Front.find_function p "f" in
      let g = C.stage rt m [| C.Dyn; C.Dyn |] in
      let hooks = Lms.Hooks.default_hooks rt in
      let boxed = Lms.Typed_backend.compile_boxed ~hooks g in
      let typed = Lms.Typed_backend.compile ~hooks g in
      List.for_all
        (fun (a, b) ->
          let args = [| Int a; Int b |] in
          let interp = Vm.Interp.call rt m args in
          Vm.Value.equal interp (boxed args) && Vm.Value.equal interp (typed args))
        int_operands)

(* The float variant: float arithmetic mixing float and int literals, int
   to float conversions, float compares in [if] and [while], and loads and
   stores on a 4-element farray. *)
let gen_mini_float_stmts =
  QCheck.Gen.(
    let flit = oneofl [ "0.5"; "1.25"; "2.0"; "(-1.5)"; "3.0" ] in
    let ilit = map string_of_int (int_range (-4) 4) in
    let rec fexp k =
      if k <= 0 then
        oneof
          [
            flit;
            oneofl [ "a"; "b"; "c"; "r"; "i2f(k)" ];
            map (Printf.sprintf "xs[%d]") (int_range 0 3);
          ]
      else
        frequency
          [
            (2, fexp 0);
            ( 3,
              map3
                (Printf.sprintf "(%s %s %s)")
                (fexp (k / 2))
                (oneofl [ "+"; "-"; "*" ])
                (fexp (k / 2)) );
            ( 1,
              map3
                (Printf.sprintf "(%s %s %s)")
                (fexp (k / 2))
                (oneofl [ "+"; "*" ])
                ilit );
          ]
    in
    let cmp = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
    let rec gen_stm k =
      let assign =
        oneof
          [
            map2 (Printf.sprintf "%s = %s") (oneofl [ "c"; "r" ]) (fexp 2);
            map2 (Printf.sprintf "xs[%d] = %s") (int_range 0 3) (fexp 2);
            map2 (Printf.sprintf "k = k %s %s") (oneofl [ "+"; "-"; "*" ])
              (oneof [ ilit; return "m" ]);
          ]
      in
      if k <= 0 then assign
      else
        frequency
          [
            (3, assign);
            (2, map2 (Printf.sprintf "%s; %s") (gen_stm (k / 2)) (gen_stm (k / 2)));
            ( 2,
              let* x = fexp 1 and* op = cmp and* y = fexp 1 in
              map2
                (Printf.sprintf "if (%s %s %s) { %s } else { %s }" x op y)
                (gen_stm (k / 2)) (gen_stm (k / 2)) );
            ( 1,
              map2
                (fun bound body ->
                  incr fresh_loop;
                  let v = Printf.sprintf "w%d" !fresh_loop in
                  Printf.sprintf
                    "var %s = 0.0; while (%s < %s) { %s; %s = %s + 1.0 }" v v
                    bound body v v)
                (oneofl [ "0.5"; "2.5"; "4.0" ])
                (gen_stm (k / 3)) );
          ]
    in
    sized (fun k -> gen_stm (min k 12)))

let prop_typed_equals_boxed_float =
  QCheck.Test.make ~name:"typed backend == boxed backend (floats)" ~count:80
    (QCheck.make ~print:(fun s -> s) gen_mini_float_stmts)
    (fun stmts ->
      let src =
        Printf.sprintf
          "def f(a: float, b: float, m: int, xs: farray): float = { var c = \
           0.0; var r = 0.0; var k = m; %s; r + i2f(k) }"
          stmts
      in
      let rt = Lancet.Api.boot () in
      let p = Mini.Front.load rt src in
      let m = Mini.Front.find_function p "f" in
      let g = C.stage rt m [| C.Dyn; C.Dyn; C.Dyn; C.Dyn |] in
      let hooks = Lms.Hooks.default_hooks rt in
      let boxed = Lms.Typed_backend.compile_boxed ~hooks g in
      let typed = Lms.Typed_backend.compile ~hooks g in
      (* the result and the array after the call, floats bit for bit *)
      let run f (a, b, k) =
        let xs = [| 1.0; -2.0; 0.5; 4.0 |] in
        (f [| Float a; Float b; Int k; Farr xs |], xs)
      in
      let same (v, xs) (v', xs') =
        (match (v, v') with
        | Float x, Float y -> Float.equal x y
        | _ -> Vm.Value.equal v v')
        && Array.for_all2 Float.equal xs xs'
      in
      List.for_all
        (fun args ->
          let interp = run (Vm.Interp.call rt m) args in
          same interp (run boxed args) && same interp (run typed args))
        [ (0.5, -1.25, 3); (2.0, 0.0, -2); (-3.5, 1.5, 7) ])

(* Kernels for the typed backend's folding, threading and native loops:
   float and int arrays indexed by [u*k+v], [u+v] and [v-u] over the loop
   variables in scope, float ops on two loads, [x + y*z] and [x - y*z],
   nested [for]/[while] loops and int and float [if] compares.  Indices
   leave the 16-element arrays at the larger sizes, so errors are compared
   too. *)
let gen_mini_kernel =
  QCheck.Gen.(
    let idx vars =
      let var = oneofl vars in
      frequency
        [
          ( 3,
            map3 (Printf.sprintf "%s * %s + %s") var (oneofl [ "m"; "2"; "3" ]) var );
          (3, map2 (Printf.sprintf "%s + %s") var var);
          (1, map2 (Printf.sprintf "%s - %s") var var);
          (1, var);
          (1, map string_of_int (int_range 0 5));
        ]
    in
    let load vars =
      let* arr = oneofl [ "xs"; "ys" ] and* i = idx vars in
      return (Printf.sprintf "%s[%s]" arr i)
    in
    let rec fexp vars k =
      if k <= 0 then
        frequency
          [
            (2, oneofl [ "a"; "c"; "r"; "1.5"; "(-0.5)" ]);
            (3, load vars);
            (1, map (Printf.sprintf "i2f(zs[%s])") (idx vars));
          ]
      else
        frequency
          [
            (1, fexp vars 0);
            ( 3,
              map3 (Printf.sprintf "(%s %s %s)") (load vars)
                (oneofl [ "+"; "-"; "*"; "/" ])
                (load vars) );
            ( 2,
              map3 (Printf.sprintf "(%s %s %s)") (fexp vars (k / 2))
                (oneofl [ "+"; "-"; "*" ])
                (fexp vars (k / 2)) );
            ( 2,
              let* x = fexp vars (k / 2)
              and* op = oneofl [ "+"; "-" ]
              and* y = fexp vars (k / 2)
              and* z = fexp vars (k / 2) in
              return (Printf.sprintf "(%s %s %s * %s)" x op y z) );
          ]
    in
    let iexp vars =
      oneof
        [
          oneofl vars;
          map string_of_int (int_range (-2) 6);
          map (Printf.sprintf "zs[%s]") (idx vars);
          map2 (Printf.sprintf "(%s + %s)") (oneofl vars) (oneofl [ "1"; "m" ]);
        ]
    in
    let cmp = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
    let bound = oneofl [ "n"; "m"; "2"; "3" ] in
    (* built on demand: only the branches a draw takes are constructed *)
    let rec stm vars k = delay (fun () -> stm' vars k)
    and stm' vars k =
      let simple =
        frequency
          [
            (2, map2 (Printf.sprintf "%s = %s") (oneofl [ "c"; "r" ]) (fexp vars 2));
            ( 2,
              map3 (Printf.sprintf "%s[%s] = %s") (oneofl [ "xs"; "ys" ])
                (idx vars) (fexp vars 2) );
            (1, map2 (Printf.sprintf "zs[%s] = %s") (idx vars) (iexp vars));
            ( 2,
              map2 (Printf.sprintf "r = r + xs[%s] * ys[%s]") (idx vars)
                (idx vars) );
            ( 1,
              map2 (Printf.sprintf "%s = (%s) %% 5") (oneofl [ "i"; "j" ])
                (iexp vars) );
          ]
      in
      if k <= 0 then simple
      else
        let fresh prefix =
          incr fresh_loop;
          Printf.sprintf "%s%d" prefix !fresh_loop
        in
        frequency
          [
            (3, simple);
            (2, map2 (Printf.sprintf "%s; %s") (stm vars (k / 2)) (stm vars (k / 2)));
            ( 1,
              let* x = fexp vars 1 and* op = cmp and* y = fexp vars 1 in
              map2
                (Printf.sprintf "if (%s %s %s) { %s } else { %s }" x op y)
                (stm vars (k / 2)) (stm vars (k / 2)) );
            ( 1,
              let* x = iexp vars and* op = cmp and* y = iexp vars in
              map2
                (Printf.sprintf "if (%s %s %s) { %s } else { %s }" x op y)
                (stm vars (k / 2)) (stm vars (k / 2)) );
            (* a store between two loads *)
            ( 1,
              let t = fresh "t" in
              let* a = idx vars
              and* arr = oneofl [ "xs"; "ys" ]
              and* b = idx vars
              and* e = fexp vars 1
              and* c = idx vars in
              return
                (Printf.sprintf "val %s = xs[%s]; %s[%s] = %s; r = %s - ys[%s]" t
                   a arr b e t c) );
            (* the old value read after the new one is computed *)
            ( 1,
              let t = fresh "t" in
              let* x = oneofl [ "c"; "r" ]
              and* y = oneofl [ "c"; "r" ]
              and* e = fexp vars 1 in
              return
                (Printf.sprintf "val %s = %s; %s = %s; %s = %s + %s" t x x e y
                   y t) );
            ( 1,
              let t = fresh "t" in
              let* e = iexp vars in
              return
                (Printf.sprintf "val %s = i; i = (%s) %% 5; j = (j + %s) %% 5" t
                   e t) );
            ( 2,
              let v = fresh "l" in
              map2
                (fun b body -> Printf.sprintf "for (%s <- 0 until %s) { %s }" v b body)
                bound (stm (v :: vars) (k / 2)) );
            ( 1,
              let v = fresh "w" in
              map2
                (fun b body ->
                  Printf.sprintf "var %s = 0; while (%s < %s) { %s; %s = %s + 1 }"
                    v v b body v v)
                bound (stm (v :: vars) (k / 2)) );
            (* a loop with two exit edges: [&&] or [||] in its condition *)
            ( 1,
              let v = fresh "w" in
              let* b = bound
              and* x = iexp vars
              and* op = cmp
              and* y = iexp vars
              and* both = bool
              and* body = stm (v :: vars) (k / 2) in
              let cond =
                if both then Printf.sprintf "%s < %s && %s %s %s" v b x op y
                else Printf.sprintf "%s < %s || (%s < %s + 2 && %s %s %s)" v b v b x op y
              in
              return
                (Printf.sprintf "var %s = 0; while (%s) { %s; %s = %s + 1 }" v
                   cond body v v) );
            (* a loop in an arm of an [if] *)
            ( 1,
              let v = fresh "l" in
              let* x = fexp vars 1
              and* op = cmp
              and* y = fexp vars 1
              and* b = bound
              and* body = stm (v :: vars) (k / 2) in
              return
                (Printf.sprintf "if (%s %s %s) { for (%s <- 0 until %s) { %s } }" x
                   op y v b body) );
            (* a nest three deep *)
            ( 1,
              let u = fresh "l" and v = fresh "l" and w = fresh "l" in
              let* bu = bound
              and* bv = bound
              and* bw = bound
              and* body = stm (w :: v :: u :: vars) (k / 3) in
              return
                (Printf.sprintf
                   "for (%s <- 0 until %s) { for (%s <- 0 until %s) { for (%s \
                    <- 0 until %s) { %s } } }"
                   u bu v bv w bw body) );
          ]
    in
    sized (fun k -> stm [ "i"; "j" ] (min k 10)))

let kernel_src stmts =
  Printf.sprintf
    "def f(xs: farray, ys: farray, zs: array[int], n: int, m: int, a: float): \
     float = { var i = 1; var j = 2; var c = 0.0; var r = 0.5; %s; r + c + \
     i2f(i + j) }"
    stmts

(* The result and the arrays after a call, floats bit for bit (all NaNs
   alike), or the error and the arrays when it raised. *)
let kernel_outcome f args =
  let xs = Array.init 16 (fun i -> float_of_int (i - 5) *. 0.75) in
  let ys = Array.init 16 (fun i -> 1.0 +. float_of_int (i * i mod 7)) in
  let zs = Array.init 16 (fun i -> Int ((i * 5 mod 11) - 3)) in
  let bits x = if Float.is_nan x then "nan" else Int64.to_string (Int64.bits_of_float x) in
  let v =
    match f (Array.append [| Farr xs; Farr ys; Arr zs |] args) with
    | Float x -> "float " ^ bits x
    | v -> Vm.Value.to_string v
    | exception Vm.Types.Vm_error e -> "error " ^ e
    | exception Invalid_argument e -> "invalid_argument " ^ e
  in
  String.concat " "
    (v :: Array.to_list (Array.map bits xs)
    @ Array.to_list (Array.map Vm.Value.to_string zs))

let backends_agree ?(nulls = false) src fname args =
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt src in
  let m = Mini.Front.find_function p fname in
  let g = C.stage rt m (Array.make m.mnargs C.Dyn) in
  let hooks = Lms.Hooks.default_hooks rt in
  let boxed = Lms.Typed_backend.compile_boxed ~hooks g in
  let typed = Lms.Typed_backend.compile ~hooks g in
  let run f args =
    if nulls then
      (* the first array is null: calls see only [args] *)
      match f args with
      | v -> Vm.Value.to_string v
      | exception Vm.Types.Vm_error e -> "error " ^ e
      | exception Invalid_argument e -> "invalid_argument " ^ e
    else kernel_outcome f args
  in
  List.for_all
    (fun args ->
      let want = run (Vm.Interp.call rt m) args in
      String.equal want (run boxed args) && String.equal want (run typed args))
    args

let prop_typed_kernels =
  QCheck.Test.make ~name:"typed kernels == boxed == interpreter" ~count:150
    (QCheck.make ~print:kernel_src gen_mini_kernel)
    (fun stmts ->
      backends_agree (kernel_src stmts) "f"
        [
          [| Int 2; Int 3; Float 0.5 |];
          [| Int 3; Int 4; Float (-1.25) |];
          [| Int 5; Int 5; Float 2.0 |];
        ])

(* The native arm of a property: [n] programs drawn from [gen] with a
   fixed seed, each staged in a runtime of its own, built by the native
   tier as one unit (one compiler run, not one per case).  Every kernel's
   outcome on every argument vector must equal the interpreter's, bit for
   bit; an argument failing the entry check goes to the typed kernel. *)
let native_arm ~n gen src fname (outcomes : ((value array -> value) -> string) list) =
  let rand = Random.State.make [| 26 |] in
  let staged =
    List.map
      (fun stmts ->
        let rt = Lancet.Api.boot () in
        let m = Mini.Front.find_function (Mini.Front.load rt (src stmts)) fname in
        (src stmts, rt, m, C.stage rt m (Array.make m.mnargs C.Dyn)))
      (QCheck.Gen.generate ~rand ~n gen)
  in
  let jobs =
    List.map
      (fun (_, rt, _, g) ->
        let hooks = Lms.Hooks.default_hooks rt in
        (hooks, Lms.Typed_backend.compile ~hooks g, g))
      staged
  in
  match Lms.Native_tier.compile_all jobs with
  | Error why -> Alcotest.failf "native build declined: %s" why
  | Ok fns ->
    List.iter2
      (fun (text, rt, m, _) fn ->
        List.iter
          (fun outcome ->
            let want = outcome (Vm.Interp.call rt m) and got = outcome fn in
            if want <> got then
              Alcotest.failf "%s\ninterpreter: %s\nnative:      %s" text want got)
          outcomes)
      staged fns

let value_or_error f =
  match f () with
  | Float x -> "float " ^ Int64.to_string (Int64.bits_of_float x)
  | v -> Vm.Value.to_string v
  | exception Vm.Types.Vm_error e -> "error " ^ e
  | exception Invalid_argument e -> "invalid_argument " ^ e

let test_native_ints () =
  native_arm ~n:80 gen_mini_stmts
    (Printf.sprintf "def f(a: int, b: int): int = { var c = 0; var r = 0; %s; r }")
    "f"
    (List.map
       (fun (a, b) f -> value_or_error (fun () -> f [| Int a; Int b |]))
       int_operands)

let test_native_floats () =
  native_arm ~n:80 gen_mini_float_stmts
    (Printf.sprintf
       "def f(a: float, b: float, m: int, xs: farray): float = { var c = 0.0; \
        var r = 0.0; var k = m; %s; r + i2f(k) }")
    "f"
    (List.map
       (fun (a, b, k) f ->
         let xs = [| 1.0; -2.0; 0.5; 4.0 |] in
         let v = value_or_error (fun () -> f [| Float a; Float b; Int k; Farr xs |]) in
         String.concat " "
           (v :: Array.to_list (Array.map (fun x -> Int64.to_string (Int64.bits_of_float x)) xs)))
       [ (0.5, -1.25, 3); (2.0, 0.0, -2); (-3.5, 1.5, 7) ])

let test_native_kernels () =
  native_arm ~n:150 gen_mini_kernel kernel_src "f"
    (List.map
       (fun args f -> kernel_outcome f args)
       [
         [| Int 2; Int 3; Float 0.5 |];
         [| Int 3; Int 4; Float (-1.25) |];
         [| Int 5; Int 5; Float 2.0 |];
       ])

(* An [fmul] of two folded loads inside an [fadd]: the multiply is a step
   of its own, as the add must not read the slots of loads folded away. *)
let test_typed_fmul_of_loads () =
  let src =
    "def f(xs: farray, ys: farray, zs: array[int], n: int, m: int, a: float): \
     float = { var r = 0.5; for (i <- 0 until n) { r = r + xs[i * m + 1] * \
     ys[i + 2] }; r - xs[1] * ys[m]; r }"
  in
  check_bool "all three agree" true
    (backends_agree src "f" [ [| Int 3; Int 4; Float 0.0 |]; [| Int 5; Int 4; Float 0.0 |] ])

(* A loop variable's old value read after its new value is computed: the
   new value must not take the variable's slot before that read. *)
let test_typed_jump_slot_sharing () =
  let src =
    "def f(xs: farray, ys: farray, zs: array[int], n: int, m: int, a: float): \
     float = { var s = 1.0; var r = 0.0; for (i <- 0 until n) { val old = s; s \
     = s * 2.0 + xs[i]; r = r + old }; r + s }"
  in
  check_bool "all three agree" true
    (backends_agree src "f" [ [| Int 4; Int 0; Float 0.0 |] ])

(* A store between the two loads of a float op: the first load must not
   move past it.  With both names bound to one array, a moved load would
   read the stored value; with the first load out of range, a moved load
   would raise after the store instead of before it. *)
let test_typed_load_stays_before_store () =
  let src =
    "def f(xs: farray, ys: farray, i: int): float = { val a = xs[i]; ys[0] = \
     5.0; val b = ys[1]; a - b }"
  in
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt src in
  let m = Mini.Front.find_function p "f" in
  let g = C.stage rt m (Array.make 3 C.Dyn) in
  let hooks = Lms.Hooks.default_hooks rt in
  let engines =
    [
      ("interpreter", Vm.Interp.call rt m);
      ("boxed", Lms.Typed_backend.compile_boxed ~hooks g);
      ("typed", Lms.Typed_backend.compile ~hooks g);
    ]
  in
  let run f ~alias i =
    let xs = [| 1.0; 2.0 |] in
    let ys = if alias then xs else [| 3.0; 4.0 |] in
    let v =
      match f [| Farr xs; Farr ys; Int i |] with
      | v -> Vm.Value.to_string v
      | exception Invalid_argument e -> "invalid_argument " ^ e
    in
    Printf.sprintf "%s xs=%g,%g ys=%g,%g" v xs.(0) xs.(1) ys.(0) ys.(1)
  in
  List.iter
    (fun (alias, i) ->
      let want = run (Vm.Interp.call rt m) ~alias i in
      List.iter
        (fun (name, f) ->
          Alcotest.(check string)
            (Printf.sprintf "%s, alias=%b, i=%d" name alias i)
            want (run f ~alias i))
        engines)
    [ (true, 0); (false, 10) ]

(* Both loads of one folded op out of range, and a null first array: the
   load that comes first in the source raises, whichever side it is on.
   Stores and [array[int]] accesses through a folded index raise the
   interpreter's errors too, on a null array and out of range. *)
let test_typed_folded_load_order () =
  let left = "def f(xs: farray, ys: farray, i: int): float = xs[i * 2 + 1] - ys[i + 7]" in
  let right =
    "def f(xs: farray, ys: farray, i: int): float = { val b = ys[i + 7]; val \
     a = xs[i * 2 + 1]; a - b }"
  in
  let fs = Farr (Array.make 4 1.0) in
  List.iter
    (fun src ->
      check_bool "in range" true (backends_agree ~nulls:true src "f" [ [| fs; fs; Int 0 |] ]);
      check_bool "both out of range" true
        (backends_agree ~nulls:true src "f" [ [| fs; fs; Int 10 |] ]);
      check_bool "null left array, right out of range" true
        (backends_agree ~nulls:true src "f" [ [| Null; fs; Int 10 |] ]))
    [ left; right ];
  (* each call stores what it reads back, so the three engines see the same
     arrays *)
  let fstore = "def f(xs: farray, i: int): float = { xs[i * 2 + 1] = 2.5; xs[1] }" in
  let istore =
    "def f(zs: array[int], i: int): int = { zs[i * 2 + 1] = i + 5; zs[i + 1] }"
  in
  List.iter
    (fun (src, a) ->
      check_bool "store in range" true
        (backends_agree ~nulls:true src "f" [ [| a; Int 0 |] ]);
      check_bool "store out of range" true
        (backends_agree ~nulls:true src "f" [ [| a; Int 10 |] ]);
      check_bool "store into null" true
        (backends_agree ~nulls:true src "f" [ [| Null; Int 0 |] ]);
      (* [i * 2] wraps to 0, so the store lands at 1 *)
      check_bool "store index wraps" true
        (backends_agree ~nulls:true src "f"
           [ [| a; Int (Int32.to_int Int32.min_int) |] ]))
    [ (fstore, fs); (istore, Arr (Array.make 4 (Int 1))) ];
  let iload = "def f(zs: array[int], i: int): int = zs[i * 2 + 1] - zs[i + 2]" in
  let za = Arr (Array.init 4 (fun k -> Int (k * 7))) in
  check_bool "int loads in range" true
    (backends_agree ~nulls:true iload "f" [ [| za; Int 1 |] ]);
  check_bool "int load out of range" true
    (backends_agree ~nulls:true iload "f" [ [| za; Int 2 |] ]);
  check_bool "int load from null" true
    (backends_agree ~nulls:true iload "f" [ [| Null; Int 0 |] ]);
  (* both shapes fold the two loads into the subtract, and every index
     above but [xs[1]] is folded *)
  Irtrace.enable ();
  Fun.protect ~finally:Irtrace.disable (fun () ->
      List.iter
        (fun src ->
          let rt = Lancet.Api.boot () in
          let p = Mini.Front.load rt src in
          let m = Mini.Front.find_function p "f" in
          let g = C.stage rt m (Array.make m.mnargs C.Dyn) in
          let (_ : Vm.Types.value array -> Vm.Types.value) =
            Lms.Typed_backend.compile
              ~hooks:(Lms.Hooks.default_hooks rt) g
          in
          ())
        [ left; right; fstore; istore; iload ];
      let folded =
        List.filter_map
          (fun sn ->
            if sn.Irtrace.sn_phase = "schedule:typed" then
              Some (List.assoc "folded" sn.Irtrace.sn_meta)
            else None)
          (Irtrace.snapshots ())
      in
      Alcotest.(check (list string))
        "loads and index trees folded" [ "5"; "5"; "2"; "3"; "3" ] folded)

(* The [schedule:typed] meta of the typed kernel of each named function. *)
let typed_schedule_meta src names =
  Irtrace.enable ();
  Fun.protect ~finally:Irtrace.disable (fun () ->
      let rt = Lancet.Api.boot () in
      let p = Mini.Front.load rt src in
      List.iter
        (fun name ->
          let m = Mini.Front.find_function p name in
          let g = C.stage rt m (Array.make m.mnargs C.Dyn) in
          ignore
            (Lms.Typed_backend.compile ~hooks:(Lms.Hooks.default_hooks rt) g
              : value array -> value))
        names;
      List.filter_map
        (fun sn ->
          if sn.Irtrace.sn_phase = "schedule:typed" then
            Some
              (Printf.sprintf "loops=%s trampolined=%s"
                 (List.assoc "loops" sn.Irtrace.sn_meta)
                 (List.assoc "trampolined" sn.Irtrace.sn_meta))
          else None)
        (Irtrace.snapshots ()))

(* Every loop of k-means' kernels runs native: each function's own loops
   and those of the calls inlined into it, nested, inside an [if] arm and
   around the threaded [if (dd < bd)] diamond. *)
let test_typed_kmeans_loops () =
  let src = Util.read_example "kmeans.mini" in
  Alcotest.(check (list string))
    "sqdist, nearest, assign_all, update"
    [
      "loops=1 trampolined=0";
      "loops=3 trampolined=0";
      "loops=4 trampolined=0";
      "loops=9 trampolined=0";
    ]
    (typed_schedule_meta src [ "sqdist"; "nearest"; "assign_all"; "update" ])

(* A loop with two exit edges ([&&] and [||] conditions) and a loop with a
   loop in an [if] arm run native too, and agree with the interpreter. *)
let test_typed_multi_exit_loops () =
  let src =
    "def f(xs: farray, ys: farray, zs: array[int], n: int, m: int, a: float): \
     float = { var r = 0.0; var w = 0; while (w < n && xs[w] < a) { r = r + \
     xs[w]; w = w + 1 }; var v = 0; while (v < m || (v < n && r > 1.0)) { r \
     = r * 0.5 + ys[v]; v = v + 1 }; if (r > a) { for (i <- 0 until n) { r = \
     r - xs[i] } }; r }"
  in
  Alcotest.(check (list string)) "three native loops" [ "loops=3 trampolined=0" ]
    (typed_schedule_meta src [ "f" ]);
  check_bool "all three agree" true
    (backends_agree src "f"
       [ [| Int 3; Int 2; Float 0.5 |]; [| Int 6; Int 1; Float (-3.0) |]; [| Int 9; Int 4; Float 4.0 |] ])

(* The bytecode CFG cache keeps no dropped runtime alive: once nothing
   else holds a runtime, the bytecode of a method staged in it can be
   collected. *)
let test_bcfg_cache_releases_runtime () =
  let weak = Weak.create 1 in
  let stage_and_drop () =
    let rt = Lancet.Api.boot () in
    let p =
      Mini.Front.load rt
        "def f(n: int): int = { var s = 0; for (i <- 0 until n) { s = s + i }; s }"
    in
    let m = Mini.Front.find_function p "f" in
    ignore (C.stage rt m [| C.Dyn |] : Lms.Ir.graph);
    match m.mcode with
    | Bytecode code -> Weak.set weak 0 (Some code)
    | Native _ -> Alcotest.fail "f is bytecode"
  in
  (stage_and_drop [@inlined never]) ();
  Gc.full_major ();
  Gc.full_major ();
  check_bool "staged bytecode collected" false (Weak.check weak 0)

(* Staging one runtime's methods from two domains at once, both through
   its one CFG cache, builds the graphs one domain builds. *)
let test_bcfg_two_domains () =
  let src = Util.read_example "kmeans.mini" in
  let loaded () =
    let rt = Lancet.Api.boot () in
    (rt, Mini.Front.load rt src)
  in
  let graphs (rt, p) () =
    List.map
      (fun name ->
        let m = Mini.Front.find_function p name in
        Lms.Pretty.graph_to_string (C.stage rt m (Array.make m.mnargs C.Dyn)))
      [ "sqdist"; "nearest"; "assign_all"; "update"; "main" ]
  in
  let want = graphs (loaded ()) () in
  for _ = 1 to 8 do
    let h = loaded () in
    let other = Domain.spawn (graphs h) in
    let here = graphs h () in
    Alcotest.(check (list string)) "this domain" want here;
    Alcotest.(check (list string)) "other domain" want (Domain.join other)
  done

(* The one path to the boxed mode from [compile_graph]: an int parameter
   added to an [fadd] result reads a float as an int, which the typed mode
   refuses, so the graph compiles boxed, labelled [closure] with the
   reason, and the call raises the interpreter's error. *)
let test_compile_graph_falls_back () =
  let rt = Lancet.Api.boot () in
  let b = Lms.Builder.create ~name:"mixed" ~nparams:2 () in
  let x = Lms.Builder.param b 0 Lms.Ir.Tfloat in
  let n = Lms.Builder.param b 1 Lms.Ir.Tint in
  let f = Lms.Builder.emit b (Lms.Ir.Fop FAdd) [| x; x |] Lms.Ir.Tfloat in
  Lms.Builder.ret b (Lms.Builder.iop b Add n f);
  let fn, backend, reason =
    C.compile_graph rt (Lms.Builder.graph b) ~on_exit:(fun _ _ -> Null)
  in
  Alcotest.(check string) "backend" "closure" backend;
  Alcotest.(check (option string)) "reason" (Some "float used as int") reason;
  Alcotest.(check string) "call" "error expected int, got float"
    (match fn [| Float 1.5; Int 2 |] with
    | v -> Vm.Value.to_string v
    | exception Vm_error e -> "error " ^ e)

let suite =
  suite
  @ [
      Alcotest.test_case "bcfg-cache-releases-runtime" `Quick
        test_bcfg_cache_releases_runtime;
      Alcotest.test_case "bcfg-two-domains" `Quick test_bcfg_two_domains;
      Alcotest.test_case "typed-kmeans-loops" `Quick test_typed_kmeans_loops;
      Alcotest.test_case "typed-multi-exit-loops" `Quick test_typed_multi_exit_loops;
      Alcotest.test_case "compile-graph-falls-back" `Quick test_compile_graph_falls_back;
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "reset-plain" `Quick test_reset_no_shift;
      Alcotest.test_case "shift-abort" `Quick test_shift_abort;
      Alcotest.test_case "shift-invoke" `Quick test_shift_invoke;
      Alcotest.test_case "shift-multishot" `Quick test_shift_multishot;
      Alcotest.test_case "shift-across-call" `Quick test_shift_through_call;
      Alcotest.test_case "in-scope" `Quick test_in_scope_directive;
      Alcotest.test_case "taint-branch" `Quick test_taint_branch;
      Alcotest.test_case "ntimes-gated-unroll" `Quick test_ntimes_gated_unroll;
      QCheck_alcotest.to_alcotest prop_typed_equals_boxed;
      QCheck_alcotest.to_alcotest prop_typed_equals_boxed_float;
      QCheck_alcotest.to_alcotest prop_typed_kernels;
      Alcotest.test_case "native == interpreter (ints)" `Quick test_native_ints;
      Alcotest.test_case "native == interpreter (floats)" `Quick test_native_floats;
      Alcotest.test_case "native == interpreter (kernels)" `Quick test_native_kernels;
      Alcotest.test_case "typed-fmul-of-loads" `Quick test_typed_fmul_of_loads;
      Alcotest.test_case "typed-jump-slot-sharing" `Quick
        test_typed_jump_slot_sharing;
      Alcotest.test_case "typed-load-stays-before-store" `Quick
        test_typed_load_stays_before_store;
      Alcotest.test_case "typed-folded-load-order" `Quick
        test_typed_folded_load_order;
    ]

(* deoptimization stress: random programs with speculation guards that fail
   on some inputs; compiled execution (including OSR-out frame
   reconstruction) must match plain interpretation everywhere *)
let prop_deopt_stress =
  QCheck.Test.make ~name:"speculation deopt == interpretation" ~count:60
    (QCheck.make ~print:(fun s -> s) gen_mini_stmts)
    (fun stmts ->
      let src =
        Printf.sprintf
          "def helper(c: int, r: int): int = if (Lancet.speculate(c < 5)) r \
           + c else r * 2 - c\n\
           def make(): (int, int) -> int = fun (a: int, b: int) => { var c = \
           0; var r = 0; %s; helper(c, r) }"
          stmts
      in
      let rt = Lancet.Api.boot () in
      let p = Mini.Front.load rt src in
      let clo = Mini.Front.call p "make" [||] in
      let compiled = C.compile_value rt clo in
      List.for_all
        (fun (a, b) ->
          Vm.Value.equal
            (Vm.Interp.call_closure rt clo [| Int a; Int b |])
            (Vm.Interp.call_closure rt compiled [| Int a; Int b |]))
        [ (0, 0); (9, 9); (3, -7); (100, 4); (-2, 63); (2147483647, -2147483648) ])

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_deopt_stress ]
