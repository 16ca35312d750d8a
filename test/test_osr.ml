(* Loop-level OSR-in: an interpreter activation that runs long enough by
   itself finishes in code compiled from the loop header it is about to
   re-enter.  Every case must compute what plain interpretation computes.

   At tier_threshold 1 a call promotes its method on arrival, so most cases
   start the activation in the interpreter directly ([interpreted]), as an
   activation that arrived while its method was cold; the trigger then
   fires after 2^14 own steps. *)

open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plain_call src fn args =
  let rt = Vm.Natives.boot () in
  let v = Mini.Front.call (Mini.Front.load rt src) fn args in
  (v, rt.interp_steps)

let interpreted rt p fn args =
  Vm.Interp.resume rt (Vm.Interp.make_frame (Mini.Front.find_function p fn) args)

let tiered1 () = Lancet.Api.boot ~tiering:true ~tier_threshold:1 ()

(* perfbench's loop-once program: one call of a 40k-iteration loop over an
   int array with a 3-class virtual call *)
let loop_src =
  {|
class Shape {
  var w: int
  def init(w: int): unit = { this.w = w }
  def area(x: int): int = this.w + x
}
class Circle extends Shape { def area(x: int): int = this.w * 3 + x }
class Square extends Shape { def area(x: int): int = this.w * 5 - x }
class Tri extends Shape { def area(x: int): int = (this.w + x) / 2 }
def run(xs: array[int], n: int): int = {
  val shapes = new array[Shape](3);
  shapes[0] = new Circle(3);
  shapes[1] = new Square(5);
  shapes[2] = new Tri(7);
  val len = xs.length;
  var acc = 0;
  for (i <- 0 until n) {
    val x = xs[i % len];
    xs[i % len] = (x * 31 + i) % 1000;
    acc = (acc + shapes[x % 3].area(x)) % 1000003
  };
  acc
}
|}

let loop_args () =
  [| Arr (Array.init 256 (fun i -> Int (i * 7919 mod 1000))); Int 40_000 |]

let test_loop_once () =
  let want, plain_steps = plain_call loop_src "run" (loop_args ()) in
  let rt = tiered1 () in
  let p = Mini.Front.load rt loop_src in
  check_value "OSR run = interpreter" want (interpreted rt p "run" (loop_args ()));
  check_int "one OSR compile" 1 rt.tiering.t_osr_compiles;
  check_int "one OSR entry" 1 rt.tiering.t_osr_entries;
  if rt.interp_steps * 5 >= plain_steps then
    Alcotest.failf "interpreted %d steps, %d without tiering" rt.interp_steps
      plain_steps

(* The OSR code speculates on the receiver class its inline cache saw;
   [o] changes class long after the entry, so a devirt guard fails inside
   OSR code and the activation resumes in the interpreter. *)
let devirt_src =
  {|
class A {
  var k: int
  def init(k: int): unit = { this.k = k }
  def f(x: int): int = x + this.k
}
class B extends A { def f(x: int): int = x * 2 - this.k }
def run(n: int, switch_at: int): int = {
  var o: A = new A(1);
  var acc = 0;
  var i = 0;
  while (i < n) {
    if (i == switch_at) { o = new B(3) };
    acc = (acc + o.f(i)) % 1000003;
    i = i + 1
  };
  acc
}
|}

let test_devirt_guard_fails () =
  let args = [| Int 20_000; Int 5_000 |] in
  let want, _ = plain_call devirt_src "run" args in
  let rt = tiered1 () in
  let p = Mini.Front.load rt devirt_src in
  check_value "deopted OSR run = interpreter" want (interpreted rt p "run" args);
  check_bool "entered OSR code" true (rt.tiering.t_osr_entries >= 1);
  check_bool "a guard failed in it" true (rt.tiering.t_deopts >= 1)

let nested_src =
  {|
def nest(n: int, m: int): int = {
  var acc = 0;
  for (i <- 0 until n) {
    var j = 0;
    while (j < m) {
      acc = (acc * 31 + i * j + 7) % 1000003;
      j = j + 1
    }
  };
  acc
}
|}

(* The trigger fires at the inner loop's header: staging runs the inner
   loop, the rest of the outer body, then the outer loop from its header. *)
let test_nested_inner_header () =
  let args = [| Int 3; Int 20_000 |] in
  let want, _ = plain_call nested_src "nest" args in
  Forensics.enable ();
  Fun.protect ~finally:Forensics.disable (fun () ->
      let rt = tiered1 () in
      let p = Mini.Front.load rt nested_src in
      check_value "nested OSR run = interpreter" want
        (interpreted rt p "nest" args);
      check_int "one OSR entry" 1 rt.tiering.t_osr_entries;
      let entry_lines =
        List.filter_map
          (fun (d : Forensics.decision) ->
            match (d.d_event, d.d_cause) with
            | Obs.Osr_entry _, Obs.Loop_steps c -> Some c.line
            | _ -> None)
          (Forensics.decisions ())
      in
      (* line 6 of [nested_src] is the inner [while] *)
      Alcotest.(check (list int)) "entered at the inner header" [ 6 ]
        entry_lines)

let float_src =
  {|
def fl(n: int): float = {
  var s = 0.0;
  var x = 1.5;
  var i = 0;
  while (i < n) {
    s = s + x * 0.5;
    x = x * 1.0001 - 0.0001;
    i = i + 1
  };
  s
}
|}

let test_float_loop () =
  let args = [| Int 30_000 |] in
  let want, _ = plain_call float_src "fl" args in
  let rt = tiered1 () in
  let p = Mini.Front.load rt float_src in
  check_value "float OSR run = interpreter" want (interpreted rt p "fl" args);
  check_int "one OSR entry" 1 rt.tiering.t_osr_entries

(* A [stable] value changes after the entry: the recompile exit leaves OSR
   code for the interpreter and invalidates the method, and nothing is
   rebuilt or installed for the activation. *)
let stable_src =
  {|
var fast: bool = true
def run(n: int): int = {
  var acc = 0;
  var i = 0;
  while (i < n) {
    if (i == 10000) { fast = false };
    acc = (acc + (if (Lancet.stable(fun () => fast)) i * 10 else i + 1)) % 1000003;
    i = i + 1
  };
  acc
}
|}

let test_stable_exit () =
  let args = [| Int 20_000 |] in
  let want, _ = plain_call stable_src "run" args in
  let rt = tiered1 () in
  let p = Mini.Front.load rt stable_src in
  let m = Mini.Front.find_function p "run" in
  check_value "recompile exit = interpreter" want (interpreted rt p "run" args);
  check_bool "entered OSR code" true (rt.tiering.t_osr_entries >= 1);
  check_bool "left it" true (rt.tiering.t_deopts >= 1);
  check_bool "method invalidated" true (Vm.Runtime.tier_gen rt m.mid >= 1);
  check_bool "nothing installed" true
    (match m.mtier with Tier_compiled _ -> false | _ -> true)

(* A static method whose slot 3 holds an int on even iterations and a
   float on odd ones: the code is typed for the kind seen at the trigger,
   and at the next back edge to the header the slot holds the other kind,
   so the entry declines and the frame runs on in the interpreter. *)
let define_flip rt =
  let open Vm in
  let cls = Classfile.declare_class rt ~name:"Flip" ~fields:[] () in
  Assembler.define_method rt cls ~name:"flip" ~static:true ~nargs:1 (fun b ->
      let i = Assembler.local b
      and acc = Assembler.local b
      and v = Assembler.local b in
      let head = Assembler.new_label b
      and odd = Assembler.new_label b
      and join = Assembler.new_label b
      and exit = Assembler.new_label b in
      List.iter (Assembler.emit b)
        [ Const (Int 0); Store i; Const (Int 0); Store acc; Const (Int 0); Store v ];
      Assembler.place b head;
      Assembler.emit b (Load i);
      Assembler.emit b (Load 0);
      Assembler.if_ b Ge exit;
      List.iter (Assembler.emit b) [ Load i; Const (Int 1); Iop And ];
      Assembler.ifz b Ne odd;
      List.iter (Assembler.emit b) [ Load i; Store v ];
      Assembler.goto b join;
      Assembler.place b odd;
      List.iter (Assembler.emit b) [ Load i; I2f; Const (Float 0.5); Fop FMul; Store v ];
      Assembler.place b join;
      List.iter (Assembler.emit b)
        [ Load acc; Load i; Iop Add; Const (Int 1000003); Iop Rem; Store acc;
          Load i; Const (Int 1); Iop Add; Store i ];
      Assembler.goto b head;
      Assembler.place b exit;
      List.iter (Assembler.emit b) [ Load acc; Retv ])

let test_kind_change_declines () =
  let args = [| Int 20_000 |] in
  let plain = Vm.Natives.boot () in
  let want = Vm.Interp.call plain (define_flip plain) args in
  Forensics.enable ();
  Fun.protect ~finally:Forensics.disable (fun () ->
      let rt = tiered1 () in
      let m = define_flip rt in
      check_value "declined OSR run = interpreter" want
        (Vm.Interp.resume rt (Vm.Interp.make_frame m args));
      check_int "compiled once" 1 rt.tiering.t_osr_compiles;
      check_int "never entered" 0 rt.tiering.t_osr_entries;
      check_bool "decline journaled" true
        (List.exists
           (fun (d : Forensics.decision) ->
             match d.d_event with Obs.Osr_decline _ -> true | _ -> false)
           (Forensics.decisions ())))

(* Under --jit-threads 2 each program runs as a plain call: the promotion
   is queued, so the activation interprets, asks for OSR code, and a
   worker compiles it while the mutator keeps interpreting.  Only the
   devirt program asks twice: a frame rebuilt by a failed guard is a fresh
   interpreter activation. *)
let test_bgjit () =
  let cases =
    [
      (loop_src, "run", loop_args);
      (devirt_src, "run", fun () -> [| Int 20_000; Int 5_000 |]);
      (nested_src, "nest", fun () -> [| Int 3; Int 20_000 |]);
      (float_src, "fl", fun () -> [| Int 30_000 |]);
    ]
  in
  List.iter
    (fun (src, fn, args) ->
      let want, _ = plain_call src fn (args ()) in
      let ring = Obs.Ring.create ~capacity:65536 () in
      let rt, got =
        Obs.with_sink (Obs.Ring.sink ring) (fun () ->
            let rt, pool =
              Lancet.Api.boot_bg ~tiering:true ~tier_threshold:1 ~jit_threads:2
                ()
            in
            let pool = Option.get pool in
            let got = Mini.Front.call (Mini.Front.load rt src) fn (args ()) in
            Bgjit.drain pool;
            Bgjit.shutdown pool;
            (rt, got))
      in
      check_value (fn ^ ": background OSR = interpreter") want got;
      let compiles = rt.tiering.t_osr_compiles in
      if src == devirt_src then
        check_bool (fn ^ ": OSR compiled") true (compiles >= 1)
      else check_int (fn ^ ": one OSR compile") 1 compiles;
      check_bool (fn ^ ": entries <= compiles") true
        (rt.tiering.t_osr_entries <= compiles);
      let osr_workers =
        List.filter_map
          (function
            | Obs.Compile_end c
              when String.length c.Obs.ci_meth > 4
                   && String.sub c.Obs.ci_meth 0 4 = "osr:" ->
              Some c.Obs.ci_worker
            | _ -> None)
          (Obs.Ring.events ring)
      in
      check_int (fn ^ ": an event per OSR compile") compiles
        (List.length osr_workers);
      check_bool (fn ^ ": compiled on workers") true
        (List.for_all (fun w -> w > 0) osr_workers))
    cases

(* kmeans stays under the trigger at the default threshold: its longest
   activation runs far fewer than 2^18 steps of its own. *)
let test_kmeans_no_osr () =
  let src = Util.read_example "kmeans.mini" in
  let want, _ = plain_call src "main" [||] in
  let rt = Lancet.Api.boot ~tiering:true () in
  let p = Mini.Front.load rt src in
  check_value "kmeans tiered = interpreter" want (Mini.Front.call p "main" [||]);
  check_int "no OSR compile" 0 rt.tiering.t_osr_compiles

(* Random statement lists inside a 5000-iteration loop, run as an
   interpreted activation at tier_threshold 1: the trigger fires at the
   outer header or at one of the generator's inner loops.  With the
   speculate helper, a failing guard inside OSR code rebuilds the frames
   and the rebuilt activation may enter OSR code again. *)
let osr_prop ~name ~helper =
  QCheck.Test.make ~name ~count:25
    (QCheck.make ~print:(fun s -> s) Test_lancet.gen_mini_stmts)
    (fun stmts ->
      let src =
        Printf.sprintf
          "def helper(c: int, r: int): int = if (Lancet.speculate(c < 5)) r + \
           c else r * 2 - c\n\
           def f(a: int, b: int): int = { var c = 0; var r = 0; var k = 0; \
           while (k < 5000) { %s; %sk = k + 1 }; r }"
          stmts
          (if helper then "r = helper(c, r) % 1000; " else "")
      in
      List.for_all
        (fun (a, b) ->
          let args = [| Int a; Int b |] in
          let want, _ = plain_call src "f" args in
          let rt = tiered1 () in
          let p = Mini.Front.load rt src in
          let got = interpreted rt p "f" args in
          Vm.Value.equal want got && rt.tiering.t_osr_entries >= 1)
        [ (0, 0); (3, -7); (11, 5) ])

let suite =
  [
    Alcotest.test_case "loop-once" `Quick test_loop_once;
    Alcotest.test_case "devirt-guard-fails" `Quick test_devirt_guard_fails;
    Alcotest.test_case "nested-inner-header" `Quick test_nested_inner_header;
    Alcotest.test_case "float-loop" `Quick test_float_loop;
    Alcotest.test_case "stable-exit" `Quick test_stable_exit;
    Alcotest.test_case "kind-change-declines" `Quick test_kind_change_declines;
    Alcotest.test_case "bgjit" `Quick test_bgjit;
    Alcotest.test_case "kmeans-no-osr" `Quick test_kmeans_no_osr;
    QCheck_alcotest.to_alcotest (osr_prop ~name:"OSR == interpretation" ~helper:false);
    QCheck_alcotest.to_alcotest
      (osr_prop ~name:"OSR with speculation == interpretation" ~helper:true);
  ]
