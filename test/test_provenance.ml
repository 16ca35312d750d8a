(* Source-level provenance: line tables from the Mini front-end through the
   assembler, provenance on staged IR nodes (surviving CSE and DCE), the
   sampling profiler's folded-stack output and the `lancet explain` view. *)

open Vm.Types
module A = Vm.Assembler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value

(* ------------------------------------------------------------------ *)
(* Line tables                                                         *)

(* Assembler level: [set_line] stamps emitted instructions; branch patching
   rewrites instructions in place, so the table needs no fixup. *)
let test_assembler_lines () =
  let rt = Vm.Natives.boot () in
  let cls = Vm.Classfile.declare_class rt ~name:"P" ~fields:[] () in
  let m =
    A.define_method ~src:"p.src" rt cls ~name:"f" ~static:true ~nargs:1
      (fun b ->
        let l = A.new_label b in
        A.set_line b 10;
        A.emit b (Load 0);
        A.ifz b Le l;
        A.set_line b 12;
        A.emit b (Const (Int 1));
        A.emit b Retv;
        A.place b l;
        A.set_line b 13;
        A.emit b (Const (Int 0));
        A.emit b Retv)
  in
  check_value "f(5)" (Int 1) (Vm.Interp.call rt m [| Int 5 |]);
  check_value "f(-1)" (Int 0) (Vm.Interp.call rt m [| Int 0 |]);
  let code = match m.mcode with Bytecode c -> c | Native _ -> [||] in
  check_int "line table parallel to code" (Array.length code)
    (Array.length m.mlines);
  check_int "pc 0" 10 (Vm.Runtime.line_at m 0);
  check_int "pc 1 (patched branch keeps its line)" 10 (Vm.Runtime.line_at m 1);
  check_int "pc 2" 12 (Vm.Runtime.line_at m 2);
  check_int "pc 4" 13 (Vm.Runtime.line_at m 4);
  check_int "out of range is unknown" 0 (Vm.Runtime.line_at m 99);
  check_string "msrc stored" "p.src" m.msrc;
  check_int "defining line" 10 (Vm.Runtime.meth_def_line m);
  check_string "meth_loc" "P.f @pc 2 (p.src:12)" (Vm.Runtime.meth_loc m 2)

let lines_src = {|def add(a: int, b: int): int = {
  val s = a + b;
  s * 2
}
|}

(* Mini front-end: codegen stamps every instruction with the source line of
   the expression it implements. *)
let test_mini_lines () =
  let rt = Vm.Natives.boot () in
  let p = Mini.Front.load ~file:"add.mini" rt lines_src in
  let m = Mini.Front.find_function p "add" in
  let code = match m.mcode with Bytecode c -> c | Native _ -> [||] in
  check_int "line table parallel to code" (Array.length code)
    (Array.length m.mlines);
  check_string "msrc is the load file" "add.mini" m.msrc;
  check_bool "every pc attributed" true
    (Array.for_all (fun l -> l >= 1 && l <= 4) m.mlines);
  let has l = Array.exists (( = ) l) m.mlines in
  check_bool "line 2 present (val s = a + b)" true (has 2);
  check_bool "line 3 present (s * 2)" true (has 3);
  check_value "still computes" (Int 14) (Mini.Front.call p "add" [| Int 3; Int 4 |])

(* Default source name when no file is given. *)
let test_default_src () =
  let rt = Vm.Natives.boot () in
  let p = Mini.Front.load rt lines_src in
  let m = Mini.Front.find_function p "add" in
  check_string "default msrc" "<mini>" m.msrc

(* ------------------------------------------------------------------ *)
(* IR provenance                                                       *)

module B = Lms.Builder
module Ir = Lms.Ir

let prov mid pc line = Some { Ir.pv_mid = mid; pv_pc = pc; pv_line = line }

(* CSE dedups to the first node — and keeps the first node's provenance;
   DCE is a filter, so surviving nodes keep theirs. *)
let test_prov_cse_dce () =
  let b = B.create ~nparams:1 () in
  let p0 = B.param b 0 Ir.Tint in
  B.set_prov b (prov 7 1 5);
  let s1 = B.iop b Add p0 p0 in
  B.set_prov b (prov 7 9 6);
  let s2 = B.iop b Add p0 p0 in
  check_int "CSE dedups the pure op" s1 s2;
  let g = B.graph b in
  (match (Ir.node g s1).Ir.prov with
  | Some pv ->
    check_int "first provenance wins: pc" 1 pv.Ir.pv_pc;
    check_int "first provenance wins: line" 5 pv.Ir.pv_line
  | None -> Alcotest.fail "CSE'd node lost its provenance");
  B.set_prov b (prov 7 2 8);
  let dead = B.iop b Sub s1 p0 in
  B.set_prov b (prov 7 3 9);
  let live = B.iop b Mul s1 p0 in
  B.ret b live;
  Ir.dead_code_elim g;
  let body = Ir.body_in_order (Ir.block g g.Ir.entry) in
  check_bool "dead node removed" true
    (not (List.exists (fun n -> n.Ir.id = dead) body));
  (match List.find_opt (fun n -> n.Ir.id = live) body with
  | Some n -> (
    match n.Ir.prov with
    | Some pv -> check_int "survivor keeps provenance" 9 pv.Ir.pv_line
    | None -> Alcotest.fail "survivor lost provenance")
  | None -> Alcotest.fail "live node eliminated")

(* End-to-end: staging a Mini method attributes every body node to it. *)
let test_prov_stage () =
  let rt = Lancet.Api.boot () in
  let p =
    Mini.Front.load ~file:"g.mini" rt
      "def g(a: int, b: int): int = a * b + a\n"
  in
  let m = Mini.Front.find_function p "g" in
  let g =
    Lancet.Compiler.stage rt m [| Lancet.Compiler.Dyn; Lancet.Compiler.Dyn |]
  in
  let nodes = ref 0 in
  List.iter
    (fun blk ->
      List.iter
        (fun n ->
          match n.Ir.op with
          | Ir.Bparam -> ()
          | _ -> (
            incr nodes;
            match n.Ir.prov with
            | Some pv ->
              check_int "provenance names the staged method" m.mid pv.Ir.pv_mid;
              check_bool "provenance carries a source line" true
                (pv.Ir.pv_line >= 1)
            | None -> Alcotest.fail "staged node without provenance"))
        (Ir.body_in_order blk))
    (Ir.reachable_blocks g);
  check_bool "staged some nodes" true (!nodes > 0)

(* ------------------------------------------------------------------ *)
(* Sampling profiler                                                   *)

let test_profiler_kmeans () =
  let src = Util.read_example "kmeans.mini" in
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:8 () in
  let p = Mini.Front.load ~file:"kmeans.mini" rt src in
  let prof = Profiler.create ~interval_ms:0.2 () in
  Profiler.profiled prof (fun () ->
      let i = ref 0 in
      while prof.Profiler.samples < 10 && !i < 50 do
        incr i;
        ignore (Mini.Front.call p "main" [||])
      done);
  check_bool "took stack samples" true (prof.Profiler.samples > 0);
  check_bool "line coverage >= 90%" true (Profiler.coverage prof >= 0.9);
  let folded = Profiler.folded prof in
  check_bool "folded stacks mention main" true
    (Util.contains_sub folded "main");
  check_bool "folded frames carry line numbers" true
    (Util.contains_sub folded ":");
  check_bool "sampling stopped on exit" false !Obs.sampling

(* ------------------------------------------------------------------ *)
(* lancet explain                                                      *)

let spec_src =
  "def spec(x: int): int =\n\
  \  if (Lancet.speculate(x < 1000)) x * 3 + 1 else x - 7\n"

let test_explain () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let x = Profiler.create () in
  Obs.with_sink (Profiler.sink x) (fun () ->
      let p = Mini.Front.load ~file:"spec.mini" rt spec_src in
      for i = 1 to 40 do
        (* every 10th call breaks the speculation: 4 deopts, deterministic *)
        let xv = if i mod 10 = 0 then 100_000 + i else i in
        ignore (Mini.Front.call p "spec" [| Int xv |])
      done);
  let out =
    Lancet.Explain.render ~timings:false ~residency:false x rt ~src:spec_src
  in
  check_bool "promotion annotated" true
    (Util.contains_sub out "promoted to tier 1");
  check_bool "compilation annotated" true (Util.contains_sub out "compiled");
  check_bool "deopt count annotated" true (Util.contains_sub out "deopt x4");
  check_bool "deopt tag annotated" true (Util.contains_sub out "speculate");
  check_bool "everything attributed to a line" false
    (Util.contains_sub out "not attributed");
  (* the deopt annotation sits directly under the speculate source line *)
  let lines = String.split_on_char '\n' out in
  let rec find i = function
    | [] -> -1
    | l :: tl ->
      if Util.contains_sub l "Lancet.speculate" then i else find (i + 1) tl
  in
  let idx = find 0 lines in
  check_bool "speculate line rendered" true (idx >= 0);
  let annotated =
    List.filteri (fun i _ -> i > idx && i <= idx + 6) lines
    |> List.exists (fun l -> Util.contains_sub l "deopt x")
  in
  check_bool "deopt annotated at the speculate line" true annotated;
  (* an OSR entry is annotated under its loop header's line *)
  let loop_src =
    "def count(n: int): int = {\n\
    \  var acc = 0;\n\
    \  var i = 0;\n\
    \  while (i < n) { acc = (acc + i * 3) % 1000003; i = i + 1 };\n\
    \  acc\n\
     }\n"
  in
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:2 () in
  let x = Profiler.create () in
  Obs.with_sink (Profiler.sink x) (fun () ->
      let p = Mini.Front.load ~file:"count.mini" rt loop_src in
      ignore (Mini.Front.call p "count" [| Int 20_000 |]));
  let out =
    Lancet.Explain.render ~timings:false ~residency:false x rt ~src:loop_src
  in
  let lines = String.split_on_char '\n' out in
  let rec after_while = function
    | l :: next :: _ when Util.contains_sub l "   4 | " -> next
    | _ :: tl -> after_while tl
    | [] -> ""
  in
  check_bool "OSR entry annotated at the loop header's line" true
    (Util.contains_sub (after_while lines)
       "Main$1.count: OSR entry x1 at loop header @pc 8")

(* A `Lancet.stable` flip rebuilds the method against the new value, and
   the `false` arm is the larger graph: explain's "last:" must carry the
   node counts of the rebuild, the last Compile_end of the method. *)
let test_explain_last_compile () =
  let src =
    "var fast: bool = true\n\
     def f(x: int): int = if (Lancet.stable(fun () => fast)) x + 1 else (x * \
     7 + x / 3 - 5) % 1009\n\
     def main(): int = {\n\
    \  var acc = 0;\n\
    \  for (i <- 0 until 100) { acc = acc + f(i) };\n\
    \  fast = false;\n\
    \  for (i <- 0 until 100) { acc = acc + f(i) };\n\
    \  acc\n\
     }\n"
  in
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let x = Profiler.create () in
  let ring = Obs.Ring.create () in
  let p = Mini.Front.load ~file:"flip.mini" rt src in
  Obs.with_sink (Obs.Ring.sink ring) (fun () ->
      Obs.with_sink (Profiler.sink x) (fun () ->
          ignore (Mini.Front.call p "main" [||])));
  let f = (Mini.Front.find_function p "f").mid in
  let counts =
    List.filter_map
      (function
        | Obs.Compile_end c when c.Obs.ci_mid = f ->
          Some (c.Obs.ci_nodes_in, c.Obs.ci_nodes_out)
        | _ -> None)
      (Obs.Ring.events ring)
  in
  match counts with
  | [ (in1, _); (in2, out2) ] ->
    check_bool "the rebuild is the larger graph" true (in2 > in1);
    let out = Lancet.Explain.render ~timings:false ~residency:false x rt ~src in
    check_bool "last names the rebuild" true
      (Util.contains_sub out
         (Printf.sprintf
            "Main$1.f: compiled x2 (last: typed backend, %d->%d nodes)" in2
            out2))
  | _ -> Alcotest.failf "f compiled %d times, not twice" (List.length counts)

let suite =
  [
    Alcotest.test_case "assembler line table" `Quick test_assembler_lines;
    Alcotest.test_case "mini line table" `Quick test_mini_lines;
    Alcotest.test_case "default source name" `Quick test_default_src;
    Alcotest.test_case "prov survives CSE and DCE" `Quick test_prov_cse_dce;
    Alcotest.test_case "prov through staging" `Quick test_prov_stage;
    Alcotest.test_case "profiler on kmeans" `Quick test_profiler_kmeans;
    Alcotest.test_case "explain annotates source" `Quick test_explain;
    Alcotest.test_case "explain names the last compile" `Quick
      test_explain_last_compile;
  ]
