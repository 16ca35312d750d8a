(* Tests for the tiered execution engine: hotness-driven promotion of
   interpreted methods into Lancet-compiled code, the runtime code cache
   (installation, invalidation, eviction) and deoptimization back into the
   interpreter. *)

open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot_tiered ?(threshold = 4) ?(cache = 512) () =
  Lancet.Api.boot ~tiering:true ~tier_threshold:threshold
    ~tier_cache_size:cache ()

(* ------------------------------------------------------------------ *)

let hot_src =
  {|
def hot(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
|}

(* A hot loop crosses the threshold and gets compiled exactly once; every
   later call is a cache hit and agrees with pure interpretation. *)
let test_promotion () =
  let rt = boot_tiered ~threshold:4 () in
  let p = Mini.Front.load rt hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  for k = 0 to 19 do
    let v = Mini.Front.call p "hot" [| Int 50; Int k |] in
    let w = Mini.Front.call pp "hot" [| Int 50; Int k |] in
    check_value "tiered = interpreted" w v
  done;
  check_int "compiled once" 1 rt.tiering.t_compiles;
  check_bool "cache hits recorded" true (rt.tiering.t_cache_hits >= 10);
  check_int "no deopts" 0 rt.tiering.t_deopts;
  let m = Mini.Front.find_function p "hot" in
  check_bool "method marked compiled" true
    (match m.mtier with Tier_compiled _ -> true | _ -> false)

(* Tiering disabled: same workload never compiles. *)
let test_disabled () =
  let rt = Lancet.Api.boot ~tiering:false () in
  let p = Mini.Front.load rt hot_src in
  for k = 0 to 9 do
    ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
  done;
  check_int "no compiles" 0 rt.tiering.t_compiles;
  check_int "no hits" 0 rt.tiering.t_cache_hits

(* ------------------------------------------------------------------ *)
(* Compiled code agrees with the interpreter across language features.  *)

let battery =
  [
    ( "recursion",
      "def fib(n: int): int = if (n < 2) n else fib(n - 1) + fib(n - 2)",
      "fib",
      [| Int 15 |] );
    ( "floats",
      "def fsum(n: int): float = {\n\
      \  var acc = 0.0;\n\
      \  for (i <- 0 until n) { acc = acc + 0.5 * acc + 1.25; acc = acc / 1.5 };\n\
      \  acc\n\
       }",
      "fsum",
      [| Int 40 |] );
    ( "strings",
      "def s(n: int): string = {\n\
      \  var acc = \"x\";\n\
      \  for (i <- 0 until n) { acc = Str.concat(acc, Str.of_int(i)) };\n\
      \  acc\n\
       }",
      "s",
      [| Int 12 |] );
    ( "virtual-dispatch",
      "class Ctr { var x: int\n\
      \  def init(x: int): unit = { this.x = x }\n\
      \  def bump(d: int): int = { this.x = this.x + d; this.x } }\n\
       def v(n: int): int = {\n\
      \  val c = new Ctr(7);\n\
      \  var acc = 0;\n\
      \  for (i <- 0 until n) { acc = acc + c.bump(i) };\n\
      \  acc\n\
       }",
      "v",
      [| Int 25 |] );
    ( "closures",
      "def c(n: int): int = {\n\
      \  val add = fun (a: int, b: int) => a + b * 3;\n\
      \  var acc = 0;\n\
      \  for (i <- 0 until n) { acc = add(acc, i) };\n\
      \  acc\n\
       }",
      "c",
      [| Int 30 |] );
  ]

let test_matches_interpreter () =
  List.iter
    (fun (label, src, fname, args) ->
      let rt = boot_tiered ~threshold:1 () in
      let p = Mini.Front.load rt src in
      let plain = Vm.Natives.boot () in
      let pp = Mini.Front.load plain src in
      let expect = Mini.Front.call pp fname args in
      for _ = 1 to 6 do
        check_value label expect (Mini.Front.call p fname args)
      done;
      check_bool (label ^ ": compiled something") true
        (rt.tiering.t_compiles > 0))
    battery

(* ------------------------------------------------------------------ *)
(* Deoptimization: a failing speculation side-exits into the interpreter
   with the right frame state, producing the interpreter's answer. *)

let spec_src =
  {|
def spec(x: int): int =
  if (Lancet.speculate(x < 100)) x * 2 + 1 else x * 1000
|}

let test_speculate_deopt () =
  let rt = boot_tiered ~threshold:1 () in
  let p = Mini.Front.load rt spec_src in
  check_value "fast path" (Int 11) (Mini.Front.call p "spec" [| Int 5 |]);
  check_value "fast path again" (Int 15) (Mini.Front.call p "spec" [| Int 7 |]);
  check_int "compiled" 1 rt.tiering.t_compiles;
  check_int "no deopt yet" 0 rt.tiering.t_deopts;
  (* speculation fails: resume in the interpreter, same answer as interp *)
  check_value "deopt result" (Int 500000)
    (Mini.Front.call p "spec" [| Int 500 |]);
  check_bool "deopt counted" true (rt.tiering.t_deopts >= 1);
  (* the compiled entry point survives a deopt *)
  check_value "fast path after deopt" (Int 11)
    (Mini.Front.call p "spec" [| Int 5 |])

(* stable: a changed stable value triggers a `Recompile side exit — the
   method is rebuilt against the new value and stays in the cache. *)
let stable_src =
  {|
var fast: bool = true
def set_fast(b: bool): unit = { fast = b }
def f(x: int): int = if (Lancet.stable(fun () => fast)) x * 10 else x + 1
|}

let test_stable_recompile () =
  let rt = boot_tiered ~threshold:1 () in
  let p = Mini.Front.load rt stable_src in
  check_value "initial" (Int 30) (Mini.Front.call p "f" [| Int 3 |]);
  check_value "cached" (Int 30) (Mini.Front.call p "f" [| Int 3 |]);
  let compiles0 = rt.tiering.t_compiles in
  let m = Mini.Front.find_function p "f" in
  let gen0 = Vm.Runtime.tier_gen rt m.mid in
  ignore (Mini.Front.call p "set_fast" [| Vm.Value.of_bool false |]);
  (* guard fails: recompile against the new stable value, resume correctly *)
  check_value "after change" (Int 4) (Mini.Front.call p "f" [| Int 3 |]);
  check_bool "deopt counted" true (rt.tiering.t_deopts >= 1);
  check_bool "recompiled" true (rt.tiering.t_compiles > compiles0);
  check_bool "generation bumped" true (Vm.Runtime.tier_gen rt m.mid > gen0);
  (* the reinstalled entry point serves later calls with the new value *)
  check_value "recompiled entry" (Int 6) (Mini.Front.call p "f" [| Int 5 |])

(* ------------------------------------------------------------------ *)
(* Cache management: explicit invalidation and FIFO eviction.           *)

let test_invalidation () =
  let rt = boot_tiered ~threshold:2 () in
  let p = Mini.Front.load rt hot_src in
  for k = 0 to 5 do
    ignore (Mini.Front.call p "hot" [| Int 10; Int k |])
  done;
  check_int "compiled once" 1 rt.tiering.t_compiles;
  let m = Mini.Front.find_function p "hot" in
  check_int "generation 0" 0 (Vm.Runtime.tier_gen rt m.mid);
  Vm.Runtime.tier_invalidate rt m;
  check_int "generation bumped" 1 (Vm.Runtime.tier_gen rt m.mid);
  check_bool "back to cold" true (m.mtier = Tier_cold);
  (* still hot by its counters: the next call recompiles and installs *)
  let v = Mini.Front.call p "hot" [| Int 10; Int 3 |] in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  check_value "recompiled result" (Mini.Front.call pp "hot" [| Int 10; Int 3 |]) v;
  check_int "recompiled" 2 rt.tiering.t_compiles

let two_hot_src =
  {|
def a(n: int): int = { var s = 0; for (i <- 0 until n) { s = s + i * 3 }; s }
def b(n: int): int = { var s = 1; for (i <- 0 until n) { s = s + i * 5 }; s }
|}

let test_eviction () =
  let rt = boot_tiered ~threshold:1 ~cache:1 () in
  let p = Mini.Front.load rt two_hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain two_hot_src in
  for _ = 1 to 4 do
    check_value "a" (Mini.Front.call pp "a" [| Int 20 |])
      (Mini.Front.call p "a" [| Int 20 |]);
    check_value "b" (Mini.Front.call pp "b" [| Int 20 |])
      (Mini.Front.call p "b" [| Int 20 |])
  done;
  check_bool "evictions happened" true (rt.tiering.t_evictions >= 1);
  check_bool "cache stays bounded" true
    (Hashtbl.length rt.tiering.t_cache <= 1)

(* Eviction round trip under pressure: with a one-slot code cache two
   alternating hot methods keep evicting each other, results stay equal
   to the interpreter, the evict -> re-promote chain is visible in the
   why report, and the health report's advice names the cache's size. *)
let test_evict_repromote () =
  Forensics.enable ();
  let rt = boot_tiered ~threshold:4 ~cache:1 () in
  let p = Mini.Front.load rt two_hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain two_hot_src in
  for i = 1 to 30 do
    List.iter
      (fun f ->
        check_value
          (Printf.sprintf "%s(%d) survives eviction churn" f i)
          (Mini.Front.call pp f [| Int (20 + i) |])
          (Mini.Front.call p f [| Int (20 + i) |]))
      [ "a"; "b" ]
  done;
  check_bool "cache pressure evicted" true (rt.tiering.t_evictions > 0);
  check_bool "evicted methods recompiled" true (rt.tiering.t_compiles > 2);
  let report = Lancet.Explain.why_report rt in
  check_bool "why shows the eviction" true
    (Vm.Strutil.contains report "evicted from code cache");
  check_bool "why shows the re-promotion" true
    (Vm.Strutil.contains report "promote");
  let health = Lancet.Explain.health_report rt in
  check_bool "health names the thrash" true
    (Vm.Strutil.contains health "PATHOLOGY cache-thrash");
  check_bool "health advice carries the cache size" true
    (Vm.Strutil.contains health
       "suggestion: the code cache holds 1 method(s), fewer than the hot \
        working set; boot the runtime with a larger ~tier_cache_size");
  Forensics.disable ()

(* A call with too few arguments reads the missing ones as null in typed
   code as in the interpreter, so both raise the same error. *)
let test_short_call () =
  let src = "def w(a: int, b: int): int = a * b + 7" in
  let rt = boot_tiered ~threshold:2 () in
  let p = Mini.Front.load rt src in
  let pp = Mini.Front.load (Vm.Natives.boot ()) src in
  let ring = Obs.Ring.create ~capacity:256 () in
  Obs.with_sink (Obs.Ring.sink ring) (fun () ->
      for i = 1 to 3 do
        ignore (Mini.Front.call p "w" [| Int i; Int 2 |])
      done);
  check_bool "compiled in the typed mode" true
    (List.exists
       (function Obs.Compile_end c -> c.Obs.ci_backend = "typed" | _ -> false)
       (Obs.Ring.events ring));
  let outcome p =
    match Mini.Front.call p "w" [| Int 1 |] with
    | v -> Vm.Value.to_string v
    | exception Vm_error e -> "error " ^ e
  in
  Alcotest.(check string) "the interpreter's error" (outcome pp) (outcome p);
  check_bool "still compiled" true
    (match (Mini.Front.find_function p "w").mtier with
    | Tier_compiled _ -> true
    | _ -> false)

(* A jit hook that declines to compile blacklists the method; execution
   stays on the interpreter and stays correct. *)
let test_blacklist () =
  let rt =
    Vm.Natives.boot ~tiering:true ~tier_threshold:2 ()
  in
  rt.jit_hook <- Some (fun _ _ -> Vm.Types.Jit_declined);
  let p = Mini.Front.load rt hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  for k = 0 to 5 do
    check_value "still correct" (Mini.Front.call pp "hot" [| Int 10; Int k |])
      (Mini.Front.call p "hot" [| Int 10; Int k |])
  done;
  let m = Mini.Front.find_function p "hot" in
  check_bool "blacklisted" true (m.mtier = Tier_blacklisted);
  check_int "nothing compiled" 0 rt.tiering.t_compiles

(* ------------------------------------------------------------------ *)

let test_counters_monotone () =
  let rt = boot_tiered ~threshold:3 () in
  let p = Mini.Front.load rt spec_src in
  let snap () =
    let t = rt.tiering in
    [ t.t_compiles; t.t_cache_hits; t.t_cache_misses; t.t_deopts;
      rt.interp_steps ]
  in
  let prev = ref (snap ()) in
  for k = 0 to 14 do
    (* mix fast-path and deopting calls *)
    ignore (Mini.Front.call p "spec" [| Int (if k mod 5 = 4 then 900 else k) |]);
    let now = snap () in
    List.iter2
      (fun a b -> check_bool "monotone" true (b >= a))
      !prev now;
    prev := now
  done;
  check_bool "saw compiles" true (rt.tiering.t_compiles >= 1);
  check_bool "saw deopts" true (rt.tiering.t_deopts >= 1)

(* A dropped runtime is garbage: nothing process-wide (the macro table, the
   exec-sample flushers) keeps it or its compiled code alive.  300 tiered
   runtimes that each promote a method must leave the live heap about where
   it was; when every runtime stays reachable, each pins thousands of words
   (its classes, code cache, compiled closures and macro table). *)
let test_runtimes_collectable () =
  let one () =
    let rt = boot_tiered ~threshold:2 () in
    let p = Mini.Front.load rt hot_src in
    for k = 1 to 3 do
      ignore (Mini.Front.call p "hot" [| Int 10; Int k |])
    done;
    check_int "promoted" 1 rt.tiering.t_compiles
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  one ();
  let before = live () in
  for _ = 1 to 300 do
    one ()
  done;
  let growth = live () - before in
  if growth > 30_000 then
    Alcotest.failf "300 dropped runtimes left %d live words (%d each)" growth
      (growth / 300)

let suite =
  [
    Alcotest.test_case "promotion" `Quick test_promotion;
    Alcotest.test_case "runtimes-collectable" `Quick test_runtimes_collectable;
    Alcotest.test_case "disabled" `Quick test_disabled;
    Alcotest.test_case "matches-interpreter" `Quick test_matches_interpreter;
    Alcotest.test_case "speculate-deopt" `Quick test_speculate_deopt;
    Alcotest.test_case "stable-recompile" `Quick test_stable_recompile;
    Alcotest.test_case "invalidation" `Quick test_invalidation;
    Alcotest.test_case "eviction" `Quick test_eviction;
    Alcotest.test_case "evict-repromote" `Quick test_evict_repromote;
    Alcotest.test_case "short-call" `Quick test_short_call;
    Alcotest.test_case "blacklist" `Quick test_blacklist;
    Alcotest.test_case "counters-monotone" `Quick test_counters_monotone;
  ]
