(* Tests for the native tier: tier-1 code upgraded to OCaml that ocamlopt
   builds and Dynlink loads.  The upgrades here run synchronously on the
   mutator ([Lancet.Tiering.native_sync]), so the native code is in place
   at a known call; two cases run a background pool.  Every result and
   error text is checked against the plain interpreter.

   The plugin table is process-wide and a plugin cannot be unloaded, so
   each case uses constants no other test emits: a build is then this
   case's own, and the compiler-run counts it checks are exact. *)

open Vm.Types

let check_value = Alcotest.check Util.value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A tiered runtime whose tier-1 code is upgraded to native code: a method
   is compiled at its [threshold]th call, which is its code's first, and
   upgraded at its code's [threshold]th, so at call [2 * threshold - 1]. *)
let boot ?(threshold = 2) src =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:threshold () in
  Lancet.Tiering.native_sync rt;
  (rt, Mini.Front.load rt src)

let plain src = Mini.Front.load (Vm.Natives.boot ()) src

(* A call's value or its error text, as a string. *)
let outcome p fn args =
  match Mini.Front.call p fn args with
  | v -> Vm.Value.to_string v
  | exception Vm_error e -> "error " ^ e
  | exception Invalid_argument e -> "invalid_argument " ^ e

let runs () = Atomic.get Lms.Native_tier.compiler_runs

(* The causes of the native declines journaled while [f] runs. *)
let declines f =
  let ring = Obs.Ring.create ~capacity:4096 () in
  let v = Obs.with_sink (Obs.Ring.sink ring) f in
  ( v,
    List.filter_map
      (function
        | Obs.Compile_drop { cause = Obs.Native_decline { why }; _ } -> Some why
        | _ -> None)
      (Obs.Ring.events ring) )

(* ------------------------------------------------------------------ *)
(* Side exits from native code resume in the interpreter.               *)

let spec_src =
  {|
def spec(x: int): int = if (Lancet.speculate(x < 7717)) x * 7717 + 3 else x - 7717
|}

let test_speculate_exit () =
  let rt, p = boot spec_src in
  let want = plain spec_src in
  for x = 1 to 4 do
    check_value "hot path" (Mini.Front.call want "spec" [| Int x |])
      (Mini.Front.call p "spec" [| Int x |])
  done;
  check_int "native code installed" 1 rt.tiering.t_native_installs;
  let deopts = rt.tiering.t_deopts in
  check_value "failed guard resumes in the interpreter"
    (Mini.Front.call want "spec" [| Int 9000 |])
    (Mini.Front.call p "spec" [| Int 9000 |]);
  check_bool "the exit ran" true (rt.tiering.t_deopts > deopts);
  check_value "native code after the exit"
    (Mini.Front.call want "spec" [| Int 5 |])
    (Mini.Front.call p "spec" [| Int 5 |])

let devirt_src =
  {|
class Animal {
  var legs: int
  def init(n: int): unit = { this.legs = n }
  def sound(): int = this.legs * 7727
}
class Dog extends Animal {
  def sound(): int = this.legs * 7727 + 1
}
class Bird extends Animal {
  def sound(): int = this.legs - 7727
}
def speak(a: Animal): int = a.sound() + 5
def dog(): Animal = new Dog(4)
def bird(): Animal = new Bird(2)
|}

let test_devirt_exit () =
  let rt, p = boot ~threshold:4 devirt_src in
  let want = plain devirt_src in
  let d = Mini.Front.call p "dog" [||] and wd = Mini.Front.call want "dog" [||] in
  for _ = 1 to 8 do
    check_value "monomorphic calls"
      (Mini.Front.call want "speak" [| wd |])
      (Mini.Front.call p "speak" [| d |])
  done;
  check_int "native code installed" 1 rt.tiering.t_native_installs;
  let b = Mini.Front.call p "bird" [||] and wb = Mini.Front.call want "bird" [||] in
  let deopts = rt.tiering.t_deopts in
  check_value "devirt guard miss resumes in the interpreter"
    (Mini.Front.call want "speak" [| wb |])
    (Mini.Front.call p "speak" [| b |]);
  check_bool "the exit ran" true (rt.tiering.t_deopts > deopts)

(* A [stable] recompile exit rebuilds the typed code into the entry's cell:
   the native code is gone, and the rebuilt code is upgraded again only
   after another [threshold] calls. *)
let stable_src =
  {|
var fast: bool = true
def set_fast(b: bool): unit = { fast = b }
def g(x: int): int = if (Lancet.stable(fun () => fast)) x * 7741 else x + 7741
|}

let test_stable_drops_native () =
  let rt, p = boot ~threshold:3 stable_src in
  for x = 1 to 5 do
    check_value "fast" (Int (x * 7741)) (Mini.Front.call p "g" [| Int x |])
  done;
  check_int "native code installed" 1 rt.tiering.t_native_installs;
  ignore (Mini.Front.call p "set_fast" [| Vm.Value.of_bool false |]);
  let (), events =
    let ring = Obs.Ring.create ~capacity:256 () in
    Obs.with_sink (Obs.Ring.sink ring) (fun () ->
        check_value "recompiled" (Int 7742) (Mini.Front.call p "g" [| Int 1 |]));
    ((), Obs.Ring.events ring)
  in
  let backends =
    List.filter_map
      (function Obs.Compile_end c -> Some c.Obs.ci_backend | _ -> None)
      events
  in
  check_bool "the exit rebuilt typed code" true (List.mem "typed" backends);
  check_int "not upgraded again yet" 1 rt.tiering.t_native_installs;
  for x = 2 to 4 do
    check_value "slow" (Int (x + 7741)) (Mini.Front.call p "g" [| Int x |])
  done;
  check_int "the rebuilt code upgraded in its turn" 2 rt.tiering.t_native_installs

(* ------------------------------------------------------------------ *)
(* The entry check and the interpreter's errors.                        *)

let errors_src =
  {|
def k(xs: farray, i: int, d: int): float = xs[i] * 7753.0 + i2f(7753 / d)
def w(a: int, b: int): int = a * b + 7757
def q(a: int, b: int): int = a % b + 7759
|}

let test_errors_match () =
  let rt, p = boot errors_src in
  let want = plain errors_src in
  let fa = Farr [| 1.5; -2.0; 3.25 |] in
  (* warm up, with well-typed calls, into native code *)
  for i = 0 to 2 do
    ignore (Mini.Front.call p "k" [| fa; Int i; Int 3 |]);
    ignore (Mini.Front.call p "w" [| Int i; Int 3 |]);
    ignore (Mini.Front.call p "q" [| Int i; Int 3 |])
  done;
  check_int "native code installed" 3 rt.tiering.t_native_installs;
  let same what fn args =
    check_string what (outcome want fn args) (outcome p fn args)
  in
  same "well typed" "k" [| fa; Int 1; Int 2 |];
  same "ill-typed index" "k" [| fa; Float 1.0; Int 2 |];
  same "ill-typed array" "k" [| Farr [||]; Int 0; Int 1 |];
  same "null farray" "k" [| Null; Int 0; Int 1 |];
  same "int array for a farray" "k" [| Arr [| Int 1 |]; Int 0; Int 1 |];
  same "out-of-range index" "k" [| fa; Int 3; Int 1 |];
  same "negative index" "k" [| fa; Int (-1); Int 1 |];
  same "division by zero" "k" [| fa; Int 0; Int 0 |];
  same "remainder by zero" "q" [| Int 5; Int 0 |];
  same "wrap32 at 2^31" "w" [| Int 65536; Int 32768 |];
  same "wrap32 at -2^31" "w" [| Int (-65536); Int 32768 |];
  same "wrap32 past 2^31" "w" [| Int 2147483647; Int 2 |];
  same "float for an int" "w" [| Float 2.0; Int 3 |];
  same "too few arguments" "w" [| Int 1 |]

(* ------------------------------------------------------------------ *)
(* One loaded copy per source.                                          *)

let test_plugins_shared () =
  let src k = Printf.sprintf "def h(x: int): int = x * 7789 + %d" k in
  let runs0 = runs () in
  let _, p1 = boot (src 1) in
  for x = 1 to 3 do ignore (Mini.Front.call p1 "h" [| Int x |]) done;
  check_int "the first runtime builds" (runs0 + 1) (runs ());
  let rt2, p2 = boot (src 1) in
  for x = 1 to 3 do ignore (Mini.Front.call p2 "h" [| Int x |]) done;
  check_int "a second runtime reuses the plugin" (runs0 + 1) (runs ());
  check_int "and runs native code" 1 rt2.tiering.t_native_installs;
  (* another int constant is another source *)
  let _, p3 = boot (src 2) in
  for x = 1 to 3 do ignore (Mini.Front.call p3 "h" [| Int x |]) done;
  check_int "another constant builds its own" (runs0 + 2) (runs ());
  check_value "first" (Int (5 * 7789 + 1)) (Mini.Front.call p1 "h" [| Int 5 |]);
  check_value "second" (Int (5 * 7789 + 1)) (Mini.Front.call p2 "h" [| Int 5 |]);
  check_value "third" (Int (5 * 7789 + 2)) (Mini.Front.call p3 "h" [| Int 5 |]);
  (* strings come from the env: one source, each runtime its own value *)
  let str a b =
    Printf.sprintf "def s(x: int): string = if (x > 7793) %S else %S" a b
  in
  let runs1 = runs () in
  let _, q1 = boot (str "big" "small") in
  let _, q2 = boot (str "large" "little") in
  for x = 1 to 3 do
    ignore (Mini.Front.call q1 "s" [| Int x |]);
    ignore (Mini.Front.call q2 "s" [| Int x |])
  done;
  check_int "one build for both" (runs1 + 1) (runs ());
  check_value "own constant" (Str "large") (Mini.Front.call q2 "s" [| Int 9000 |]);
  check_value "own constant" (Str "small") (Mini.Front.call q1 "s" [| Int 1 |])

(* Two closures of one lambda share its code: what each captured is read
   from the closure at run time, so each gets its own result. *)
let test_closures () =
  let src =
    {|
def mk(k: int): (int) -> int = fun (x: int) => x * 7901 + k
def app(f: (int) -> int, x: int): int = f(x)
|}
  in
  let rt, p = boot src in
  let f1 = Mini.Front.call p "mk" [| Int 1 |] and f2 = Mini.Front.call p "mk" [| Int 2 |] in
  for x = 1 to 4 do
    check_value "first" (Int ((x * 7901) + 1)) (Mini.Front.call p "app" [| f1; Int x |]);
    check_value "second" (Int ((x * 7901) + 2)) (Mini.Front.call p "app" [| f2; Int x |])
  done;
  check_bool "native code installed" true (rt.tiering.t_native_installs >= 1);
  check_value "first, native" (Int (9 * 7901 + 1)) (Mini.Front.call p "app" [| f1; Int 9 |]);
  check_value "second, native" (Int (9 * 7901 + 2)) (Mini.Front.call p "app" [| f2; Int 9 |])

(* ------------------------------------------------------------------ *)
(* A job whose method was invalidated after it was queued.              *)

let test_stale_job_discarded () =
  let src = "def st(x: int): int = x * 7817 - 1" in
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:2 () in
  let p = Mini.Front.load rt src in
  let queued = ref [] in
  rt.tiering.t_submit <- Some (fun job -> queued := job :: !queued);
  for x = 1 to 3 do ignore (Mini.Front.call p "st" [| Int x |]) done;
  let job =
    match !queued with [ j ] -> j | _ -> Alcotest.fail "expected one job"
  in
  Vm.Runtime.tier_invalidate rt (Mini.Front.find_function p "st");
  let (), _ =
    declines (fun () ->
        match job.job_build (Atomic.make 0) (fun () -> false) with
        | code, publish -> check_bool "install refused" false (publish code)
        | exception e -> Alcotest.failf "build declined: %s" (Printexc.to_string e))
  in
  check_int "nothing installed" 0 rt.tiering.t_native_installs;
  check_value "still right" (Int (4 * 7817 - 1)) (Mini.Front.call p "st" [| Int 4 |])

(* ------------------------------------------------------------------ *)
(* Declines: the typed kernel keeps running.                            *)

let test_missing_toolchain () =
  let src = "def mt(x: int): int = x * 7823 + 5" in
  Lms.Native_tier.use_compiler (Some "/nonexistent/ocamlopt");
  Fun.protect
    ~finally:(fun () -> Lms.Native_tier.use_compiler None)
    (fun () ->
      let rt, p = boot src in
      let v, why =
        declines (fun () ->
            for x = 1 to 3 do ignore (Mini.Front.call p "mt" [| Int x |]) done;
            Mini.Front.call p "mt" [| Int 4 |])
      in
      check_value "typed code runs" (Int (4 * 7823 + 5)) v;
      check_int "no native code" 0 rt.tiering.t_native_installs;
      check_bool "declined with a cause" true
        (List.exists (fun w -> Util.contains_sub w "no compiler at") why))

let test_cap () =
  (* fill the free slots with failing builds *)
  Lms.Native_tier.use_compiler (Some "/bin/false");
  Fun.protect
    ~finally:(fun () ->
      Lms.Native_tier.forget_failures ();
      Lms.Native_tier.use_compiler None)
    (fun () ->
      let rt = Lancet.Api.boot () in
      let free = Lms.Native_tier.free_slots () in
      for k = 0 to free - 1 do
        let p = Mini.Front.load rt (Printf.sprintf "def c%d(x: int): int = x * 7829 + %d" k k) in
        let m = Mini.Front.find_function p (Printf.sprintf "c%d" k) in
        let g = Lancet.Compiler.stage rt m [| Lancet.Compiler.Dyn |] in
        match
          Lms.Native_tier.compile ~hooks:(Lms.Hooks.default_hooks rt)
            ~typed:(fun _ -> Null) g
        with
        | Ok _ -> Alcotest.fail "/bin/false built a plugin"
        | Error why ->
          check_bool "a failed build" true (Util.contains_sub why "exited 1")
      done;
      check_int "no slot left" 0 (Lms.Native_tier.free_slots ());
      let rt, p = boot "def cap(x: int): int = x * 7829 - 7" in
      let v, why =
        declines (fun () ->
            for x = 1 to 3 do ignore (Mini.Front.call p "cap" [| Int x |]) done;
            Mini.Front.call p "cap" [| Int 4 |])
      in
      check_value "typed code runs" (Int (4 * 7829 - 7)) v;
      check_int "no native code" 0 rt.tiering.t_native_installs;
      check_bool "declined: table full" true
        (List.exists (fun w -> Util.contains_sub w "plugin table full") why));
  check_bool "the slots are free again" true (Lms.Native_tier.free_slots () > 0)

(* ------------------------------------------------------------------ *)
(* A timed-out shutdown during a stalled build leaves no child.         *)

let test_shutdown_kills_compiler () =
  let script = Filename.temp_file "stall" ".sh" in
  Out_channel.with_open_bin script (fun oc ->
      output_string oc "#!/bin/sh\nexec sleep 30\n");
  Unix.chmod script 0o755;
  Lms.Native_tier.use_compiler (Some script);
  Fun.protect
    ~finally:(fun () ->
      Lms.Native_tier.use_compiler None;
      Sys.remove script)
    (fun () ->
      let rt, pool =
        Lancet.Api.boot_bg ~tiering:true ~tier_threshold:2 ~jit_threads:1 ()
      in
      let pool = Option.get pool in
      let p = Mini.Front.load rt "def sd(x: int): int = x * 7841 + 9" in
      let deadline = Unix.gettimeofday () +. 10. in
      let x = ref 0 in
      while
        Lms.Native_tier.live_children () = [] && Unix.gettimeofday () < deadline
      do
        incr x;
        check_value "right meanwhile" (Int ((!x * 7841) + 9))
          (Mini.Front.call p "sd" [| Int !x |]);
        Unix.sleepf 0.001
      done;
      let pids = Lms.Native_tier.live_children () in
      check_bool "the compiler is running" true (pids <> []);
      Bgjit.shutdown ~timeout_ms:50 pool;
      check_bool "no child left" true (Lms.Native_tier.live_children () = []);
      List.iter
        (fun pid ->
          check_bool "reaped" true
            (match Unix.kill pid 0 with
            | () -> false
            | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true))
        pids;
      check_int "no native code" 0 rt.tiering.t_native_installs;
      check_value "typed code runs" (Int (7841 + 9)) (Mini.Front.call p "sd" [| Int 1 |]))

(* ------------------------------------------------------------------ *)
(* Finishing a pool gives queued upgrades up: only the build already
   running when the pool stops runs the compiler.                       *)

let test_shutdown_drops_queued () =
  let script = Filename.temp_file "slow" ".sh" in
  Out_channel.with_open_bin script (fun oc ->
      output_string oc "#!/bin/sh\nsleep 0.5\nexit 1\n");
  Unix.chmod script 0o755;
  Lms.Native_tier.use_compiler (Some script);
  Fun.protect
    ~finally:(fun () ->
      Lms.Native_tier.use_compiler None;
      Lms.Native_tier.forget_failures ();
      Sys.remove script)
    (fun () ->
      let ks = [ 7933; 7937; 7949; 7951 ] in
      let src =
        String.concat "\n"
          (List.map (fun k -> Printf.sprintf "def q%d(x: int): int = x * %d + 1" k k) ks)
      in
      let rt, pool =
        Lancet.Api.boot_bg ~tiering:true ~tier_threshold:2 ~jit_threads:1 ()
      in
      let pool = Option.get pool in
      let p = Mini.Front.load rt src in
      let call_all () =
        List.iter
          (fun k ->
            check_value "right meanwhile" (Int ((3 * k) + 1))
              (Mini.Front.call p (Printf.sprintf "q%d" k) [| Int 3 |]))
          ks
      in
      let compiled () =
        List.for_all
          (fun k ->
            match (Mini.Front.find_function p (Printf.sprintf "q%d" k)).mtier with
            | Tier_compiled _ -> true
            | _ -> false)
          ks
      in
      let runs0 = runs () in
      let (), why =
        declines (fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            while not (compiled ()) && Unix.gettimeofday () < deadline do
              call_all ()
            done;
            (* every method's typed code reaches its upgrade call; the
               first build stalls the worker, the other upgrades queue *)
            call_all ();
            call_all ();
            while
              Lms.Native_tier.live_children () = []
              && Unix.gettimeofday () < deadline
            do
              Unix.sleepf 0.001
            done;
            check_bool "a build is running" true
              (Lms.Native_tier.live_children () <> []);
            Bgjit.shutdown pool)
      in
      check_int "only the running build ran the compiler" 1 (runs () - runs0);
      check_int "the queued upgrades given up at shutdown" 3
        (List.length (List.filter (String.equal "pool shut down") why));
      check_int "every upgrade declined" 4 (Bgjit.stats pool).Bgjit.s_native_declined;
      call_all ())

(* ------------------------------------------------------------------ *)
(* An upgrade the pool turns away is not asked for again: with one worker
   held by a stalled compiler and one queue slot, each method's upgrade
   is declined at most once.                                            *)

let test_refused_once () =
  let script = Filename.temp_file "stall" ".sh" in
  Out_channel.with_open_bin script (fun oc ->
      output_string oc "#!/bin/sh\nexec sleep 30\n");
  Unix.chmod script 0o755;
  Lms.Native_tier.use_compiler (Some script);
  Fun.protect
    ~finally:(fun () ->
      Lms.Native_tier.use_compiler None;
      Sys.remove script)
    (fun () ->
      let ks = [ 8101; 8111; 8117; 8123; 8147 ] in
      let src =
        String.concat "\n"
          (List.map (fun k -> Printf.sprintf "def r%d(x: int): int = x * %d + 3" k k) ks)
      in
      let rt, pool =
        Lancet.Api.boot_bg ~tiering:true ~tier_threshold:2 ~jit_threads:1
          ~jit_queue:1 ()
      in
      let pool = Option.get pool in
      let p = Mini.Front.load rt src in
      let call_all () =
        List.iter
          (fun k ->
            check_value "right meanwhile" (Int ((5 * k) + 3))
              (Mini.Front.call p (Printf.sprintf "r%d" k) [| Int 5 |]))
          ks
      in
      let ring = Obs.Ring.create ~capacity:4096 () in
      Obs.with_sink (Obs.Ring.sink ring) (fun () ->
          let deadline = Unix.gettimeofday () +. 10. in
          while
            List.exists
              (fun k ->
                match (Mini.Front.find_function p (Printf.sprintf "r%d" k)).mtier with
                | Tier_compiled _ -> false
                | _ -> true)
              ks
            && Unix.gettimeofday () < deadline
          do
            call_all ()
          done;
          for _ = 1 to 20 do call_all () done);
      Bgjit.shutdown ~timeout_ms:50 pool;
      let declined = Hashtbl.create 8 in
      List.iter
        (function
          | Obs.Compile_drop { mid; cause = Obs.Native_decline _; _ } ->
            Hashtbl.replace declined mid
              (1 + Option.value ~default:0 (Hashtbl.find_opt declined mid))
          | _ -> ())
        (Obs.Ring.events ring);
      check_bool "some upgrade was turned away" true (Hashtbl.length declined > 0);
      Hashtbl.iter
        (fun _ n -> check_bool "declined at most once" true (n <= 1))
        declined;
      check_int "no native code" 0 rt.tiering.t_native_installs)

(* ------------------------------------------------------------------ *)
(* A background pool upgrades hot code.                                  *)

let test_background_upgrade () =
  let src = "def bg(n: int): int = { var s = 0; for (i <- 0 until n) { s = (s + i * 7867) % 7873 }; s }" in
  let want = plain src in
  let rt, pool = Lancet.Api.boot_bg ~tiering:true ~tier_threshold:4 ~jit_threads:1 () in
  let pool = Option.get pool in
  let p = Mini.Front.load rt src in
  let deadline = Unix.gettimeofday () +. 20. in
  let n = ref 0 in
  while (Bgjit.stats pool).Bgjit.s_native = 0 && Unix.gettimeofday () < deadline do
    incr n;
    check_value "same as the interpreter"
      (Mini.Front.call want "bg" [| Int (!n mod 50) |])
      (Mini.Front.call p "bg" [| Int (!n mod 50) |]);
    if !n mod 8 = 0 then Bgjit.drain pool
  done;
  check_int "upgraded on the worker" 1 (Bgjit.stats pool).Bgjit.s_native;
  check_value "native result" (Mini.Front.call want "bg" [| Int 40 |])
    (Mini.Front.call p "bg" [| Int 40 |]);
  Bgjit.shutdown pool;
  check_bool "counted in the tier line" true
    (Util.contains_sub (Vm.Runtime.tier_stats_string rt) "native=1")

(* ------------------------------------------------------------------ *)
(* Native sqdist boxes nothing per loop iteration.                      *)

let test_alloc_gate () =
  let src =
    {|
def sqd(ps: farray, cs: farray, r: int, c: int, d: int): float = {
  var s = 0.0;
  for (j <- 0 until d) {
    val diff = ps[r * d + j] - cs[c * d + j];
    s = s + diff * diff * 7877.0
  };
  s
}
|}
  in
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt src in
  let m = Mini.Front.find_function p "sqd" in
  let g = Lancet.Compiler.stage rt m (Array.make 5 Lancet.Compiler.Dyn) in
  let fn =
    match
      Lms.Native_tier.compile ~hooks:(Lms.Hooks.default_hooks rt)
        ~typed:(fun _ -> Null) g
    with
    | Ok fn -> fn
    | Error why -> Alcotest.failf "declined: %s" why
  in
  let words d =
    let args =
      [| Farr (Array.init d float_of_int); Farr (Array.make d 0.5); Int 0; Int 0; Int d |]
    in
    ignore (fn args);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (fn args));
    Gc.minor_words () -. w0
  in
  let short = words 100 and long = words 100000 in
  check_bool
    (Printf.sprintf "%.0f words at d=100, %.0f at d=100000" short long)
    true (long = short)

let suite =
  [
    Alcotest.test_case "speculate-exit" `Quick test_speculate_exit;
    Alcotest.test_case "devirt-exit" `Quick test_devirt_exit;
    Alcotest.test_case "stable-drops-native" `Quick test_stable_drops_native;
    Alcotest.test_case "errors-match" `Quick test_errors_match;
    Alcotest.test_case "plugins-shared" `Quick test_plugins_shared;
    Alcotest.test_case "closures" `Quick test_closures;
    Alcotest.test_case "stale-job-discarded" `Quick test_stale_job_discarded;
    Alcotest.test_case "missing-toolchain" `Quick test_missing_toolchain;
    Alcotest.test_case "shutdown-kills-compiler" `Quick test_shutdown_kills_compiler;
    Alcotest.test_case "shutdown-drops-queued" `Quick test_shutdown_drops_queued;
    Alcotest.test_case "refused-once" `Quick test_refused_once;
    Alcotest.test_case "background-upgrade" `Quick test_background_upgrade;
    Alcotest.test_case "alloc-gate" `Quick test_alloc_gate;
    (* last: it fills the table, then frees what it filled *)
    Alcotest.test_case "cap" `Quick test_cap;
  ]
