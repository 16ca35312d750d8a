(* Tests for the background compilation subsystem: promotion through the
   compile queue must be observably identical to synchronous promotion
   (modulo when the compiled code starts running), compile failures must
   degrade to interpretation instead of killing the VM, an invalidation
   racing an in-flight compile must never install stale code, and a
   saturated queue must coalesce/drop rather than block the mutator. *)

open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let quiet = Some (fun (_ : string) -> ())

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

(* Spin until [p ()] holds; background compilation is asynchronous by
   design, so tests that need "the worker reached state X" poll for it.
   The cap only trips on a genuine deadlock. *)
let await ?(what = "condition") p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

(* ------------------------------------------------------------------ *)
(* Async promote -> install -> execute is observably identical to sync. *)

let test_async_matches_sync () =
  let run jit_threads =
    let rt, pool =
      Lancet.Api.boot_bg ~tiering:true ~tier_threshold:4 ~jit_threads ()
    in
    let p = Mini.Front.load rt hot_src in
    let acc = ref [] in
    for k = 0 to 39 do
      acc := Mini.Front.call p "hot" [| Int 50; Int k |] :: !acc
    done;
    (match pool with Some b -> Bgjit.drain b | None -> ());
    (* the compiled entry is installed now: run through it too *)
    for k = 0 to 9 do
      acc := Mini.Front.call p "hot" [| Int 50; Int k |] :: !acc
    done;
    let m = Mini.Front.find_function p "hot" in
    let st = Option.map Bgjit.stats pool in
    (match pool with Some b -> Bgjit.shutdown b | None -> ());
    (!acc, m, st)
  in
  let sync_vals, sync_m, _ = run 0 in
  let async_vals, async_m, st = run 1 in
  List.iter2 (fun s a -> check_value "async = sync" s a) sync_vals async_vals;
  check_bool "sync compiled" true
    (match sync_m.mtier with Tier_compiled _ -> true | _ -> false);
  check_bool "async compiled" true
    (match async_m.mtier with Tier_compiled _ -> true | _ -> false);
  match st with
  | None -> Alcotest.fail "expected a pool"
  | Some s ->
    check_bool "installed through the queue" true (s.Bgjit.s_installed >= 1);
    check_int "no stale installs" 0 s.Bgjit.s_stale;
    check_int "no blacklists" 0 s.Bgjit.s_failed

(* ------------------------------------------------------------------ *)
(* A worker compile failure blacklists the method (with a file:line
   diagnostic) and the program keeps running on the interpreter.         *)

let test_failure_blacklists () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let logs = ref [] in
  let pool =
    Bgjit.create ~threads:1
      ~log:(fun s -> logs := s :: !logs)
      ~compile:(fun _ _ -> failwith "injected compile failure")
      rt
  in
  Bgjit.install pool;
  let p = Mini.Front.load ~file:"bg.mini" rt hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  for k = 0 to 29 do
    check_value "still correct after failed compile"
      (Mini.Front.call pp "hot" [| Int 50; Int k |])
      (Mini.Front.call p "hot" [| Int 50; Int k |])
  done;
  Bgjit.drain pool;
  Bgjit.shutdown pool;
  let m = Mini.Front.find_function p "hot" in
  check_bool "blacklisted" true (m.mtier = Tier_blacklisted);
  check_bool "failure counted" true ((Bgjit.stats pool).Bgjit.s_failed >= 1);
  let diag = String.concat "\n" !logs in
  check_bool "diagnostic names the method" true
    (Vm.Strutil.contains diag "hot");
  check_bool "diagnostic carries file:line" true
    (Vm.Strutil.contains diag "bg.mini:");
  check_bool "diagnostic carries the error" true
    (Vm.Strutil.contains diag "injected compile failure");
  (* one more call after shutdown: still interpreting, still correct *)
  check_value "runs after shutdown"
    (Mini.Front.call pp "hot" [| Int 50; Int 7 |])
    (Mini.Front.call p "hot" [| Int 50; Int 7 |])

(* ------------------------------------------------------------------ *)
(* An invalidation racing an in-flight compile: the generation check
   must discard the stale code and leave the method re-promotable.       *)

let test_stale_never_installs () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let pool =
    Bgjit.create ~threads:1 ?log:quiet
      ~compile:(fun _ _ ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Some ((fun _ -> Vm.Types.Str "stale code ran"), [], 0))
      rt
  in
  let p = Mini.Front.load rt hot_src in
  let m = Mini.Front.find_function p "hot" in
  check_bool "queued" true (Bgjit.enqueue pool m = `Queued);
  (* wait until the worker holds the compile in flight, then invalidate:
     the generation stamp it read at dequeue is now stale *)
  await ~what:"compile to start" (fun () -> Atomic.get started);
  Vm.Runtime.tier_invalidate rt m;
  Atomic.set release true;
  Bgjit.drain pool;
  Bgjit.shutdown pool;
  let s = Bgjit.stats pool in
  check_int "stale result discarded" 1 s.Bgjit.s_stale;
  check_int "nothing installed" 0 s.Bgjit.s_installed;
  check_bool "stale code not in the cache" false
    (Hashtbl.mem rt.tiering.t_cache m.mid);
  check_bool "method re-promotable (cold), not stuck compiling" true
    (m.mtier = Tier_cold);
  (* and the method still computes the right thing on the interpreter *)
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  check_value "correct after discard"
    (Mini.Front.call pp "hot" [| Int 50; Int 3 |])
    (Mini.Front.call p "hot" [| Int 50; Int 3 |])

(* ------------------------------------------------------------------ *)
(* Queue saturation: a duplicate request coalesces, an overflowing one
   is dropped (and the method retries later); the mutator never blocks.  *)

let three_src =
  {|
def a(n: int): int = n * 2 + 1
def b(n: int): int = n * 3 + 1
def c(n: int): int = n * 5 + 1
|}

let test_saturation_coalesces () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let pool =
    Bgjit.create ~threads:1 ~queue:1 ?log:quiet
      ~compile:(fun _ m ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Lancet.Tiering.compile rt m)
      rt
  in
  let p = Mini.Front.load rt three_src in
  let ma = Mini.Front.find_function p "a" in
  let mb = Mini.Front.find_function p "b" in
  let mc = Mini.Front.find_function p "c" in
  (* a: dequeued and held in flight by the blocked compile stub *)
  check_bool "a queued" true (Bgjit.enqueue pool ma = `Queued);
  await ~what:"worker to pick up a" (fun () -> Atomic.get started);
  (* b: fills the (capacity 1) queue *)
  check_bool "b queued" true (Bgjit.enqueue pool mb = `Queued);
  (* b again: coalesces into the pending request, does not double-queue *)
  check_bool "b coalesced" true (Bgjit.enqueue pool mb = `Coalesced);
  (* c: queue full -> dropped immediately, no blocking, retries later *)
  mc.mtier <- Tier_compiling;
  check_bool "c dropped" true (Bgjit.enqueue pool mc = `Dropped);
  check_bool "c back to cold for retry" true (mc.mtier = Tier_cold);
  Atomic.set release true;
  Bgjit.drain pool;
  Bgjit.shutdown pool;
  let s = Bgjit.stats pool in
  check_int "two requests entered the queue" 2 s.Bgjit.s_enqueued;
  check_int "one coalesced" 1 s.Bgjit.s_coalesced;
  check_int "one dropped" 1 s.Bgjit.s_dropped;
  check_int "both compiles installed" 2 s.Bgjit.s_installed;
  check_int "nothing pending after drain" 0 (Bgjit.pending pool);
  check_bool "a compiled" true
    (match ma.mtier with Tier_compiled _ -> true | _ -> false);
  check_bool "b compiled" true
    (match mb.mtier with Tier_compiled _ -> true | _ -> false);
  check_value "a runs compiled" (Int 21) (Mini.Front.call p "a" [| Int 10 |]);
  check_value "b runs compiled" (Int 31) (Mini.Front.call p "b" [| Int 10 |])

(* ------------------------------------------------------------------ *)
(* A `Recompile deopt (changed stable value) routes the rebuild through
   the queue: the mutator resumes interpreting immediately and a worker
   installs the new code at the bumped generation.                       *)

let stable_src =
  {|
var fast: bool = true
def set_fast(b: bool): unit = { fast = b }
def f(x: int): int = if (Lancet.stable(fun () => fast)) x * 10 else x + 1
|}

let test_async_recompile () =
  let rt, pool =
    Lancet.Api.boot_bg ~tiering:true ~tier_threshold:1 ~jit_threads:1 ()
  in
  let pool = Option.get pool in
  let p = Mini.Front.load rt stable_src in
  check_value "initial (interpreted)" (Int 30) (Mini.Front.call p "f" [| Int 3 |]);
  Bgjit.drain pool;
  check_value "compiled" (Int 30) (Mini.Front.call p "f" [| Int 3 |]);
  let m = Mini.Front.find_function p "f" in
  let gen0 = Vm.Runtime.tier_gen rt m.mid in
  ignore (Mini.Front.call p "set_fast" [| Vm.Value.of_bool false |]);
  (* guard fails: the deopt resumes in the interpreter with the correct
     answer while the rebuild sits in the compile queue *)
  check_value "after change (deopt resume)" (Int 4)
    (Mini.Front.call p "f" [| Int 3 |]);
  check_bool "deopt counted" true (rt.tiering.t_deopts >= 1);
  Bgjit.drain pool;
  check_bool "generation bumped" true (Vm.Runtime.tier_gen rt m.mid > gen0);
  check_bool "rebuilt and reinstalled" true
    (match m.mtier with Tier_compiled _ -> true | _ -> false);
  check_value "recompiled entry" (Int 6) (Mini.Front.call p "f" [| Int 5 |]);
  Bgjit.shutdown pool;
  check_bool "no blacklist on the recompile path" true
    ((Bgjit.stats pool).Bgjit.s_failed = 0)

(* ------------------------------------------------------------------ *)
(* Each Compile_end carries the node counts of its own compile, not those
   of a compile that another domain staged meanwhile.                   *)

let test_compile_end_own_counts () =
  let src = Util.read_example "coach.mini" in
  (* (method, (nodes in, nodes out)) of each Compile_end of one run of
     main; area_of is left out, as its graph depends on the inline-cache
     profile at the moment it compiles *)
  let run jit_threads =
    let ring = Obs.Ring.create ~capacity:4096 () in
    Obs.with_sink (Obs.Ring.sink ring) (fun () ->
        let rt, pool = Lancet.Api.boot_bg ~tiering:true ~jit_threads () in
        ignore (Mini.Front.call (Mini.Front.load rt src) "main" [||]);
        match pool with
        | Some b ->
          Bgjit.drain b;
          Bgjit.shutdown b
        | None -> ());
    List.filter_map
      (function
        | Obs.Compile_end c when not (Util.contains_sub c.Obs.ci_meth "area_of")
          ->
          Some (c.Obs.ci_meth, (c.Obs.ci_nodes_in, c.Obs.ci_nodes_out))
        | _ -> None)
      (Obs.Ring.events ring)
  in
  let sync = run 0 in
  check_bool "the synchronous run compiled" true (sync <> []);
  for _ = 1 to 50 do
    let async = run 2 in
    check_bool "the background run compiled" true (async <> []);
    List.iter
      (fun (meth, counts) ->
        match List.assoc_opt meth sync with
        | Some want ->
          Alcotest.(check (pair int int)) (meth ^ " node counts") want counts
        | None -> Alcotest.failf "%s compiled only in the background" meth)
      async
  done

(* ------------------------------------------------------------------ *)
(* Bounded shutdown: a wedged worker cannot hang exit — the deadline
   expires, pending requests are abandoned (counted + returned to the
   interpreter) and the stuck domain is left behind for process exit.   *)

let test_bounded_shutdown () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let pool =
    Bgjit.create ~threads:1 ?log:quiet
      ~compile:(fun rt m ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Unix.sleepf 0.005
        done;
        Lancet.Tiering.compile rt m)
      rt
  in
  let p = Mini.Front.load rt three_src in
  let ma = Mini.Front.find_function p "a" in
  let mb = Mini.Front.find_function p "b" in
  check_bool "a queued" true (Bgjit.enqueue pool ma = `Queued);
  await ~what:"worker to wedge on a" (fun () -> Atomic.get started);
  check_bool "b queued behind the wedge" true (Bgjit.enqueue pool mb = `Queued);
  let t0 = Unix.gettimeofday () in
  Bgjit.shutdown ~timeout_ms:200 pool;
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "shutdown returned within the deadline" true (dt < 5.0);
  check_int "pending request abandoned" 1 (Bgjit.stats pool).Bgjit.s_abandoned;
  check_bool "abandoned method back on the interpreter" true
    (mb.mtier = Tier_cold);
  (* unwedge the leaked worker so it exits instead of sleeping forever *)
  Atomic.set release true

(* ------------------------------------------------------------------ *)
(* A request's enqueue reaches the bus before the worker that takes it
   reports anything, and each dequeue carries its own queue wait.       *)

let many_src =
  String.concat "\n"
    (List.init 8 (fun k ->
         Printf.sprintf
           "def q%d(x: int): int = { var s = x; for (j <- 0 until 20) { s = \
            (s * 31 + j + %d) %% 100003 }; s }"
           k k))

let test_enqueue_before_dequeue () =
  let prof = Profiler.create () in
  let dequeues = ref 0 and enqueues = ref 0 in
  Obs.with_sink (Profiler.sink prof) (fun () ->
      for _ = 1 to 40 do
        let ring = Obs.Ring.create () in
        Obs.with_sink (Obs.Ring.sink ring) (fun () ->
            let rt, pool =
              Lancet.Api.boot_bg ~tiering:true ~tier_threshold:2 ~jit_threads:2 ()
            in
            (* promotions only: no native jobs, OSR jobs run at once *)
            rt.tiering.t_submit <- None;
            let p = Mini.Front.load rt many_src in
            for r = 0 to 3 do
              for k = 0 to 7 do
                ignore (Mini.Front.call p (Printf.sprintf "q%d" k) [| Int r |])
              done
            done;
            Option.iter (fun b -> Bgjit.shutdown b) pool);
        (* requests queued and not yet taken, per method id *)
        let queued = Hashtbl.create 8 in
        let n mid = Option.value ~default:0 (Hashtbl.find_opt queued mid) in
        List.iter
          (function
            | Obs.Compile_enqueue { mid; _ } ->
              incr enqueues;
              Hashtbl.replace queued mid (n mid + 1)
            | Obs.Compile_dequeue { mid; meth; _ } ->
              incr dequeues;
              if n mid = 0 then Alcotest.failf "%s dequeued before its enqueue" meth;
              Hashtbl.replace queued mid (n mid - 1)
            | _ -> ())
          (Obs.Ring.events ring)
      done);
  check_bool "requests went through the queue" true (!dequeues > 0);
  check_int "every enqueue dequeued" !enqueues !dequeues;
  check_int "one queue wait per dequeue" !dequeues
    (Metrics.histo_count prof.Profiler.queue_wait_ms);
  match List.find_opt (fun (n, _, _) -> n = "compile_enqueues") (Profiler.metrics prof) with
  | Some (_, _, Metrics.Counter c) -> check_int "enqueues exported" !enqueues c
  | _ -> Alcotest.fail "no compile_enqueues series"

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "async-matches-sync" `Quick test_async_matches_sync;
    Alcotest.test_case "failure-blacklists" `Quick test_failure_blacklists;
    Alcotest.test_case "stale-never-installs" `Quick test_stale_never_installs;
    Alcotest.test_case "saturation-coalesces" `Quick test_saturation_coalesces;
    Alcotest.test_case "async-recompile" `Quick test_async_recompile;
    Alcotest.test_case "compile-end-own-counts" `Quick
      test_compile_end_own_counts;
    Alcotest.test_case "bounded-shutdown" `Quick test_bounded_shutdown;
    Alcotest.test_case "enqueue-before-dequeue" `Quick test_enqueue_before_dequeue;
  ]
