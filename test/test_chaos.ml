(* Tests for the deterministic fault-injection framework: spec parsing,
   per-site seeded determinism, the crash-safe profile writer under
   injected write failures, queue saturation faults, and the soak
   invariant — under a seeded fault schedule the tiered runtime computes
   the pure-interpreter checksum and exits cleanly. *)

open Vm.Types

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let quiet = Some (fun (_ : string) -> ())

(* Every test leaves the global chaos switch off, whatever happens. *)
let protected f () = Fun.protect ~finally:Chaos.disable f

let configure_ok spec =
  match Chaos.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure %S: %s" spec e

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)

let test_spec_parsing () =
  configure_ok "compile_crash:p=0.5,compile_stall:ms=50,seed=7";
  check_bool "armed" true !Chaos.on;
  check_int "seed parsed" 7 (Chaos.seed ());
  check_int "ms parsed" 50 (Chaos.ms Chaos.compile_stall);
  Chaos.disable ();
  check_bool "disable clears the switch" false !Chaos.on;
  let is_err = function Error _ -> true | Ok () -> false in
  check_bool "empty spec rejected" true (is_err (Chaos.configure ""));
  check_bool "unknown site rejected" true (is_err (Chaos.configure "bogus"));
  (match Chaos.configure "bogus" with
  | Error e ->
    check_bool "error lists the known sites" true
      (Vm.Strutil.contains e "compile_crash")
  | Ok () -> Alcotest.fail "bogus site accepted");
  check_bool "bad probability rejected" true
    (is_err (Chaos.configure "compile_crash:p=2"));
  check_bool "bad seed rejected" true (is_err (Chaos.configure "seed=x"));
  check_bool "unknown parameter rejected" true
    (is_err (Chaos.configure "compile_crash:frobnicate=1"));
  check_bool "a failed configure leaves chaos off" false !Chaos.on;
  (* every registered site is documented *)
  List.iter
    (fun (name, doc) ->
      check_bool (name ^ " has a doc string") true (String.length doc > 0))
    (Chaos.describe ())

(* ------------------------------------------------------------------ *)
(* Determinism: same (spec, seed) -> same per-site outcome sequence     *)

let draw_seq spec n =
  configure_ok spec;
  let l = List.init n (fun _ -> Chaos.fire Chaos.compile_crash) in
  Chaos.disable ();
  l

let test_determinism () =
  let a = draw_seq "compile_crash:p=0.5,seed=7" 64 in
  let b = draw_seq "compile_crash:p=0.5,seed=7" 64 in
  check_bool "same seed replays the same schedule" true (a = b);
  let c = draw_seq "compile_crash:p=0.5,seed=8" 64 in
  check_bool "a different seed gives a different schedule" false (a = c);
  (* independence: arming another site must not perturb this one *)
  let d = draw_seq "compile_crash:p=0.5,cache_evict:p=0.5,seed=7" 64 in
  check_bool "sites draw from independent streams" true (a = d);
  check_bool "something fired" true (List.mem true a);
  check_bool "something did not fire" true (List.mem false a)

let test_fire_modes () =
  configure_ok "cache_evict,seed=1";
  for i = 1 to 10 do
    check_bool (Printf.sprintf "p defaults to 1: draw %d fires" i) true
      (Chaos.fire Chaos.cache_evict)
  done;
  Chaos.disable ();
  configure_ok "cache_evict:n=3,seed=1";
  let fired = List.init 9 (fun _ -> Chaos.fire Chaos.cache_evict) in
  check_bool "n=3 fires on every third draw" true
    (fired = [ false; false; true; false; false; true; false; false; true ]);
  Chaos.disable ();
  configure_ok "compile_crash:p=0,seed=1";
  for _ = 1 to 10 do
    check_bool "p=0 never fires" false (Chaos.fire Chaos.compile_crash)
  done;
  Chaos.disable ();
  (* a disarmed site never fires, even with chaos on *)
  configure_ok "cache_evict,seed=1";
  check_bool "disarmed site stays quiet" false (Chaos.fire Chaos.compile_crash)

(* ------------------------------------------------------------------ *)
(* Crash-safe profile writes: a write killed midway must leave the
   previous profile untouched (tmp + rename), and corrupted bytes must
   degrade to a cold start on load.                                     *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_profile_truncate_survives () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let path = Filename.temp_file "lancet_chaos" ".lprof" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists tmp then Sys.remove tmp;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Persist.save rt path;
      let before = read_file path in
      check_bool "baseline profile written" true (String.length before > 0);
      configure_ok "profile_truncate,seed=3";
      (match Persist.save rt path with
      | () -> Alcotest.fail "killed write should raise"
      | exception Sys_error e ->
        check_bool "error names the injected kill" true
          (Vm.Strutil.contains e "chaos"));
      Chaos.disable ();
      check_string "old profile survives the killed write" before
        (read_file path);
      check_bool "load still succeeds" true (Persist.load path <> None);
      (* corrupted bytes: the write completes but the loader must refuse *)
      configure_ok "profile_corrupt,seed=3";
      Persist.save rt path;
      Chaos.disable ();
      check_bool "corrupt profile degrades to a cold start" true
        (Persist.load path = None))

(* ------------------------------------------------------------------ *)
(* Queue saturation fault: enqueue drops exactly as if the queue were
   full — no blocking, method returned to the interpreter for retry.    *)

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

let test_queue_full_drops () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let pool =
    Bgjit.create ~threads:1 ?log:quiet ~compile:Lancet.Tiering.compile rt
  in
  let p = Mini.Front.load rt hot_src in
  let m = Mini.Front.find_function p "hot" in
  configure_ok "queue_full,seed=5";
  m.mtier <- Tier_compiling;
  check_bool "forced saturation drops" true (Bgjit.enqueue pool m = `Dropped);
  check_bool "method back to cold for retry" true (m.mtier = Tier_cold);
  check_int "drop counted" 1 (Bgjit.stats pool).Bgjit.s_dropped;
  Chaos.disable ();
  check_bool "queues again once chaos is off" true
    (Bgjit.enqueue pool m = `Queued);
  Bgjit.drain pool;
  Bgjit.shutdown pool;
  check_int "retry installed" 1 (Bgjit.stats pool).Bgjit.s_installed

(* ------------------------------------------------------------------ *)
(* Soak invariant: under a seeded schedule arming every fault site at
   once, the tiered runtime (2 JIT workers, tiny code cache) computes
   the pure-interpreter checksum and exits through the bounded
   drain/shutdown path.                                                 *)

let soak_src =
  {|
def s_calc(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
def s_spec(x: int): int =
  if (Lancet.speculate(x < 100000)) x * 3 + 1 else x - 7
|}

let soak_drive p ~calls =
  let acc = ref 0 in
  let put v = acc := (!acc + Vm.Value.to_int v) land 0xFFFFFF in
  for i = 1 to calls do
    put (Mini.Front.call p "s_calc" [| Int 40; Int i |]);
    let x = if i mod 20 = 0 then 1_000_000 + i else i in
    put (Mini.Front.call p "s_spec" [| Int x |])
  done;
  !acc

let test_soak_checksum () =
  let calls = 100 in
  let expect =
    let rt = Vm.Natives.boot () in
    soak_drive (Mini.Front.load rt soak_src) ~calls
  in
  List.iter
    (fun seed ->
      configure_ok
        (Printf.sprintf
           "compile_crash:p=0.3,compile_stall:p=0.3:ms=5,compile_garbage:p=0.3,queue_full:p=0.3,cache_evict:p=0.5,hier_churn:p=0.01,seed=%d"
           seed);
      let rt, pool =
        Lancet.Api.boot_bg ~tiering:true ~tier_threshold:4 ~tier_cache_size:2
          ~jit_threads:2 ()
      in
      let got = soak_drive (Mini.Front.load rt soak_src) ~calls in
      (match pool with Some b -> Bgjit.drain ~timeout_ms:2000 b | None -> ());
      (match pool with
      | Some b -> Bgjit.shutdown ~timeout_ms:2000 b
      | None -> ());
      Chaos.disable ();
      check_int (Printf.sprintf "seed %d matches the interpreter" seed) expect
        got)
    [ 5; 9; 23 ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "spec-parsing" `Quick (protected test_spec_parsing);
    Alcotest.test_case "determinism" `Quick (protected test_determinism);
    Alcotest.test_case "fire-modes" `Quick (protected test_fire_modes);
    Alcotest.test_case "profile-truncate-survives" `Quick
      (protected test_profile_truncate_survives);
    Alcotest.test_case "queue-full-drops" `Quick
      (protected test_queue_full_drops);
    Alcotest.test_case "soak-checksum" `Quick (protected test_soak_checksum);
  ]
