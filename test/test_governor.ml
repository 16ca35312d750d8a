(* Tests for the self-healing governor: the deopt-loop circuit breaker
   (demote -> exponential-backoff re-promotion -> permanent blacklist),
   the compile watchdog (stalled compile abandoned via the generation
   stamp, retried once, then blacklisted), queue backpressure and
   eviction damping on the promotion threshold, bounded pool shutdown,
   and the eviction/re-promotion round trip under cache pressure. *)

open Vm.Types
module G = Lancet.Governor

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let quiet = Some (fun (_ : string) -> ())

let await ?(what = "condition") p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

(* The governor's decisions travel on the event bus: a plain ring sink,
   not the decision journal, sees each as (kind, cause). *)
let with_ring f =
  let ring = Obs.Ring.create ~capacity:65536 () in
  Obs.with_sink (Obs.Ring.sink ring) f;
  List.map
    (fun ev -> (Obs.kind_to_string ev, Obs.cause_of ev))
    (Obs.Ring.events ring)

let carried ~what evs kind cause =
  check_bool what true (List.exists (fun (k, c) -> k = kind && cause c) evs)

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

(* ------------------------------------------------------------------ *)
(* Deopt-loop circuit breaker: K strikes on one guard demote the method
   behind an exponential hotness bar; exhausted backoff blacklists it.
   Results must track the interpreter at every step.                    *)

let spec_src =
  {|
def spec(x: int): int =
  if (Lancet.speculate(x < 100000)) x * 3 + 1 else x - 7
|}

let storm = function Obs.Deopt_storm _ -> true | _ -> false

let test_circuit_breaker () =
  Forensics.enable ();
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let gov =
    G.attach
      ~cfg:{ G.default_config with G.g_deopt_k = 2; G.g_max_backoff = 1 }
      rt
  in
  let p = Mini.Front.load rt spec_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain spec_src in
  let chk x =
    check_value
      (Printf.sprintf "spec(%d) tracks the interpreter" x)
      (Mini.Front.call pp "spec" [| Int x |])
      (Mini.Front.call p "spec" [| Int x |])
  in
  (* warm up on the passing side: promote + compile *)
  for i = 1 to 8 do
    chk i
  done;
  let m = Mini.Front.find_function p "spec" in
  check_bool "compiled after warmup" true
    (match m.mtier with Tier_compiled _ -> true | _ -> false);
  (* hammer the failing side: every call misses the speculation guard *)
  let evs =
    with_ring (fun () ->
        for i = 1 to 40 do
          chk (200_000 + i)
        done)
  in
  carried ~what:"bus carries the demotion and its storm" evs "demote" storm;
  carried ~what:"bus carries the breaker's blacklist" evs "compile-blacklist"
    storm;
  let s = G.stats gov in
  check_bool "demoted at K strikes" true (s.G.g_demotions >= 1);
  check_bool "re-promoted after the backoff bar" true (s.G.g_repromotions >= 1);
  check_int "backoff exhausted exactly once" 1 s.G.g_blacklists;
  check_bool "permanently blacklisted" true (m.mtier = Tier_blacklisted);
  (* still correct on the interpreter after retirement *)
  chk 7;
  chk 300_000;
  let report = Lancet.Explain.why_report rt in
  check_bool "why shows the demotion" true
    (Vm.Strutil.contains report "demoted to interpreter");
  check_bool "why shows the breaker" true
    (Vm.Strutil.contains report "governor: deopt-loop breaker");
  check_bool "why shows the deopt storm" true
    (Vm.Strutil.contains report "deopt storm");
  G.detach gov;
  check_bool "detach clears the deopt hook" true
    (rt.tiering.t_on_deopt = None && rt.tiering.t_promote_gate = None);
  Forensics.disable ()

(* ------------------------------------------------------------------ *)
(* Compile watchdog: a stalled compile is abandoned via the generation
   stamp (the mutator never waits), retried once, then blacklisted.     *)

let test_watchdog () =
  Forensics.enable ();
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let started = Atomic.make 0 in
  let release = Atomic.make 0 in
  let pool =
    Bgjit.create ~threads:1 ?log:quiet
      ~compile:(fun rt m ->
        let my = 1 + Atomic.fetch_and_add started 1 in
        while Atomic.get release < my do
          Unix.sleepf 0.002
        done;
        Lancet.Tiering.compile rt m)
      rt
  in
  let gov =
    G.attach ~cfg:{ G.default_config with G.g_watchdog_ms = 30.0 } ~pool rt
  in
  let p = Mini.Front.load rt hot_src in
  let m = Mini.Front.find_function p "hot" in
  check_bool "queued" true (Bgjit.enqueue pool m = `Queued);
  await ~what:"first compile to start" (fun () -> Atomic.get started = 1);
  let overrun () =
    await ~what:"compile to overrun its budget" (fun () ->
        List.exists (fun (_, a) -> a *. 1000. > 40.) (Bgjit.inflight_ages pool))
  in
  overrun ();
  let timeout = function Obs.Watchdog_timeout _ -> true | _ -> false in
  let evs = with_ring (fun () -> G.tick gov) in
  carried ~what:"bus carries the watchdog kill and its timeout" evs
    "watchdog-kill" timeout;
  let s = G.stats gov in
  check_int "first overrun killed" 1 s.G.g_watchdog_kills;
  check_int "and retried" 1 s.G.g_watchdog_retries;
  (* let the stalled compile finish: its result is stale by construction *)
  Atomic.set release 1;
  await ~what:"retry to start" (fun () -> Atomic.get started = 2);
  overrun ();
  let evs = with_ring (fun () -> G.tick gov) in
  carried ~what:"bus carries the watchdog's blacklist" evs "compile-blacklist"
    timeout;
  let s = G.stats gov in
  check_int "second overrun killed" 2 s.G.g_watchdog_kills;
  check_int "no second retry" 1 s.G.g_watchdog_retries;
  check_int "blacklisted instead" 1 s.G.g_blacklists;
  check_bool "method retired" true (m.mtier = Tier_blacklisted);
  Atomic.set release 2;
  Bgjit.drain pool;
  Bgjit.shutdown pool;
  let bs = Bgjit.stats pool in
  check_bool "stalled results discarded, never installed" true
    (bs.Bgjit.s_installed = 0 && bs.Bgjit.s_stale >= 1);
  (* the mutator kept its hands clean throughout: still correct *)
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  check_value "interpreted result after retirement"
    (Mini.Front.call pp "hot" [| Int 50; Int 3 |])
    (Mini.Front.call p "hot" [| Int 50; Int 3 |]);
  let report = Lancet.Explain.why_report rt in
  check_bool "why shows the watchdog kill" true
    (Vm.Strutil.contains report "watchdog");
  G.detach gov;
  Forensics.disable ()

(* ------------------------------------------------------------------ *)
(* Queue backpressure: sustained drops raise the promotion threshold
   (doubling, capped); a quiet queue decays it back to base.            *)

let four_src =
  {|
def qa(n: int): int = n * 2 + 1
def qb(n: int): int = n * 3 + 1
def qc(n: int): int = n * 5 + 1
def qd(n: int): int = n * 7 + 1
|}

let test_backpressure () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let pool =
    Bgjit.create ~threads:1 ~queue:1 ?log:quiet
      ~compile:(fun rt m ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Unix.sleepf 0.002
        done;
        Lancet.Tiering.compile rt m)
      rt
  in
  let gov =
    G.attach
      ~cfg:
        {
          G.default_config with
          G.g_drop_window = 2;
          G.g_watchdog_ms = 1e9 (* keep the watchdog out of this test *);
        }
      ~pool rt
  in
  let p = Mini.Front.load rt four_src in
  let find n = Mini.Front.find_function p n in
  let ma = find "qa" and mb = find "qb" and mc = find "qc" and md = find "qd" in
  check_bool "qa queued (held in flight)" true (Bgjit.enqueue pool ma = `Queued);
  await ~what:"worker to pick up qa" (fun () -> Atomic.get started);
  check_bool "qb fills the queue" true (Bgjit.enqueue pool mb = `Queued);
  mc.mtier <- Tier_compiling;
  check_bool "qc dropped" true (Bgjit.enqueue pool mc = `Dropped);
  md.mtier <- Tier_compiling;
  check_bool "qd dropped" true (Bgjit.enqueue pool md = `Dropped);
  G.tick gov;
  check_int "threshold doubled under pressure" 8 rt.tiering.t_threshold;
  check_int "throttle-up counted" 1 (G.stats gov).G.g_throttle_ups;
  Atomic.set release true;
  Bgjit.drain pool;
  G.tick gov;
  check_int "threshold decays once the queue is quiet" 4
    rt.tiering.t_threshold;
  check_int "throttle-down counted" 1 (G.stats gov).G.g_throttle_downs;
  Bgjit.shutdown pool;
  G.detach gov

(* ------------------------------------------------------------------ *)
(* Eviction damping: an eviction spike over one tick raises the
   promotion threshold (hysteresis against cache thrash).               *)

let test_eviction_damping () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let gov = G.attach ~cfg:{ G.default_config with G.g_evict_window = 2 } rt in
  G.tick gov;
  check_int "no spike, no change" 4 rt.tiering.t_threshold;
  rt.tiering.t_evictions <- rt.tiering.t_evictions + 2;
  G.tick gov;
  check_int "spike doubles the threshold" 8 rt.tiering.t_threshold;
  check_int "throttle-up counted" 1 (G.stats gov).G.g_throttle_ups;
  G.detach gov

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
  let p = Mini.Front.load rt four_src in
  let ma = Mini.Front.find_function p "qa" in
  let mb = Mini.Front.find_function p "qb" in
  check_bool "qa queued" true (Bgjit.enqueue pool ma = `Queued);
  await ~what:"worker to wedge on qa" (fun () -> Atomic.get started);
  check_bool "qb queued behind the wedge" true (Bgjit.enqueue pool mb = `Queued);
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
(* Eviction round trip under pressure: with a one-slot code cache two
   alternating hot methods keep evicting each other, results stay equal
   to the interpreter, and the evict -> re-promote chain is visible in
   the why report.                                                      *)

let two_src =
  {|
def ea(n: int): int = {
  var acc = 1;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
def eb(n: int): int = {
  var acc = 2;
  var i = 0;
  while (i < n) {
    acc = (acc * 29 + i) % 1000003;
    i = i + 1
  };
  acc
}
|}

let test_evict_repromote () =
  Forensics.enable ();
  let rt =
    Lancet.Api.boot ~tiering:true ~tier_threshold:4 ~tier_cache_size:1 ()
  in
  let p = Mini.Front.load rt two_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain two_src in
  for i = 1 to 30 do
    List.iter
      (fun f ->
        check_value
          (Printf.sprintf "%s(%d) survives eviction churn" f i)
          (Mini.Front.call pp f [| Int (20 + i) |])
          (Mini.Front.call p f [| Int (20 + i) |]))
      [ "ea"; "eb" ]
  done;
  check_bool "cache pressure evicted" true (rt.tiering.t_evictions > 0);
  check_bool "evicted methods recompiled" true (rt.tiering.t_compiles > 2);
  let report = Lancet.Explain.why_report rt in
  check_bool "why shows the eviction" true
    (Vm.Strutil.contains report "evicted from code cache");
  check_bool "why shows the re-promotion" true
    (Vm.Strutil.contains report "promote");
  Forensics.disable ()

(* ------------------------------------------------------------------ *)

(* A governed k-means run, traced: its Chrome trace holds the governor's
   demotions beside the compiles and stays well-formed JSON. *)
let test_governed_trace () =
  let rt = Lancet.Api.boot ~tiering:true () in
  let gov = G.attach rt in
  let src = Util.read_example "kmeans.mini" in
  let p = Mini.Front.load ~file:"kmeans.mini" rt src in
  let c = Obs.Chrome.create () in
  Obs.with_sink (Obs.Chrome.sink c) (fun () ->
      ignore (Mini.Front.call p "main" [||]));
  check_bool "the run demoted" true ((G.stats gov).G.g_demotions >= 1);
  G.detach gov;
  let json = Obs.Chrome.dump c in
  (match Obs.Json.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "governed trace is not valid JSON: %s" e);
  check_bool "trace shows the demotion" true
    (Vm.Strutil.contains json "\"name\":\"demote Main$1.clamp\"");
  check_bool "trace shows a guard plant" true
    (Vm.Strutil.contains json "\"ev\":\"guard-plant\"")

let suite =
  [
    Alcotest.test_case "circuit-breaker" `Quick test_circuit_breaker;
    Alcotest.test_case "watchdog" `Quick test_watchdog;
    Alcotest.test_case "backpressure" `Quick test_backpressure;
    Alcotest.test_case "eviction-damping" `Quick test_eviction_damping;
    Alcotest.test_case "bounded-shutdown" `Quick test_bounded_shutdown;
    Alcotest.test_case "evict-repromote" `Quick test_evict_repromote;
    Alcotest.test_case "governed-trace" `Quick test_governed_trace;
  ]
