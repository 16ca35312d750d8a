(* Tests for the decision-forensics journal and the metrics registry:
   the journal must stay bounded under churn, record walkable causal
   chains for deopt loops, and attribute decisions to the worker domain
   that made them; the pathology detector and the why/health reports must
   name the method, source line and cause for a forced late-override
   hierarchy change; histogram percentiles and both export formats are
   checked directly. *)

open Vm
open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let contains = Vm.Strutil.contains

let await ?(what = "condition") p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

(* Alcotest runs cases sequentially, so a journal enabled around one case
   cannot leak into the next as long as we always disable on the way out. *)
let with_journal ?capacity f =
  Forensics.enable ?capacity ();
  Fun.protect ~finally:Forensics.disable f

(* ------------------------------------------------------------------ *)
(* Bounded memory under churn: the ring keeps the newest window, the
   seen counter keeps the total.                                        *)

let test_bounded () =
  with_journal ~capacity:64 (fun () ->
      for i = 0 to 999 do
        Obs.emit
          (Obs.Tier_promote { meth = "churn"; mid = i; calls = 0; backedges = 0 })
      done;
      check_int "capacity" 64 (Forensics.capacity ());
      check_int "seen counts every record" 1000 (Forensics.seen ());
      let ds = Forensics.decisions () in
      check_int "journal stays bounded" 64 (List.length ds);
      check_int "oldest retained is the window start" 936
        (List.hd ds).Forensics.d_mid;
      check_int "newest retained is the last record" 999
        (List.nth ds 63).Forensics.d_mid)

(* ------------------------------------------------------------------ *)
(* Causal chain for a forced deopt loop: promote -> compile -> install
   -> repeated deopts, each deopt attributed to its guard and line.     *)

let spec_src =
  {|
def spec(x: int): int =
  if (Lancet.speculate(x < 100)) x * 2 + 1 else x * 1000
|}

let test_deopt_loop_chain () =
  with_journal (fun () ->
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:1 () in
      let p = Mini.Front.load rt spec_src in
      check_value "warm" (Int 11) (Mini.Front.call p "spec" [| Int 5 |]);
      check_value "warm" (Int 15) (Mini.Front.call p "spec" [| Int 7 |]);
      for _ = 1 to 5 do
        check_value "off-speculation" (Int 500000)
          (Mini.Front.call p "spec" [| Int 500 |])
      done;
      let m = Mini.Front.find_function p "spec" in
      let ds = Forensics.for_mid m.mid in
      let index p =
        let rec go i = function
          | [] -> -1
          | d :: tl -> if p d then i else go (i + 1) tl
        in
        go 0 ds
      in
      let promote =
        index (fun d ->
            match (d.Forensics.d_event, d.Forensics.d_cause) with
            | Obs.Tier_promote _, Obs.Hotness _ -> true
            | _ -> false)
      in
      let compile =
        index (fun d ->
            match d.Forensics.d_event with
            | Obs.Compile_end _ -> true
            | _ -> false)
      in
      let install =
        index (fun d ->
            match d.Forensics.d_event with
            | Obs.Cache_install _ -> true
            | _ -> false)
      in
      check_bool "promotion journaled with hotness cause" true (promote >= 0);
      check_bool "compile follows promotion" true (compile > promote);
      check_bool "install follows compile" true (install > compile);
      let deopts =
        List.filter
          (fun d ->
            match d.Forensics.d_event with
            | Obs.Deopt _ -> true
            | _ -> false)
          ds
      in
      check_bool "repeated deopts journaled" true (List.length deopts >= 3);
      List.iter
        (fun d ->
          match (d.Forensics.d_event, d.Forensics.d_cause) with
          | Obs.Deopt e, Obs.Guard g ->
            check_bool "deopt carries a source line" true (e.line > 0);
            check_int "cause names the same guard site" e.pc g.pc
          | _ -> Alcotest.fail "deopt without a guard cause")
        deopts;
      (* the explain integration resolves the same causes at the site *)
      (match
         List.find_map
           (fun d ->
             match d.Forensics.d_event with
             | Obs.Deopt e -> Some e.pc
             | _ -> None)
           ds
       with
      | Some pc ->
        check_bool "explain surfaces the cause at the deopt site" true
          (List.exists
             (fun c -> contains c "speculate")
             (Lancet.Explain.deopt_causes m.mid pc))
      | None -> Alcotest.fail "no deopt journaled");
      let paths = Forensics.detect () in
      check_bool "deopt-loop detected" true
        (List.exists
           (fun (pa : Forensics.pathology) ->
             pa.p_kind = "deopt-loop" && pa.p_mid = m.mid && pa.p_line > 0)
           paths))

(* ------------------------------------------------------------------ *)
(* Acceptance scenario: a late-override loop — compiled code repeatedly
   killed by method redefinitions — must surface in `lancet health` with
   the pathology, method, source line, and the causing hierarchy change. *)

let redefine_src =
  {|
class Pt {
  var x: int
  def init(x: int): unit = { this.x = x }
  def m(): int = this.x + 1
}
def hdriver(p: Pt, n: int): int = {
  var acc = 0;
  var i = 0;
  while (i < n) { acc = acc + p.m(); i = i + 1 };
  acc
}
def mk(x: int): Pt = new Pt(x)
|}

let redefine_m rt add =
  let pt = Classfile.find_class rt "Pt" in
  let fx = Classfile.field pt "x" in
  ignore
    (Assembler.define_method rt pt ~name:"m" ~nargs:0 (fun b ->
         Assembler.emit b (Load 0);
         Assembler.emit b (Getfield fx);
         Assembler.emit b (Const (Int add));
         Assembler.emit b (Iop Add);
         Assembler.emit b Retv))

let test_health_late_override () =
  with_journal (fun () ->
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
      let p = Mini.Front.load rt redefine_src in
      let o = Mini.Front.call p "mk" [| Int 5 |] in
      let train expect =
        for _ = 1 to 6 do
          check_value "trained" (Int expect)
            (Mini.Front.call p "hdriver" [| o; Int 10 |])
        done
      in
      train 60;
      redefine_m rt 100;
      train 1050;
      redefine_m rt 200;
      train 2050;
      let driver = Mini.Front.find_function p "hdriver" in
      let churn =
        List.find_opt
          (fun (pa : Forensics.pathology) ->
            pa.p_kind = "hierarchy-churn" && pa.p_mid = driver.mid)
          (Forensics.detect ())
      in
      (match churn with
      | None -> Alcotest.fail "hierarchy churn not detected"
      | Some pa ->
        check_bool "diagnosis names the redefined method" true
          (contains pa.Forensics.p_what "'m'");
        check_bool "evidence retained" true (pa.Forensics.p_evidence <> []));
      let report = Lancet.Explain.health_report rt in
      check_bool "report names the pathology" true
        (contains report "PATHOLOGY hierarchy-churn");
      check_bool "report names the method" true (contains report "hdriver");
      check_bool "report carries the source line" true
        (contains report
           (Printf.sprintf ":%d)" (Vm.Runtime.meth_def_line driver)));
      check_bool "report names the causing hierarchy change" true
        (contains report "(re)definition of 'm'");
      check_bool "report suggests a knob" true (contains report "suggestion:"))

(* ------------------------------------------------------------------ *)
(* Metrics: log-scale histogram percentiles are upper-bound estimates.  *)

let test_histogram_percentiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat_ms" in
  check_int "empty count" 0 (Metrics.histo_count h);
  check_bool "empty percentile" true (Metrics.percentile h 0.5 = 0.0);
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  check_int "count" 100 (Metrics.histo_count h);
  let p50 = Metrics.percentile h 0.5 in
  let p90 = Metrics.percentile h 0.9 in
  let p99 = Metrics.percentile h 0.99 in
  check_bool "p50 upper-bounds the median" true (p50 >= 50.0 && p50 <= 66.0);
  check_bool "p99 upper-bounds the tail" true (p99 >= 99.0 && p99 <= 135.0);
  check_bool "quantiles are monotone" true (p50 <= p90 && p90 <= p99)

(* ------------------------------------------------------------------ *)
(* Metrics: sharded counters, find-or-create, and both export formats.  *)

let test_counters_and_export () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"test counter" "widgets" in
  for _ = 1 to 10 do
    Metrics.inc c
  done;
  Metrics.add c 5;
  check_int "counter folds its shards" 15 (Metrics.value c);
  Metrics.inc (Metrics.counter reg "widgets");
  check_int "find-or-create shares the cells" 16 (Metrics.value c);
  let g = Metrics.gauge reg "level" in
  Metrics.set g 3.5;
  check_bool "gauge holds the last set" true (Metrics.gauge_value g = 3.5);
  let h = Metrics.histogram reg "lat_ms" in
  Metrics.observe h 0.25;
  let json = Metrics.to_json reg in
  (match Obs.Json.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e);
  check_bool "json carries the counter" true (contains json "\"widgets\": 16");
  let prom = Metrics.to_prometheus reg in
  check_bool "prometheus counter" true (contains prom "lancet_widgets_total 16");
  check_bool "prometheus gauge" true (contains prom "lancet_level 3.5");
  check_bool "prometheus histogram buckets" true
    (contains prom "lancet_lat_ms_bucket{le=");
  check_bool "prometheus histogram count" true
    (contains prom "lancet_lat_ms_count 1")

(* ------------------------------------------------------------------ *)
(* The stock JIT bundle fed from the event bus by a real tiered run.    *)

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

let test_jit_sink_metrics () =
  let j = Metrics.jit () in
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p = Mini.Front.load rt hot_src in
  Obs.with_sink (Metrics.jit_sink j) (fun () ->
      for k = 0 to 19 do
        ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
      done);
  check_bool "promotions counted" true
    (Metrics.value j.Metrics.j_promotions >= 1);
  check_bool "compiles counted" true (Metrics.value j.Metrics.j_compiles >= 1);
  check_bool "installs counted" true (Metrics.value j.Metrics.j_installs >= 1);
  check_bool "occupancy gauge tracks the cache" true
    (Metrics.gauge_value j.Metrics.j_cache_occupancy >= 1.0);
  check_bool "synchronous compile observed as a mutator pause" true
    (Metrics.histo_count j.Metrics.j_mutator_pause_ms >= 1);
  check_bool "compile latency observed" true
    (Metrics.histo_count j.Metrics.j_compile_ms >= 1);
  let prom = Metrics.to_prometheus j.Metrics.j_reg in
  check_bool "bundle exports under the lancet prefix" true
    (contains prom "lancet_compiles_total")

(* ------------------------------------------------------------------ *)
(* `lancet why`: the timeline report and its method filter.             *)

let osr_src =
  "def count(n: int): int = {\n\
  \  var acc = 0;\n\
  \  var i = 0;\n\
  \  while (i < n) { acc = (acc + i * 3) % 1000003; i = i + 1 };\n\
  \  acc\n\
   }\n"

let test_why_report () =
  with_journal (fun () ->
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:1 () in
      let p = Mini.Front.load rt spec_src in
      check_value "warm" (Int 11) (Mini.Front.call p "spec" [| Int 5 |]);
      check_value "warm" (Int 15) (Mini.Front.call p "spec" [| Int 7 |]);
      check_value "off-speculation" (Int 500000)
        (Mini.Front.call p "spec" [| Int 500 |]);
      let r = Lancet.Explain.why_report rt in
      check_bool "why shows a method header" true (contains r "== ");
      check_bool "why shows the promotion" true
        (contains r "promoted to tier 1");
      check_bool "why shows the install" true (contains r "code installed");
      check_bool "why links the deopt to its guard" true
        (contains r "<- guard 'speculate' missed");
      check_bool "filter keeps the method" true
        (contains (Lancet.Explain.why_report ~meth:"spec" rt) "spec");
      check_bool "filter misses politely" true
        (contains
           (Lancet.Explain.why_report ~meth:"nosuchmethod" rt)
           "no journaled decisions");
      (* OSR-in: one call of a long loop enters code compiled from the loop
         header; the entry names its own steps, header pc and line. *)
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:2 () in
      let p = Mini.Front.load rt osr_src in
      check_value "OSR run" (Int (3 * (19_999 * 20_000 / 2) mod 1_000_003))
        (Mini.Front.call p "count" [| Int 20_000 |]);
      let r = Lancet.Explain.why_report ~meth:"count" rt in
      check_bool "why shows the OSR entry and its cause" true
        (contains r "entered OSR code mid-call  <- loop: ");
      check_bool "why names the header's line" true
        (contains r "back edge to @pc 8 (line 4)"))

(* Two runtimes in one process journal into one ring, and method ids
   restart in each: [spec] and [count] share an id, yet each keeps its own
   timeline. *)
let test_why_two_runtimes () =
  with_journal (fun () ->
      let rt1 = Lancet.Api.boot ~tiering:true ~tier_threshold:1 () in
      let p1 = Mini.Front.load rt1 spec_src in
      for x = 1 to 3 do
        ignore (Mini.Front.call p1 "spec" [| Int x |])
      done;
      let rt2 = Lancet.Api.boot ~tiering:true ~tier_threshold:2 () in
      let p2 = Mini.Front.load rt2 osr_src in
      ignore (Mini.Front.call p2 "count" [| Int 20_000 |]);
      check_int "the two methods share an id"
        (Mini.Front.find_function p1 "spec").mid
        (Mini.Front.find_function p2 "count").mid;
      let spec = Lancet.Explain.why_report ~meth:"spec" rt1 in
      let count = Lancet.Explain.why_report ~meth:"count" rt2 in
      check_bool "spec's timeline is found" true
        (contains spec "promoted to tier 1");
      check_bool "count's timeline is found" true
        (contains count "entered OSR code mid-call");
      check_bool "count's decisions stay out of spec's timeline" false
        (contains spec "entered OSR code");
      check_bool "spec's decisions stay out of count's timeline" false
        (contains count "promoted to tier 1"))

(* ------------------------------------------------------------------ *)
(* Worker attribution with background compile threads: the enqueue is
   the mutator's decision, dequeue/install belong to a worker domain.   *)

let test_worker_attribution () =
  with_journal (fun () ->
      let rt, pool =
        Lancet.Api.boot_bg ~tiering:true ~tier_threshold:4 ~jit_threads:2 ()
      in
      let p = Mini.Front.load rt hot_src in
      for k = 0 to 39 do
        ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
      done;
      (match pool with Some b -> Bgjit.drain b | None -> ());
      let m = Mini.Front.find_function p "hot" in
      await ~what:"background install journaled" (fun () ->
          List.exists
            (fun d ->
              match d.Forensics.d_event with
              | Obs.Cache_install _ -> true
              | _ -> false)
            (Forensics.for_mid m.mid));
      let ds = Forensics.for_mid m.mid in
      let has p = List.exists p ds in
      check_bool "enqueue journaled on the mutator" true
        (has (fun d ->
             match d.Forensics.d_event with
             | Obs.Compile_enqueue _ -> d.Forensics.d_worker = 0
             | _ -> false));
      check_bool "dequeue attributed to a worker domain" true
        (has (fun d ->
             match d.Forensics.d_event with
             | Obs.Compile_dequeue _ -> d.Forensics.d_worker >= 1
             | _ -> false));
      check_bool "install attributed to a worker domain" true
        (has (fun d ->
             match d.Forensics.d_event with
             | Obs.Cache_install _ -> d.Forensics.d_worker >= 1
             | _ -> false));
      (match pool with Some b -> Bgjit.shutdown b | None -> ());
      (* a failing compile: the blacklist decision carries the worker
         that hit the failure, and the failure itself as the cause *)
      let rt2 = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
      let pool2 =
        Bgjit.create ~threads:1
          ~log:(fun _ -> ())
          ~compile:(fun _ _ -> failwith "injected compile failure")
          rt2
      in
      Bgjit.install pool2;
      let p2 = Mini.Front.load rt2 hot_src in
      for k = 0 to 29 do
        ignore (Mini.Front.call p2 "hot" [| Int 50; Int k |])
      done;
      Bgjit.drain pool2;
      Bgjit.shutdown pool2;
      let m2 = Mini.Front.find_function p2 "hot" in
      check_bool "blacklist attributed to a worker with its failure" true
        (List.exists
           (fun d ->
             match (d.Forensics.d_event, d.Forensics.d_cause) with
             | Obs.Compile_blacklist _, Obs.Worker_failure f ->
               d.Forensics.d_worker >= 1 && contains f.err "injected"
             | _ -> false)
           (Forensics.for_mid m2.mid)))

let suite =
  [
    Alcotest.test_case "bounded-journal" `Quick test_bounded;
    Alcotest.test_case "deopt-loop-chain" `Quick test_deopt_loop_chain;
    Alcotest.test_case "health-late-override" `Quick test_health_late_override;
    Alcotest.test_case "histogram-percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "counters-and-export" `Quick test_counters_and_export;
    Alcotest.test_case "jit-sink-metrics" `Quick test_jit_sink_metrics;
    Alcotest.test_case "why-report" `Quick test_why_report;
    Alcotest.test_case "why-two-runtimes" `Quick test_why_two_runtimes;
    Alcotest.test_case "worker-attribution" `Quick test_worker_attribution;
  ]
