(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Table 1, Table 2a/b/c) plus ablations for the design choices called out
   in DESIGN.md.  Numbers are medians of [reps] runs; parallel sweeps use
   the measured-chunk scaling model (Exec.Sim) on this 1-core container —
   see EXPERIMENTS.md for the paper-vs-measured discussion.

   Usage: bench/main.exe [table1|table2-kmeans|table2-logreg|
                          table2-namescore|ablate|micro|tiered|obs|profile|
                          bgjit|dispatch|warmup|chaos|chaos-soak|check|all]

   [tiered] compares the pure interpreter against the tiered execution
   engine (hotness-driven method JIT) and writes BENCH_tiered.json (with
   an event-kind breakdown per workload); [obs] measures the cost of one
   observability emit site with no sink, a ring sink and the decision
   journal and writes BENCH_obs.json; [bgjit] compares synchronous promotion against the
   background compile queue (mutator compile pauses, time-to-tier-up) and
   writes BENCH_bgjit.json; [check] is the fast correctness-only gate
   wired into the runtest alias (now including a Chrome-trace smoke test,
   the bgjit sync-vs-async equivalence gate and the no-sink emit-overhead
   guard). *)

open Vm.Types
module Exec = Delite.Exec
module H = Optiml.Harness

let reps = 3

let median xs =
  let s = List.sort compare xs in
  List.nth s (List.length s / 2)

let time_of f = median (List.init reps (fun _ -> snd (f ())))

let pr fmt = Printf.printf fmt

let header title =
  pr "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1: CSV reading                                                *)

let table1 () =
  header "Table 1: CSV reading (paper Sec. 3.1, Table 1)";
  let sizes = [ 500_000; 1_000_000; 1_500_000; 2_000_000 ] in
  let texts = List.map (fun b -> (b, Csvlib.Gen.generate ~seed:42 ~bytes:b)) sizes in
  (* verify all configurations agree before timing *)
  (let _, t = List.hd texts in
   let expect = Csvlib.Harness.reference t in
   List.iter
     (fun cfg ->
       let r, _ = Csvlib.Harness.run cfg t in
       if r <> expect then failwith "CSV checksum mismatch")
     Csvlib.Harness.[ Native; Generic_compiled; Specialized ]);
  let rows =
    Csvlib.Harness.
      [
        (Native, "native OCaml      (paper row: C++)");
        (Generic_compiled, "generic library   (paper row: Scala Library)");
        (Specialized, "compile+freeze    (paper row: Scala Lancet)");
      ]
  in
  let times =
    List.map
      (fun (cfg, label) ->
        ( label,
          List.map
            (fun (_, t) -> time_of (fun () -> Csvlib.Harness.run cfg t))
            texts ))
      rows
  in
  let native_times = snd (List.nth times 0) in
  pr "\n%-46s" "Input size:";
  List.iter (fun (b, _) -> pr "%8.1fMB " (float_of_int b /. 1e6)) texts;
  pr "\n-- milliseconds --\n";
  List.iter
    (fun (label, ts) ->
      pr "%-46s" label;
      List.iter (fun t -> pr "%9.1f  " (t *. 1000.)) ts;
      pr "\n")
    times;
  pr "-- speedup vs native (the paper normalizes to C++) --\n";
  List.iter
    (fun (label, ts) ->
      pr "%-46s" label;
      List.iter2 (fun t n -> pr "%9.2f  " (n /. t)) ts native_times;
      pr "\n")
    times;
  (* the interpreter row, scaled from a small input *)
  let small = Csvlib.Gen.generate ~seed:42 ~bytes:100_000 in
  let ti = time_of (fun () -> Csvlib.Harness.run Csvlib.Harness.Interpreted small) in
  pr "%-46s%9.2f   (bytecode interpreter, measured at 0.1MB)\n"
    "interpreter (extra row)"
    (List.nth native_times 0 /. (ti *. 5.0));
  pr "\nPaper Table 1 (23-92MB on a JVM): C++ 1.00, Scala library 0.92-1.25, Scala Lancet 2.19-2.91.\n";
  pr "Shape reproduced: specialized >> generic library; see EXPERIMENTS.md.\n"

(* ------------------------------------------------------------------ *)
(* Table 2: k-means / logreg / name score                              *)

let cores = [ 1; 2; 4; 8 ]

let table2 (app : H.app) (title : string) ~(with_manual : bool) () =
  header title;
  let sz = H.default_sizes in
  let expect = H.reference app sz in
  let check (r, t) =
    if Float.abs (r -. expect) > 1e-6 *. (1.0 +. Float.abs expect) then
      failwith "table2 checksum mismatch";
    (r, t)
  in
  let run cfg = time_of (fun () -> check (H.run app cfg sz)) in
  let base = run H.Library in
  let row label times =
    pr "%-30s" label;
    List.iter
      (fun t -> match t with Some t -> pr "%8.2f " (base /. t) | None -> pr "%8s " "-")
      times;
    pr "\n"
  in
  pr "\n%-30s" "Cores:";
  List.iter (fun c -> pr "%8d " c) cores;
  pr "%8s \n" "GPU*";
  row "Mini library (Scala lib.)"
    ((Some base :: List.map (fun _ -> None) (List.tl cores)) @ [ None ]);
  let sweep mk =
    List.map (fun c -> Some (run (mk (Exec.Sim c)))) cores
    @ [ Some (run (mk (Exec.Gpu Exec.default_gpu))) ]
  in
  row "Lancet-Delite" (sweep (fun d -> H.Lancet_delite d));
  row "Delite (standalone)" (sweep (fun d -> H.Delite_standalone d));
  if with_manual then row "Delite (manual opt)" (sweep (fun d -> H.Manual_opt d));
  (match app with
  | H.Namescore -> ()
  | H.Kmeans | H.Logreg ->
    row "native OCaml (paper: C++)"
      (List.map (fun c -> Some (run (H.Cpp (Exec.Sim c)))) cores @ [ None ]));
  pr "\n(speedups relative to the Mini library at 1 core, as in the paper;\n";
  pr " cores 2-8 use the measured-chunk scaling model, GPU* is analytic — EXPERIMENTS.md)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let time_unit f =
  median
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (f ());
         Unix.gettimeofday () -. t0))

let ablate_spec () =
  header "Ablation: explicit specialization (compile+freeze) on/off [CSV]";
  let t = Csvlib.Gen.generate ~seed:9 ~bytes:1_000_000 in
  let g = time_of (fun () -> Csvlib.Harness.run Csvlib.Harness.Generic_compiled t) in
  let s = time_of (fun () -> Csvlib.Harness.run Csvlib.Harness.Specialized t) in
  pr "generic compiled: %8.1f ms\nspecialized:      %8.1f ms\nfactor:           %8.1fx\n"
    (g *. 1000.) (s *. 1000.) (g /. s)

let ablate_fusion () =
  header "Ablation: Delite op fusion on/off";
  let n = 2_000_000 in
  let a = Array.init n (fun i -> float_of_int (i land 1023)) in
  let b = Array.init n (fun i -> float_of_int (i land 511)) in
  let pipe =
    Delite.Vec.(
      map
        (zip
           (map (input a) Delite.Scalar.(Bin (Mul, Elem 0, Konst 0.5)))
           (input b)
           Delite.Scalar.(Bin (Add, Elem 0, Elem 1)))
        Delite.Scalar.(Bin (Max, Elem 0, Konst 0.0)))
  in
  let red = Delite.Vec.sum pipe in
  let t_fused = time_unit (fun () -> Delite.Vec.reduce ~dev:Exec.Seq red) in
  let t_unfused = time_unit (fun () -> Delite.Vec.eval_unfused_reduce red) in
  let stats = Delite.Vec.fusion_stats pipe in
  pr "pipeline: %d stages fused into %d loop\n" stats.Delite.Vec.stages
    stats.Delite.Vec.fused_loops;
  pr "unfused (one loop + array per stage): %8.1f ms\n" (t_unfused *. 1000.);
  pr "fused   (single traversal):           %8.1f ms\n" (t_fused *. 1000.);
  pr "factor:                               %8.2fx\n" (t_unfused /. t_fused)

let ablate_safeint () =
  header "Ablation: SafeInt speculation (paper Sec. 3.2)";
  let n = 30_000 in
  let rt, p = Safeint.boot () in
  let compiled name =
    let thunk = Mini.Front.call p name [| Int n |] in
    Lancet.Compiler.compile_value rt thunk
  in
  let c_plain = compiled "make_plain_sum" in
  let c_safe = compiled "make_safe_sum" in
  let t_plain = time_unit (fun () -> Vm.Interp.call_closure rt c_plain [||]) in
  let t_safe = time_unit (fun () -> Vm.Interp.call_closure rt c_safe [||]) in
  let t_interp = time_unit (fun () -> Mini.Front.call p "safe_sum" [| Int n |]) in
  pr "sum of 1..%d:\n" n;
  pr "plain int, compiled:              %8.1f ms\n" (t_plain *. 1000.);
  pr "SafeInt, compiled (speculative):  %8.1f ms  (%.1fx plain: overflow checks + records)\n"
    (t_safe *. 1000.) (t_safe /. t_plain);
  pr "SafeInt, interpreted:             %8.1f ms  (%.1fx compiled SafeInt)\n"
    (t_interp *. 1000.) (t_interp /. t_safe)

let ablate_inline () =
  header "Ablation: controlled inlining (inlineAlways vs inlineNever)";
  let rt = Lancet.Api.boot () in
  let p =
    Mini.Front.load rt
      {|
def work(x: int): int = x * 2 + 1
def apply_n(f: (int) -> int, n: int): int = {
  var acc = 0;
  for (i <- 0 until n) { acc = acc + f(i) };
  acc
}
def make_inlined(n: int): () -> int =
  fun () => Lancet.inline_always(fun () => apply_n(fun (x: int) => work(x), n))
def make_never(n: int): () -> int =
  fun () => Lancet.inline_never(fun () => apply_n(fun (x: int) => work(x), n))
|}
  in
  let n = 50_000 in
  let run name =
    let thunk = Mini.Front.call p name [| Int n |] in
    let f = Lancet.Compiler.compile_value rt thunk in
    time_unit (fun () -> Vm.Interp.call_closure rt f [||])
  in
  let t_in = run "make_inlined" and t_out = run "make_never" in
  pr "higher-order loop over %d elements:\n" n;
  pr "inlineAlways (closure inlined):   %8.1f ms\n" (t_in *. 1000.);
  pr "inlineNever (residual calls):     %8.1f ms\n" (t_out *. 1000.);
  pr "factor:                           %8.1fx\n" (t_out /. t_in)

let ablate_cache () =
  header "Ablation: code cache (calcJIT, paper Sec. 3.1)";
  let rt, p = Extras.boot_code_cache () in
  let jit = Mini.Front.call p "make_calc_jit" [||] in
  let call x y = Vm.Interp.call_closure rt jit [| Int x; Int y |] in
  let t0 = Unix.gettimeofday () in
  ignore (call 40 1);
  let t_first = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 1000 do
    ignore (call 40 i)
  done;
  let t_hits = (Unix.gettimeofday () -. t0) /. 1000.0 in
  pr "calc specialized per first argument (trip count 40):\n";
  pr "first call  (compiles + caches):  %8.3f ms\n" (t_first *. 1000.);
  pr "cached call (amortized):          %8.4f ms\n" (t_hits *. 1000.);
  pr "compilation amortizes after ~%.0f calls\n"
    (t_first /. Float.max t_hits 1e-9)

let ablate_tree () =
  header "Ablation: stable search tree compiled to decision code (Sec. 3.2)";
  let rt, p = Extras.boot_tree () in
  let n = 256 in
  let perm = Array.init n (fun i -> (i * 97) mod n) in
  let keys = Arr (Array.map (fun i -> Int i) perm) in
  let values = Arr (Array.map (fun i -> Int (i * 10)) perm) in
  let tree = Mini.Front.call p "build_tree" [| keys; values |] in
  let lookup = Mini.Front.call p "make_lookup" [| tree |] in
  ignore (Mini.Front.call p "set_root" [| tree |]);
  let lookup_gen = Mini.Front.call p "make_lookup_generic" [||] in
  let probes = Array.init 20_000 (fun i -> [| Int (i * 13 mod (2 * n)) |]) in
  let count l =
    time_unit (fun () ->
        Array.iter (fun k -> ignore (Vm.Interp.call_closure rt l k)) probes)
  in
  let t_static = count lookup in
  let t_generic = count lookup_gen in
  let t_interp =
    time_unit (fun () ->
        Array.iter
          (fun k -> ignore (Mini.Front.call p "tree_lookup" [| tree; k.(0) |]))
          probes)
  in
  pr "%d-key tree, 20000 probes:\n" n;
  pr "compiled decision code (static tree): %8.2f ms\n" (t_static *. 1000.);
  pr "compiled generic walk (dynamic tree): %8.2f ms\n" (t_generic *. 1000.);
  pr "interpreted recursive walk:           %8.2f ms\n" (t_interp *. 1000.);
  pr "static vs generic factor:             %8.1fx\n" (t_generic /. t_static)

(* the float reduction of the backend ablation and the typed-kernel
   allocation gate *)
let reduction_src =
  {|
def kernel(a: farray, n: int): float = {
  var acc = 0.0;
  for (i <- 0 until n) { acc = acc + a[i] * a[i] - 0.5 };
  acc
}
|}

let ablate_backend () =
  header "Ablation: typed (unboxed) vs boxed kernel backend";
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt reduction_src in
  let m = Mini.Front.find_function p "kernel" in
  let n = 200_000 in
  let a = Array.init n (fun i -> float_of_int (i land 255)) in
  (* one staged graph, handed to each backend directly *)
  let g =
    Lancet.Compiler.stage rt m [| Lancet.Compiler.Dyn; Lancet.Compiler.Dyn |]
  in
  let hooks = Lms.Closure_backend.default_hooks rt in
  let boxed = Lms.Closure_backend.compile ~hooks g in
  let typed = Lms.Typed_backend.compile ~hooks g in
  let args = [| Vm.Types.Farr a; Int n |] in
  if not (Vm.Value.equal (boxed args) (typed args)) then
    failwith "backend results differ";
  let tb = time_unit (fun () -> boxed args) in
  let tt = time_unit (fun () -> typed args) in
  pr "float reduction over %d elements:\n" n;
  pr "boxed closure backend:            %8.1f ms\n" (tb *. 1000.);
  pr "typed kernel backend:             %8.1f ms\n" (tt *. 1000.);
  pr "factor:                           %8.2fx\n" (tb /. tt)

let ablate () =
  ablate_spec ();
  ablate_fusion ();
  ablate_safeint ();
  ablate_inline ();
  ablate_cache ();
  ablate_tree ();
  ablate_backend ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per paper table            *)

let micro () =
  header "Bechamel micro-benchmarks (one test per paper table)";
  let open Bechamel in
  let open Toolkit in
  (* Table 1 workload at micro scale: the specialized CSV row loop *)
  let csv_text = Csvlib.Gen.generate ~seed:3 ~bytes:50_000 in
  let rt1 = Lancet.Api.boot () in
  let p1 = Mini.Front.load rt1 Csvlib.Mini_src.specialized in
  let lines_v =
    Vm.Interp.call rt1
      (Vm.Classfile.static_method rt1 ~cls:"Str" ~name:"split")
      [| Str csv_text; Str "\n" |]
  in
  let header_v = (Vm.Value.to_arr lines_v).(0) in
  let csv_fn = Mini.Front.call p1 "make_specialized" [| header_v |] in
  let t_table1 =
    Test.make ~name:"table1-csv-specialized"
      (Staged.stage (fun () ->
           ignore (Vm.Interp.call_closure rt1 csv_fn [| lines_v |])))
  in
  (* Table 2 workloads at micro scale (standalone Delite engine) *)
  let km_data = Optiml.Reference.Data.kmeans_data ~seed:1 ~rows:200 ~cols:4 ~k:3 in
  let t_kmeans =
    Test.make ~name:"table2a-kmeans-delite"
      (Staged.stage (fun () ->
           ignore
             (Optiml.Reference.Standalone.kmeans ~dev:Exec.Seq ~data:km_data
                ~rows:200 ~cols:4 ~k:3 ~iters:1)))
  in
  let lr_x, lr_y = Optiml.Reference.Data.logreg_data ~seed:2 ~rows:200 ~cols:5 in
  let t_logreg =
    Test.make ~name:"table2b-logreg-delite"
      (Staged.stage (fun () ->
           ignore
             (Optiml.Reference.Standalone.logreg ~dev:Exec.Seq ~data:lr_x
                ~rows:200 ~cols:5 ~y:lr_y ~iters:1 ~alpha:0.05)))
  in
  let names = Optiml.Reference.Data.names ~seed:3 ~n:2_000 in
  let t_namescore =
    Test.make ~name:"table2c-namescore-delite"
      (Staged.stage (fun () ->
           ignore (Optiml.Reference.Standalone.namescore ~dev:Exec.Seq names)))
  in
  let tests =
    Test.make_grouped ~name:"tables"
      [ t_table1; t_kmeans; t_logreg; t_namescore ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> pr "%-40s %14.1f ns/run (%s)\n" name t measure
          | _ -> pr "%-40s (no estimate)\n" name)
        tbl)
    merged

(* ------------------------------------------------------------------ *)
(* Tiered execution: pure interpreter vs hotness-driven method JIT     *)

let tiered_calc_src =
  {|
def calc(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
|}

let tiered_kmeans_src =
  {|
def sqdist(ps: farray, cs: farray, r: int, c: int, d: int): float = {
  var s = 0.0;
  for (j <- 0 until d) {
    val diff = ps[r * d + j] - cs[c * d + j];
    s = s + diff * diff
  };
  s
}
def nearest(ps: farray, cs: farray, r: int, d: int, k: int): int = {
  var best = 0;
  var bd = sqdist(ps, cs, r, 0, d);
  for (c <- 1 until k) {
    val dd = sqdist(ps, cs, r, c, d);
    if (dd < bd) { bd = dd; best = c }
  };
  best
}
def assign_all(ps: farray, cs: farray, n: int, d: int, k: int): int = {
  var s = 0;
  for (r <- 0 until n) { s = s + nearest(ps, cs, r, d, k) };
  s
}
|}

(* k-means' centroid update over [tiered_kmeans_src]'s [nearest] *)
let kmeans_update_src =
  {|
def update(ps: farray, cs: farray, sums: farray, cnts: farray,
           n: int, d: int, k: int): unit = {
  for (i <- 0 until k * d) { sums[i] = 0.0 };
  for (c <- 0 until k) { cnts[c] = 0.0 };
  for (r <- 0 until n) {
    val c = nearest(ps, cs, r, d, k);
    cnts[c] = cnts[c] + 1.0;
    for (j <- 0 until d) { sums[c * d + j] = sums[c * d + j] + ps[r * d + j] }
  };
  for (c <- 0 until k) {
    if (cnts[c] > 0.0) {
      for (j <- 0 until d) { cs[c * d + j] = sums[c * d + j] / cnts[c] }
    }
  }
}
|}

let tiered_spec_src =
  {|
def spec(x: int): int =
  if (Lancet.speculate(x < 100000)) x * 3 + 1 else x - 7
|}

type tier_row = {
  tr_name : string;
  tr_interp_ms : float;
  tr_tiered_ms : float;
  tr_compiles : int;
  tr_hits : int;
  tr_deopts : int;
  tr_events : (string * int) list; (* observed event kind -> count *)
}

(* Run one workload twice — pure interpreter and tiered runtime — check the
   results agree and report the timings plus the tiered counters.  The
   tiered timing includes JIT compilation (that is the deal a tiered VM
   offers).  A third, untimed tiered run executes with a ring-buffer sink
   attached and reports the event-kind breakdown, so speedup claims ship
   with compile/deopt evidence; the timed legs stay sink-free. *)
let tier_workload name src (driver : Vm.Types.runtime -> Mini.Front.program -> value) =
  let run tiered =
    let rt =
      if tiered then Lancet.Api.boot ~tiering:true ~tier_threshold:16 ()
      else Vm.Natives.boot ()
    in
    let p = Mini.Front.load rt src in
    let t0 = Unix.gettimeofday () in
    let v = driver rt p in
    (rt, v, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let _, vi, ti = run false in
  let rtt, vt, tt = run true in
  if not (Vm.Value.equal vi vt) then
    failwith (Printf.sprintf "tiered %s: result mismatch" name);
  let ring = Obs.Ring.create ~capacity:65536 () in
  let ve =
    Obs.with_sink (Obs.Ring.sink ring) (fun () ->
        let _, ve, _ = run true in
        ve)
  in
  if not (Vm.Value.equal vi ve) then
    failwith (Printf.sprintf "tiered %s: instrumented result mismatch" name);
  let counts = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let k = Obs.kind_to_string ev in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    (Obs.Ring.events ring);
  let events =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    tr_name = name;
    tr_interp_ms = ti;
    tr_tiered_ms = tt;
    tr_compiles = rtt.tiering.t_compiles;
    tr_hits = rtt.tiering.t_cache_hits;
    tr_deopts = rtt.tiering.t_deopts;
    tr_events = events;
  }

let tier_rows ~small =
  let calc_calls = if small then 200 else 2000 in
  let calc_n = if small then 100 else 400 in
  let km_rows = if small then 40 else 200 in
  let km_calls = if small then 20 else 150 in
  let csv_bytes = if small then 40_000 else 250_000 in
  let spec_calls = if small then 300 else 20_000 in
  let calc =
    tier_workload "calc" tiered_calc_src (fun _ p ->
        let acc = ref 0 in
        for k = 1 to calc_calls do
          acc :=
            (!acc + Vm.Value.to_int (Mini.Front.call p "calc" [| Int calc_n; Int k |]))
            land 0xFFFFFF
        done;
        Int !acc)
  in
  let d = 4 and k = 3 in
  let ps =
    Array.init (km_rows * d) (fun i -> float_of_int ((i * 37 mod 101) - 50) /. 7.)
  in
  let cs = Array.init (k * d) (fun i -> float_of_int ((i * 53 mod 23) - 11) /. 3.) in
  let kmeans =
    tier_workload "kmeans-assign" tiered_kmeans_src (fun _ p ->
        let acc = ref 0 in
        for _ = 1 to km_calls do
          acc :=
            !acc
            + Vm.Value.to_int
                (Mini.Front.call p "assign_all"
                   [| Farr ps; Farr cs; Int km_rows; Int d; Int k |])
        done;
        Int !acc)
  in
  let text = Csvlib.Gen.generate ~seed:7 ~bytes:csv_bytes in
  let csv =
    tier_workload "csv-generic" Csvlib.Mini_src.generic (fun _ p ->
        Mini.Front.call p "run_generic" [| Str text |])
  in
  let spec =
    tier_workload "speculate-deopt" tiered_spec_src (fun _ p ->
        let acc = ref 0 in
        for i = 1 to spec_calls do
          (* every 50th call breaks the speculation: deopt, then back to
             the compiled fast path *)
          let x = if i mod 50 = 0 then 1_000_000 + i else i in
          acc :=
            (!acc + Vm.Value.to_int (Mini.Front.call p "spec" [| Int x |]))
            land 0xFFFFFF
        done;
        Int !acc)
  in
  [ calc; kmeans; csv; spec ]

let tier_json rows =
  let row r =
    let events =
      String.concat ", "
        (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) r.tr_events)
    in
    Printf.sprintf
      "    {\"workload\": %S, \"interp_ms\": %.3f, \"tiered_ms\": %.3f, \
       \"speedup\": %.3f, \"compiles\": %d, \"cache_hits\": %d, \"deopts\": \
       %d, \"events\": {%s}}"
      r.tr_name r.tr_interp_ms r.tr_tiered_ms
      (r.tr_interp_ms /. r.tr_tiered_ms)
      r.tr_compiles r.tr_hits r.tr_deopts events
  in
  Printf.sprintf "{\n  \"workloads\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map row rows))

let tiered () =
  header "Tiered execution: interpreter vs hotness-driven method JIT";
  let rows = tier_rows ~small:false in
  pr "\n%-18s %12s %12s %9s %9s %10s %7s\n" "workload" "interp(ms)"
    "tiered(ms)" "speedup" "compiles" "cache_hits" "deopts";
  List.iter
    (fun r ->
      pr "%-18s %12.1f %12.1f %8.2fx %9d %10d %7d\n" r.tr_name r.tr_interp_ms
        r.tr_tiered_ms
        (r.tr_interp_ms /. r.tr_tiered_ms)
        r.tr_compiles r.tr_hits r.tr_deopts)
    rows;
  pr "\nevent breakdown (instrumented re-run, ring-buffer sink):\n";
  List.iter
    (fun r ->
      pr "%-18s %s\n" r.tr_name
        (String.concat " "
           (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.tr_events)))
    rows;
  let oc = open_out "BENCH_tiered.json" in
  output_string oc (tier_json rows);
  close_out oc;
  pr "\nwrote BENCH_tiered.json\n"

(* ------------------------------------------------------------------ *)
(* Disabled-checkpoint gate, shared by the obs, profiler, irtrace, chaos
   and governor checkpoints                                             *)

(* The loop body every gate times: cheap and allocation-free. *)
let gate_acc = ref 0
let gate_body i = gate_acc := (!gate_acc + (i * 31)) land 0xFFFFFF

let gate_bare iters =
  for i = 1 to iters do
    gate_body i
  done

let gate_iters = 200_000

(* Checkpoints per timed iteration.  Each gate's loop writes its
   checkpoint out this many times after [gate_body], as [@inline] copies:
   one site per iteration reads within the timer's noise of an out-of-line
   call, eight separate them. *)
let gate_sites = 8

(* Wall time per iteration of one [f gate_iters] run, in ns. *)
let ns_per_iter f =
  let t0 = Obs.now () in
  f gate_iters;
  (Obs.now () -. t0) /. float_of_int gate_iters *. 1e9

(* Cost of one checkpoint, in ns per site, of a loop of [gate_sites]
   sites per iteration over [gate_bare]'s. *)
let ns_per_site f = (ns_per_iter f -. ns_per_iter gate_bare) /. float_of_int gate_sites

(* Cost of one disabled checkpoint, in ns per site: [guarded] is
   [gate_bare] with [gate_sites] copies of the checkpoint added to the
   loop.  The two arms run as many short trials, interleaved, flipping
   which arm runs first, and the reading is the difference of the per-arm
   minima over [gate_sites]: a switch in host speed then lands on both arms
   instead of on the difference.  The reading is signed; noise can make it
   negative.  Each gate's [budget_ns] sits between the readings of its
   correct checkpoint and of the checkpoint, or only its flag read, moved
   into an [@inline never] function; on a 2-vCPU Xeon a correct
   load+branch read 0.29-1.36 ns per site, depending on code placement,
   and the out-of-line forms 1.4-4.2 ns.
   Contention from other tenants only ever slows a reading, and can span a
   whole gate, so a reading over budget is taken again, twice at most.
   Beside the clock, an exact check: a guarded run must allocate no minor
   words, so a checkpoint that builds its payload before the guard fails
   whatever the timing says. *)
let checkpoint_gate ~name ~budget_ns guarded =
  let w0 = Gc.minor_words () in
  guarded gate_iters;
  let words = Gc.minor_words () -. w0 in
  if words <> 0. then
    failwith
      (Printf.sprintf "%s allocated %.0f minor words while disabled" name
         words);
  let reading () =
    let bare = ref infinity and guard = ref infinity in
    let trial best f = best := Float.min !best (ns_per_iter f) in
    for k = 1 to 201 do
      if k land 1 = 0 then begin
        trial bare gate_bare;
        trial guard guarded
      end
      else begin
        trial guard guarded;
        trial bare gate_bare
      end
    done;
    (!guard -. !bare) /. float_of_int gate_sites
  in
  let rec settle retries =
    let ns = reading () in
    if ns > budget_ns && retries > 0 then settle (retries - 1) else ns
  in
  let ns = settle 2 in
  if ns > budget_ns then
    failwith
      (Printf.sprintf "%s costs %.2fns per site while disabled (> %gns budget)"
         name ns budget_ns);
  ns

(* ------------------------------------------------------------------ *)
(* Observability: emit-site overhead and trace smoke test               *)

(* One guarded emit site (`if !Obs.enabled then Obs.emit ...`).  With no
   sink attached the site must be a single load+branch; with a ring sink
   it pays for a timestamp and an array store, and with the decision
   journal for a journaled decision record.  The event is a decision the
   journal keeps. *)
let[@inline] obs_site i =
  if !Obs.enabled then
    Obs.emit (Obs.Cache_install { meth = "bench"; mid = 0; gen = i; occ = 0 })

let obs_sites iters =
  for i = 1 to iters do
    gate_body i;
    obs_site i; obs_site i; obs_site i; obs_site i;
    obs_site i; obs_site i; obs_site i; obs_site i
  done

let obs_gate () =
  checkpoint_gate ~name:"obs emit site" ~budget_ns:1.4 obs_sites

let obs_bench () =
  header "Observability: emit-site overhead (no sink, ring buffer, journal)";
  let no_sink_ns = obs_gate () in
  let ring = Obs.Ring.create ~capacity:4096 () in
  let ring_ns = Obs.with_sink (Obs.Ring.sink ring) (fun () -> ns_per_site obs_sites) in
  let cap = 4096 in
  Forensics.enable ~capacity:cap ();
  let journal_ns = ns_per_site obs_sites in
  let recorded = Forensics.seen () in
  Forensics.disable ();
  pr "\n%-28s %10.2f ns/site\n" "no sink (single branch)" no_sink_ns;
  pr "%-28s %10.2f ns/site  (%d events)\n" "ring-buffer sink" ring_ns
    (Obs.Ring.seen ring);
  pr "%-28s %10.2f ns/site  (%d recorded, cap %d)\n" "decision-journal sink"
    journal_ns recorded cap;
  let oc = open_out "BENCH_obs.json" in
  output_string oc
    (Printf.sprintf
       "{\n  \"iters\": %d,\n  \"sites_per_iter\": %d,\n  \
        \"no_sink_ns_per_emit\": %.3f,\n  \"ring_ns_per_emit\": %.3f,\n  \
        \"journal_ns_per_emit\": %.3f,\n  \"journal_recorded\": %d,\n  \
        \"journal_capacity\": %d\n}\n"
       gate_iters gate_sites no_sink_ns ring_ns journal_ns recorded cap);
  close_out oc;
  pr "\nwrote BENCH_obs.json\n"

(* ------------------------------------------------------------------ *)
(* Sampling profiler: disabled-checkpoint overhead and run overhead     *)

(* The interpreter's per-step profiler checkpoint
   (`if !Obs.sampling && Obs.sample_due () then ...`) with sampling off.
   Every bytecode step pays it when nobody is profiling. *)
let[@inline] profile_site i = if !Obs.sampling && Obs.sample_due () then gate_body (-i)

let profile_gate () =
  checkpoint_gate ~name:"profiler checkpoint" ~budget_ns:1.5 (fun iters ->
      for i = 1 to iters do
        gate_body i;
        profile_site i; profile_site i; profile_site i; profile_site i;
        profile_site i; profile_site i; profile_site i; profile_site i
      done)

(* The tiered kmeans workload with and without the sampling profiler
   attached: end-to-end overhead of profiling a real run. *)
let profile_kmeans ~interval_ms =
  let run prof =
    let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:16 () in
    let p = Mini.Front.load rt tiered_kmeans_src in
    let d = 4 and k = 3 in
    let rows = 200 in
    let ps =
      Array.init (rows * d) (fun i -> float_of_int ((i * 37 mod 101) - 50) /. 7.)
    in
    let cs =
      Array.init (k * d) (fun i -> float_of_int ((i * 53 mod 23) - 11) /. 3.)
    in
    let driver () =
      let acc = ref 0 in
      for _ = 1 to 150 do
        acc :=
          !acc
          + Vm.Value.to_int
              (Mini.Front.call p "assign_all"
                 [| Farr ps; Farr cs; Int rows; Int d; Int k |])
      done;
      !acc
    in
    let t0 = Unix.gettimeofday () in
    let v =
      match prof with
      | Some pr -> Profiler.profiled pr driver
      | None -> driver ()
    in
    (v, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let v_off, ms_off = run None in
  let prof = Profiler.create ~interval_ms () in
  let v_on, ms_on = run (Some prof) in
  if v_off <> v_on then failwith "profile bench: result mismatch";
  (ms_off, ms_on, prof)

let profile_bench () =
  header "Sampling profiler: checkpoint overhead and run overhead";
  let ns = profile_gate () in
  pr "\n%-36s %10.2f ns/step\n" "disabled checkpoint (sampling off)" ns;
  let interval_ms = 1.0 in
  let ms_off, ms_on, prof = profile_kmeans ~interval_ms in
  pr "%-36s %10.1f ms\n" "tiered kmeans, profiler off" ms_off;
  pr "%-36s %10.1f ms  (%.1f%% overhead)\n" "tiered kmeans, profiler on" ms_on
    (100. *. ((ms_on /. Float.max ms_off 1e-9) -. 1.));
  pr "%-36s %10d samples, coverage %.0f%%\n" "profile"
    prof.Profiler.samples
    (100. *. Profiler.coverage prof);
  let oc = open_out "BENCH_profile.json" in
  output_string oc
    (Printf.sprintf
       "{\n  \"iters\": %d,\n  \"disabled_checkpoint_ns_per_step\": %.3f,\n  \
        \"kmeans_ms_profiler_off\": %.3f,\n  \
        \"kmeans_ms_profiler_on\": %.3f,\n  \"interval_ms\": %.3f,\n  \
        \"samples\": %d,\n  \"coverage\": %.3f\n}\n"
       gate_iters ns ms_off ms_on interval_ms prof.Profiler.samples
       (Profiler.coverage prof));
  close_out oc;
  pr "\nwrote BENCH_profile.json\n"

(* ------------------------------------------------------------------ *)
(* Pipeline introspection: disabled-checkpoint overhead                 *)

(* One IR-trace checkpoint (`if !Irtrace.on then ...`).  The
   sites sit inside the staging emit path, the DCE filter and the backends'
   guard-lowering analysis — hotter code than the journal's tiering slow
   paths — so the disabled form must stay a single load+branch with the
   miss payload allocated only under the guard.  Enabled, sites dedup by
   (mid, pc, reason), so steady-state records are a hash probe plus a
   counter bump. *)
let[@inline] irtrace_site i =
  if !Irtrace.on then
    Irtrace.record_miss ~phase:"stage" ~mid:0 ~pc:(i land 63) ~line:1
      (Irtrace.Cse_effect_barrier { op = "bench" })

let irtrace_sites iters =
  for i = 1 to iters do
    gate_body i;
    irtrace_site i; irtrace_site i; irtrace_site i; irtrace_site i;
    irtrace_site i; irtrace_site i; irtrace_site i; irtrace_site i
  done

let irtrace_gate () =
  Irtrace.disable ();
  checkpoint_gate ~name:"irtrace checkpoint" ~budget_ns:1.4 irtrace_sites

let irtrace_bench () =
  header "Pipeline introspection: IR-trace checkpoint overhead";
  let off_ns = irtrace_gate () in
  pr "\n%-36s %10.2f ns/site\n" "irtrace disabled (single branch)" off_ns;
  Irtrace.enable ();
  let on_ns = ns_per_site irtrace_sites in
  let sites = List.length (Irtrace.misses ()) in
  Irtrace.disable ();
  pr "%-36s %10.2f ns/site  (%d deduped sites)\n"
    "irtrace enabled (dedup counter)" on_ns sites;
  let oc = open_out "BENCH_irtrace.json" in
  output_string oc
    (Printf.sprintf
       "{\n  \"iters\": %d,\n  \"disabled_checkpoint_ns_per_site\": %.3f,\n  \
        \"enabled_record_ns_per_site\": %.3f,\n  \"deduped_sites\": %d\n}\n"
       gate_iters off_ns on_ns sites);
  close_out oc;
  pr "\nwrote BENCH_irtrace.json\n"

(* ------------------------------------------------------------------ *)
(* Dispatch: interpreter inline caches and speculative devirtualization *)

(* A hierarchy shaped like real OO code, so the baseline vtable walk has
   representative cost: Disp0 defines [tag] (returning a per-object field,
   so checksums are meaningful) under a 15-deep chain of subclasses each
   carrying a dozen unrelated methods (real classes are not empty), and
   the benchmark receivers are leaves below that — every unmemoized
   resolve walks ~17 populated method tables.  Returns the root class and
   one receiver per leaf class, with distinct field values. *)
let dispatch_setup rt =
  let root =
    Vm.Classfile.declare_class rt ~name:"Disp0" ~fields:[ ("v", false) ] ()
  in
  let fv = Vm.Classfile.field root "v" in
  (* tag() = v * 31 + 7: a field load plus a little arithmetic, so the
     callee has representative (if modest) weight — against an empty
     callee no dispatch mechanism amortizes *)
  ignore
    (Vm.Assembler.define_method rt root ~name:"tag" ~nargs:0 (fun b ->
         Vm.Assembler.emit b (Load 0);
         Vm.Assembler.emit b (Getfield fv);
         Vm.Assembler.emit b (Const (Int 31));
         Vm.Assembler.emit b (Iop Mul);
         Vm.Assembler.emit b (Const (Int 7));
         Vm.Assembler.emit b (Iop Add);
         Vm.Assembler.emit b Retv));
  let pad cls =
    for j = 0 to 11 do
      ignore
        (Vm.Classfile.add_method rt cls
           ~name:(Printf.sprintf "pad%d" j)
           ~nargs:0
           (Bytecode [| Const (Int j); Retv |]))
    done
  in
  pad root;
  let prev = ref "Disp0" in
  for i = 1 to 15 do
    let name = Printf.sprintf "Disp%d" i in
    let c = Vm.Classfile.declare_class rt ~name ~super:!prev ~fields:[] () in
    pad c;
    prev := name
  done;
  let leaves =
    Array.init 6 (fun i ->
        Vm.Classfile.declare_class rt
          ~name:(Printf.sprintf "DispLeaf%d" i)
          ~super:!prev ~fields:[] ())
  in
  let recv i cls =
    let o = Vm.Runtime.alloc rt cls in
    Vm.Runtime.set_field o fv (Int (i + 1));
    Obj o
  in
  (root, Array.mapi recv leaves)

(* run(arr, n): sum arr[i mod len].tag() over n iterations — one
   invokevirtual site in a tight bytecode loop, so dispatch cost is the
   signal, not call-in overhead. *)
let dispatch_driver ?hint rt =
  let drv = Vm.Classfile.declare_class rt ~name:"DispDrv" ~fields:[] () in
  Vm.Assembler.define_method rt drv ~name:"run" ~static:true ~nargs:2 (fun b ->
      let open Vm.Assembler in
      let i = local b and acc = local b and len = local b in
      emit b (Load 0);
      emit b Alen;
      emit b (Store len);
      emit b (Const (Int 0));
      emit b (Store i);
      emit b (Const (Int 0));
      emit b (Store acc);
      let loop = new_label b and stop = new_label b in
      place b loop;
      emit b (Load i);
      emit b (Load 1);
      if_ b Ge stop;
      emit b (Load 0);
      emit b (Load i);
      emit b (Load len);
      emit b (Iop Rem);
      emit b Aload;
      emit b (Invoke (Virtual ("tag", 0, hint)));
      emit b (Load acc);
      emit b (Iop Add);
      emit b (Store acc);
      emit b (Load i);
      emit b (Const (Int 1));
      emit b (Iop Add);
      emit b (Store i);
      goto b loop;
      place b stop;
      emit b (Load acc);
      emit b Retv)

(* the checksum the driver must produce: receiver k carries field k+1 and
   tag() returns v * 31 + 7 *)
let dispatch_expect ~nrecv ~iters =
  let s = ref 0 in
  for i = 0 to iters - 1 do
    s := !s + ((((i mod nrecv) + 1) * 31) + 7)
  done;
  !s

(* One interpreter configuration on a fresh runtime.  [ic = false] is the
   pre-feedback baseline: no quickening AND no CHA memoization (both are
   this layer), so every dispatch is the full superclass chain walk.
   Returns the runtime, the checksum of one (warmup) run, and a thunk that
   runs the workload once more — the caller times it. *)
let dispatch_interp_make ~ic ~nrecv ~iters =
  let rt = Vm.Natives.boot () in
  if not ic then rt.ic_enabled <- false;
  let _, recvs = dispatch_setup rt in
  let driver = dispatch_driver rt in
  let arr = Arr (Array.sub recvs 0 nrecv) in
  let run () =
    (* the CHA memo is a global flag: pin it to this configuration for the
       duration of the run (the no-ic runtime never memoizes, so flipping
       the flag per run keeps its vtables pristine) *)
    let old_memo = !Vm.Classfile.cha_memo in
    Vm.Classfile.cha_memo := ic;
    Fun.protect
      ~finally:(fun () -> Vm.Classfile.cha_memo := old_memo)
      (fun () -> Vm.Value.to_int (Vm.Interp.call rt driver [| arr; Int iters |]))
  in
  (* warmup quickens the site (when enabled) before any timing *)
  let v = run () in
  (rt, v, run)

(* One feedback-directed compile of the driver.  [`Guarded]: mono profile,
   no CHA help -> class-id guard + direct call with a deopt side exit.
   [`Cha]: static hint + no overrides -> unguarded direct call.  [`Poly]:
   3-entry dispatch chain.  [`Generic]: megamorphic profile -> residual
   generic dispatch.  Returns the checksum, a run thunk for timing and the
   compile's devirtualization deps (empty iff nothing was speculated). *)
let dispatch_compiled_make ~mode ~iters =
  let rt = Lancet.Api.boot () in
  let root, recvs = dispatch_setup rt in
  let hint = match mode with `Cha -> Some root | _ -> None in
  let driver = dispatch_driver ?hint rt in
  let nrecv = match mode with `Guarded | `Cha -> 1 | `Poly -> 3 | `Generic -> 6 in
  let arr = Arr (Array.sub recvs 0 nrecv) in
  (* train the interpreter's inline cache: it is the profile the compiler
     speculates on ([`Generic] trains past poly_limit, leaving mega) *)
  ignore (Vm.Interp.call rt driver [| arr; Int (50 * nrecv) |]);
  match Lancet.Tiering.compile rt driver with
  | None -> failwith "dispatch bench: compile declined"
  | Some (fn, deps, _) ->
    let v = fn [| arr; Int iters |] in
    (Vm.Value.to_int v, (fun () -> ignore (fn [| arr; Int iters |])), deps)

(* One timed execution.  Configurations under comparison are timed in
   interleaved rounds with the per-configuration minimum kept: round-robin
   cancels machine drift between measurement windows, and the minimum is
   the standard noise-robust statistic for a fixed-work microbenchmark. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let dispatch_rounds = 5

let dispatch_bench () =
  header "Dispatch: inline caches (interpreter) and devirtualization (JIT)";
  let iters = 300_000 in
  let shapes = [ ("mono", 1); ("poly", 3); ("mega", 6) ] in
  pr "\n-- interpreter, %d calls through one site (ms; ic off = chain walk) --\n"
    iters;
  let interp =
    List.map
      (fun (name, nrecv) ->
        let expect = dispatch_expect ~nrecv ~iters in
        let _, v_ic, run_ic = dispatch_interp_make ~ic:true ~nrecv ~iters in
        let _, v_no, run_no = dispatch_interp_make ~ic:false ~nrecv ~iters in
        if v_ic <> expect || v_no <> expect then
          failwith ("dispatch bench: interpreter checksum mismatch at " ^ name);
        let t_ic = ref infinity and t_no = ref infinity in
        for _ = 1 to dispatch_rounds do
          t_ic := min !t_ic (time_once run_ic);
          t_no := min !t_no (time_once run_no)
        done;
        let t_ic = !t_ic and t_no = !t_no in
        pr "%-8s ic %8.1f   no-ic %8.1f   speedup %5.2fx\n" name
          (t_ic *. 1000.) (t_no *. 1000.) (t_no /. t_ic);
        (name, t_ic, t_no))
      shapes
  in
  pr "\n-- compiled, same site (ms) --\n";
  let configs =
    List.map
      (fun (name, mode, nrecv) ->
        let v, run, deps = dispatch_compiled_make ~mode ~iters in
        if v <> dispatch_expect ~nrecv ~iters then
          failwith ("dispatch bench: compiled checksum mismatch at " ^ name);
        (name, run, deps, ref infinity))
      [
        ("guarded-direct (mono)", `Guarded, 1);
        ("cha-direct (mono)", `Cha, 1);
        ("dispatch-chain (poly)", `Poly, 3);
        ("generic (mega)", `Generic, 6);
      ]
  in
  for _ = 1 to dispatch_rounds do
    List.iter (fun (_, run, _, best) -> best := min !best (time_once run)) configs
  done;
  let compiled =
    List.map
      (fun (name, _, deps, best) ->
        pr "%-24s %8.1f   (deps: %s)\n" name (!best *. 1000.)
          (if deps = [] then "none" else String.concat "," deps);
        (name, !best))
      configs
  in
  let tof n = List.assoc n compiled in
  let guarded = tof "guarded-direct (mono)" and cha = tof "cha-direct (mono)" in
  pr "\nguarded vs unguarded CHA on the mono site: %.2fx\n" (cha /. guarded);
  let _, poly_ic, poly_no =
    List.find (fun (n, _, _) -> n = "poly") interp
  in
  pr "interpreter poly speedup (acceptance floor 1.5x): %.2fx\n"
    (poly_no /. poly_ic);
  if poly_no /. poly_ic < 1.5 then
    pr "WARNING: poly speedup below the 1.5x acceptance floor\n";
  if cha /. guarded < 0.9 then
    pr "WARNING: guarded direct call more than 10%% behind the CHA baseline\n";
  let oc = open_out "BENCH_dispatch.json" in
  output_string oc
    (Printf.sprintf
       "{\n  \"iters\": %d,\n  \"interp\": {\n%s\n  },\n  \"compiled\": \
        {\n%s,\n    \"guarded_vs_cha\": %.3f\n  }\n}\n"
       iters
       (String.concat ",\n"
          (List.map
             (fun (n, t_ic, t_no) ->
               Printf.sprintf
                 "    %S: {\"ic_ms\": %.3f, \"no_ic_ms\": %.3f, \"speedup\": \
                  %.3f}"
                 n (t_ic *. 1000.) (t_no *. 1000.) (t_no /. t_ic))
             interp))
       (String.concat ",\n"
          (List.map
             (fun (n, t) -> Printf.sprintf "    %S: %.3f" n (t *. 1000.))
             compiled))
       (cha /. guarded));
  close_out oc;
  pr "\nwrote BENCH_dispatch.json\n"

(* Correctness gate for the dispatch layer (part of [check]): all
   interpreter and compiled configurations must agree on the checksum, the
   trained sites must land in the expected cache states, and the mono
   compiles must actually speculate (non-empty deps).  No timing
   assertions, so it cannot flake. *)
let dispatch_check () =
  let iters = 20_000 in
  List.iter
    (fun (name, nrecv) ->
      let expect = dispatch_expect ~nrecv ~iters in
      let rt_ic, v_ic, _ = dispatch_interp_make ~ic:true ~nrecv ~iters in
      let _, v_no, _ = dispatch_interp_make ~ic:false ~nrecv ~iters in
      if v_ic <> expect || v_no <> expect then
        failwith ("dispatch check: checksum mismatch at " ^ name);
      let _, _, mono, poly, mega = Vm.Runtime.ic_stats rt_ic in
      let ok =
        match name with
        | "mono" -> mono >= 1
        | "poly" -> poly >= 1
        | _ -> mega >= 1
      in
      if not ok then
        failwith
          (Printf.sprintf
             "dispatch check: %s site not in expected state (mono=%d poly=%d \
              mega=%d)"
             name mono poly mega))
    [ ("mono", 1); ("poly", 3); ("mega", 6) ];
  List.iter
    (fun (name, mode, nrecv, want_deps) ->
      let v, _, deps = dispatch_compiled_make ~mode ~iters in
      if v <> dispatch_expect ~nrecv ~iters then
        failwith ("dispatch check: compiled checksum mismatch at " ^ name);
      if want_deps && deps = [] then
        failwith ("dispatch check: " ^ name ^ " compile did not speculate"))
    [
      ("guarded", `Guarded, 1, true);
      ("cha", `Cha, 1, true);
      ("poly", `Poly, 3, true);
      ("generic", `Generic, 6, false);
    ];
  pr "check dispatch          ok  (ic on/off and all compiled modes agree)\n"

(* ------------------------------------------------------------------ *)
(* Background JIT: compile-queue promotion vs synchronous promotion     *)

type bgjit_run = {
  bj_result : int;
  bj_total_ms : float;
  bj_mutator_compile_ms : float; (* Compile_end wall time on the mutator *)
  bj_worker_compile_ms : float; (* Compile_end wall time on worker domains *)
  bj_tier_up_ms : float; (* start -> last Cache_install *)
  bj_stats : Bgjit.stats option; (* None in synchronous mode *)
}

(* The tiered kmeans workload under a given compile mode.  A lightweight
   sink splits compile wall time by worker id — in synchronous mode all of
   it lands on the mutator (worker 0), i.e. it is interpreter pause time;
   with a pool it moves to the worker tracks — and records the timestamp of
   the last code-cache install, giving time-to-tier-up. *)
let bgjit_kmeans ~jit_threads ~rows ~calls =
  let rt, pool =
    Lancet.Api.boot_bg ~tiering:true ~tier_threshold:8 ~jit_threads ()
  in
  let p = Mini.Front.load rt tiered_kmeans_src in
  let d = 4 and k = 3 in
  let ps =
    Array.init (rows * d) (fun i -> float_of_int ((i * 37 mod 101) - 50) /. 7.)
  in
  let cs = Array.init (k * d) (fun i -> float_of_int ((i * 53 mod 23) - 11) /. 3.) in
  let mutator_ms = ref 0.0 and worker_ms = ref 0.0 in
  let last_install = ref nan in
  let sink =
    {
      Obs.sink_name = "bgjit-bench";
      sink_emit =
        (fun ~ts ev ->
          match ev with
          | Obs.Compile_end { ci_worker; ci_ms; _ } ->
            if ci_worker = 0 then mutator_ms := !mutator_ms +. ci_ms
            else worker_ms := !worker_ms +. ci_ms
          | Obs.Cache_install _ -> last_install := ts
          | _ -> ());
      sink_flush = ignore;
    }
  in
  Obs.attach sink;
  let t0 = Obs.now () in
  let acc = ref 0 in
  for _ = 1 to calls do
    acc :=
      !acc
      + Vm.Value.to_int
          (Mini.Front.call p "assign_all"
             [| Farr ps; Farr cs; Int rows; Int d; Int k |])
  done;
  (match pool with Some b -> Bgjit.drain b | None -> ());
  let total_ms = (Obs.now () -. t0) *. 1000. in
  Obs.flush ();
  Obs.detach sink;
  let stats = Option.map Bgjit.stats pool in
  (match pool with Some b -> Bgjit.shutdown b | None -> ());
  {
    bj_result = !acc;
    bj_total_ms = total_ms;
    bj_mutator_compile_ms = !mutator_ms;
    bj_worker_compile_ms = !worker_ms;
    bj_tier_up_ms =
      (if Float.is_nan !last_install then 0.0 else (!last_install -. t0) *. 1000.);
    bj_stats = stats;
  }

let bgjit_bench () =
  header "Background JIT: synchronous vs compile-queue promotion (kmeans)";
  let rows = 200 and calls = 150 in
  let sync = bgjit_kmeans ~jit_threads:0 ~rows ~calls in
  let async = bgjit_kmeans ~jit_threads:2 ~rows ~calls in
  if sync.bj_result <> async.bj_result then
    failwith "bgjit bench: sync/async result mismatch";
  let line name r =
    pr "%-28s %10.1f ms total %10.2f ms mutator-compile %10.2f ms tier-up\n"
      name r.bj_total_ms r.bj_mutator_compile_ms r.bj_tier_up_ms
  in
  line "sync (--jit-threads 0)" sync;
  line "async (--jit-threads 2)" async;
  (match async.bj_stats with
  | Some s ->
    pr "%-28s enqueued=%d coalesced=%d dropped=%d installed=%d stale=%d \
        blacklisted=%d\n"
      "queue" s.Bgjit.s_enqueued s.Bgjit.s_coalesced s.Bgjit.s_dropped
      s.Bgjit.s_installed s.Bgjit.s_stale s.Bgjit.s_blacklisted
  | None -> ());
  let stat_json = function
    | None -> "null"
    | Some (s : Bgjit.stats) ->
      Printf.sprintf
        "{\"enqueued\": %d, \"coalesced\": %d, \"dropped\": %d, \"installed\": \
         %d, \"stale\": %d, \"blacklisted\": %d}"
        s.Bgjit.s_enqueued s.Bgjit.s_coalesced s.Bgjit.s_dropped
        s.Bgjit.s_installed s.Bgjit.s_stale s.Bgjit.s_blacklisted
  in
  let run_json name r =
    Printf.sprintf
      "  %S: {\n    \"total_ms\": %.3f,\n    \"mutator_compile_ms\": %.3f,\n   \
       \ \"worker_compile_ms\": %.3f,\n    \"tier_up_ms\": %.3f,\n    \
       \"result\": %d,\n    \"queue\": %s\n  }"
      name r.bj_total_ms r.bj_mutator_compile_ms r.bj_worker_compile_ms
      r.bj_tier_up_ms r.bj_result (stat_json r.bj_stats)
  in
  let oc = open_out "BENCH_bgjit.json" in
  output_string oc
    (Printf.sprintf "{\n%s,\n%s\n}\n" (run_json "sync" sync)
       (run_json "async" async));
  close_out oc;
  pr "\nwrote BENCH_bgjit.json\n"

(* Correctness gate for the compile queue (part of [check], so it runs
   under dune runtest): the async run must produce the sync checksum, every
   request must be accounted for (installed + stale + blacklisted =
   enqueued), and nothing may be left queued or stuck in flight. *)
let bgjit_check () =
  let rows = 40 and calls = 30 in
  let sync = bgjit_kmeans ~jit_threads:0 ~rows ~calls in
  let async = bgjit_kmeans ~jit_threads:2 ~rows ~calls in
  if sync.bj_result <> async.bj_result then
    failwith
      (Printf.sprintf "bgjit check: checksum mismatch (sync %d, async %d)"
         sync.bj_result async.bj_result);
  (match async.bj_stats with
  | None -> failwith "bgjit check: no pool stats"
  | Some s ->
    pr
      "check bgjit             ok  (enqueued=%d installed=%d stale=%d \
       blacklisted=%d)\n"
      s.Bgjit.s_enqueued s.Bgjit.s_installed s.Bgjit.s_stale s.Bgjit.s_blacklisted;
    if s.Bgjit.s_enqueued = 0 then
      failwith "bgjit check: nothing was enqueued (promotion not routed)";
    if s.Bgjit.s_installed = 0 then
      failwith "bgjit check: nothing was installed";
    if s.Bgjit.s_installed + s.Bgjit.s_stale + s.Bgjit.s_blacklisted
       <> s.Bgjit.s_enqueued
    then
      failwith
        (Printf.sprintf "bgjit check: lost requests (%d enqueued, %d resolved)"
           s.Bgjit.s_enqueued
           (s.Bgjit.s_installed + s.Bgjit.s_stale + s.Bgjit.s_blacklisted)));
  ()

(* Trace smoke test for the runtest gate: a small tiered kmeans run with a
   Chrome sink attached must produce well-formed JSON containing at least
   one compile-end event. *)
let trace_smoke () =
  let chrome = Obs.Chrome.create () in
  Obs.with_sink (Obs.Chrome.sink chrome) (fun () ->
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
      let p = Mini.Front.load rt tiered_kmeans_src in
      let d = 3 and k = 2 in
      let rows = 20 in
      let ps = Array.init (rows * d) (fun i -> float_of_int (i mod 17) /. 3.) in
      let cs = Array.init (k * d) (fun i -> float_of_int (i mod 5) /. 2.) in
      for _ = 1 to 10 do
        ignore
          (Mini.Front.call p "assign_all"
             [| Farr ps; Farr cs; Int rows; Int d; Int k |])
      done);
  let path = Filename.temp_file "lancet_trace" ".json" in
  Obs.Chrome.write chrome path;
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (match Obs.Json.validate data with
  | Ok () -> ()
  | Error e -> failwith ("trace smoke: invalid JSON: " ^ e));
  if not (Vm.Strutil.contains data "compile-end") then
    failwith "trace smoke: no compile-end event in trace";
  pr "trace smoke ok (%d events, %d bytes of JSON)\n"
    (Obs.Chrome.event_count chrome)
    (String.length data)

(* ------------------------------------------------------------------ *)
(* Warm-start benchmark: cold vs profile-replayed warm runs of the
   tiered k-means kernel.  Measures time-to-peak (boot to first
   code-cache install) and first-N-iteration latency, and gates on
   cold/warm checksum equivalence plus the warm run reaching tiered code
   strictly earlier (the replayed profile compiles before iteration 0). *)

type warm_leg = {
  wl_checksum : int;
  wl_install_iter : int; (* iteration of the first install; -1 = pre-loop *)
  wl_ttp_ms : float; (* boot -> first code-cache install *)
  wl_lat : float array; (* per-iteration latency, ms *)
}

let warmup_leg ?profile_in ?profile_out ~iters ~rows () =
  Persist.reset ();
  if profile_out <> None then Persist.collect ();
  let t_boot = Unix.gettimeofday () in
  let rt, pool =
    Lancet.Api.boot_bg ~tiering:true ~tier_threshold:8 ~jit_threads:0 ()
  in
  (* deterministic legs: synchronous compiles, first install attributed to
     the iteration (or the pre-loop replay) that triggered it *)
  let cur_iter = ref (-1) in
  let install_iter = ref min_int in
  let install_ts = ref nan in
  let sink =
    {
      Obs.sink_name = "warmup";
      sink_emit =
        (fun ~ts:_ ev ->
          match ev with
          | Obs.Cache_install _ when !install_iter = min_int ->
            install_iter := !cur_iter;
            install_ts := Unix.gettimeofday ()
          | _ -> ());
      sink_flush = ignore;
    }
  in
  Obs.attach sink;
  let p = Mini.Front.load rt tiered_kmeans_src in
  (match profile_in with
  | Some path -> ignore (Persist.replay_file ?pool rt path)
  | None -> ());
  let d = 4 and k = 3 in
  let ps =
    Array.init (rows * d) (fun i -> float_of_int ((i * 37 mod 101) - 50) /. 7.)
  in
  let cs =
    Array.init (k * d) (fun i -> float_of_int ((i * 53 mod 23) - 11) /. 3.)
  in
  let lat = Array.make iters 0.0 in
  let checksum = ref 0 in
  for i = 0 to iters - 1 do
    cur_iter := i;
    let t0 = Unix.gettimeofday () in
    checksum :=
      (!checksum
      + Vm.Value.to_int
          (Mini.Front.call p "assign_all"
             [| Farr ps; Farr cs; Int rows; Int d; Int k |]))
      land 0xFFFFFF;
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
  done;
  Obs.detach sink;
  (match profile_out with Some path -> Persist.save rt path | None -> ());
  (match pool with Some b -> Bgjit.shutdown b | None -> ());
  {
    wl_checksum = !checksum;
    wl_install_iter = (if !install_iter = min_int then iters else !install_iter);
    wl_ttp_ms =
      (if Float.is_nan !install_ts then 0.0
       else (!install_ts -. t_boot) *. 1000.);
    wl_lat = lat;
  }

let warmup ~small () =
  if not small then header "Warm start: profile snapshot replay";
  let iters = if small then 10 else 30 in
  let rows = if small then 40 else 200 in
  let path = Filename.temp_file "lancet_warm" ".lprof" in
  let cold = warmup_leg ~profile_out:path ~iters ~rows () in
  let warm = warmup_leg ~profile_in:path ~iters ~rows () in
  let warm_ok = Persist.warm_matches () in
  let warm_stale = Persist.warm_stale () in
  Sys.remove path;
  if cold.wl_checksum <> warm.wl_checksum then
    failwith
      (Printf.sprintf "warmup: checksum mismatch cold=%d warm=%d"
         cold.wl_checksum warm.wl_checksum);
  if warm.wl_install_iter >= cold.wl_install_iter then
    failwith
      (Printf.sprintf
         "warmup: warm start did not reach tiered code earlier (cold iter \
          %d, warm iter %d)"
         cold.wl_install_iter warm.wl_install_iter);
  if warm_ok = 0 then
    failwith "warmup: no warm compile matched its recorded fingerprint";
  let oc = open_out "BENCH_warmup.json" in
  let lat_json a =
    String.concat ", "
      (List.map (Printf.sprintf "%.3f")
         (Array.to_list (Array.sub a 0 (min 8 (Array.length a)))))
  in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"kmeans-assign\",\n\
    \  \"iters\": %d,\n\
    \  \"rows\": %d,\n\
    \  \"warm_fp_matches\": %d,\n\
    \  \"warm_fp_stale\": %d,\n\
    \  \"cold\": {\"checksum\": %d, \"first_install_iter\": %d, \
     \"time_to_peak_ms\": %.3f, \"first_iters_ms\": [%s]},\n\
    \  \"warm\": {\"checksum\": %d, \"first_install_iter\": %d, \
     \"time_to_peak_ms\": %.3f, \"first_iters_ms\": [%s]}\n\
     }\n"
    iters rows warm_ok warm_stale cold.wl_checksum cold.wl_install_iter
    cold.wl_ttp_ms (lat_json cold.wl_lat) warm.wl_checksum
    warm.wl_install_iter warm.wl_ttp_ms (lat_json warm.wl_lat);
  close_out oc;
  pr
    "warmup: cold first install at iter %d (%.2fms), warm at iter %d \
     (%.2fms), %d fingerprint match(es), checksums equal -> \
     BENCH_warmup.json\n"
    cold.wl_install_iter cold.wl_ttp_ms warm.wl_install_iter warm.wl_ttp_ms
    warm_ok;
  Persist.reset ()

(* ------------------------------------------------------------------ *)
(* Chaos engineering: disabled-checkpoint overhead + seeded fault soak  *)

(* One disabled chaos checkpoint (`if !Chaos.on && Chaos.fire ...`).  The
   sites sit on the compile queue, the install path and the interpreter's
   invoke path, so the disabled form must stay a single load+branch. *)
let[@inline] chaos_site () =
  if !Chaos.on && Chaos.fire Chaos.compile_crash then gate_acc := !gate_acc lxor 1

let chaos_gate () =
  Chaos.disable ();
  checkpoint_gate ~name:"chaos injection checkpoint" ~budget_ns:1.5
    (fun iters ->
      for i = 1 to iters do
        gate_body i;
        chaos_site (); chaos_site (); chaos_site (); chaos_site ();
        chaos_site (); chaos_site (); chaos_site (); chaos_site ()
      done)

(* The governor's promotion checkpoint when no governor is attached: the
   promotion path pays one mutable-field load plus an option match. *)
let[@inline] governor_site (t : Vm.Types.tiering) =
  match t.t_promote_gate with
  | None -> ()
  | Some _ -> gate_acc := !gate_acc lxor 1

let governor_gate () =
  let rt = Vm.Natives.boot ~tiering:true () in
  let t = rt.tiering in
  t.t_promote_gate <- None;
  checkpoint_gate ~name:"governor promotion checkpoint" ~budget_ns:1.1
    (fun iters ->
      for i = 1 to iters do
        gate_body i;
        governor_site t; governor_site t; governor_site t; governor_site t;
        governor_site t; governor_site t; governor_site t; governor_site t
      done)

(* The soak workload mixes several methods so faults land on different
   mids: a hot loop, a speculation that deopts periodically, and a cheap
   mixer, all folded into one checksum. *)
let chaos_soak_src =
  {|
def soak_calc(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
def soak_spec(x: int): int =
  if (Lancet.speculate(x < 100000)) x * 3 + 1 else x - 7
def soak_mix(a: int, b: int): int = (a * 17 + b * 29) % 1000003
|}

let chaos_soak_drive p ~calls =
  let acc = ref 0 in
  let put v = acc := (!acc + Vm.Value.to_int v) land 0xFFFFFF in
  for i = 1 to calls do
    put (Mini.Front.call p "soak_calc" [| Int 60; Int i |]);
    (* every 40th call breaks the speculation: deopt pressure for the
       governor's circuit breaker *)
    let x = if i mod 40 = 0 then 1_000_000 + i else i in
    put (Mini.Front.call p "soak_spec" [| Int x |]);
    put (Mini.Front.call p "soak_mix" [| Int i; Int !acc |])
  done;
  !acc

let chaos_soak_interp ~calls =
  let rt = Vm.Natives.boot () in
  let p = Mini.Front.load rt chaos_soak_src in
  chaos_soak_drive p ~calls

(* Every fault site armed at once; only the seed varies between legs. *)
let chaos_soak_spec seed =
  Printf.sprintf
    "compile_crash:p=0.2,compile_stall:p=0.3:ms=20,compile_garbage:p=0.2,queue_full:p=0.2,cache_evict:p=0.3,hier_churn:p=0.002,seed=%d"
    seed

(* One seeded soak leg: tiered runtime, two JIT worker domains, small
   code cache, governor attached with a tight watchdog, every fault site
   armed.  Returns the checksum plus the evidence strings. *)
let chaos_soak_leg ~seed ~calls =
  (match Chaos.configure (chaos_soak_spec seed) with
  | Ok () -> ()
  | Error e -> failwith ("chaos soak: bad spec: " ^ e));
  Forensics.enable ();
  let rt, pool =
    Lancet.Api.boot_bg ~tiering:true ~tier_threshold:8 ~tier_cache_size:4
      ~jit_threads:2 ()
  in
  let gov =
    Lancet.Governor.attach
      ~cfg:
        {
          Lancet.Governor.default_config with
          Lancet.Governor.g_watchdog_ms = 100.0;
        }
      ?pool ~ticker:true rt
  in
  let p = Mini.Front.load rt chaos_soak_src in
  let t0 = Unix.gettimeofday () in
  let checksum = chaos_soak_drive p ~calls in
  (match pool with Some b -> Bgjit.drain ~timeout_ms:2000 b | None -> ());
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Lancet.Governor.detach gov;
  let bg = match pool with Some b -> Bgjit.stats_string b | None -> "" in
  (match pool with Some b -> Bgjit.shutdown ~timeout_ms:2000 b | None -> ());
  let fires = Chaos.stats_string () in
  let gov_report = Lancet.Governor.report gov in
  Chaos.disable ();
  (checksum, ms, fires, gov_report, bg)

(* THE soak invariant (gated here and in CI): under any seeded fault
   schedule the program computes the pure-interpreter checksum, and the
   process neither crashes nor wedges — every leg exits through the
   bounded drain/shutdown path above. *)
let chaos_soak ?(quiet = false) ~seeds ~calls () =
  let expect = chaos_soak_interp ~calls in
  List.map
    (fun seed ->
      let sum, ms, fires, gov, bg = chaos_soak_leg ~seed ~calls in
      if sum <> expect then
        failwith
          (Printf.sprintf
             "chaos soak: seed %d checksum mismatch (interp %d, chaos %d)" seed
             expect sum);
      if not quiet then begin
        pr "seed %-6d ok %8.1f ms  checksum=%d\n" seed ms sum;
        pr "            fires: %s\n" fires;
        pr "            governor: %s\n" gov;
        if bg <> "" then pr "            bgjit: %s\n" bg
      end;
      (seed, ms, fires, gov))
    seeds

let chaos_bench () =
  header "Chaos engineering: checkpoint overhead + seeded fault soak";
  let chaos_ns = chaos_gate () in
  let gov_ns = governor_gate () in
  pr "\n%-36s %10.2f ns/site\n" "chaos disabled (single branch)" chaos_ns;
  pr "%-36s %10.2f ns/site\n" "governor detached (option load)" gov_ns;
  pr "\nsoak: checksum vs pure interpreter under seeded faults\n";
  let rows = chaos_soak ~seeds:[ 11; 23; 42 ] ~calls:400 () in
  Forensics.disable ();
  let row (seed, ms, fires, gov) =
    Printf.sprintf
      "    {\"seed\": %d, \"ms\": %.3f, \"fires\": %S, \"governor\": %S}" seed
      ms fires gov
  in
  let oc = open_out "BENCH_chaos.json" in
  output_string oc
    (Printf.sprintf
       "{\n\
       \  \"chaos_checkpoint_ns\": %.4f,\n\
       \  \"governor_checkpoint_ns\": %.4f,\n\
       \  \"soak\": [\n\
        %s\n\
       \  ]\n\
        }\n"
       chaos_ns gov_ns
       (String.concat ",\n" (List.map row rows)));
  close_out oc;
  pr "\nwrote BENCH_chaos.json\n"

(* CI entry point (`bench/main.exe chaos-soak [seeds...]`): soak each
   seed; on any failure dump the forensics journal to chaos-journal.txt
   (uploaded as a CI artifact) and exit non-zero. *)
let chaos_soak_ci () =
  let seeds =
    let rest =
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    in
    match List.filter_map int_of_string_opt rest with
    | [] -> [ 11; 23; 42 ]
    | l -> l
  in
  header "Chaos soak (CI gate)";
  (* journal lines read as offsets into the soak, on the bus clock *)
  let t0 = Obs.now () in
  match chaos_soak ~seeds ~calls:600 () with
  | rows -> pr "chaos soak ok (%d seeds)\n" (List.length rows)
  | exception e ->
    let oc = open_out "chaos-journal.txt" in
    output_string oc
      (Printf.sprintf "chaos soak failed: %s\n\nforensics journal:\n"
         (Printexc.to_string e));
    List.iter
      (fun d -> output_string oc (Forensics.decision_to_string ~t0 d ^ "\n"))
      (Forensics.decisions ());
    close_out oc;
    prerr_endline
      ("chaos soak FAILED: " ^ Printexc.to_string e
     ^ " (journal in chaos-journal.txt)");
    exit 1

(* ------------------------------------------------------------------ *)
(* Typed kernels: no allocation per loop iteration                      *)

(* A typed kernel boxes only at calls, side exits and its return, so one
   call allocates the same minor words whatever its trip count.  The float
   reduction of the backend ablation and k-means' [sqdist], [nearest] and
   [assign_all] are compiled with [Lms.Typed_backend.compile] and each
   called once untimed first, so that the register file exists before the
   measured calls.  [nearest] runs the threaded [if (dd < bd)] diamond
   around a native loop, [assign_all] nests native loops in two outer
   ones, and [update] holds every region shape of the typed lowering: a
   nest with diamonds, stores and a loop inside an [if] arm. *)
let typed_alloc_gate () =
  let rt = Lancet.Api.boot () in
  let p =
    Mini.Front.load rt (reduction_src ^ tiered_kmeans_src ^ kmeans_update_src)
  in
  let kernel name =
    let m = Mini.Front.find_function p name in
    let g =
      Lancet.Compiler.stage rt m (Array.make m.mnargs Lancet.Compiler.Dyn)
    in
    Lms.Typed_backend.compile ~hooks:(Lms.Closure_backend.default_hooks rt) g
  in
  let words f args =
    ignore (f args);
    let w0 = Gc.minor_words () in
    ignore (f args);
    Gc.minor_words () -. w0
  in
  let a = Farr (Array.init 100_000 (fun i -> float_of_int (i land 255))) in
  let same name var short long run =
    let ws = run short and wl = run long in
    if ws <> wl then
      failwith
        (Printf.sprintf
           "typed %s allocated %.0f minor words at %s=%d and %.0f at %s=%d"
           name ws var short wl var long);
    Printf.sprintf "%s %.0f words at %s=%d and %d" name ws var short long
  in
  let reduction = kernel "kernel" and sqdist = kernel "sqdist" in
  let nearest = kernel "nearest" and assign_all = kernel "assign_all" in
  let r =
    same "reduction" "n" 100 100_000 (fun n -> words reduction [| a; Int n |])
  in
  let s =
    same "sqdist" "d" 10 10_000 (fun d ->
        words sqdist [| a; a; Int 0; Int 1; Int d |])
  in
  let n =
    same "nearest" "k" 2 20_000 (fun k ->
        words nearest [| a; a; Int 0; Int 4; Int k |])
  in
  let aa =
    same "assign_all" "n" 10 10_000 (fun n ->
        words assign_all [| a; a; Int n; Int 4; Int 8 |])
  in
  (* [n] points and [k] centroids, so that every loop of [update] grows *)
  let update = kernel "update" in
  let u =
    same "update" "n=k" 8 600 (fun n ->
        let cs = Farr (Array.init (n * 4) float_of_int) in
        let sums = Farr (Array.make (n * 4) 0.0) in
        words update [| a; cs; sums; Farr (Array.make n 0.0); Int n; Int 4; Int n |])
  in
  pr "check %-18s ok  (%s; %s; %s; %s; %s)\n" "typed alloc gate" r s n aa u

(* OSR gate (part of [check]): perfbench's loop-once program, one call of
   a 40k-iteration loop under --tiered at the default threshold, must
   return the interpreter's checksum, build exactly one OSR graph and
   interpret at most a fifth of the bytecodes a pure-interpreter run does. *)
let osr_loop_src =
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

let osr_gate () =
  let run rt =
    let p = Mini.Front.load rt osr_loop_src in
    let xs = Arr (Array.init 256 (fun i -> Int (i * 7919 mod 1000))) in
    (Mini.Front.call p "run" [| xs; Int 40_000 |], rt)
  in
  let vi, plain = run (Vm.Natives.boot ()) in
  let vt, rt = run (Lancet.Api.boot ~tiering:true ()) in
  if not (Vm.Value.equal vi vt) then failwith "osr gate: checksum mismatch";
  let n = rt.tiering.t_osr_compiles in
  if n <> 1 then
    failwith (Printf.sprintf "osr gate: %d OSR compiles, expected 1" n);
  let share = float_of_int rt.interp_steps /. float_of_int plain.interp_steps in
  if share > 0.2 then
    failwith
      (Printf.sprintf "osr gate: interpreted %d of %d steps (%.0f%% > 20%%)"
         rt.interp_steps plain.interp_steps (100. *. share));
  pr "check %-18s ok  (1 OSR compile, interpreted %d of %d steps, %.0f%%)\n"
    "osr gate" rt.interp_steps plain.interp_steps (100. *. share)

(* Fast correctness gate (runs under the dune [runtest] alias): same
   workloads at small sizes, results must match the interpreter and the
   tiered counters must move; no timing assertions, so it cannot flake. *)
let tier_check () =
  let rows = tier_rows ~small:true in
  List.iter
    (fun r ->
      pr "check %-18s ok  (compiles=%d cache_hits=%d deopts=%d)\n" r.tr_name
        r.tr_compiles r.tr_hits r.tr_deopts;
      if r.tr_name <> "csv-generic" && r.tr_compiles = 0 then
        failwith (r.tr_name ^ ": expected at least one compile");
      if r.tr_hits = 0 then failwith (r.tr_name ^ ": expected cache hits"))
    rows;
  (match List.find_opt (fun r -> r.tr_name = "speculate-deopt") rows with
  | Some r when r.tr_deopts > 0 -> ()
  | _ -> failwith "speculate workload: expected deopts");
  List.iter
    (fun r ->
      if r.tr_compiles > 0 && List.assoc_opt "compile-end" r.tr_events = None
      then failwith (r.tr_name ^ ": compiles counted but no compile-end event"))
    rows;
  trace_smoke ();
  bgjit_check ();
  dispatch_check ();
  osr_gate ();
  typed_alloc_gate ();
  List.iter
    (fun (name, gate) ->
      pr "check %-18s ok  (%+.2f ns/site, no allocation)\n" (name ^ " gate")
        (gate ()))
    [
      ("obs", obs_gate);
      ("profile", profile_gate);
      ("irtrace", irtrace_gate);
      ("chaos", chaos_gate);
      ("governor", governor_gate);
    ];
  ignore (chaos_soak ~quiet:true ~seeds:[ 42 ] ~calls:120 ());
  Forensics.disable ();
  pr "check chaos soak        ok  (seed 42)\n";
  warmup ~small:true ();
  pr "tiered execution check ok\n"

(* ------------------------------------------------------------------ *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "table1" -> table1 ()
  | "table2-kmeans" ->
    table2 H.Kmeans "Table 2a: k-means clustering" ~with_manual:false ()
  | "table2-logreg" ->
    table2 H.Logreg "Table 2b: logistic regression" ~with_manual:true ()
  | "table2-namescore" ->
    table2 H.Namescore "Table 2c: name score" ~with_manual:false ()
  | "ablate" -> ablate ()
  | "micro" -> micro ()
  | "tiered" -> tiered ()
  | "obs" -> obs_bench ()
  | "profile" -> profile_bench ()
  | "irtrace" -> irtrace_bench ()
  | "bgjit" -> bgjit_bench ()
  | "dispatch" -> dispatch_bench ()
  | "warmup" -> warmup ~small:false ()
  | "chaos" -> chaos_bench ()
  | "chaos-soak" -> chaos_soak_ci ()
  | "check" -> tier_check ()
  | "all" ->
    table1 ();
    table2 H.Kmeans "Table 2a: k-means clustering" ~with_manual:false ();
    table2 H.Logreg "Table 2b: logistic regression" ~with_manual:true ();
    table2 H.Namescore "Table 2c: name score" ~with_manual:false ();
    ablate ();
    micro ();
    tiered ();
    obs_bench ();
    profile_bench ();
    irtrace_bench ();
    bgjit_bench ();
    dispatch_bench ();
    chaos_bench ();
    warmup ~small:false ()
  | other ->
    prerr_endline ("unknown benchmark: " ^ other);
    exit 1
