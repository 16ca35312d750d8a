(* Tests for Delite and the OptiML stack: op correctness, fusion, SoA, the
   scaling model, and agreement of every Table 2 configuration with the
   native reference. *)

module Exec = Delite.Exec
module Scalar = Delite.Scalar
module Vec = Delite.Vec

let check_float = Alcotest.(check (float 1e-6))
let close ?(eps = 1e-6) name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.9g vs %.9g" name a b)
    true
    (Float.abs (a -. b) <= eps *. (1.0 +. Float.abs a))

(* ---- scalar kernels ---- *)

let test_scalar_eval_fixed () =
  let e = Scalar.(Bin (Add, Elem 0, Bin (Mul, Idx, Konst 2.0))) in
  let k = Scalar.compile e in
  check_float "elem+idx*2" 12.0 (k [| [| 0.; 10. |] |] 1)

let test_scalar_simplify () =
  let e = Scalar.(Bin (Mul, Konst 3.0, Konst 4.0)) in
  (match Scalar.simplify e with
  | Scalar.Konst 12.0 -> ()
  | _ -> Alcotest.fail "constant folding failed");
  match Scalar.(simplify (Bin (Add, Elem 0, Konst 0.0))) with
  | Scalar.Elem 0 -> ()
  | _ -> Alcotest.fail "identity elimination failed"

(* ---- fusion ---- *)

let test_fusion_matches_unfused () =
  let a = Array.init 100 (fun i -> float_of_int i) in
  let b = Array.init 100 (fun i -> float_of_int (i * 2)) in
  let pipe =
    Vec.map
      (Vec.zip (Vec.input a) (Vec.input b)
         Scalar.(Bin (Add, Elem 0, Elem 1)))
      Scalar.(Bin (Mul, Elem 0, Konst 0.5))
  in
  let fused, _ = Vec.collect ~dev:Exec.Seq pipe in
  let unfused = Vec.eval_unfused pipe in
  Alcotest.(check bool) "same results" true (fused = unfused);
  let stats = Vec.fusion_stats pipe in
  Alcotest.(check int) "map+zip stages fused" 2 stats.Vec.stages;
  Alcotest.(check int) "into one loop" 1 stats.Vec.fused_loops

let test_fused_reduce () =
  let a = Array.init 1000 (fun i -> float_of_int i) in
  let r = Vec.sum (Vec.map (Vec.input a) Scalar.(Bin (Mul, Elem 0, Konst 2.0))) in
  let fused, _ = Vec.reduce ~dev:Exec.Seq r in
  close "sum of 2i" (2.0 *. 999.0 *. 1000.0 /. 2.0) fused;
  close "unfused agrees" fused (Vec.eval_unfused_reduce r)

(* ---- devices ---- *)

let test_devices_agree () =
  let a = Array.init 5000 (fun i -> float_of_int (i mod 17)) in
  let r = Vec.sum (Vec.map (Vec.input a) Scalar.(Bin (Add, Elem 0, Konst 1.0))) in
  let seq, _ = Vec.reduce ~dev:Exec.Seq r in
  let sim, t_sim = Vec.reduce ~dev:(Exec.Sim 4) r in
  let dom, _ = Vec.reduce ~dev:(Exec.Domains 2) r in
  let gpu, t_gpu = Vec.reduce ~dev:(Exec.Gpu Exec.default_gpu) r in
  close "sim" seq sim;
  close "domains" seq dom;
  close "gpu" seq gpu;
  Alcotest.(check bool) "sim produced chunks" true (t_sim.Exec.chunks > 1);
  Alcotest.(check bool) "gpu modeled faster than wall" true
    (t_gpu.Exec.modeled < t_gpu.Exec.wall +. 1.0)

let test_lpt () =
  (* 4 equal chunks over 2 workers: makespan = 2 chunks *)
  close "balanced" 2.0 (Exec.lpt_makespan [ 1.0; 1.0; 1.0; 1.0 ] 2);
  close "single worker" 4.0 (Exec.lpt_makespan [ 1.0; 1.0; 1.0; 1.0 ] 1);
  close "dominated by big chunk" 3.0 (Exec.lpt_makespan [ 3.0; 1.0; 1.0; 1.0 ] 2)

let test_ranges () =
  let rs = Exec.ranges 10 3 in
  Alcotest.(check int) "3 ranges" 3 (List.length rs);
  let total = List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 rs in
  Alcotest.(check int) "cover all" 10 total;
  (match rs with
  | (0, _) :: _ -> ()
  | _ -> Alcotest.fail "ranges must start at 0");
  Alcotest.(check int) "n < chunks" 2 (List.length (Exec.ranges 2 5))

let test_soa_roundtrip () =
  let aos = Array.init 10 (fun i -> (float_of_int i, float_of_int (i * i))) in
  let soa = Delite.Soa.of_aos aos in
  Alcotest.(check bool) "roundtrip" true (Delite.Soa.to_aos soa = aos);
  Alcotest.(check int) "length" 10 (Delite.Soa.length soa)

(* ---- rows ops ---- *)

let test_sum_rows () =
  (* sum of rows of a 4x3 matrix *)
  let data = Array.init 12 float_of_int in
  let out, _ =
    Delite.Rows.sum_rows ~dev:(Exec.Sim 2) ~start:0 ~stop:4 ~size:3
      ~block:(fun i tmp ->
        for j = 0 to 2 do
          tmp.(j) <- data.((i * 3) + j)
        done)
  in
  Alcotest.(check bool) "column sums" true (out = [| 18.0; 22.0; 26.0 |])

let test_group_sum () =
  let sums, counts, _ =
    Delite.Rows.group_sum ~dev:Exec.Seq ~start:0 ~stop:10 ~groups:2 ~size:1
      ~key:(fun i -> i mod 2)
      ~block:(fun i acc _ -> acc.(0) <- acc.(0) +. float_of_int i)
  in
  close "even sum" 20.0 sums.(0).(0);
  close "odd sum" 25.0 sums.(1).(0);
  Alcotest.(check int) "even count" 5 counts.(0);
  Alcotest.(check int) "odd count" 5 counts.(1)

(* ---- Table 2 configurations agree ---- *)

let small_sizes =
  {
    Optiml.Harness.km_rows = 120;
    km_cols = 4;
    km_k = 3;
    km_iters = 2;
    lr_rows = 150;
    lr_cols = 5;
    lr_iters = 2;
    ns_n = 500;
  }

let check_app app configs eps () =
  let expect = Optiml.Harness.reference app small_sizes in
  List.iter
    (fun cfg ->
      let r, _ = Optiml.Harness.run app cfg small_sizes in
      close ~eps (Optiml.Harness.config_name cfg) expect r)
    configs

let test_kmeans_configs =
  check_app Optiml.Harness.Kmeans
    Optiml.Harness.
      [
        Library;
        Lancet_delite (Exec.Sim 2);
        Delite_standalone (Exec.Sim 2);
        Cpp Exec.Seq;
        Cpp (Exec.Sim 4);
      ]
    1e-9

let test_logreg_configs =
  check_app Optiml.Harness.Logreg
    Optiml.Harness.
      [
        Library;
        Lancet_delite (Exec.Sim 2);
        Delite_standalone (Exec.Sim 2);
        Manual_opt (Exec.Sim 2);
        Cpp Exec.Seq;
      ]
    1e-6

let test_namescore_configs =
  check_app Optiml.Harness.Namescore
    Optiml.Harness.
      [ Library; Lancet_delite (Exec.Sim 2); Delite_standalone (Exec.Sim 2); Cpp Exec.Seq ]
    1e-9

(* the macro really rewired the call: the compiled graph contains a Delite op *)
let test_macro_in_graph () =
  let rt = Lancet.Api.boot () in
  Optiml.Macros.install rt;
  let p = Mini.Front.load rt Optiml.Mini_lib.all in
  let names = [| Vm.Types.Str "ABC"; Vm.Types.Str "D" |] in
  let thunk = Mini.Front.call p "make_namescore" [| Arr names |] in
  let compiled = Lancet.Compiler.compile_value rt thunk in
  (match !Lancet.Compiler.last_graph with
  | Some g ->
    let s = Lms.Pretty.graph_to_string g in
    Alcotest.(check bool) "delite op present" true
      (Util.contains_sub s "delite.total_score");
    Alcotest.(check bool) "no Pair allocation" false (Util.contains_sub s "new Pair")
  | None -> Alcotest.fail "no graph");
  (* and it computes the right thing: 1*score(ABC) + 2*score(D) *)
  let expect = (1.0 *. (1. +. 2. +. 3.)) +. (2.0 *. 4.0) in
  match Vm.Interp.call_closure rt compiled [||] with
  | Float f -> close "macro result" expect f
  | _ -> Alcotest.fail "expected float"

(* property: fused == unfused on random pipelines *)
let gen_pipeline =
  QCheck.Gen.(
    let arr = array_size (return 50) (float_range (-10.) 10.) in
    let rec build k src =
      if k <= 0 then return src
      else
        oneof
          [
            (let* body =
               oneofl
                 Scalar.
                   [
                     Bin (Add, Elem 0, Konst 1.5);
                     Bin (Mul, Elem 0, Konst 0.5);
                     Bin (Max, Elem 0, Konst 0.0);
                     Un (Abs, Elem 0);
                     Bin (Add, Elem 0, Idx);
                   ]
             in
             build (k - 1) (Vec.map src body));
            (let* b = arr in
             let* body =
               oneofl
                 Scalar.
                   [ Bin (Add, Elem 0, Elem 1); Bin (Mul, Elem 0, Elem 1) ]
             in
             build (k - 1) (Vec.zip src (Vec.input b) body));
          ]
    in
    let* a = arr in
    let* k = int_range 1 5 in
    build k (Vec.input a))

let prop_fusion =
  QCheck.Test.make ~name:"fused pipeline == unfused" ~count:100
    (QCheck.make ~print:(fun _ -> "<pipeline>") gen_pipeline)
    (fun pipe ->
      let fused, _ = Vec.collect ~dev:Exec.Seq pipe in
      let unfused = Vec.eval_unfused pipe in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) fused unfused)

(* Closure classes of two runtimes can share a class id; the bridge must
   still run each runtime's own code. *)
let test_bridge_cache_per_runtime () =
  let closure body =
    let rt = Lancet.Api.boot () in
    let p =
      Mini.Front.load rt
        ("def mk(): (float) -> float = fun (x: float) => " ^ body)
    in
    (rt, Mini.Front.call p "mk" [||])
  in
  let rt1, c1 = closure "x + 1.0" and rt2, c2 = closure "x * 10.0" in
  let cid = function Vm.Types.Obj o -> o.ocls.cid | _ -> -1 in
  Alcotest.(check int) "same class id" (cid c1) (cid c2);
  let call rt c = Vm.Value.to_float (Optiml.Bridge.call1 rt c (Float 1.0)) in
  check_float "first runtime: x + 1.0" 2.0 (call rt1 c1);
  check_float "second runtime: x * 10.0" 10.0 (call rt2 c2)

let suite =
  [
    Alcotest.test_case "scalar-eval" `Quick test_scalar_eval_fixed;
    Alcotest.test_case "scalar-simplify" `Quick test_scalar_simplify;
    Alcotest.test_case "fusion" `Quick test_fusion_matches_unfused;
    Alcotest.test_case "fused-reduce" `Quick test_fused_reduce;
    Alcotest.test_case "devices-agree" `Quick test_devices_agree;
    Alcotest.test_case "lpt" `Quick test_lpt;
    Alcotest.test_case "ranges" `Quick test_ranges;
    Alcotest.test_case "soa" `Quick test_soa_roundtrip;
    Alcotest.test_case "sum-rows" `Quick test_sum_rows;
    Alcotest.test_case "group-sum" `Quick test_group_sum;
    Alcotest.test_case "kmeans-configs" `Slow test_kmeans_configs;
    Alcotest.test_case "logreg-configs" `Slow test_logreg_configs;
    Alcotest.test_case "namescore-configs" `Slow test_namescore_configs;
    Alcotest.test_case "macro-in-graph" `Quick test_macro_in_graph;
    Alcotest.test_case "bridge-cache-per-runtime" `Quick
      test_bridge_cache_per_runtime;
    QCheck_alcotest.to_alcotest prop_fusion;
  ]

(* properties of the scheduling model *)
let prop_lpt =
  QCheck.Test.make ~name:"LPT makespan bounds" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (float_range 0.001 10.0))
        (int_range 1 16))
    (fun (chunks, workers) ->
      let ms = Exec.lpt_makespan chunks workers in
      let total = List.fold_left ( +. ) 0.0 chunks in
      let biggest = List.fold_left Float.max 0.0 chunks in
      (* lower bounds: max chunk and perfect split; upper: serial *)
      ms +. 1e-9 >= biggest
      && ms +. 1e-9 >= total /. float_of_int workers
      && ms <= total +. 1e-9
      && Exec.lpt_makespan chunks 1 >= ms -. 1e-9)

let prop_ranges =
  QCheck.Test.make ~name:"ranges partition [0,n)" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 1 64))
    (fun (n, chunks) ->
      let rs = Exec.ranges n chunks in
      let covered = List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 rs in
      let contiguous =
        let rec go last = function
          | [] -> true
          | (lo, hi) :: rest -> lo = last && hi >= lo && go hi rest
        in
        go 0 rs
      in
      covered = n && contiguous)

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest prop_lpt; QCheck_alcotest.to_alcotest prop_ranges ]
