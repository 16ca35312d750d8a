(* Query/SQL substrate (Sec. 3.5), the JS cross-compiler, code caching
   (Sec. 3.1) and stable search trees (Sec. 3.2). *)

open Vm.Types

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ---- query / SQL ---- *)

let items () =
  Query.make_table ~name:"t_item" ~cols:[ "id"; "price"; "name" ]
    ~rows:
      [
        [| Query.S_int 1; Query.S_int 10; Query.S_str "apple" |];
        [| Query.S_int 2; Query.S_int 0; Query.S_str "free" |];
        [| Query.S_int 3; Query.S_int 25; Query.S_str "pear" |];
        [| Query.S_int 4; Query.S_int 5; Query.S_str "o'brien" |];
      ]

let orders () =
  Query.make_table ~name:"t_order" ~cols:[ "oid"; "item" ]
    ~rows:
      [
        [| Query.S_int 100; Query.S_int 1 |];
        [| Query.S_int 101; Query.S_int 1 |];
        [| Query.S_int 102; Query.S_int 3 |];
      ]

let test_sql_generation () =
  let t = items () in
  let q = Query.(Filter (Scan t, P_cmp ("price", Cgt, S_int 0))) in
  check_str "where clause" "SELECT * FROM t_item WHERE price > 0"
    (Query.to_sql q);
  let q2 = Query.(Project (Filter (Scan t, P_cmp ("name", Ceq, S_str "o'brien")), [ "id" ])) in
  check_str "projection + escaping"
    "SELECT id FROM t_item WHERE name = 'o''brien'" (Query.to_sql q2);
  check_str "count" "SELECT COUNT(*) FROM t_item WHERE price > 0"
    (Query.agg_sql (Query.Count q));
  check_str "sum" "SELECT SUM(price) FROM t_item"
    (Query.agg_sql (Query.Sum (Query.Scan t, "price")))

let test_query_eval () =
  let t = items () in
  let q = Query.(Filter (Scan t, P_cmp ("price", Cgt, S_int 0))) in
  check_int "3 priced items" 3 (Query.count q);
  Alcotest.(check (float 1e-9)) "sum" 40.0 (Query.sum q "price")

let test_shared_aggregate () =
  (* paper: count + sum on the same result normally run the query twice *)
  let t = items () in
  let q = Query.(Filter (Scan t, P_cmp ("price", Cgt, S_int 0))) in
  Query.reset_scans q;
  ignore (Query.count q);
  ignore (Query.sum q "price");
  check_int "naive: two scans" 2 (Query.scans_of q);
  Query.reset_scans q;
  let s = Query.share q in
  ignore (Query.shared_count s);
  Alcotest.(check (float 1e-9)) "shared sum" 40.0 (Query.shared_sum s "price");
  check_int "shared: one scan" 1 (Query.scans_of q)

let test_avalanche () =
  let it = items () and od = orders () in
  let outer = Query.Scan it and inner = Query.Scan od in
  Query.reset_scans inner;
  let naive =
    Query.nested_naive ~outer ~inner ~inner_key:"item" ~outer_key:"id"
  in
  check_int "avalanche: one inner query per outer row" 4
    (Query.scans_of inner);
  Query.reset_scans inner;
  let indexed =
    Query.nested_indexed ~outer ~inner ~inner_key:"item" ~outer_key:"id"
  in
  check_int "indexed: a single inner scan" 1 (Query.scans_of inner);
  (* results agree *)
  check_int "same outer count" (List.length naive) (List.length indexed);
  List.iter2
    (fun (r1, l1) (r2, l2) ->
      check_bool "same outer row" true (r1 = r2);
      check_bool "same inner rows" true (l1 = l2))
    naive indexed;
  (* item 1 has two orders *)
  let _, orders_for_1 = List.nth indexed 0 in
  check_int "orders for item 1" 2 (List.length orders_for_1)

(* ---- JS cross-compilation ---- *)

let koch_source =
  {|
def leg(c: Context, n: int, len: float): unit = {
  if (n == 0) { c.lineTo(len, 0.0) }
  else {
    leg(c, n - 1, len / 3.0);
    c.rotate(0.0 - 1.0471975512);
    leg(c, n - 1, len / 3.0);
    c.rotate(2.0943951024);
    leg(c, n - 1, len / 3.0);
    c.rotate(0.0 - 1.0471975512);
    leg(c, n - 1, len / 3.0)
  }
}

def make_snowflake(doc: Document): (float) -> unit = fun (len: float) =>
  Lancet.inline_always(fun () => {
    val canvas = doc.getCanvas("canvas");
    val c = canvas.getContext("2d");
    c.save();
    c.beginPath();
    c.moveTo(0.0, 0.0);
    leg(c, 2, len);
    c.rotate(0.0 - 2.0943951024);
    leg(c, 2, len);
    c.rotate(0.0 - 2.0943951024);
    leg(c, 2, len);
    c.closePath();
    c.stroke();
    c.restore()
  })

def snowflake_for(doc: Document): (float) -> unit = make_snowflake(doc)
|}

let test_js_crosscompile () =
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt (Jsdom.dom_source ^ koch_source) in
  Jsdom.install rt;
  let doc_cls = Vm.Classfile.find_class rt "Document" in
  let doc = Obj (Vm.Runtime.alloc rt doc_cls) in
  let clo = Mini.Front.call p "snowflake_for" [| doc |] in
  let js = Jsdom.cross_compile rt ~name:"snowflake" clo ~nargs:1 in
  check_bool "has function header" true
    (Util.contains_sub js "function snowflake(p0)");
  check_bool "getContext call" true (Util.contains_sub js ".getContext(\"2d\")");
  check_bool "lineTo calls" true (Util.contains_sub js ".lineTo(");
  check_bool "rotate calls" true (Util.contains_sub js ".rotate(");
  (* recursion with constant depth unfolds: n==0 tests are gone *)
  check_bool "no residual depth tests" false (Util.contains_sub js "=== 0 ?");
  (* rough sanity: 2-level Koch has 3*16 lineTo segments + moveTo *)
  let count_sub s sub =
    let n = ref 0 in
    let ls = String.length sub in
    for i = 0 to String.length s - ls do
      if String.sub s i ls = sub then incr n
    done;
    !n
  in
  check_int "48 segments" 48 (count_sub js ".lineTo(")

(* ---- code cache: calcJIT / calcHOT (Sec. 3.1) ---- *)

let test_calc_jit () =
  let rt, p = Extras.boot_code_cache () in
  let jit = Mini.Front.call p "make_calc_jit" [||] in
  let call x y =
    Vm.Value.to_int (Vm.Interp.call_closure rt jit [| Int x; Int y |])
  in
  let reference x y =
    Vm.Value.to_int (Mini.Front.call p "calc" [| Int x; Int y |])
  in
  let c0 = !Lancet.Compiler.count_compiles in
  check_int "calcJIT(3, 5)" (reference 3 5) (call 3 5);
  let c1 = !Lancet.Compiler.count_compiles in
  check_bool "first call compiled" true (c1 > c0);
  check_int "calcJIT(3, 9) cache hit" (reference 3 9) (call 3 9);
  check_int "no recompilation on hit" c1 !Lancet.Compiler.count_compiles;
  check_int "calcJIT(7, 2) new entry" (reference 7 2) (call 7 2);
  check_bool "second x compiled" true (!Lancet.Compiler.count_compiles > c1)

let test_calc_hot () =
  let rt, p = Extras.boot_code_cache () in
  let hot = Mini.Front.call p "make_calc_hot" [| Int 3 |] in
  let call x y =
    Vm.Value.to_int (Vm.Interp.call_closure rt hot [| Int x; Int y |])
  in
  let reference x y =
    Vm.Value.to_int (Mini.Front.call p "calc" [| Int x; Int y |])
  in
  let c0 = !Lancet.Compiler.count_compiles in
  check_int "cold 1" (reference 5 1) (call 5 1);
  check_int "cold 2" (reference 5 2) (call 5 2);
  check_int "below threshold: no compilation" c0
    !Lancet.Compiler.count_compiles;
  check_int "hot 3" (reference 5 3) (call 5 3);
  check_bool "compiled at threshold" true
    (!Lancet.Compiler.count_compiles > c0);
  check_int "hot 4" (reference 5 4) (call 5 4)

(* ---- stable search tree (Sec. 3.2) ---- *)

let test_tree_lookup_compiles_away () =
  let rt, p = Extras.boot_tree () in
  let keys = Arr (Array.map (fun i -> Int i) [| 50; 30; 70; 20; 40; 60; 80 |]) in
  let values = Arr (Array.map (fun i -> Int (i * 10)) [| 50; 30; 70; 20; 40; 60; 80 |]) in
  let tree = Mini.Front.call p "build_tree" [| keys; values |] in
  let lookup = Mini.Front.call p "make_lookup" [| tree |] in
  let call k = Vm.Value.to_int (Vm.Interp.call_closure rt lookup [| Int k |]) in
  check_int "hit 40" 400 (call 40);
  check_int "hit 80" 800 (call 80);
  check_int "miss" (-1) (call 55);
  (* the compiled lookup is pure decision code: no heap reads at all *)
  match !Lancet.Compiler.last_graph with
  | Some g ->
    let s = Lms.Pretty.graph_to_string g in
    check_bool "no getfield in compiled lookup" false
      (Util.contains_sub s "getfield");
    check_bool "no residual calls" false (Util.contains_sub s "tree_lookup")
  | None -> Alcotest.fail "no graph"

let test_tree_update_recompile () =
  let rt, p = Extras.boot_tree () in
  let keys = Arr [| Int 10; Int 5 |] in
  let values = Arr [| Int 1; Int 2 |] in
  let tree = Mini.Front.call p "build_tree" [| keys; values |] in
  let lookup = Mini.Front.call p "make_lookup" [| tree |] in
  let call l k = Vm.Value.to_int (Vm.Interp.call_closure rt l [| Int k |]) in
  check_int "before update: 20 missing" (-1) (call lookup 20);
  (* structural update produces a new tree; recompile the lookup *)
  let tree2 = Mini.Front.call p "tree_insert" [| tree; Int 20; Int 3 |] in
  let lookup2 = Mini.Front.call p "make_lookup" [| tree2 |] in
  check_int "after update: 20 found" 3 (call lookup2 20);
  check_int "old keys still found" 1 (call lookup2 10);
  check_int "old compiled lookup unchanged" (-1) (call lookup 20)

let suite =
  [
    Alcotest.test_case "sql-generation" `Quick test_sql_generation;
    Alcotest.test_case "query-eval" `Quick test_query_eval;
    Alcotest.test_case "shared-aggregate" `Quick test_shared_aggregate;
    Alcotest.test_case "avalanche" `Quick test_avalanche;
    Alcotest.test_case "js-crosscompile" `Quick test_js_crosscompile;
    Alcotest.test_case "calc-jit" `Quick test_calc_jit;
    Alcotest.test_case "calc-hot" `Quick test_calc_hot;
    Alcotest.test_case "tree-lookup" `Quick test_tree_lookup_compiles_away;
    Alcotest.test_case "tree-update" `Quick test_tree_update_recompile;
  ]
