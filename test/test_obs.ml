(* Tests for the observability layer: the event bus fast path, ring-buffer
   wraparound, deterministic event sequences for promoted / recompiled /
   evicted methods, Chrome trace JSON validity, per-method profiles and the
   disassembly marker used to render deopt sites. *)

open Vm.Types

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let boot_tiered ?(threshold = 4) ?(cache = 512) () =
  Lancet.Api.boot ~tiering:true ~tier_threshold:threshold
    ~tier_cache_size:cache ()

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

let stable_src =
  {|
var fast: bool = true
def set_fast(b: bool): unit = { fast = b }
def f(x: int): int = if (Lancet.stable(fun () => fast)) x * 10 else x + 1
|}

let two_hot_src =
  {|
def a(n: int): int = { var s = 0; for (i <- 0 until n) { s = s + i * 3 }; s }
def b(n: int): int = { var s = 1; for (i <- 0 until n) { s = s + i * 5 }; s }
|}

(* Record every event into a ring while [f] runs. *)
let record ?(capacity = 65536) f =
  let ring = Obs.Ring.create ~capacity () in
  Obs.with_sink (Obs.Ring.sink ring) f;
  Obs.Ring.events ring

(* [expected] must appear within [kinds] in order (other kinds may be
   interleaved). *)
let check_subsequence label (expected : string list) (kinds : string list) =
  let rec go exp ks =
    match (exp, ks) with
    | [], _ -> ()
    | e :: _, [] ->
      Alcotest.failf "%s: missing %s (saw: %s)" label e
        (String.concat " " kinds)
    | e :: erest, k :: krest ->
      if e = k then go erest krest else go exp krest
  in
  go expected kinds

(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  let ring = Obs.Ring.create ~capacity:4 () in
  let s = Obs.Ring.sink ring in
  Obs.attach s;
  Fun.protect ~finally:(fun () -> Obs.detach s) (fun () ->
      for i = 1 to 10 do
        Obs.emit (Obs.Span_end { name = string_of_int i; cat = "t"; ms = 0. })
      done);
  check_int "total seen" 10 (Obs.Ring.seen ring);
  let names =
    List.map
      (function Obs.Span_end { name; _ } -> name | _ -> "?")
      (Obs.Ring.events ring)
  in
  Alcotest.(check (list string)) "last 4, oldest first" [ "7"; "8"; "9"; "10" ]
    names

let test_no_sink_fast_path () =
  check_bool "disabled with no sink" false !Obs.enabled;
  let ring = Obs.Ring.create () in
  (* nothing attached: emit must deliver nothing, span must not record *)
  Obs.emit (Obs.Cache_evict { meth = "x"; mid = 0; occ = 0; cap = 1 });
  Obs.span "dead" (fun () -> ());
  check_int "nothing recorded" 0 (Obs.Ring.seen ring);
  let s = Obs.Ring.sink ring in
  Obs.attach s;
  check_bool "enabled after attach" true !Obs.enabled;
  Obs.detach s;
  check_bool "disabled after detach" false !Obs.enabled;
  (* a tiered workload with no sink attached emits nothing anywhere *)
  let rt = boot_tiered () in
  let p = Mini.Front.load rt hot_src in
  for k = 0 to 9 do
    ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
  done;
  check_int "still nothing recorded" 0 (Obs.Ring.seen ring);
  check_bool "workload compiled" true (rt.tiering.t_compiles >= 1)

(* A promoted method produces promote -> compile-start -> compile-end ->
   install, in that order, carrying its method id. *)
let test_promotion_sequence () =
  let rt = boot_tiered ~threshold:4 () in
  let p = Mini.Front.load rt hot_src in
  let events =
    record (fun () ->
        for k = 0 to 9 do
          ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
        done)
  in
  let m = Mini.Front.find_function p "hot" in
  let mine =
    List.filter
      (fun ev ->
        match ev with
        | Obs.Tier_promote { mid; _ }
        | Obs.Compile_start { mid; _ }
        | Obs.Cache_install { mid; _ } ->
          mid = m.mid
        | Obs.Compile_end c -> c.Obs.ci_mid = m.mid
        | _ -> false)
      events
  in
  check_subsequence "promotion"
    [ "tier-promote"; "compile-start"; "compile-end"; "cache-install" ]
    (List.map Obs.kind_to_string mine);
  List.iter
    (fun ev ->
      match ev with
      | Obs.Compile_end c ->
        check_bool "label" true (String.ends_with ~suffix:".hot" c.Obs.ci_meth);
        check_int "tier" 1 c.Obs.ci_tier;
        check_bool "backend named" true
          (c.Obs.ci_backend = "typed" || c.Obs.ci_backend = "closure");
        check_bool "nodes counted" true (c.Obs.ci_nodes_in > 0);
        check_bool "opt does not grow the graph" true
          (c.Obs.ci_nodes_out <= c.Obs.ci_nodes_in);
        check_bool "time non-negative" true (c.Obs.ci_ms >= 0.0)
      | _ -> ())
    mine

(* A failed stable guard produces deopt(recompile) -> invalidate ->
   compile-start/end -> install, and t_compiles counts both builds. *)
let test_deopt_recompile_sequence () =
  let rt = boot_tiered ~threshold:1 () in
  let p = Mini.Front.load rt stable_src in
  ignore (Mini.Front.call p "f" [| Int 3 |]);
  ignore (Mini.Front.call p "f" [| Int 3 |]);
  (* threshold 1 also promotes set_fast and the stable-guard closure, so
     compare against a snapshot rather than an absolute count *)
  let compiles0 = rt.tiering.t_compiles in
  check_bool "initial compile counted" true (compiles0 >= 1);
  ignore (Mini.Front.call p "set_fast" [| Vm.Value.of_bool false |]);
  let events =
    record (fun () ->
        Alcotest.check
          (Alcotest.testable Vm.Value.pp Vm.Value.equal)
          "recompiled result" (Int 4)
          (Mini.Front.call p "f" [| Int 3 |]))
  in
  let m = Mini.Front.find_function p "f" in
  let mine =
    List.filter
      (fun ev ->
        match ev with
        | Obs.Deopt { mid; _ }
        | Obs.Cache_invalidate { mid; _ }
        | Obs.Compile_start { mid; _ }
        | Obs.Cache_install { mid; _ } ->
          mid = m.mid
        | Obs.Compile_end c -> c.Obs.ci_mid = m.mid
        | _ -> false)
      events
  in
  check_subsequence "recompile"
    [ "deopt"; "cache-invalidate"; "compile-start"; "compile-end";
      "cache-install" ]
    (List.map Obs.kind_to_string mine);
  (match
     List.find_opt (function Obs.Deopt _ -> true | _ -> false) mine
   with
  | Some (Obs.Deopt { kind; tag; pc; _ }) ->
    check_bool "recompile exit" true (kind = Obs.Recompile);
    check_string "stable tag" "stable" tag;
    check_bool "pc recorded" true (pc >= 0)
  | _ -> Alcotest.fail "no deopt event");
  check_bool "recompile counted" true (rt.tiering.t_compiles > compiles0)

let test_eviction_events () =
  let rt = boot_tiered ~threshold:1 ~cache:1 () in
  let p = Mini.Front.load rt two_hot_src in
  let events =
    record (fun () ->
        for _ = 1 to 4 do
          ignore (Mini.Front.call p "a" [| Int 20 |]);
          ignore (Mini.Front.call p "b" [| Int 20 |])
        done)
  in
  let evicts =
    List.length
      (List.filter (function Obs.Cache_evict _ -> true | _ -> false) events)
  in
  check_bool "evictions observed" true (evicts >= 1);
  check_int "one event per eviction" rt.tiering.t_evictions evicts

(* ------------------------------------------------------------------ *)

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let c = ref 0 in
  for i = 0 to n - m do
    if String.sub s i m = sub then incr c
  done;
  !c

let test_chrome_trace () =
  let chrome = Obs.Chrome.create () in
  Obs.with_sink (Obs.Chrome.sink chrome) (fun () ->
      let rt = boot_tiered ~threshold:4 () in
      let p = Mini.Front.load rt hot_src in
      for k = 0 to 9 do
        ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
      done);
  let json = Obs.Chrome.dump chrome in
  (match Obs.Json.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid trace JSON: %s" e);
  check_bool "has compile-end" true (Vm.Strutil.contains json "compile-end");
  check_bool "has trace viewer keys" true
    (Vm.Strutil.contains json "\"traceEvents\"");
  (* duration events must balance for chrome://tracing to nest them *)
  check_int "B/E balanced"
    (count_sub json "\"ph\":\"B\"")
    (count_sub json "\"ph\":\"E\"");
  (* escaping: a name with quotes and newlines survives validation *)
  let c2 = Obs.Chrome.create () in
  Obs.with_sink (Obs.Chrome.sink c2) (fun () ->
      Obs.emit (Obs.Span_begin { name = "we\"ird\n\tname"; cat = "t" });
      Obs.emit (Obs.Span_end { name = "we\"ird\n\tname"; cat = "t"; ms = 1. }));
  match Obs.Json.validate (Obs.Chrome.dump c2) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "escaping broke JSON: %s" e

let test_profile () =
  let profile = Obs.Profile.create () in
  let rt = boot_tiered ~threshold:4 () in
  let p = Mini.Front.load rt hot_src in
  Obs.with_sink (Obs.Profile.sink profile) (fun () ->
      for k = 0 to 199 do
        ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
      done);
  let m = Mini.Front.find_function p "hot" in
  (match Obs.Profile.find profile m.mid with
  | None -> Alcotest.fail "hot method missing from profile"
  | Some e ->
    check_bool "label" true
      (String.ends_with ~suffix:".hot" e.Obs.Profile.pe_meth);
    check_int "one promotion" 1 e.Obs.Profile.pe_promotes;
    check_int "one compile" 1 e.Obs.Profile.pe_compiles;
    check_int "one install" 1 e.Obs.Profile.pe_installs;
    check_int "no deopts" 0 e.Obs.Profile.pe_deopts;
    check_bool "compile time accumulated" true (e.Obs.Profile.pe_compile_ms > 0.);
    check_bool "compiled calls sampled" true (e.Obs.Profile.pe_exec_calls > 0));
  let table = Obs.Profile.table profile in
  check_bool "table lists the method" true (Vm.Strutil.contains table ".hot")

let test_spans () =
  let events =
    record (fun () ->
        Obs.span ~cat:"test" "outer" (fun () ->
            Obs.span ~cat:"test" "inner" (fun () -> ());
            (try Obs.span ~cat:"test" "raises" (fun () -> failwith "boom")
             with Failure _ -> ())))
  in
  let kinds = List.map Obs.kind_to_string events in
  Alcotest.(check (list string)) "nesting"
    [ "span-begin"; "span-begin"; "span-end"; "span-begin"; "span-end";
      "span-end" ]
    kinds;
  (* the exception-path span still closed *)
  match List.nth events 4 with
  | Obs.Span_end { name; _ } -> check_string "raises closed" "raises" name
  | _ -> Alcotest.fail "expected span-end for raises"

let test_json_validator () =
  let ok s =
    match Obs.Json.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "rejected valid %S: %s" s e
  in
  let bad s =
    match Obs.Json.validate s with
    | Ok () -> Alcotest.failf "accepted invalid %S" s
    | Error _ -> ()
  in
  ok {|{"a": [1, -2.5, 3e4], "b": "x\"yA", "c": null, "d": [true, false]}|};
  ok "[]";
  ok "  {  }  ";
  ok {|"just a string"|};
  bad "";
  bad "{";
  bad {|{"a": }|};
  bad {|{"a": 1,}|};
  bad "[1, 2";
  bad {|{"a": 1} trailing|};
  bad {|{'a': 1}|}

let test_disasm_mark () =
  let rt = Vm.Natives.boot () in
  let p = Mini.Front.load rt hot_src in
  let m = Mini.Front.find_function p "hot" in
  let plain = Vm.Disasm.method_to_string m in
  check_bool "no marker by default" false (Vm.Strutil.contains plain "=>");
  let marked = Vm.Disasm.method_to_string ~mark:2 m in
  check_bool "marker present" true (Vm.Strutil.contains marked "=>");
  check_bool "marker at pc 2" true (Vm.Strutil.contains marked "=>    2:")

(* An explicit compile's Compile_end names the backend that compiled its
   own graph.  OptiML name score with accelerator macros: the macro for
   ArrayOps.total_score compiles ArrayOps.score while the outer thunk is
   still staging, and the thunk's graph holds a Delite extension op, which
   the typed lowering runs as one boxed step: both compile typed, with no
   fallback, and the thunk's typed schedule holds the Delite op. *)
let test_tier0_backend_label () =
  let sizes = { Optiml.Harness.default_sizes with Optiml.Harness.ns_n = 50 } in
  Irtrace.enable ();
  let evs, snapshots =
    Fun.protect ~finally:Irtrace.disable (fun () ->
        let evs =
          record (fun () ->
              ignore
                (Optiml.Harness.run Optiml.Harness.Namescore
                   (Optiml.Harness.Lancet_delite Delite.Exec.Seq) sizes))
        in
        (evs, Irtrace.snapshots ()))
  in
  let ends =
    List.filter_map
      (function Obs.Compile_end c when c.Obs.ci_tier = 0 -> Some c | _ -> None)
      evs
  in
  let find what p =
    match List.find_opt (fun c -> p c.Obs.ci_meth) ends with
    | Some c -> c
    | None -> Alcotest.failf "no tier-0 compile-end for %s" what
  in
  let score = find "ArrayOps.score" (String.equal "ArrayOps.score") in
  check_string "nested compile backend" "typed" score.Obs.ci_backend;
  let outer =
    find "the thunk" (fun l ->
        String.starts_with ~prefix:"Fn$" l
        && String.ends_with ~suffix:".apply" l)
  in
  check_string "outer compile backend" "typed" outer.Obs.ci_backend;
  check_bool "outer compile has no fallback" true (outer.Obs.ci_fallback = None);
  check_bool "a typed schedule holds the Delite op" true
    (List.exists
       (fun sn ->
         sn.Irtrace.sn_phase = "schedule:typed"
         && List.exists
              (fun (kind, _) -> String.starts_with ~prefix:"delite." kind)
              sn.Irtrace.sn_ops)
       snapshots)

let suite =
  [
    Alcotest.test_case "ring-wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "no-sink-fast-path" `Quick test_no_sink_fast_path;
    Alcotest.test_case "promotion-sequence" `Quick test_promotion_sequence;
    Alcotest.test_case "deopt-recompile-sequence" `Quick
      test_deopt_recompile_sequence;
    Alcotest.test_case "eviction-events" `Quick test_eviction_events;
    Alcotest.test_case "chrome-trace" `Quick test_chrome_trace;
    Alcotest.test_case "profile" `Quick test_profile;
    Alcotest.test_case "spans" `Quick test_spans;
    Alcotest.test_case "json-validator" `Quick test_json_validator;
    Alcotest.test_case "disasm-mark" `Quick test_disasm_mark;
    Alcotest.test_case "tier0-backend-label" `Quick test_tier0_backend_label;
  ]
