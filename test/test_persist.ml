(* Tests for the persistent-profile subsystem: snapshot round-trips,
   corrupt/truncated/version-mismatched files degrading to a cold start,
   renamed and re-signatured methods dropping on replay, IC site
   pre-quickening (including soundness under a late [add_method] epoch
   bump), warm replay equivalence under background JIT workers, and
   stale-fingerprint detection when the code changed under the profile. *)

open Vm
open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let await ?(what = "condition") p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

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

(* same name and signature, different body: a warm compile against this
   must produce a different IR fingerprint than the snapshot recorded *)
let hot_src_v2 =
  {|
def hot(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 17 + i * i) % 1000003;
    i = i + 1
  };
  acc
}
|}

let renamed_src =
  {|
def hot2(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
|}

(* reference semantics of [hot_src] / [hot_src_v2], for result checks *)
let expected_hot n seed =
  let acc = ref seed in
  for i = 0 to n - 1 do
    acc := ((!acc * 31) + i) mod 1000003
  done;
  Int !acc

let expected_hot_v2 n seed =
  let acc = ref seed in
  for i = 0 to n - 1 do
    acc := ((!acc * 17) + (i * i)) mod 1000003
  done;
  Int !acc

let heat p =
  let v = ref Null in
  for k = 1 to 10 do
    v := Mini.Front.call p "hot" [| Int 40; Int k |]
  done;
  !v

(* Boot, load [hot_src], run it hot while collecting fingerprints. *)
let hot_runtime () =
  Persist.reset ();
  Persist.collect ();
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p = Mini.Front.load rt hot_src in
  let v = heat p in
  (rt, p, v)

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let rt, p, _ = hot_runtime () in
  (match (Mini.Front.find_function p "hot").mtier with
  | Tier_compiled _ -> ()
  | _ -> Alcotest.fail "hot did not tier up");
  let prof = Persist.capture rt in
  let s = Persist.to_string prof in
  check_bool "records the compiled tier" true (Strutil.contains s " compiled ");
  check_bool "records a fingerprint" false (Strutil.contains s "compiled -");
  (match Persist.of_string s with
  | Ok prof' ->
    check_string "round-trip is byte-identical" s (Persist.to_string prof')
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e));
  check_string "capture is deterministic" s
    (Persist.to_string (Persist.capture rt));
  Persist.reset ()

(* lines of a snapshot, for surgical corruption *)
let split_lines s = String.split_on_char '\n' s

let join_lines ls = String.concat "\n" ls

let test_robustness () =
  let rt, p, _ = hot_runtime () in
  let s = Persist.to_string (Persist.capture rt) in
  Persist.reset ();
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "garbage is an error" true
    (is_err (Persist.of_string "not a profile at all"));
  check_bool "empty is an error" true (is_err (Persist.of_string ""));
  let half = String.sub s 0 (String.length s / 2) in
  check_bool "truncation is an error" true (is_err (Persist.of_string half));
  let bumped =
    match split_lines s with
    | _ :: rest -> join_lines (Printf.sprintf "%%lprof %d" 99 :: rest)
    | [] -> assert false
  in
  check_bool "version bump is an error" true (is_err (Persist.of_string bumped));
  (* unknown record tags are skipped — a newer writer's extension must not
     break this reader (they still count toward the trailer) *)
  let evolved =
    join_lines
      (List.concat_map
         (fun line ->
           match String.split_on_char ' ' line with
           | [ "E"; n ] ->
             [ "Z future-record 42"; Printf.sprintf "E %d" (int_of_string n + 1) ]
           | _ -> [ line ])
         (split_lines s))
  in
  (match (Persist.of_string s, Persist.of_string evolved) with
  | Ok a, Ok b ->
    check_int "unknown record skipped" (Persist.method_count a)
      (Persist.method_count b)
  | _, Error e -> Alcotest.fail ("evolved snapshot rejected: " ^ e)
  | Error e, _ -> Alcotest.fail ("baseline snapshot rejected: " ^ e));
  (* a corrupt *file* degrades to a cold start and leaves the fresh
     runtime untouched *)
  let path = Filename.temp_file "lancet_prof" ".lprof" in
  let oc = open_out path in
  output_string oc half;
  close_out oc;
  let rt2 = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p2 = Mini.Front.load rt2 hot_src in
  check_bool "corrupt file -> no replay" true
    (Persist.replay_file rt2 path = None);
  check_int "cold counters untouched" 0 (Mini.Front.find_function p2 "hot").mcalls;
  check_value "cold run still computes the same result"
    (Mini.Front.call p "hot" [| Int 40; Int 3 |])
    (Mini.Front.call p2 "hot" [| Int 40; Int 3 |]);
  Sys.remove path;
  Persist.reset ()

let test_renamed () =
  let rt, _, _ = hot_runtime () in
  let prof = Persist.capture rt in
  Persist.reset ();
  (* renamed: the recorded symbol no longer resolves *)
  let rt2 = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p2 = Mini.Front.load rt2 renamed_src in
  let st = Persist.replay rt2 prof in
  check_bool "renamed method dropped" true (st.Persist.rs_dropped >= 1);
  check_int "nothing enqueued for it" 0 st.Persist.rs_enqueued;
  check_value "program still runs" (expected_hot 40 1)
    (Mini.Front.call p2 "hot2" [| Int 40; Int 1 |]);
  (* re-signatured: same name, different arity — must also drop *)
  let rt3 = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let _p3 =
    Mini.Front.load rt3
      {|
def hot(n: int): int = {
  var acc = 1;
  var i = 0;
  while (i < n) { acc = acc + i; i = i + 1 };
  acc
}
|}
  in
  let st3 = Persist.replay rt3 prof in
  check_bool "re-signatured method dropped" true (st3.Persist.rs_dropped >= 1);
  check_int "re-signatured method not seeded" 0 st3.Persist.rs_methods;
  Persist.reset ()

(* ------------------------------------------------------------------ *)
(* IC pre-quickening: capture a trained polymorphic site in one runtime,
   replay it into a second, and check state, instruction rewrite and
   dispatch; then a late [add_method] must flush the replayed site
   through the ordinary hierarchy-epoch path. *)

let build_hier rt =
  let base = Classfile.declare_class rt ~name:"PBase" ~fields:[] () in
  ignore
    (Assembler.define_method rt base ~name:"tag" ~nargs:0 (fun b ->
         Assembler.emit b (Const (Int 0));
         Assembler.emit b Retv));
  let subs =
    List.init 3 (fun i ->
        let c =
          Classfile.declare_class rt
            ~name:(Printf.sprintf "PSub%d" i)
            ~super:"PBase" ~fields:[] ()
        in
        ignore
          (Assembler.define_method rt c ~name:"tag" ~nargs:0 (fun b ->
               Assembler.emit b (Const (Int (i + 1)));
               Assembler.emit b Retv));
        c)
  in
  let drv = Classfile.declare_class rt ~name:"PDrv" ~fields:[] () in
  let driver =
    Assembler.define_method rt drv ~name:"call" ~static:true ~nargs:1 (fun b ->
        Assembler.emit b (Load 0);
        Assembler.emit b (Invoke (Virtual ("tag", 0, None)));
        Assembler.emit b Retv)
  in
  (subs, driver)

let test_prequicken () =
  Persist.reset ();
  let rt1 = Natives.boot () in
  let subs1, drv1 = build_hier rt1 in
  let call rt drv c = Interp.call rt drv [| Obj (Runtime.alloc rt c) |] in
  check_value "train sub0" (Int 1) (call rt1 drv1 (List.nth subs1 0));
  check_value "train sub1" (Int 2) (call rt1 drv1 (List.nth subs1 1));
  let prof = Persist.capture rt1 in
  check_int "one site captured" 1 (Persist.site_count prof);
  let rt2 = Natives.boot () in
  let subs2, drv2 = build_hier rt2 in
  let st = Persist.replay rt2 prof in
  check_int "site pre-quickened" 1 st.Persist.rs_sites;
  let site =
    match Inlinecache.site_of rt2 ~mid:drv2.mid ~pc:1 with
    | Some s -> s
    | None -> Alcotest.fail "replayed site not registered"
  in
  check_string "poly state replayed" "poly:{PSub0,PSub1}"
    (Inlinecache.state_string site);
  (match drv2.mcode with
  | Bytecode code ->
    check_bool "instruction quickened offline" true
      (match code.(1) with Invoke (Virtual_ic _) -> true | _ -> false)
  | Native _ -> Alcotest.fail "expected bytecode");
  (* the replayed cache dispatches without a miss *)
  let misses0 = site.cs_misses in
  check_value "dispatch through replayed cache" (Int 1)
    (call rt2 drv2 (List.nth subs2 0));
  check_int "hit, not miss" misses0 site.cs_misses;
  (* late add_method: the hierarchy-epoch bump must flush the replayed
     site like any other, and dispatch must see the new method *)
  let c1 = List.nth subs2 1 in
  ignore
    (Assembler.define_method rt2 c1 ~name:"tag" ~nargs:0 (fun b ->
         Assembler.emit b (Const (Int 42));
         Assembler.emit b Retv));
  check_string "late override flushed the replayed site" "empty"
    (Inlinecache.state_name site.cs_state);
  check_value "dispatch after late override" (Int 42) (call rt2 drv2 c1);
  Persist.reset ()

(* ------------------------------------------------------------------ *)

let test_warm_jit2 () =
  let rt1, p1, v_cold = hot_runtime () in
  let path = Filename.temp_file "lancet_prof" ".lprof" in
  Persist.save rt1 path;
  ignore p1;
  Persist.reset ();
  let rt2, pool =
    Lancet.Api.boot_bg ~tiering:true ~tier_threshold:4 ~jit_threads:2 ()
  in
  let pool = Option.get pool in
  let p2 = Mini.Front.load rt2 hot_src in
  Forensics.enable ();
  let st =
    match Persist.replay_file rt2 path with
    | Some st -> st
    | None -> Alcotest.fail "profile did not load"
  in
  check_bool "warm compile enqueued" true (st.Persist.rs_enqueued >= 1);
  Bgjit.drain pool;
  let m2 = Mini.Front.find_function p2 "hot" in
  await ~what:"warm install" (fun () ->
      match m2.mtier with Tier_compiled _ -> true | _ -> false);
  check_value "warm result equals cold" v_cold (heat p2);
  check_bool "fingerprint validated" true (Persist.warm_matches () >= 1);
  check_int "no stale fingerprints" 0 (Persist.warm_stale ());
  (* the decision journal attributes the warm code to the profile *)
  check_bool "journal has a Profile_replay cause" true
    (List.exists
       (fun d ->
         match d.Forensics.d_cause with
         | Obs.Profile_replay _ -> true
         | _ -> false)
       (Forensics.decisions ()));
  Forensics.disable ();
  Bgjit.shutdown pool;
  Sys.remove path;
  Persist.reset ()

let test_stale_fp () =
  let rt1, _, _ = hot_runtime () in
  let prof = Persist.capture rt1 in
  Persist.reset ();
  let rt2 = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p2 = Mini.Front.load rt2 hot_src_v2 in
  let st = Persist.replay rt2 prof in
  check_bool "warm compile ran" true (st.Persist.rs_enqueued >= 1);
  check_bool "changed body detected as stale" true (Persist.warm_stale () >= 1);
  check_int "no false matches" 0 (Persist.warm_matches ());
  let m2 = Mini.Front.find_function p2 "hot" in
  check_bool "new code installed anyway" true
    (match m2.mtier with Tier_compiled _ -> true | _ -> false);
  (* and it computes the *new* program's semantics *)
  check_value "v2 semantics, not v1" (expected_hot_v2 40 1)
    (Mini.Front.call p2 "hot" [| Int 40; Int 1 |]);
  Persist.reset ()

let suite =
  [
    Alcotest.test_case "snapshot round-trip" `Quick test_roundtrip;
    Alcotest.test_case "corrupt/truncated/version fall back cold" `Quick
      test_robustness;
    Alcotest.test_case "renamed and re-signatured methods drop" `Quick
      test_renamed;
    Alcotest.test_case "IC pre-quickening and late add_method" `Quick
      test_prequicken;
    Alcotest.test_case "warm replay under jit-threads 2" `Quick test_warm_jit2;
    Alcotest.test_case "stale fingerprint detection" `Quick test_stale_fp;
  ]
