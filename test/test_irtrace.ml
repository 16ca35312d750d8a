(* Tests for pipeline introspection: per-phase IR snapshots must cover the
   whole pipeline with consistent node counts and per-line attribution, the
   structural diff must show what each pass created/eliminated, the missed-
   optimization recorder must produce distinct, correctly-located coach
   reasons, and the (mid, spec, phase) fingerprint must be bit-stable
   across synchronous recompiles and background-worker compiles.  Disabled
   mode must record nothing. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let contains = Vm.Strutil.contains

(* Alcotest runs cases sequentially; always disable on the way out so one
   case's store cannot leak into the next. *)
let with_irtrace ?keep_text f =
  Irtrace.enable ?keep_text ();
  Fun.protect ~finally:Irtrace.disable f

let await ?(what = "condition") p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

(* A hot loop with dead pure arithmetic (line 3): DCE eliminates it, so the
   stage -> dce diff must show a negative node delta attributed to line 3. *)
let loop_src =
  {|def work(n: int): int = {
  var s = 0;
  for (i <- 0 until n) { val waste = (i + n) * 3 - i * 2; s = s + i };
  s
}
def main(): int = { var t = 0; for (r <- 0 until 64) { t = t + work(50) }; t }
|}

let snapshots_for meth =
  List.filter
    (fun sn -> contains sn.Irtrace.sn_meth meth)
    (Irtrace.snapshots ())

let find_phase sns phase =
  match List.find_opt (fun sn -> sn.Irtrace.sn_phase = phase) sns with
  | Some sn -> sn
  | None -> Alcotest.failf "no %s snapshot" phase

let test_snapshots_and_diff () =
  with_irtrace (fun () ->
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
      let p = Mini.Front.load rt loop_src in
      ignore (Mini.Front.call p "main" [||]);
      let sns = snapshots_for "work" in
      check_bool "snapshots recorded" true (List.length sns >= 4);
      let stage = find_phase sns "stage" in
      let dce = find_phase sns "dce" in
      (* the pipeline phases arrive in registry order within one compile *)
      check_bool "phase order" true
        (Phases.index Phases.Stage < Phases.index Phases.Dce);
      check_int "one compile id across phases" stage.Irtrace.sn_cid
        dce.Irtrace.sn_cid;
      check_string "compile spec recorded" "d" stage.Irtrace.sn_spec;
      (* golden shape of the staged loop body: the dead arithmetic is four
         int ops on top of the live add/increment/compare *)
      check_bool "stage has the dead iops" true
        (match List.assoc_opt "iop" stage.Irtrace.sn_ops with
        | Some n -> n >= 6
        | None -> false);
      let d = Irtrace.diff stage dce in
      check_string "diff endpoints" "stage" d.Irtrace.df_from;
      check_string "diff endpoints" "dce" d.Irtrace.df_to;
      check_bool "dce eliminated nodes" true
        (snd d.Irtrace.df_nodes < fst d.Irtrace.df_nodes);
      check_int "exactly the dead pure arithmetic went away" 4
        (fst d.Irtrace.df_nodes - snd d.Irtrace.df_nodes);
      check_bool "eliminated ops are int arithmetic" true
        (List.assoc_opt "iop" d.Irtrace.df_eliminated = Some 4);
      check_bool "nothing created by dce" true (d.Irtrace.df_created = []);
      (* per-line attribution: the waste expression lives on line 3 *)
      check_bool "delta attributed to the dead line" true
        (List.exists
           (fun (line, delta) -> line = 3 && delta = -4)
           d.Irtrace.df_lines);
      (* fingerprints: stable hex, and DCE changed the structure *)
      check_int "fingerprint is md5 hex" 32 (String.length stage.Irtrace.sn_fp);
      check_bool "dce changed the fingerprint" true
        (stage.Irtrace.sn_fp <> dce.Irtrace.sn_fp))

(* ------------------------------------------------------------------ *)
(* Coach reasons: distinct kinds with correct source lines              *)

(* Line numbers matter below (ms_line assertions):
   line 9:  s.area()  megamorphic virtual call
   line 11: s.w * s.w effect-blocked CSE reload
   line 13: xs[i]     dead but effectful load, kept by DCE
   line 15: x < 900   compare materialized before the speculation guard,
                      fusion declined *)
let coach_src =
  {|class Shape { var w: int
  def init(w: int): unit = { this.w = w }
  def area(): int = this.w }
class Circle extends Shape { def area(): int = this.w * 3 }
class Square extends Shape { def area(): int = this.w * 5 }
class Tri    extends Shape { def area(): int = this.w / 2 }
class Hexa   extends Shape { def area(): int = this.w * 6 }
def area_of(s: Shape): int =
  s.area()
def widen(s: Shape): int =
  s.w * s.w
def checksum(xs: farray, i: int): float = {
  val dead = xs[i]; xs[0] }
def clamp(x: int): int =
  if (Lancet.speculate(x < 900)) x else 899
def main(): int = {
  val shapes = new array[Shape](5);
  shapes[0] = new Shape(3); shapes[1] = new Circle(4);
  shapes[2] = new Square(5); shapes[3] = new Tri(6);
  shapes[4] = new Hexa(7);
  val xs = new farray(4);
  xs[0] = 2.5; xs[3] = 1.5;
  var acc = 0;
  var f = 0.0;
  for (round <- 0 until 200) {
    for (i <- 0 until 5) { acc = acc + area_of(shapes[i]) };
    acc = acc + widen(shapes[2]) + clamp(round) - clamp(round);
    f = f + checksum(xs, 3)
  };
  acc + f2i(f)
}
|}

let miss_on line kind =
  List.find_opt
    (fun m ->
      m.Irtrace.ms_line = line && Irtrace.reason_kind m.Irtrace.ms_reason = kind)
    (Irtrace.misses ())

let test_coach_reasons () =
  with_irtrace (fun () ->
      let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:8 () in
      let p = Mini.Front.load rt coach_src in
      ignore (Mini.Front.call p "main" [||]);
      (* megamorphic devirt decline: five receiver classes at s.area() *)
      (match miss_on 9 "devirt-declined" with
      | Some m -> (
        check_bool "method attributed" true (contains m.Irtrace.ms_meth "area_of");
        check_string "phase" "stage" m.Irtrace.ms_phase;
        match m.Irtrace.ms_reason with
        | Irtrace.Devirt_declined { callee; ic_state } ->
          check_string "callee" "area" callee;
          check_string "inline-cache state" "mega" ic_state
        | _ -> Alcotest.fail "wrong reason payload")
      | None -> Alcotest.fail "no megamorphic devirt decline at line 9");
      (* effect-blocked CSE: s.w reloaded in one expression; the builder
         records by mid (the label is resolved at report time) *)
      (match miss_on 11 "cse-effect-barrier" with
      | Some m -> (
        check_int "method attributed" (Mini.Front.find_function p "widen").mid
          m.Irtrace.ms_mid;
        match m.Irtrace.ms_reason with
        | Irtrace.Cse_effect_barrier { op } ->
          check_bool "names the reloaded field" true (contains op "Shape.w")
        | _ -> Alcotest.fail "wrong reason payload")
      | None -> Alcotest.fail "no effect-blocked CSE at line 11");
      (* DCE kept an effectful node: the dead array load *)
      (match miss_on 13 "dce-kept-effectful" with
      | Some m -> (
        check_string "phase" "dce" m.Irtrace.ms_phase;
        match m.Irtrace.ms_reason with
        | Irtrace.Dce_kept_effectful { op } ->
          check_string "op" "faload" op
        | _ -> Alcotest.fail "wrong reason payload")
      | None -> Alcotest.fail "no kept-effectful DCE record at line 13");
      (* declined guard fusion: the speculation compare was materialized *)
      (match miss_on 15 "guard-fusion-declined" with
      | Some m -> (
        check_bool "phase is a backend guards phase" true
          (contains m.Irtrace.ms_phase "guards");
        match m.Irtrace.ms_reason with
        | Irtrace.Guard_fusion_declined { cond; why } ->
          check_bool "compare identified" true (contains cond "icmp");
          check_string "why" "materialized-bool" why
        | _ -> Alcotest.fail "wrong reason payload")
      | None -> Alcotest.fail "no declined guard fusion at line 15");
      (* the coach report renders all of them with file-less source lines *)
      let report = Lancet.Explain.coach_report rt in
      List.iter
        (fun needle -> check_bool needle true (contains report needle))
        [
          "devirt of 'area' declined";
          "inline cache: mega";
          "CSE blocked by effect barrier";
          "DCE kept 'faload'";
          "guard fusion declined";
          "fix:";
        ])

(* ------------------------------------------------------------------ *)
(* Fingerprint stability                                                *)

(* The same method compiled in two fresh runtimes (fresh sym allocation
   order) must fingerprint identically: the canonical form renumbers
   symbols densely, so allocation noise cannot leak in. *)
let test_fingerprint_stable_across_recompile () =
  with_irtrace (fun () ->
      let fp_of () =
        let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
        let p = Mini.Front.load rt loop_src in
        ignore (Mini.Front.call p "main" [||]);
        let m = Mini.Front.find_function p "work" in
        match Irtrace.last_fp ~mid:m.mid ~spec:"d" ~phase:"dce" with
        | Some fp -> fp
        | None -> Alcotest.fail "no dce fingerprint recorded"
      in
      let fp1 = fp_of () in
      let fp2 = fp_of () in
      check_string "recompile reproduces the fingerprint" fp1 fp2;
      (* the second compile registered as byte-identical *)
      check_bool "identical recompile counted" true
        (Irtrace.identical_recompiles () >= 1))

(* Background workers allocate syms on their own domain: the fingerprint
   must not depend on which domain compiled the method. *)
let test_fingerprint_stable_bg () =
  with_irtrace (fun () ->
      let sync_fp =
        let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
        let p = Mini.Front.load rt loop_src in
        ignore (Mini.Front.call p "main" [||]);
        let m = Mini.Front.find_function p "work" in
        Irtrace.last_fp ~mid:m.mid ~spec:"d" ~phase:"dce"
      in
      let rt, pool =
        Lancet.Api.boot_bg ~tiering:true ~tier_threshold:4 ~jit_threads:2 ()
      in
      let p = Mini.Front.load rt loop_src in
      let m = Mini.Front.find_function p "work" in
      ignore (Mini.Front.call p "main" [||]);
      (match pool with
      | Some b ->
        await ~what:"background compile of work" (fun () ->
            ignore (Mini.Front.call p "main" [||]);
            Irtrace.last_fp ~mid:m.mid ~spec:"d" ~phase:"dce" <> None);
        Bgjit.shutdown b
      | None -> Alcotest.fail "no background pool");
      let bg_fp = Irtrace.last_fp ~mid:m.mid ~spec:"d" ~phase:"dce" in
      check_bool "both runs fingerprinted" true
        (sync_fp <> None && bg_fp <> None);
      check_bool "worker domain does not change the fingerprint" true
        (sync_fp = bg_fp))

(* ------------------------------------------------------------------ *)
(* Journal integration: the installed method's fingerprint reaches
   `lancet why`, and a byte-identical recompile is flagged.             *)

let spec_src =
  {|def spec(x: int): int =
  if (Lancet.speculate(x < 100)) x * 2 + 1 else x * 1000
|}

let test_why_fingerprint () =
  Forensics.enable ();
  Fun.protect ~finally:Forensics.disable (fun () ->
      with_irtrace (fun () ->
          let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
          let p = Mini.Front.load rt spec_src in
          let warm () =
            for i = 0 to 15 do
              ignore (Mini.Front.call p "spec" [| Vm.Types.Int i |])
            done
          in
          warm ();
          (* drop the code and let the method re-promote: nothing changed,
             so the rebuilt graph must be byte-identical *)
          let m = Mini.Front.find_function p "spec" in
          Vm.Runtime.tier_invalidate rt m;
          warm ();
          let report = Lancet.Explain.why_report ~meth:"spec" rt in
          check_bool "why renders the fingerprint" true
            (contains report "IR fingerprint");
          check_bool "byte-identical recompile flagged" true
            (contains report "identical to previous compile")))

(* ------------------------------------------------------------------ *)
(* Both backends fuse the same nodes                                    *)

(* get_of's call site only ever sees Pt, and Pt2's override rules out CHA,
   so feedback devirtualization plants a ClassId guard *)
let devirt_src =
  {|class Pt { var x: int
  def init(x: int): unit = { this.x = x }
  def get(): int = this.x }
class Pt2 extends Pt { def get(): int = this.x * 2 }
def get_of(p: Pt): int = p.get()
def main(): int = {
  val p = new Pt(7);
  var s = 0;
  for (i <- 0 until 20) { s = s + get_of(p) };
  s
}
|}

(* One staged graph, handed to each backend: the guards:typed and
   guards:closure snapshots must agree on the fused count and on the
   fingerprint of what remains. *)
let test_guards_fuse_alike () =
  with_irtrace (fun () ->
      let check_alike rt p name =
        let m = Mini.Front.find_function p name in
        let g =
          Lancet.Compiler.stage
            ~opts:{ Lancet.Compiler.default_options with feedback = true }
            rt m [| Lancet.Compiler.Dyn |]
        in
        let hooks = Lms.Hooks.default_hooks rt in
        let (_ : Vm.Types.value array -> Vm.Types.value) =
          Lms.Typed_backend.compile ~hooks g
        in
        let (_ : Vm.Types.value array -> Vm.Types.value) =
          Lms.Typed_backend.compile_boxed ~hooks g
        in
        let sns =
          List.filter
            (fun sn -> sn.Irtrace.sn_mid = m.mid)
            (Irtrace.snapshots ())
        in
        let typed = find_phase sns "guards:typed" in
        let closure = find_phase sns "guards:closure" in
        let fused sn = List.assoc "fused" sn.Irtrace.sn_meta in
        check_string (name ^ ": fused count") (fused typed) (fused closure);
        check_string (name ^ ": fingerprint") typed.Irtrace.sn_fp
          closure.Irtrace.sn_fp;
        (find_phase sns "stage", int_of_string (fused typed))
      in
      let rt = Lancet.Api.boot () in
      let p = Mini.Front.load rt devirt_src in
      ignore (Mini.Front.call p "main" [||]);
      let stage, fused = check_alike rt p "get_of" in
      check_bool "devirt guard staged" true
        (List.mem_assoc "classid" stage.Irtrace.sn_ops);
      check_int "classid and compare fused into the guard" 2 fused;
      let coach =
        In_channel.with_open_bin "../examples/coach.mini" In_channel.input_all
      in
      let p = Mini.Front.load ~file:"coach.mini" rt coach in
      ignore (check_alike rt p "clamp"))

(* ------------------------------------------------------------------ *)
(* The typed backend's boxed fallback is not a compile of its own        *)

(* A call whose argument fails a typed kernel's entry check runs the boxed
   code for the same graph, built there and then: that build adds no
   snapshot and no missed optimization to those of the kernel's compile. *)
let test_fallback_records_nothing () =
  with_irtrace (fun () ->
      let rt = Lancet.Api.boot () in
      let p =
        Mini.Front.load rt
          "def k(x: int, flag: int): int = if (Lancet.speculate(flag < 5)) { \
           if (flag > 0) x + 1 else 0 } else 7"
      in
      let m = Mini.Front.find_function p "k" in
      let g = Lancet.Compiler.stage rt m (Array.make 2 Lancet.Compiler.Dyn) in
      let fn =
        Lms.Typed_backend.compile ~hooks:(Lms.Hooks.default_hooks rt) g
      in
      let seen = Irtrace.seen () and misses = List.length (Irtrace.misses ()) in
      check_bool "the kernel's compile recorded a miss" true (misses > 0);
      check_bool "fallback result" true
        (Vm.Value.equal (Vm.Types.Int 0) (fn [| Vm.Types.Str "x"; Int 0 |]));
      check_int "no snapshot" seen (Irtrace.seen ());
      check_int "no miss" misses (List.length (Irtrace.misses ())))

(* ------------------------------------------------------------------ *)
(* Disabled mode records nothing                                        *)

let test_disabled_records_nothing () =
  Irtrace.disable ();
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p = Mini.Front.load rt coach_src in
  ignore (Mini.Front.call p "main" [||]);
  check_int "no snapshots" 0 (Irtrace.seen ());
  check_int "no misses" 0 (List.length (Irtrace.misses ()));
  check_bool "no snapshot list" true (Irtrace.snapshots () = [])

let suite =
  [
    Alcotest.test_case "snapshots-and-diff" `Quick test_snapshots_and_diff;
    Alcotest.test_case "coach-reasons" `Quick test_coach_reasons;
    Alcotest.test_case "fingerprint-recompile" `Quick
      test_fingerprint_stable_across_recompile;
    Alcotest.test_case "fingerprint-bg" `Quick test_fingerprint_stable_bg;
    Alcotest.test_case "why-fingerprint" `Quick test_why_fingerprint;
    Alcotest.test_case "guards-fuse-alike" `Quick test_guards_fuse_alike;
    Alcotest.test_case "fallback-records-nothing" `Quick
      test_fallback_records_nothing;
    Alcotest.test_case "disabled-records-nothing" `Quick
      test_disabled_records_nothing;
  ]
