(* One workload per invocation: the measuring half of the benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--smoke] [--corrupt-reference]

   Load is a closed loop with one client: op i+1 starts when op i returns.
   The op count is fixed ([ops_per_second] x S), so the traced run repeats
   exactly the ops of the untraced one.  The ops are split into parts of
   [ops_per_runtime] consecutive ops (one part when each op boots its own
   runtime).  Each part runs in a child process of its own, on one runtime:
   a runtime keeps every compiled function, and the library keeps every
   runtime it boots, so a process per runtime is what bounds memory.

   A part generates its inputs and their references, then runs its ops and
   checks every output.  Untraced, it also times fresh boots (setup_s) and
   first ops on fresh runtimes (first_op_ref), taken between its ops so the
   samples are spread over the whole run.  It prints raw samples; this
   process merges the parts and prints a report, then one JSON line with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   perfbench/run.py builds this program and runs it.

   Op times are reported in "ref": multiples of the time a fixed reference
   kernel takes when run right after the op (see [ref_kernel]).  The 2-vCPU
   shared host this was tuned on switches between speeds about 1.7x apart
   every few seconds, so raw wall times of two runs of the same code differ
   by more than a change worth measuring; the ratio does not move with the
   host.  The report prints the raw times beside them. *)

open Vm.Types
module W = Workloads

let now = Trace.now

(* samples per run, spread evenly over its ops *)
let setup_samples = 101
let cold_starts = 41

type env = { rt : runtime; prog : Mini.Front.program; pool : Bgjit.t option }

let jit_threads (w : W.t) = match w.mode with W.Tiered_bg -> 1 | _ -> 0
let tiering (w : W.t) = match w.mode with W.Plain -> false | _ -> true

(* Boot + load: exactly the calls a user makes, or their traced mirror. *)
let fresh ~traced (w : W.t) =
  let tiering = tiering w and jit_threads = jit_threads w in
  if traced then
    let rt, pool = Trace.boot ~tiering ~jit_threads in
    { rt; prog = Trace.load rt w.src; pool }
  else
    let rt, pool = Lancet.Api.boot_bg ~tiering ~jit_threads () in
    { rt; prog = Mini.Front.load rt w.src; pool }

let close env = Option.iter (fun p -> Bgjit.shutdown p) env.pool

(* The reference kernel: plain OCaml that never touches the VM, the by-name
   CSV sum of a fixed 200-row file (about 0.3 ms).  Like the VM and the code
   Lancet generates, it allocates and chases pointers, so it slows down with
   the host as they do.  The minor collection before it is untimed: it pays
   the GC work the op left owing, and the kernel allocates less than a minor
   heap, so its time does not depend on the program's heap. *)
let ref_text = W.csv_file (W.rng ~seed:0 ~salt:0 0) ~rows:200

let ref_kernel () =
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (W.csv_reference ref_text));
  now () -. t0

(* After a cold start, which has no neighbouring ops: the median of five. *)
let ref_kernel5 () =
  let a = Array.init 5 (fun _ -> ref_kernel ()) in
  Array.sort compare a;
  a.(2)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type plan = {
  w : W.t;
  seed : int;
  traced : bool;
  smoke : bool;
  corrupt : bool;
  ops : int;
  per_part : int;
  nsetup : int;
  ncold : int;
}

let plan ~(w : W.t) ~seed ~seconds ~traced ~smoke ~corrupt =
  let ops = if smoke then w.smoke_ops else w.ops_per_second * seconds in
  let per_part =
    if w.ops_per_runtime = 1 then ops
    else if smoke then (* two parts, so the merge is tested too *)
      min w.ops_per_runtime (max 1 (ops / 2))
    else min w.ops_per_runtime ops
  in
  {
    w;
    seed;
    traced;
    smoke;
    corrupt;
    ops;
    per_part;
    nsetup = (if traced then 0 else if smoke then 3 else setup_samples);
    ncold = (if traced then 0 else if smoke then 1 else cold_starts);
  }

let parts p = (p.ops + p.per_part - 1) / p.per_part

(* Sample k of n is taken before op [k * ops / n]; the samples a part
   covering ops [first, last) takes are the index range returned. *)
let samples_in ~n ~ops ~first ~last =
  let mine k = k * ops / n >= first && k * ops / n < last in
  match List.filter mine (List.init n Fun.id) with
  | [] -> (0, 0)
  | k :: _ as ks -> (k, k + List.length ks)

(* ------------------------------------------------------------------ *)
(* One part, in its own process                                         *)

(* What a part measured.  [layers] holds additive per-layer totals. *)
type raw = {
  lat : float list;  (** op latencies, seconds *)
  cal : float list;  (** reference kernel time after each op, same order *)
  setup : float list;
  first : float list;
  first_cal : float list;
  cpu_s : float;
  rss_mb : float;
  failed : int;
  attempted : int;
  layers : (string * float) list;
}

(* Counters the runtime keeps: interpreter steps, code-cache hits, and
   inline-cache hits and misses. *)
let counters rt =
  let hits, misses, _, _, _ = Vm.Runtime.ic_stats rt in
  [| rt.interp_steps; rt.tiering.t_cache_hits; hits; misses |]

let run_part p k =
  let w = p.w in
  let first = k * p.per_part in
  let last = min p.ops (first + p.per_part) in
  let boot_in_op = w.ops_per_runtime = 1 in
  let ops =
    w.prepare ~seed:p.seed ~first ~count:(last - first) ~smoke:p.smoke
      ~corrupt:(p.corrupt && k = 0)
  in
  let s0, s1 = samples_in ~n:p.nsetup ~ops:p.ops ~first ~last in
  let c0, c1 = samples_in ~n:p.ncold ~ops:p.ops ~first ~last in
  let cold_ops =
    w.prepare ~seed:p.seed ~first:(p.ops + c0) ~count:(c1 - c0) ~smoke:p.smoke
      ~corrupt:false
  in
  (* A shared runtime first runs one untimed op of its own, so latencies are
     those of a warm runtime in a warm process; first_op_ms covers the cold
     case.  Its work still counts in the per-layer totals. *)
  let warmup =
    if boot_in_op then [||]
    else
      w.prepare ~seed:p.seed ~first:(p.ops + p.ncold + k) ~count:1
        ~smoke:p.smoke ~corrupt:false
  in
  let failed = ref 0 in
  let attempt f prog =
    match f prog with
    | true -> ()
    | false -> incr failed
    | exception e ->
      Printf.eprintf "op raised: %s\n%!" (Printexc.to_string e);
      incr failed
  in
  let setup = ref [] and firsts = ref [] and first_cals = ref [] in
  let sample_setup () =
    let t0 = now () in
    let env = fresh ~traced:p.traced w in
    setup := (now () -. t0) :: !setup;
    close env
  in
  let cold_start f =
    let t0 = now () in
    let env = fresh ~traced:p.traced w in
    let t1 = now () in
    attempt f env.prog;
    let t2 = now () in
    first_cals := ref_kernel5 () :: !first_cals;
    close env;
    firsts := (if boot_in_op then t2 -. t0 else t2 -. t1) :: !firsts
  in
  let next_setup = ref s0 and next_cold = ref c0 in
  let due next hi n i = !next < hi && !next * p.ops / n = i in
  let vm = Array.make 4 0 and compiled_fns = ref 0 and bg = ref None in
  let acquire () =
    let env = fresh ~traced:p.traced w in
    (env, counters env.rt)
  in
  let retire (env, start) =
    Array.iteri (fun j c -> vm.(j) <- vm.(j) + c - start.(j)) (counters env.rt);
    compiled_fns := !compiled_fns + Hashtbl.length env.rt.compiled;
    (* a copy: shutting the pool down drains it into the live record *)
    Option.iter
      (fun pool ->
        let s = Bgjit.stats pool in
        bg := Some { s with s_enqueued = s.s_enqueued })
      env.pool;
    close env
  in
  let front_s () = Trace.(st.parse_s +. st.typecheck_s +. st.codegen_s) in
  let lat = ref [] and cal = ref [] and cpu_s = ref 0. and wall_s = ref 0. in
  let load_in_ops_s = ref 0. in
  let shared = if boot_in_op then None else Some (acquire ()) in
  Gc.full_major ();
  let words0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  let warm_s =
    match shared with
    | Some (env, _) ->
      let t0 = now () in
      Array.iter (fun f -> attempt f env.prog) warmup;
      now () -. t0
    | None -> 0.
  in
  Array.iteri
    (fun j op ->
      let i = first + j in
      while due next_setup s1 p.nsetup i do
        sample_setup ();
        incr next_setup
      done;
      while due next_cold c1 p.ncold i do
        cold_start cold_ops.(!next_cold - c0);
        incr next_cold
      done;
      let load0 = front_s () and cpu0 = cpu_now () and t0 = now () in
      let ((env, _) as rt) =
        match shared with Some rt -> rt | None -> acquire ()
      in
      attempt op env.prog;
      let dt = now () -. t0 in
      cpu_s := !cpu_s +. (cpu_now () -. cpu0);
      load_in_ops_s := !load_in_ops_s +. (front_s () -. load0);
      lat := dt :: !lat;
      wall_s := !wall_s +. dt;
      if boot_in_op then retire rt;
      cal := ref_kernel () :: !cal)
    ops;
  let words1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
  Option.iter retire shared;
  let layers =
    if not p.traced then []
    else begin
      let t = Trace.st and rs = Trace.restage () in
      let bg f = float_of_int (match !bg with Some s -> f s | None -> 0) in
      let ms s = s *. 1000. and n i = float_of_int i in
      [
        ("mini.loads", n t.loads);
        ("mini.parse_ms", ms t.parse_s);
        ("mini.typecheck_ms", ms t.typecheck_s);
        ("mini.codegen_ms", ms t.codegen_s);
        ("vm.interp_steps", n vm.(0));
        ( "vm.interp_ms",
          ms
            (!wall_s +. warm_s -. t.compiled_s -. t.compile_s -. !load_in_ops_s)
        );
        ("vm.ic_hits", n vm.(2));
        ("vm.ic_misses", n vm.(3));
        ("vm.ic_lookups", n (vm.(2) + vm.(3)));
        ("vm.cache_hits", n vm.(1));
        ("vm.compiled_calls", n t.compiled_calls);
        ("vm.compiled_ms", ms t.compiled_s);
        ("vm.alloc_mw", (words1 -. words0) /. 1e6);
        ("vm.minor_gcs", n (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("vm.compiled_fns", n !compiled_fns);
        ("lancet.compiles", n t.compiles);
        ("lancet.declined", n t.declined);
        ("lancet.compile_ms", ms t.compile_s);
        ("lancet.stage_ms", ms rs.stage_s);
        ("lancet.ir_nodes", n t.ir_nodes);
        ("lancet.restage_failed", n rs.failed);
        ("lms.backend_ms", ms rs.backend_s);
        ("lms.typed_compiles", n rs.typed);
        ("lms.closure_compiles", n rs.closure);
        ("bgjit.enqueued", bg (fun s -> s.Bgjit.s_enqueued));
        ("bgjit.installed", bg (fun s -> s.Bgjit.s_installed));
        ("bgjit.stale", bg (fun s -> s.Bgjit.s_stale));
        ("bgjit.dropped", bg (fun s -> s.Bgjit.s_dropped));
        ("bgjit.queue_wait_ms", ms t.queue_wait_s);
        ("bgjit.worker_compile_ms", ms t.worker_s);
        ("bgjit.install_to_use_ms", ms t.install_to_use_s);
        ("bgjit.mutator_wait_s", !wall_s -. !cpu_s);
      ]
    end
  in
  {
    lat = List.rev !lat;
    cal = List.rev !cal;
    setup = !setup;
    first = !firsts;
    first_cal = !first_cals;
    cpu_s = !cpu_s;
    rss_mb = peak_rss_mb ();
    failed = !failed;
    attempted = last - first + (c1 - c0) + Array.length warmup;
    layers;
  }

(* A part's result travels to the parent as text, one field per line. *)
let print_raw r =
  let floats key xs =
    print_string key;
    List.iter (Printf.printf " %.17g") xs;
    print_newline ()
  in
  floats "lat" r.lat;
  floats "cal" r.cal;
  floats "setup" r.setup;
  floats "first" r.first;
  floats "first_cal" r.first_cal;
  floats "cpu_s" [ r.cpu_s ];
  floats "rss_mb" [ r.rss_mb ];
  Printf.printf "failed %d\nattempted %d\n" r.failed r.attempted;
  List.iter (fun (name, v) -> Printf.printf "layer %s %.17g\n" name v) r.layers

let empty =
  {
    lat = [];
    cal = [];
    setup = [];
    first = [];
    first_cal = [];
    cpu_s = 0.;
    rss_mb = 0.;
    failed = 0;
    attempted = 0;
    layers = [];
  }

(* Fold one line of a part's output into [acc]. *)
let merge_line acc line =
  let fs rest = List.map float_of_string rest in
  match String.split_on_char ' ' line with
  | "lat" :: rest -> { acc with lat = acc.lat @ fs rest }
  | "cal" :: rest -> { acc with cal = acc.cal @ fs rest }
  | "setup" :: rest -> { acc with setup = acc.setup @ fs rest }
  | "first" :: rest -> { acc with first = acc.first @ fs rest }
  | "first_cal" :: rest -> { acc with first_cal = acc.first_cal @ fs rest }
  | [ "cpu_s"; v ] -> { acc with cpu_s = acc.cpu_s +. float_of_string v }
  | [ "rss_mb"; v ] -> { acc with rss_mb = Float.max acc.rss_mb (float_of_string v) }
  | [ "failed"; v ] -> { acc with failed = acc.failed + int_of_string v }
  | [ "attempted"; v ] -> { acc with attempted = acc.attempted + int_of_string v }
  | [ "layer"; name; v ] ->
    let old = Option.value ~default:0. (List.assoc_opt name acc.layers) in
    let layers = List.remove_assoc name acc.layers in
    { acc with layers = (name, old +. float_of_string v) :: layers }
  | _ -> failwith ("unexpected line from a part: " ^ line)

(* Run every part in turn, each in a fresh process, and merge them. *)
let run_parts p =
  let rec go k acc =
    if k = parts p then acc
    else begin
      let args = Array.append Sys.argv [| "--part"; string_of_int k |] in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let rec read acc =
        match input_line ic with
        | line -> read (merge_line acc line)
        | exception End_of_file -> acc
      in
      let acc = read acc in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> go (k + 1) acc
      | _ ->
        Printf.eprintf "part %d of %s failed\n" k p.w.name;
        exit 1
    end
  in
  go 0 empty

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest whole percentile with at least ten ops beyond it (nearest
   rank); with ten ops or fewer, the slowest op. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n <= 10 then (100, a.(n - 1))
  else begin
    let p = 100 * (n - 10) / n in
    let rank = ((p * n) + 99) / 100 in
    (p, a.(rank - 1))
  end

(* The mean of the middle 80%.  One sub-millisecond boot is noise, and a
   median would jump between the host's two speeds with the share of the run
   spent in each; this mean moves with that share smoothly. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a / 10 in
  let mid = Array.sub a k (Array.length a - (2 * k)) in
  Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

let ms s = s *. 1000.
let ratio a b = if b = 0. then 0. else a /. b

(* A metric: name, value, unit, and for the report only, a note. *)
type metric = string * float * string * string

let sum = List.fold_left ( +. ) 0.

(* The reference time of each op: the median kernel time over the nine ops
   around it, so that one disturbed kernel run does not skew its op, while a
   change of host speed, which lasts seconds, still shows. *)
let local_ref cal =
  let a = Array.of_list cal in
  let n = Array.length a in
  List.init n (fun i ->
      let lo = max 0 (i - 4) and hi = min (n - 1) (i + 4) in
      median (Array.to_list (Array.sub a lo (hi - lo + 1))))

(* Each op's time over its reference time. *)
let in_ref lat cal = List.map2 ( /. ) lat (local_ref cal)

let end_to_end r : metric list =
  let ops = List.length r.lat in
  [
    ( "setup_s",
      trimmed_mean r.setup,
      "s",
      Printf.sprintf "trimmed mean of %d fresh boots" (List.length r.setup) );
    ("op_p50_ref", median (in_ref r.lat r.cal), "ref", Printf.sprintf "%d ops" ops);
    ( "op_mean_ref",
      sum r.lat /. sum (local_ref r.cal),
      "ref",
      "closed loop: 1 / throughput" );
    ( "first_op_ref",
      median (List.map2 ( /. ) r.first r.first_cal),
      "ref",
      Printf.sprintf "median of %d cold starts" (List.length r.first) );
    ( "cpu_per_op_ref",
      r.cpu_s /. sum (local_ref r.cal),
      "ref",
      "process CPU, all threads" );
    ("peak_rss_mb", r.rss_mb, "MB", "VmHWM of the largest process");
  ]

(* Printed in the report but kept out of the JSON line, so without a bound:
   the op tail, which on kmeans-bgjit follows the host's periods of slow
   cross-vCPU wake-ups that the single-threaded kernel does not feel (it
   spread 0.20 of its median over five runs of the same code), and the raw
   times as the host gave them. *)
let report_only r : metric list =
  let ops = List.length r.lat in
  let p, t = tail r.lat in
  let p', t' = tail (in_ref r.lat r.cal) in
  [
    ("op_tail_ref", t', "ref", Printf.sprintf "p%d of %d ops" p' ops);
    ("ref_ms", ms (median (r.cal @ r.first_cal)), "ms", "reference kernel, median");
    ("ops_per_s", float_of_int ops /. sum r.lat, "ops/s", "");
    ("op_p50_ms", ms (median r.lat), "ms", "");
    ("op_tail_ms", ms t, "ms", Printf.sprintf "p%d" p);
    ("first_op_ms", ms (median r.first), "ms", "");
    ("cpu_s", r.cpu_s, "s", "all threads, summed over ops");
  ]

(* Per-layer metrics in report order: name, unit, note.  Ratios and the
   traced op p50 are derived here; everything else is a sum over parts. *)
let layer_spec =
  [
    ("mini.loads", "count", "");
    ("mini.parse_ms", "ms", "");
    ("mini.typecheck_ms", "ms", "");
    ("mini.codegen_ms", "ms", "");
    ("vm.interp_steps", "count", "");
    ("vm.interp_ms", "ms", "ops with warm-up - compiled - compile - front end");
    ("vm.ic_hits", "count", "");
    ("vm.ic_misses", "count", "");
    ("vm.ic_lookups", "count", "");
    ("vm.ic_hit_ratio", "fraction", "");
    ("vm.cache_hits", "count", "");
    ("vm.compiled_calls", "count", "");
    ("vm.compiled_ms", "ms", "outermost calls, inclusive");
    ("vm.alloc_mw", "Mwords", "mutator domain");
    ("vm.minor_gcs", "count", "");
    ("vm.compiled_fns", "count", "left in rt.compiled");
    ("lancet.compiles", "count", "");
    ("lancet.declined", "count", "");
    ("lancet.compile_ms", "ms", "on the mutator");
    ("lancet.stage_ms", "ms", "re-staged after the run");
    ("lancet.ir_nodes", "count", "after DCE, summed");
    ("lancet.restage_failed", "count", "");
    ("lms.backend_ms", "ms", "re-compiled after the run");
    ("lms.typed_compiles", "count", "");
    ("lms.closure_compiles", "count", "typed backend fell back");
    ("bgjit.enqueued", "count", "");
    ("bgjit.installed", "count", "");
    ("bgjit.installed_share", "fraction", "");
    ("bgjit.stale", "count", "");
    ("bgjit.dropped", "count", "");
    ("bgjit.queue_wait_ms", "ms", "summed over requests");
    ("bgjit.worker_compile_ms", "ms", "");
    ("bgjit.install_to_use_ms", "ms", "summed over entry points");
    ("bgjit.mutator_wait_s", "s", "wall - process CPU");
    ("trace.op_p50_ref", "ref", "");
  ]

let per_layer r : metric list =
  let v name =
    match List.assoc_opt name r.layers with
    | Some x -> x
    | None -> failwith ("no per-layer total for " ^ name)
  in
  let share a b =
    (ratio (v a) (v b), Printf.sprintf "%.0f of %.0f" (v a) (v b))
  in
  List.map
    (fun (name, unit, note) ->
      let value, note =
        match name with
        | "vm.ic_hit_ratio" -> share "vm.ic_hits" "vm.ic_lookups"
        | "bgjit.installed_share" -> share "bgjit.installed" "bgjit.enqueued"
        | "trace.op_p50_ref" -> (median (in_ref r.lat r.cal), note)
        | _ -> (v name, note)
      in
      (name, value, unit, note))
    layer_spec

let line (name, value, unit, note) =
  Printf.printf "  %-26s %18.6f %-8s %s\n" name value unit note

let print_result ?(unbounded = []) r metrics =
  List.iter line metrics;
  (* the eighth end-to-end metric; the JSON carries it as failed/attempted *)
  line
    ( "error_rate",
      ratio (float_of_int r.failed) (float_of_int r.attempted),
      "fraction",
      Printf.sprintf "%d of %d ops" r.failed r.attempted );
  if unbounded <> [] then begin
    print_endline "  not in the JSON line:";
    List.iter line unbounded
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit, _) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false and corrupt = ref false and part = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ( "--seconds",
        Arg.Set_int seconds,
        "S run length: the op count is S x the workload's rate" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny inputs, a few ops");
      ( "--corrupt-reference",
        Arg.Set corrupt,
        " perturb op 0's reference (self-test)" );
      ("--part", Arg.Set_int part, "K run part K only, printing raw samples");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let p =
    plan ~w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~smoke:!smoke
      ~corrupt:!corrupt
  in
  if !part >= 0 then print_raw (run_part p !part)
  else begin
    let r = run_parts p in
    Printf.printf "== %s  seed %d  trace %d\n" w.name !seed !trace;
    Printf.printf
      "context: {\"ocaml\": %S, \"domains\": %d, \"ops\": %d, \
       \"ops_per_runtime\": %d, \"processes\": %d}\n"
      Sys.ocaml_version (1 + jit_threads w) p.ops
      (if w.ops_per_runtime = 1 then 1 else p.per_part)
      (parts p);
    if p.traced then print_result r (per_layer r)
    else print_result ~unbounded:(report_only r) r (end_to_end r)
  end
