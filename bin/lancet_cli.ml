(* Command-line driver: run Mini programs on the interpreter, compile
   functions with Lancet and dump their optimized IR, disassemble generated
   bytecode, or cross-compile to JavaScript. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_arg (s : string) : Vm.Types.value =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> Str s)

let load path =
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load ~file:path rt (read_file path) in
  (rt, p)

(* ---- observability output shared by run, trace and explain ---- *)

(* HotSpot-PrintCompilation-style log: the shared [Obs.compilation_event]
   subset (interp-call samples and spans would swamp the terminal).  The
   filter lives on the bus, next to the event type, so new event kinds are
   logged here without this sink chasing them. *)
let compilation_sink () =
  {
    Obs.sink_name = "print-compilation";
    sink_emit =
      (fun ~ts:_ ev ->
        if Obs.compilation_event ev then
          prerr_string ("[jit] " ^ Obs.to_string ev ^ "\n"));
    sink_flush = ignore;
  }

(* Each deopt site the profiler saw, in (mid, pc) order, with a
   disassembly marker. *)
let print_deopt_sites rt prof =
  List.iter
    (fun ((pm : Profiler.meth_stat), pc, (d : Profiler.deopt_site)) ->
      match Vm.Runtime.find_method_by_id rt pm.pm_mid with
      | Some m ->
        Format.printf "@.deopt site: %s (%s)@." (Vm.Runtime.meth_loc m pc)
          d.ds_tag;
        (* the decision journal, when on, knows *why*: guard identity for
           the deopt itself, plus what the engine did about it afterwards *)
        (match Lancet.Explain.deopt_causes pm.pm_mid pc with
        | [] -> ()
        | cs -> Format.printf "  cause: %s@." (String.concat "; " cs));
        List.iter
          (fun c -> Format.printf "  then: %s@." c)
          (Lancet.Explain.deopt_consequences pm.pm_mid);
        Format.printf "%s@." (Vm.Disasm.method_to_string ~mark:pc m)
      | None ->
        Format.printf "@.deopt site: %s at pc %d (%s)@." pm.pm_label pc d.ds_tag)
    (Profiler.deopt_sites prof)

(* ---- metrics export shared by run/health ---- *)

(* Write the run's [Profiler] with the readings no event carries; a .prom
   suffix selects Prometheus text exposition, anything else JSON. *)
let export_metrics rt prof path =
  let hits, misses, _, _, _ = Vm.Runtime.ic_stats rt in
  let series =
    Profiler.metrics prof
      ~ic_hit_ratio:
        (if hits + misses = 0 then 0.0
         else float_of_int hits /. float_of_int (hits + misses))
      ~replayed:(Persist.replayed_methods ())
      ~warm_matches:(Persist.warm_matches ()) ~warm_stale:(Persist.warm_stale ())
  in
  let data =
    if Filename.check_suffix path ".prom" then Metrics.to_prometheus series
    else Metrics.to_json series
  in
  let oc = open_out path in
  output_string oc data;
  close_out oc;
  Format.eprintf "[metrics] -> %s@." path

(* ---- the one start and finish of run and the report verbs ---- *)

(* Boot the engine, tiered unless [tiered] is false, with [jit_threads]
   background compile workers, and attach [sinks]. *)
let start ?(tiered = true) ?(jit_threads = 0) ?(jit_queue = 32) ~threshold
    sinks =
  let rt, pool =
    Lancet.Api.boot_bg ~tiering:tiered ~tier_threshold:threshold ~jit_threads
      ~jit_queue ()
  in
  List.iter Obs.attach sinks;
  (rt, pool)

(* Stop the compile pool, then flush the bus.  The workers finish the
   queued compiles and give queued native upgrades up, as the program has
   returned.  Bounded when chaos is armed, so an injected stall cannot hang
   the exit. *)
let finish pool =
  Option.iter
    (fun b ->
      if !Chaos.on then Bgjit.shutdown ~timeout_ms:2000 b else Bgjit.shutdown b)
    pool;
  Obs.flush ()

(* ---- run ---- *)

let run_cmd tiered threshold jit_threads jit_queue trace print_compilation
    stats metrics health chaos lprof_out lprof_in file fn args =
  match
    match chaos with None -> Ok () | Some spec -> Chaos.configure spec
  with
  | Error e ->
    Format.eprintf "%s@." e;
    2
  | Ok () ->
  if health then Forensics.enable ();
  let prof = Profiler.create () in
  (* at_exit registration keeps the trace well-formed even when the
     program traps out of the run *)
  let chrome =
    Option.map
      (fun path ->
        let c = Obs.Chrome.create () in
        (c, path, Obs.Chrome.write_at_exit c path))
      trace
  in
  let rt, pool =
    start ~tiered ~jit_threads ~jit_queue ~threshold
      ((if stats || metrics <> None then [ Profiler.sink prof ] else [])
      @ (match chrome with Some (c, _, _) -> [ Obs.Chrome.sink c ] | None -> [])
      @ if print_compilation then [ compilation_sink () ] else [])
  in
  (* profile writer: start collecting compile fingerprints now and rewrite
     the snapshot on every [Obs.flush] and once more at exit, through the
     consolidated flusher registry *)
  (match lprof_out with
  | Some path ->
    Persist.collect ();
    Persist.register_writer rt path
  | None -> ());
  let p = Mini.Front.load ~file rt (read_file file) in
  (* profile replay: seed hotness/IC/blacklist state from a prior run and
     batch-enqueue formerly-hot methods before the mutator starts.  A file
     that fails to load already printed its cold-start diagnostic. *)
  (match lprof_in with
  | None -> ()
  | Some path -> (
    match Persist.replay_file rt path with
    | None -> ()
    | Some st ->
      Format.eprintf
        "[profile] warm start from %s: %d method(s) seeded, %d IC site(s) \
         pre-quickened, %d compile(s) enqueued, %d stale record(s) dropped@."
        path st.Persist.rs_methods st.Persist.rs_sites st.Persist.rs_enqueued
        st.Persist.rs_dropped));
  let v = Mini.Front.call p fn (Array.of_list (List.map parse_arg args)) in
  finish pool;
  Format.printf "%a@." Vm.Value.pp v;
  (match chrome with
  | Some (c, path, write_now) ->
    write_now ();
    Format.eprintf "[obs] %d events -> %s@." (Obs.Chrome.event_count c) path
  | None -> ());
  if stats then
    Format.eprintf "@[<v>per-method profile:@,%s@]@." (Profiler.table prof);
  if stats && Hashtbl.length rt.Vm.Types.ic_sites > 0 then
    Format.eprintf "@[<v>ic sites:@,%s@]@." (Vm.Inlinecache.site_table rt);
  (match lprof_out with
  | Some path -> Format.eprintf "[profile] -> %s@." path
  | None -> ());
  Option.iter (export_metrics rt prof) metrics;
  if health then print_string (Lancet.Explain.health_report rt);
  (match pool with
  | Some b when tiered || stats ->
    Format.eprintf "[bgjit] %s@." (Bgjit.stats_string b)
  | _ -> ());
  if !Chaos.on then begin
    Format.eprintf "[chaos] seed=%d %s@." (Chaos.seed ()) (Chaos.stats_string ());
    Chaos.disable ()
  end;
  if tiered || stats then
    Format.eprintf "[tier] %s@." (Vm.Runtime.tier_stats_string rt);
  0

(* ---- the report verbs' run ---- *)

(* [start] with [sinks], load FILE, call FUNCTION [repeat] times (under the
   stack sampler when [sample] names a profiler) and [finish].  Returns the
   runtime, the pool (for its stats), the source and the last result. *)
let drive ?jit_threads ?jit_queue ?(sinks = []) ?sample ~threshold ~repeat
    file fn args =
  let rt, pool = start ?jit_threads ?jit_queue ~threshold sinks in
  let src = read_file file in
  let p = Mini.Front.load ~file rt src in
  let argv = Array.of_list (List.map parse_arg args) in
  let v = ref Vm.Types.Null in
  let calls () =
    for _ = 1 to max 1 repeat do
      v := Mini.Front.call p fn argv
    done
  in
  (match sample with
  | Some prof -> Profiler.sampled prof calls
  | None -> calls ());
  finish pool;
  (rt, pool, src, !v)

(* ---- trace: run tiered, write a Chrome trace + profile table ---- *)

let trace_cmd threshold jit_threads jit_queue repeat out file fn args =
  let chrome = Obs.Chrome.create () in
  let prof = Profiler.create () in
  let stem = Filename.remove_extension (Filename.basename file) in
  let out = Option.value out ~default:(stem ^ ".trace.json") in
  (* register before running so a trapping program still leaves a
     well-formed trace behind *)
  let write_now = Obs.Chrome.write_at_exit chrome out in
  let rt, pool, _, v =
    drive ~jit_threads ~jit_queue
      ~sinks:[ Obs.Chrome.sink chrome; Profiler.sink prof ]
      ~threshold ~repeat file fn args
  in
  write_now ();
  Format.printf "result: %a@." Vm.Value.pp v;
  Format.printf "trace:  %s (%d events; open in chrome://tracing or ui.perfetto.dev)@."
    out (Obs.Chrome.event_count chrome);
  Format.printf "@.per-method profile:@.%s" (Profiler.table prof);
  print_deopt_sites rt prof;
  Option.iter
    (fun b -> Format.printf "@.[bgjit] %s@." (Bgjit.stats_string b))
    pool;
  Format.printf "@.[tier] %s@." (Vm.Runtime.tier_stats_string rt);
  0

(* ---- profile: sampling profiler + folded stacks for flamegraphs ---- *)

let profile_cmd threshold repeat interval out file fn args =
  let prof = Profiler.create ~interval_ms:interval () in
  let _, _, _, v =
    drive ~sinks:[ Profiler.sink prof ] ~sample:prof ~threshold ~repeat file fn
      args
  in
  let stem = Filename.remove_extension (Filename.basename file) in
  let out = Option.value out ~default:(stem ^ ".folded") in
  Profiler.write_folded prof out;
  Format.printf "result: %a@.@." Vm.Value.pp v;
  print_string (Profiler.report prof);
  Format.printf
    "folded stacks: %s (feed to flamegraph.pl, inferno or speedscope)@." out;
  0

(* ---- explain: source annotated with tier/compile/deopt decisions ---- *)

let explain_cmd threshold repeat interval no_residency ir file fn args =
  (* the decision journal feeds deopt *causes* into the annotations and the
     per-site disasm *)
  Forensics.enable ();
  if ir then Irtrace.enable ();
  let prof = Profiler.create ~interval_ms:interval () in
  let rt, _, src, v =
    drive ~sinks:[ Profiler.sink prof ]
      ?sample:(if no_residency then None else Some prof)
      ~threshold ~repeat file fn args
  in
  Format.printf "result: %a@.@." Vm.Value.pp v;
  print_string
    (Lancet.Explain.render ~ir ~residency:(not no_residency) prof rt ~src);
  print_deopt_sites rt prof;
  0

(* ---- ir: per-phase IR snapshots of every compile, with pass diffs ---- *)

let ir_cmd threshold jit_threads jit_queue repeat meth phase diff file fn args =
  (* keep the pretty-printed IR text around: this verb exists to show it *)
  Irtrace.enable ~keep_text:true ();
  let _, _, _, v =
    drive ~jit_threads ~jit_queue ~threshold ~repeat file fn args
  in
  Format.printf "result: %a@.@." Vm.Value.pp v;
  print_string (Lancet.Explain.ir_report ?meth ?phase ~diff ());
  0

(* ---- coach: ranked missed-optimization report with fix suggestions ---- *)

let coach_cmd threshold repeat interval file fn args =
  (* node counts and fingerprints only — no need to retain IR text *)
  Irtrace.enable ();
  let prof = Profiler.create ~interval_ms:interval () in
  let rt, _, _, v =
    drive ~sinks:[ Profiler.sink prof ] ~sample:prof ~threshold ~repeat file fn
      args
  in
  Format.printf "result: %a@.@." Vm.Value.pp v;
  print_string (Lancet.Explain.coach_report ~profiler:prof rt);
  0

(* ---- why: per-method causal timelines from the decision journal ---- *)

let why_cmd threshold jit_threads jit_queue repeat meth file fn args =
  Forensics.enable ();
  let rt, _, _, v =
    drive ~jit_threads ~jit_queue ~threshold ~repeat file fn args
  in
  Format.printf "result: %a@.@." Vm.Value.pp v;
  print_string (Lancet.Explain.why_report ?meth rt);
  0

(* ---- health: whole-run pathology report ---- *)

let health_cmd threshold jit_threads jit_queue repeat metrics strict file fn
    args =
  Forensics.enable ();
  let prof = Profiler.create () in
  let rt, _, _, v =
    drive ~jit_threads ~jit_queue ~sinks:[ Profiler.sink prof ] ~threshold
      ~repeat file fn args
  in
  Format.printf "result: %a@.@." Vm.Value.pp v;
  print_string (Lancet.Explain.health_report rt);
  Option.iter (export_metrics rt prof) metrics;
  (* --strict: CI and scripts gate on VM health through the exit code *)
  if strict && Forensics.detect () <> [] then 1 else 0

(* ---- disasm ---- *)

let disasm_cmd file names =
  let rt, _ = load file in
  Hashtbl.iter
    (fun cname (cls : Vm.Types.cls) ->
      let wanted =
        names = [] || List.exists (fun n -> Vm.Strutil.contains cname n) names
      in
      if wanted && cls.Vm.Types.cmethods <> [] then
        Format.printf "%s@.@." (Vm.Disasm.class_to_string cls))
    rt.Vm.Types.classes;
  0

(* ---- verify ---- *)

let verify_cmd file =
  let rt, _ = load file in
  let n = Vm.Verifier.verify_all rt in
  Format.printf "ok: %d bytecode method(s) verified@." n;
  0

(* ---- compile: dump the optimized IR of a zero-argument maker ---- *)

let compile_cmd file fn args =
  let rt, p = load file in
  let clo = Mini.Front.call p fn (Array.of_list (List.map parse_arg args)) in
  (match Lancet.Compiler.compile_value rt clo with
  | _ -> ()
  | exception Lancet.Errors.Compile_error msg ->
    Format.printf "compile error: %s@." msg);
  (match !Lancet.Compiler.last_graph with
  | Some g -> Format.printf "%s@." (Lms.Pretty.graph_to_string g)
  | None -> Format.printf "(no graph)@.");
  List.iter
    (fun (w : Lancet.Errors.warning) ->
      Format.printf "warning [%s]: %s@." w.w_tag w.w_msg)
    (Lancet.Errors.take_warnings ());
  0

(* ---- js: cross-compile a closure-producing function ---- *)

let js_cmd file fn args name =
  let rt, p = load file in
  Jsdom.install rt;
  let clo = Mini.Front.call p fn (Array.of_list (List.map parse_arg args)) in
  print_string (Jsdom.cross_compile rt ~name clo ~nargs:0);
  0

(* ---- cmdliner plumbing ---- *)

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let fn_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FUNCTION")
let rest = Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS")

let tiered_flag =
  Arg.(
    value & flag
    & info [ "tiered" ]
        ~doc:"Enable the tiered execution engine: hot methods are JIT-compiled")

let tier_threshold =
  Arg.(
    value & opt int 16
    & info [ "tier-threshold" ] ~docv:"N"
        ~doc:"Hotness threshold (calls + back-edges) for promotion")

let jit_threads =
  Arg.(
    value & opt int 0
    & info [ "jit-threads" ] ~docv:"N"
        ~doc:
          "Compile hot methods on $(docv) background worker domains; the \
           interpreter keeps running at tier 0 until the code is installed. \
           0 (the default) compiles synchronously on the mutator thread.")

let jit_queue =
  Arg.(
    value & opt int 32
    & info [ "jit-queue" ] ~docv:"M"
        ~doc:
          "Capacity of the background compile queue; requests beyond it are \
           dropped (the method retries later), never blocking the mutator")

let trace_opt =
  Arg.(
    value
    & opt ~vopt:(Some "trace.json") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of all JIT events to $(docv) \
           (default trace.json); open in chrome://tracing")

let print_compilation_flag =
  Arg.(
    value & flag
    & info [ "print-compilation" ]
        ~doc:"Log compile/deopt/cache events to stderr as they happen")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print a per-method profile table and tiering counters on exit")

let metrics_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export the run's counters, gauges and latency histograms to \
           $(docv) on exit: Prometheus text exposition when $(docv) ends in \
           .prom, JSON otherwise")

let health_flag =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Enable the decision journal and print the whole-run pathology \
           report (deopt loops, compile churn, cache thrash, ...) on exit")

let chaos_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Arm the deterministic fault-injection harness from $(docv): \
           comma-separated injection sites with parameters, e.g. \
           \"compile_crash:p=0.1,compile_stall:ms=50,seed=42\".  Sites: \
           compile_crash, compile_stall, compile_garbage, queue_full, \
           cache_evict, profile_truncate, profile_corrupt, hier_churn.  \
           Parameters: p (fire probability, default 1), ms (stall \
           duration), n (fire every nth draw); seed=N makes the schedule \
           reproducible.")

let lprof_out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write a warmup profile snapshot (.lprof) to $(docv) on exit: \
           per-method hotness and tier state, inline-cache site states \
           (receivers recorded symbolically, so they survive restarts), \
           devirtualization decisions, the blacklist, and the expected IR \
           fingerprint per compiled method")

let lprof_in_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-in" ] ~docv:"FILE"
        ~doc:
          "Replay a warmup profile snapshot before the program starts: \
           resolve recorded symbols against the loaded program, pre-quicken \
           inline-cache sites, seed hotness counters and batch-enqueue \
           formerly-hot methods for compilation.  A corrupt, truncated or \
           version-mismatched file degrades to a cold start with a \
           diagnostic.")

let run_t =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a Mini function on the bytecode interpreter")
    Term.(
      const run_cmd $ tiered_flag $ tier_threshold $ jit_threads $ jit_queue
      $ trace_opt $ print_compilation_flag $ stats_flag $ metrics_opt
      $ health_flag $ chaos_opt $ lprof_out_opt $ lprof_in_opt $ file $ fn_pos
      $ rest)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Trace output path (default: <prog>.trace.json)")

let trace_repeat =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N" ~doc:"Call FUNCTION $(docv) times")

let trace_fn = Arg.(value & pos 1 string "main" & info [] ~docv:"FUNCTION")

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a Mini function under the tiered JIT and write a Chrome \
          trace_event JSON plus a per-method profile table")
    Term.(
      const trace_cmd $ tier_threshold $ jit_threads $ jit_queue $ trace_repeat
      $ trace_out $ file $ trace_fn $ rest)

let sample_interval =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"MS"
        ~doc:"Sampling interval of the call-stack profiler, in milliseconds")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Folded-stack output path (default: <prog>.folded)")

let profile_t =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a Mini function under the tiered JIT with the sampling \
          profiler: per-source-line residency table plus a folded-stack \
          file for flamegraph tools")
    Term.(
      const profile_cmd $ tier_threshold $ trace_repeat $ sample_interval
      $ profile_out $ file $ trace_fn $ rest)

let no_residency_flag =
  Arg.(
    value & flag
    & info [ "no-residency" ]
        ~doc:"Skip the sampling profiler (annotate JIT decisions only)")

let explain_ir_flag =
  Arg.(
    value & flag
    & info [ "ir" ]
        ~doc:
          "Also annotate each line with the number of IR nodes it \
           contributed to each compiler phase (stage / dce / backend)")

let explain_t =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a Mini function under the tiered JIT and print the source \
          annotated per line with tier promotions, compilations, deopt \
          sites and profile residency")
    Term.(
      const explain_cmd $ tier_threshold $ trace_repeat $ sample_interval
      $ no_residency_flag $ explain_ir_flag $ file $ trace_fn $ rest)

let ir_method =
  Arg.(
    value
    & opt (some string) None
    & info [ "method" ] ~docv:"NAME"
        ~doc:"Only show compiles whose method label contains $(docv)")

let ir_phase =
  Arg.(
    value
    & opt (some string) None
    & info [ "phase" ] ~docv:"PHASE"
        ~doc:
          "Only show snapshots whose phase name contains $(docv) (phases: \
           stage, dce, guards:<backend>, schedule:<backend>)")

let ir_diff_flag =
  Arg.(
    value & flag
    & info [ "diff" ]
        ~doc:
          "Show the structural delta between consecutive phases of each \
           compile: node-count change, op kinds created/eliminated, and \
           per-source-line node deltas")

let ir_t =
  Cmd.v
    (Cmd.info "ir"
       ~doc:
         "Run a Mini function under the tiered JIT, capturing an IR \
          snapshot of every compile after each pipeline phase (staging, \
          DCE, guard lowering, backend scheduling), and print the \
          snapshots with node counts, per-line attribution and structural \
          fingerprints")
    Term.(
      const ir_cmd $ tier_threshold $ jit_threads $ jit_queue $ trace_repeat
      $ ir_method $ ir_phase $ ir_diff_flag $ file $ trace_fn $ rest)

let coach_t =
  Cmd.v
    (Cmd.info "coach"
       ~doc:
         "Run a Mini function under the tiered JIT with the \
          missed-optimization recorder and the sampling profiler on, then \
          print a ranked report of optimizations the compiler declined \
          (effect-blocked CSE, megamorphic devirtualization, unfused \
          guards, ...) with source locations, hotness, and a suggested fix \
          for each")
    Term.(
      const coach_cmd $ tier_threshold $ trace_repeat $ sample_interval
      $ file $ trace_fn $ rest)

let why_method =
  Arg.(
    value
    & opt (some string) None
    & info [ "method" ] ~docv:"NAME"
        ~doc:
          "Only show methods whose label contains $(docv) (e.g. \"f\" \
           matches \"Main.f\")")

let why_t =
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Run a Mini function under the tiered JIT with the decision \
          journal on and print each method's causal timeline: every \
          promote/compile/install/deopt/invalidate decision with the \
          trigger that caused it, annotated with source lines")
    Term.(
      const why_cmd $ tier_threshold $ jit_threads $ jit_queue $ trace_repeat
      $ why_method $ file $ trace_fn $ rest)

let strict_flag =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero when any pathology is detected, so CI and scripts \
           can gate on VM health")

let health_t =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a Mini function under the tiered JIT and print a whole-run \
          health report: detected pathologies (deopt loops, compile churn, \
          cache thrash, megamorphic hot sites, blacklisted methods) with \
          journal evidence and a suggested knob for each")
    Term.(
      const health_cmd $ tier_threshold $ jit_threads $ jit_queue
      $ trace_repeat $ metrics_opt $ strict_flag $ file $ trace_fn $ rest)

let disasm_names =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"CLASS-SUBSTRING")

let disasm_t =
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble the bytecode generated for FILE")
    Term.(const disasm_cmd $ file $ disasm_names)

let verify_t =
  Cmd.v
    (Cmd.info "verify" ~doc:"Run the bytecode verifier over FILE's output")
    Term.(const verify_cmd $ file)

let compile_t =
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Call FUNCTION (which must return a closure), Lancet-compile the \
          closure and print the optimized IR")
    Term.(const compile_cmd $ file $ fn_pos $ rest)

let js_name =
  Arg.(value & opt string "kernel" & info [ "name" ] ~docv:"NAME")

let js_t =
  Cmd.v
    (Cmd.info "js"
       ~doc:"Cross-compile the closure returned by FUNCTION to JavaScript")
    Term.(const js_cmd $ file $ fn_pos $ rest $ js_name)

let () =
  let doc = "Lancet: a surgical-precision JIT for Mini/VM bytecode" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "lancet" ~doc)
          [ run_t; trace_t; profile_t; explain_t; ir_t; coach_t; why_t;
            health_t; disasm_t; verify_t; compile_t; js_t ]))
