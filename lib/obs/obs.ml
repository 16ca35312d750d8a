(* Structured observability for the surgical JIT (the "what did the JIT
   actually do" layer): a zero-dependency event bus with typed events and
   pluggable sinks.

   Design constraints, in order:
   1. When no sink is attached, an emit site must cost a single load+branch
      (`if !Obs.enabled then Obs.emit (...)`) — the event payload is only
      allocated inside the branch.  This keeps instrumentation in the
      interpreter dispatch loop and the compiled-code entry points free.
   2. The bus is below every other library (it knows nothing about the VM),
      so events carry plain strings and ints: method ids, "Cls.name" labels,
      bytecode pcs.  The VM/JIT layers translate at the emit site.
   3. Sinks are synchronous and composable: here a ring buffer for tests
      and post-mortem dumps and a Chrome trace_event JSON writer for
      chrome://tracing; elsewhere the run aggregate ([Profiler]), the
      decision journal ([Forensics]) and the metrics bundle ([Metrics]).
      The engine emits each JIT decision once, with its [cause], and every
      sink sees the same stream.
   4. The bus is domain-safe: with background JIT compilation, events
      arrive concurrently from worker domains, so sink dispatch is guarded
      by a mutex.  The no-sink fast path is unchanged — a single
      load+branch, no lock taken. *)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

type compile_info = {
  ci_meth : string; (* "Cls.name"; "tier:Cls.name" or "osr:Cls.name@pc"
                       for a tiered or OSR compile *)
  ci_mid : int; (* method id, stable key across events *)
  ci_tier : int; (* 1 = tiered method JIT, 0 = explicit Lancet.compile *)
  ci_worker : int; (* JIT worker domain running the compile; 0 = mutator *)
  ci_backend : string; (* "typed" | "closure" | "native" | "failed" *)
  ci_fallback : string option; (* why the typed mode refused the graph *)
  ci_nodes_in : int; (* IR nodes after staging, before optimization *)
  ci_nodes_out : int; (* after dead-code elimination *)
  ci_ms : float; (* wall time of stage + opt + backend *)
}

type deopt_kind = Interpret | Recompile

(* Why the engine took a decision.  An event that records a decision
   carries its cause, in a [cause] field or spelled by its own fields (see
   [cause_of]); [Unattributed] is the explicit "no recorded trigger" value,
   so emit sites never invent one. *)
type cause =
  | Hotness of { calls : int; backedges : int }
      (* crossed the promotion threshold *)
  | Guard of { tag : string; pc : int; line : int }
      (* a compiled-in guard (speculate/stable/devirt) observed a miss *)
  | Hier_change of { epoch : int; name : string }
      (* late (re)definition of virtual [name] bumped the hierarchy epoch *)
  | Gen_mismatch of { expected : int; found : int }
      (* generation stamp moved while the compile was in flight *)
  | Epoch_mismatch of { expected : int; found : int }
      (* hierarchy epoch moved while a speculating compile was in flight *)
  | Queue_full of { capacity : int } (* background queue saturated *)
  | Eviction_pressure of { occupancy : int; capacity : int }
      (* code cache at capacity; FIFO victim chosen *)
  | Worker_failure of { err : string } (* compile raised on a worker *)
  | Devirt_miss of { target : string; fails : int }
      (* repeated devirt guard misses crossed the reprofile threshold *)
  | Ic_miss of { seen : string } (* receiver class not in the inline cache *)
  | Recompile_exit of { tag : string }
      (* a [stable] side exit requested recompilation *)
  | Profile_replay of { src : string }
      (* the decision was seeded from a persisted profile snapshot *)
  | Profile_stale of { expected : string; found : string }
      (* a warm compile disagreed with the snapshot: recorded vs rebuilt
         IR fingerprint, or a recorded symbol that no longer resolves *)
  | Shutdown_timeout of { ms : int }
      (* bounded shutdown expired before the queue drained *)
  | Chaos_fault of { site : string } (* injected by the chaos harness *)
  | Loop_steps of { steps : int; pc : int; line : int }
      (* an interpreter frame ran [steps] bytecodes of its own and was at
         a back edge to the loop header at [pc] *)
  | Native_decline of { why : string }
      (* the native tier gave an upgrade up and kept the typed code *)
  | Unattributed

type event =
  | Compile_start of { meth : string; mid : int; tier : int; worker : int }
  | Compile_end of compile_info
  | Compile_enqueue of { meth : string; mid : int; gen : int; depth : int; cause : cause }
      (* a compile request entered the background queue; [depth] is the
         queue depth just after the enqueue *)
  | Compile_dequeue of { meth : string; mid : int; worker : int; depth : int }
      (* a JIT worker picked the request up; [depth] is what remains *)
  | Compile_blacklist of {
      meth : string;
      mid : int;
      worker : int;
      loc : string; (* "file:line" of the method definition, or "?" *)
      err : string; (* the exception / refusal that killed the compile *)
      cause : cause;
    }
  | Compile_drop of { meth : string; mid : int; cause : cause }
      (* a compile request was turned away; the method keeps interpreting *)
  | Compile_discard of { meth : string; mid : int; cause : cause }
      (* an in-flight compile's result was thrown away, not installed *)
  | Deopt of {
      meth : string;
      mid : int;
      kind : deopt_kind;
      tag : string;
      pc : int;
      line : int; (* source line of the side-exit site; 0 = unknown *)
    }
  | Tier_promote of { meth : string; mid : int; calls : int; backedges : int }
  | Cache_install of { meth : string; mid : int; gen : int; occ : int }
      (* [occ] on the cache events is the number of resident compiled
         methods just after the operation, for occupancy tracking *)
  | Cache_evict of { meth : string; mid : int; occ : int; cap : int }
      (* FIFO eviction from a cache that holds at most [cap] methods *)
  | Cache_invalidate of { meth : string; mid : int; gen : int; occ : int; cause : cause }
  | Macro_expand of { name : string; in_meth : string }
  | Interp_call of { meth : string; mid : int; calls : int; backedges : int }
  | Exec_sample of { meth : string; mid : int; calls : int; ms : float; line : int }
      (* cumulative compiled-code execution since the previous sample;
         [line] is the method's defining source line (0 = unknown) *)
  | Stack_sample of { stack : (string * int) list }
      (* one interpreter call-stack sample, innermost frame first:
         (method label, source line at the sampled pc; 0 = unknown) *)
  | Span_begin of { name : string; cat : string }
  | Span_end of { name : string; cat : string; ms : float }
  | Ic_transition of {
      meth : string; (* enclosing method label *)
      mid : int;
      pc : int;
      line : int;
      callee : string; (* virtual method name the site dispatches *)
      from_state : string; (* "none" | "empty" | "mono" | "poly" | "mega" *)
      to_state : string; (* a cache state, or "quickened" *)
      cause : cause; (* [Ic_miss] on a transition the interpreter saw *)
    }
  | Devirt_guard_fail of {
      meth : string;
      mid : int;
      pc : int;
      target : string; (* "name@ExpectedCls" the compiled guard tested *)
    }
  | Osr_entry of {
      meth : string;
      mid : int;
      pc : int; (* the loop header the code was compiled from *)
      line : int; (* its source line; 0 = unknown *)
      steps : int; (* bytecodes the frame itself had run *)
    }
      (* an interpreter frame entered code compiled from a loop header *)
  | Osr_decline of { meth : string; mid : int; pc : int; why : string; cause : cause }
      (* no OSR entry at the header at [pc]: its compile failed, or the
         frame no longer matched the code *)
  | Guard_plant of { meth : string; mid : int; tag : string; pc : int; line : int }
      (* the compiler emitted a side-exit guard at this site *)
  | Devirt_install of { meth : string; mid : int; deps : string list }
      (* installed code speculates on dispatch of these names *)
  | Devirt_kill of { meth : string; mid : int; name : string; epoch : int }
      (* a late (re)definition of [name] killed the speculation on it *)
  | Ir_fingerprint of { meth : string; mid : int; phase : string; fp : string; cause : cause }
      (* structural fingerprint of the optimized graph ([Lms.Snapshot]) *)
  | Abandon of { pending : int; cause : cause }
      (* bounded shutdown walked away from queued compile requests *)

(* The cause an event carries: its [cause] field, or the trigger its own
   fields spell. *)
let cause_of = function
  | Tier_promote { calls; backedges; _ } -> Hotness { calls; backedges }
  | Deopt { tag; pc; line; _ } -> Guard { tag; pc; line }
  | Osr_entry { steps; pc; line; _ } -> Loop_steps { steps; pc; line }
  | Cache_evict { occ; cap; _ } ->
    Eviction_pressure { occupancy = occ; capacity = cap }
  | Devirt_kill { name; epoch; _ } -> Hier_change { epoch; name }
  | Compile_enqueue { cause; _ } | Compile_blacklist { cause; _ }
  | Compile_drop { cause; _ } | Compile_discard { cause; _ }
  | Cache_invalidate { cause; _ } | Ic_transition { cause; _ }
  | Osr_decline { cause; _ } | Ir_fingerprint { cause; _ }
  | Abandon { cause; _ } ->
    cause
  | _ -> Unattributed

(* The method an event is about, as (method id, "Cls.name"); (-1, "") for
   an event about no one method. *)
let about = function
  | Compile_start { mid; meth; _ } | Compile_enqueue { mid; meth; _ }
  | Compile_dequeue { mid; meth; _ } | Compile_blacklist { mid; meth; _ }
  | Compile_drop { mid; meth; _ } | Compile_discard { mid; meth; _ }
  | Deopt { mid; meth; _ } | Tier_promote { mid; meth; _ }
  | Cache_install { mid; meth; _ } | Cache_evict { mid; meth; _ }
  | Cache_invalidate { mid; meth; _ } | Interp_call { mid; meth; _ }
  | Exec_sample { mid; meth; _ } | Ic_transition { mid; meth; _ }
  | Devirt_guard_fail { mid; meth; _ } | Osr_entry { mid; meth; _ }
  | Osr_decline { mid; meth; _ } | Guard_plant { mid; meth; _ }
  | Devirt_install { mid; meth; _ } | Devirt_kill { mid; meth; _ }
  | Ir_fingerprint { mid; meth; _ } ->
    (mid, meth)
  | Compile_end { ci_mid; ci_meth; _ } -> (
    (* a tiered or OSR compile's label names the method it compiles *)
    match String.index_opt ci_meth ':' with
    | None -> (ci_mid, ci_meth)
    | Some i -> (
      let m = String.sub ci_meth (i + 1) (String.length ci_meth - i - 1) in
      match String.rindex_opt m '@' with
      | Some j -> (ci_mid, String.sub m 0 j)
      | None -> (ci_mid, m)))
  | Macro_expand _ | Stack_sample _ | Span_begin _ | Span_end _ | Abandon _ ->
    (-1, "")

let at_line pc line =
  if line > 0 then Printf.sprintf "@pc %d (line %d)" pc line
  else Printf.sprintf "@pc %d" pc

let short_fp s = if String.length s > 12 then String.sub s 0 12 else s

let cause_to_string = function
  | Hotness c -> Printf.sprintf "hot: calls=%d backedges=%d" c.calls c.backedges
  | Guard c -> Printf.sprintf "guard '%s' missed %s" c.tag (at_line c.pc c.line)
  | Hier_change c ->
    Printf.sprintf "hierarchy change of '%s' (epoch %d)" c.name c.epoch
  | Gen_mismatch c ->
    Printf.sprintf "generation moved %d -> %d during compile" c.expected c.found
  | Epoch_mismatch c ->
    Printf.sprintf "hierarchy epoch moved %d -> %d during compile" c.expected
      c.found
  | Queue_full c -> Printf.sprintf "compile queue full (capacity %d)" c.capacity
  | Eviction_pressure c ->
    Printf.sprintf "cache pressure (%d/%d resident)" c.occupancy c.capacity
  | Worker_failure c -> Printf.sprintf "worker failure: %s" c.err
  | Devirt_miss c ->
    Printf.sprintf "devirt guard on '%s' missed x%d" c.target c.fails
  | Ic_miss c -> Printf.sprintf "receiver %s not cached" c.seen
  | Recompile_exit c -> Printf.sprintf "recompile exit '%s'" c.tag
  | Profile_replay c -> Printf.sprintf "replayed from profile %s" c.src
  | Profile_stale c ->
    Printf.sprintf "profile stale: recorded %s, got %s" (short_fp c.expected)
      (short_fp c.found)
  | Shutdown_timeout c -> Printf.sprintf "shutdown timed out after %dms" c.ms
  | Chaos_fault c -> Printf.sprintf "chaos fault '%s'" c.site
  | Loop_steps c ->
    Printf.sprintf "loop: %d own steps, back edge to %s" c.steps
      (at_line c.pc c.line)
  | Native_decline c -> Printf.sprintf "native code declined: %s" c.why
  | Unattributed -> ""

(* THE event-kind renderer.  Every sink that prints a kind goes through
   this one function (the per-sink match arms it replaces had drifted out
   of sync as events were added across releases). *)
let kind_to_string = function
  | Compile_start _ -> "compile-start"
  | Compile_end _ -> "compile-end"
  | Compile_enqueue _ -> "compile-enqueue"
  | Compile_dequeue _ -> "compile-dequeue"
  | Compile_blacklist _ -> "compile-blacklist"
  | Compile_drop _ -> "compile-drop"
  | Compile_discard _ -> "compile-discard"
  | Deopt _ -> "deopt"
  | Tier_promote _ -> "tier-promote"
  | Cache_install _ -> "cache-install"
  | Cache_evict _ -> "cache-evict"
  | Cache_invalidate _ -> "cache-invalidate"
  | Macro_expand _ -> "macro-expand"
  | Interp_call _ -> "interp-call"
  | Exec_sample _ -> "exec-sample"
  | Stack_sample _ -> "stack-sample"
  | Span_begin _ -> "span-begin"
  | Span_end _ -> "span-end"
  | Ic_transition _ -> "ic-transition"
  | Devirt_guard_fail _ -> "devirt-guard-fail"
  | Osr_entry _ -> "osr-entry"
  | Osr_decline _ -> "osr-decline"
  | Guard_plant _ -> "guard-plant"
  | Devirt_install _ -> "devirt-install"
  | Devirt_kill _ -> "devirt-kill"
  | Ir_fingerprint _ -> "ir-fingerprint"
  | Abandon _ -> "abandon"

(* What the engine decided, in words: the decision journal's phrasing,
   which the text and Chrome sinks reuse for the decisions that have no
   renderer of their own. *)
let describe ev =
  match ev with
  | Tier_promote _ -> "promoted to tier 1"
  | Compile_enqueue e ->
    Printf.sprintf "compile enqueued (gen=%d depth=%d)" e.gen e.depth
  | Compile_dequeue e -> Printf.sprintf "compile dequeued (depth=%d)" e.depth
  | Compile_drop _ -> "compile request dropped"
  | Compile_end c ->
    Printf.sprintf "compiled (%s backend, %.2fms)" c.ci_backend c.ci_ms
  | Cache_install e -> Printf.sprintf "code installed (gen=%d)" e.gen
  | Compile_discard _ -> "compile result discarded"
  | Deopt e ->
    Printf.sprintf "deopt %s '%s'%s" (at_line e.pc e.line) e.tag
      (match e.kind with
      | Recompile -> " -> recompile"
      | Interpret -> " -> interpreter")
  | Cache_invalidate e -> Printf.sprintf "code invalidated (gen=%d)" e.gen
  | Compile_blacklist e -> Printf.sprintf "blacklisted: %s" e.err
  | Cache_evict _ -> "evicted from code cache"
  | Guard_plant e ->
    Printf.sprintf "guard '%s' planted %s" e.tag (at_line e.pc e.line)
  | Devirt_install e ->
    Printf.sprintf "devirtualized on {%s}" (String.concat ", " e.deps)
  | Devirt_kill e -> Printf.sprintf "devirtualization of '%s' killed" e.name
  | Ic_transition e ->
    Printf.sprintf "inline cache %s -> %s on '%s'" (at_line e.pc e.line)
      e.to_state e.callee
  | Ir_fingerprint e ->
    Printf.sprintf "IR fingerprint %s (%s)" (short_fp e.fp) e.phase
  | Abandon e ->
    Printf.sprintf "%d queued compile(s) abandoned at shutdown" e.pending
  | Osr_entry _ -> "entered OSR code mid-call"
  | Osr_decline e -> Printf.sprintf "OSR at @pc %d declined: %s" e.pc e.why
  | _ -> kind_to_string ev

let deopt_kind_name = function Interpret -> "interpret" | Recompile -> "recompile"

let to_string ev =
  match ev with
  | Compile_start e ->
    Printf.sprintf "%-16s tier%d %s%s" (kind_to_string ev) e.tier e.meth
      (if e.worker > 0 then Printf.sprintf " [worker %d]" e.worker else "")
  | Compile_end c ->
    Printf.sprintf "%-16s tier%d %-32s backend=%s%s nodes %d->%d %.2fms%s"
      (kind_to_string ev) c.ci_tier c.ci_meth c.ci_backend
      (match c.ci_fallback with
      | Some r -> Printf.sprintf " (fallback: %s)" r
      | None -> "")
      c.ci_nodes_in c.ci_nodes_out c.ci_ms
      (if c.ci_worker > 0 then Printf.sprintf " [worker %d]" c.ci_worker
       else "")
  | Compile_enqueue e ->
    Printf.sprintf "%-16s %s gen=%d depth=%d" (kind_to_string ev) e.meth e.gen
      e.depth
  | Compile_dequeue e ->
    Printf.sprintf "%-16s %s [worker %d] depth=%d" (kind_to_string ev) e.meth
      e.worker e.depth
  | Compile_blacklist e ->
    Printf.sprintf "%-16s %s [worker %d] at %s: %s" (kind_to_string ev) e.meth
      e.worker e.loc e.err
  | Deopt e ->
    Printf.sprintf "%-16s %s @pc %d%s (%s, %s)" (kind_to_string ev) e.meth e.pc
      (if e.line > 0 then Printf.sprintf " line %d" e.line else "")
      e.tag (deopt_kind_name e.kind)
  | Tier_promote e ->
    Printf.sprintf "%-16s %s (calls=%d backedges=%d)" (kind_to_string ev) e.meth
      e.calls e.backedges
  | Cache_install e ->
    Printf.sprintf "%-16s %s gen=%d occ=%d" (kind_to_string ev) e.meth e.gen
      e.occ
  | Cache_evict e ->
    Printf.sprintf "%-16s %s occ=%d" (kind_to_string ev) e.meth e.occ
  | Cache_invalidate e ->
    Printf.sprintf "%-16s %s gen=%d occ=%d" (kind_to_string ev) e.meth e.gen
      e.occ
  | Macro_expand e ->
    Printf.sprintf "%-16s %s in %s" (kind_to_string ev) e.name e.in_meth
  | Interp_call e ->
    Printf.sprintf "%-16s %s calls=%d backedges=%d" (kind_to_string ev) e.meth
      e.calls e.backedges
  | Exec_sample e ->
    Printf.sprintf "%-16s %s calls=%d %.3fms" (kind_to_string ev) e.meth e.calls e.ms
  | Stack_sample e ->
    Printf.sprintf "%-16s %s" (kind_to_string ev)
      (String.concat ";"
         (List.map
            (fun (m, l) -> if l > 0 then Printf.sprintf "%s:%d" m l else m)
            e.stack))
  | Span_begin e -> Printf.sprintf "%-16s %s [%s]" (kind_to_string ev) e.name e.cat
  | Span_end e ->
    Printf.sprintf "%-16s %s [%s] %.3fms" (kind_to_string ev) e.name e.cat e.ms
  | Ic_transition e ->
    Printf.sprintf "%-16s %s @pc %d %s %s->%s" (kind_to_string ev) e.meth e.pc
      e.callee e.from_state e.to_state
  | Devirt_guard_fail e ->
    Printf.sprintf "%-16s %s @pc %d %s" (kind_to_string ev) e.meth e.pc e.target
  | Osr_entry e ->
    Printf.sprintf "%-16s %s @pc %d%s after %d steps" (kind_to_string ev) e.meth
      e.pc
      (if e.line > 0 then Printf.sprintf " line %d" e.line else "")
      e.steps
  | Compile_drop _ | Compile_discard _ | Osr_decline _ | Guard_plant _
  | Devirt_install _ | Devirt_kill _ | Ir_fingerprint _ | Abandon _ ->
    let cause = cause_to_string (cause_of ev) in
    Printf.sprintf "%-16s %s%s%s" (kind_to_string ev)
      (match about ev with _, "" -> "" | _, m -> m ^ ": ")
      (describe ev)
      (if cause = "" then "" else "  <- " ^ cause)

(* The compilation-lifecycle subset, for -print-compilation-style logs:
   everything a method's journey through the JIT produces, excluding the
   high-frequency sampling/span noise.  Shared by the CLI's
   --print-compilation filter so new event kinds show up there by default. *)
let compilation_event = function
  | Macro_expand _ | Interp_call _ | Exec_sample _ | Stack_sample _
  | Span_begin _ | Span_end _ ->
    false
  | _ -> true

(* ------------------------------------------------------------------ *)
(* The bus                                                             *)

type sink = {
  sink_name : string;
  sink_emit : ts:float -> event -> unit; (* ts: seconds, monotonic *)
  sink_flush : unit -> unit;
}

(* THE fast-path flag: true iff at least one sink is attached.  Emit sites
   must read it before allocating their event payload. *)
let enabled = ref false

let sinks : sink list ref = ref []

(* Sink dispatch is serialized: events arrive concurrently from the mutator
   and background JIT worker domains, and the stock sinks mutate shared
   buffers/tables.  The lock is taken only after the [enabled] check, so
   the no-sink fast path stays a single load+branch. *)
let bus_lock = Mutex.create ()

let locked f =
  Mutex.lock bus_lock;
  match f () with
  | v ->
    Mutex.unlock bus_lock;
    v
  | exception e ->
    Mutex.unlock bus_lock;
    raise e

(* Which JIT worker domain is running, for worker-tagged events (and the
   per-worker tracks of the Chrome sink).  0 = the mutator; background
   workers set 1..N at startup. *)
let worker_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let set_worker i = Domain.DLS.set worker_key i

let worker_id () = Domain.DLS.get worker_key

(* Monotonic time in seconds (CLOCK_MONOTONIC via bechamel's C stub).  All
   durations, sink timestamps and the sampling deadline use this source, so
   a wall-clock step can never corrupt a span or compile timing.  [epoch]
   remains available for the rare consumer that needs absolute time; no
   current sink does (Chrome trace timestamps are relative to trace start). *)
let monotime () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let epoch = Unix.gettimeofday

let now = monotime

let attach s =
  locked (fun () ->
      sinks := !sinks @ [ s ];
      enabled := true)

let detach s =
  locked (fun () ->
      sinks := List.filter (fun x -> x != s) !sinks;
      enabled := !sinks <> [])

let emit ev =
  if !enabled then begin
    let ts = now () in
    locked (fun () -> List.iter (fun s -> s.sink_emit ~ts ev) !sinks)
  end

(* Pre-flush hooks: emitters that batch state between events (e.g. the
   compiled-code execution sampler in [Tiering], which accumulates wall time
   and flushes every 64th call) register a hook here so the remainder is
   emitted before sinks flush or a trace is written — otherwise short runs
   under-report.  Hooks must be idempotent; they run outside [bus_lock]
   because they emit. *)
let flushers : (unit -> unit) list ref = ref []

let add_flusher f = locked (fun () -> flushers := f :: !flushers)

let run_flushers () =
  let fs = locked (fun () -> !flushers) in
  List.iter (fun f -> f ()) fs

(* One [at_exit] for every exit-time writer: the Chrome-trace writer, the
   profile-snapshot writer and pending Exec_sample remainders all register
   plain flushers and this single hook runs the registry once at process
   exit.  Idempotent, so layered boots ([boot_bg] calls [boot]) and multiple
   writers never stack duplicate [at_exit] registrations. *)
let exit_flush_armed = ref false

let arm_exit_flush () =
  let arm =
    locked (fun () ->
        if !exit_flush_armed then false
        else begin
          exit_flush_armed := true;
          true
        end)
  in
  if arm then at_exit run_flushers

let flush () =
  run_flushers ();
  locked (fun () -> List.iter (fun s -> s.sink_flush ()) !sinks)

let with_sink s f =
  attach s;
  Fun.protect ~finally:(fun () -> detach s) f

(* ------------------------------------------------------------------ *)
(* Sampling checkpoint (driven by the interpreter, consumed by the
   profiler in [Profiler]).  The flag lives here, not in the profiler
   module, so the interpreter's fast path is a single load+branch with no
   cross-module cycle: [Profiler] depends on [Obs], never the reverse. *)

let sampling = ref false

let sample_interval = ref 0.001 (* seconds *)

let sample_next = ref infinity (* monotonic deadline for the next sample *)

let start_sampling ?(interval_ms = 1.0) () =
  sample_interval := Float.max 1e-5 (interval_ms /. 1000.);
  sample_next := monotime ();
  sampling := true

let stop_sampling () =
  sampling := false;
  sample_next := infinity

(* Called from a sampling checkpoint (guarded by [!sampling]): true when a
   sample is due now, advancing the deadline.  Skipped intervals (a long
   pause in compiled code or a blocking native) do not cause a burst of
   catch-up samples: the next deadline is always relative to [now]. *)
let sample_due () =
  !sampling
  &&
  let t = monotime () in
  if t >= !sample_next then begin
    sample_next := t +. !sample_interval;
    true
  end
  else false

(* Phase span: Span_begin/Span_end around [f], timing included.  With no
   sink attached this is a single branch plus a tail call. *)
let span ?(cat = "phase") name f =
  if not !enabled then f ()
  else begin
    emit (Span_begin { name; cat });
    let t0 = now () in
    let fin () = emit (Span_end { name; cat; ms = (now () -. t0) *. 1000. }) in
    match f () with
    | v ->
      fin ();
      v
    | exception e ->
      fin ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Ring-buffer sink                                                    *)

module Ring = struct
  (* A bounded ring of any element type: the stock sink below keeps
     (timestamp, event) pairs, the decision journal ([Forensics]) its
     decisions and [Irtrace] its IR snapshots.  Pushes and reads of a ring
     fed by a sink run under [bus_lock]; Irtrace's under its own lock. *)
  type 'a t = {
    cap : int;
    mutable data : 'a array; (* allocated by the first push *)
    mutable n : int; (* total elements ever pushed *)
  }

  let create ?(capacity = 8192) () = { cap = max 1 capacity; data = [||]; n = 0 }

  let push t x =
    if Array.length t.data = 0 then t.data <- Array.make t.cap x;
    t.data.(t.n mod t.cap) <- x;
    t.n <- t.n + 1

  let capacity t = t.cap

  let seen t = t.n

  (* oldest-first; at most [cap] entries survive wraparound *)
  let contents t =
    let k = min t.n t.cap in
    List.init k (fun i -> t.data.((t.n - k + i) mod t.cap))

  let events t = List.map snd (contents t)

  let clear t = t.n <- 0

  let sink t =
    {
      sink_name = "ring";
      sink_emit = (fun ~ts ev -> push t (ts, ev));
      sink_flush = ignore;
    }
end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON sink (load in chrome://tracing or Perfetto)  *)

module Chrome = struct
  type t = { buf : Buffer.t; mutable count : int; t0 : float }

  let create () = { buf = Buffer.create 4096; count = 0; t0 = now () }

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* one trace_event record; [args] are pre-rendered "key":value pairs.
     [tid] 1 is the mutator; background JIT workers use 1+worker so their
     compiles render as separate tracks in chrome://tracing. *)
  let record t ?(tid = 1) ~ph ~name ~cat ~ts_us (args : string list) =
    if t.count > 0 then Buffer.add_string t.buf ",\n";
    t.count <- t.count + 1;
    Buffer.add_string t.buf
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
         (escape name) (escape cat) ph tid ts_us);
    (match ph with
    | "i" -> Buffer.add_string t.buf ",\"s\":\"t\""
    | _ -> ());
    (match args with
    | [] -> ()
    | l ->
      Buffer.add_string t.buf ",\"args\":{";
      Buffer.add_string t.buf (String.concat "," l);
      Buffer.add_string t.buf "}");
    Buffer.add_string t.buf "}"

  let str k v = Printf.sprintf "\"%s\":\"%s\"" k (escape v)
  let int_ k v = Printf.sprintf "\"%s\":%d" k v
  let float_ k v = Printf.sprintf "\"%s\":%.3f" k v

  let on_event t ~ts ev =
    let ts_us = (ts -. t.t0) *. 1e6 in
    (* every record names its event kind, and a decision its cause *)
    let tags =
      str "ev" (kind_to_string ev)
      :: (match cause_to_string (cause_of ev) with
         | "" -> []
         | c -> [ str "cause" c ])
    in
    match ev with
    | Compile_start e ->
      record t ~tid:(1 + e.worker) ~ph:"B" ~name:("compile " ^ e.meth)
        ~cat:"jit" ~ts_us
        (tags @ [ int_ "tier" e.tier; int_ "mid" e.mid;
          int_ "worker" e.worker ])
    | Compile_end c ->
      record t ~tid:(1 + c.ci_worker) ~ph:"E"
        ~name:("compile " ^ c.ci_meth) ~cat:"jit" ~ts_us
        (tags @ [ int_ "tier" c.ci_tier; str "backend" c.ci_backend;
           int_ "nodes_in" c.ci_nodes_in; int_ "nodes_out" c.ci_nodes_out;
           float_ "ms" c.ci_ms ]
        @ match c.ci_fallback with Some r -> [ str "fallback" r ] | None -> [])
    | Compile_enqueue e ->
      record t ~ph:"i" ~name:("enqueue " ^ e.meth) ~cat:"jit" ~ts_us
        (tags @ [ int_ "gen" e.gen; int_ "depth" e.depth ]);
      record t ~ph:"C" ~name:"jit-queue-depth" ~cat:"jit" ~ts_us
        [ int_ "depth" e.depth ]
    | Compile_dequeue e ->
      record t ~tid:(1 + e.worker) ~ph:"i" ~name:("dequeue " ^ e.meth)
        ~cat:"jit" ~ts_us
        (tags @ [ int_ "worker" e.worker; int_ "depth" e.depth ]);
      record t ~ph:"C" ~name:"jit-queue-depth" ~cat:"jit" ~ts_us
        [ int_ "depth" e.depth ]
    | Compile_blacklist e ->
      record t ~tid:(1 + e.worker) ~ph:"i" ~name:("blacklist " ^ e.meth)
        ~cat:"jit" ~ts_us
        (tags @ [ str "loc" e.loc; str "err" e.err ])
    | Deopt e ->
      record t ~ph:"i" ~name:("deopt " ^ e.tag) ~cat:"jit" ~ts_us
        (tags @ [ str "meth" e.meth; int_ "pc" e.pc;
          str "kind" (deopt_kind_name e.kind) ])
    | Tier_promote e ->
      record t ~ph:"i" ~name:("promote " ^ e.meth) ~cat:"jit" ~ts_us
        (tags @ [ int_ "calls" e.calls; int_ "backedges" e.backedges ])
    | Cache_install e ->
      record t ~ph:"i" ~name:("install " ^ e.meth) ~cat:"cache" ~ts_us
        (tags @ [ int_ "gen" e.gen ]);
      record t ~ph:"C" ~name:"code-cache-occupancy" ~cat:"cache" ~ts_us
        [ int_ "resident" e.occ ]
    | Cache_evict e ->
      record t ~ph:"i" ~name:("evict " ^ e.meth) ~cat:"cache" ~ts_us tags;
      record t ~ph:"C" ~name:"code-cache-occupancy" ~cat:"cache" ~ts_us
        [ int_ "resident" e.occ ]
    | Cache_invalidate e ->
      record t ~ph:"i" ~name:("invalidate " ^ e.meth) ~cat:"cache" ~ts_us
        (tags @ [ int_ "gen" e.gen ]);
      record t ~ph:"C" ~name:"code-cache-occupancy" ~cat:"cache" ~ts_us
        [ int_ "resident" e.occ ]
    | Macro_expand e ->
      record t ~ph:"i" ~name:("macro " ^ e.name) ~cat:"jit" ~ts_us
        (tags @ [ str "in" e.in_meth ])
    | Interp_call e ->
      record t ~ph:"i" ~name:("interp " ^ e.meth) ~cat:"interp" ~ts_us
        (tags @ [ int_ "calls" e.calls; int_ "backedges" e.backedges ])
    | Exec_sample e ->
      record t ~ph:"i" ~name:("exec " ^ e.meth) ~cat:"exec" ~ts_us
        (tags @ [ int_ "calls" e.calls; float_ "ms" e.ms ])
    | Stack_sample e ->
      let leaf =
        match e.stack with
        | (m, l) :: _ -> if l > 0 then Printf.sprintf "%s:%d" m l else m
        | [] -> "?"
      in
      record t ~ph:"i" ~name:("sample " ^ leaf) ~cat:"profile" ~ts_us
        (tags @ [ int_ "depth" (List.length e.stack) ])
    | Span_begin e -> record t ~ph:"B" ~name:e.name ~cat:e.cat ~ts_us tags
    | Span_end e ->
      record t ~ph:"E" ~name:e.name ~cat:e.cat ~ts_us
        (tags @ [ float_ "ms" e.ms ])
    | Ic_transition e ->
      record t ~ph:"i" ~name:("ic " ^ e.callee) ~cat:"interp" ~ts_us
        (tags @ [ str "meth" e.meth; int_ "pc" e.pc;
          str "from" e.from_state; str "to" e.to_state ])
    | Devirt_guard_fail e ->
      record t ~ph:"i" ~name:("devirt-fail " ^ e.target) ~cat:"jit" ~ts_us
        (tags @ [ str "meth" e.meth; int_ "pc" e.pc ])
    | Osr_entry e ->
      record t ~ph:"i" ~name:("osr " ^ e.meth) ~cat:"jit" ~ts_us
        (tags @ [ int_ "pc" e.pc; int_ "steps" e.steps ])
    | Compile_drop _ | Compile_discard _ | Osr_decline _ | Guard_plant _
    | Devirt_install _ | Devirt_kill _ | Ir_fingerprint _ | Abandon _ ->
      record t ~ph:"i"
        ~name:(kind_to_string ev ^ " " ^ snd (about ev))
        ~cat:"jit" ~ts_us
        (tags @ [ str "what" (describe ev) ])

  let event_count t = t.count

  let dump t =
    Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
      (Buffer.contents t.buf)

  let write t path =
    let oc = open_out path in
    output_string oc (dump t);
    close_out oc

  (* Arrange for the trace to be written even if the traced program traps
     mid-run and unwinds past the caller: the writer registers as a plain
     flusher in the consolidated registry and the single [arm_exit_flush]
     hook runs it at process exit.  Each write replaces the file and the
     dump is well-formed JSON at any point, so intermediate [Obs.flush]
     calls are harmless — the final flush wins.  Flushers run
     newest-first, so Exec_sample remainders (registered later, per
     compile) land in the trace before this writer dumps it.  Returns the
     normal-completion writer for an immediate write. *)
  let write_at_exit t path =
    let w () = write t path in
    add_flusher w;
    arm_exit_flush ();
    w

  let sink t =
    {
      sink_name = "chrome";
      sink_emit = (fun ~ts ev -> on_event t ~ts ev);
      sink_flush = ignore;
    }
end

(* ------------------------------------------------------------------ *)
(* Minimal JSON well-formedness checker (for the trace smoke tests:    *)
(* no external JSON dependency is available in the container)          *)

module Json = struct
  exception Bad of string

  let validate (s : string) : (unit, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
      | None -> fail (Printf.sprintf "expected %c, got end of input" c)
    in
    let literal w =
      String.iter
        (fun c ->
          match peek () with
          | Some c' when c' = c -> advance ()
          | _ -> fail ("bad literal " ^ w))
        w
    in
    let parse_string () =
      expect '"';
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
            advance ();
            go ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> fail "bad \\u escape"
            done;
            go ()
          | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "control char in string"
        | Some _ ->
          advance ();
          go ()
      in
      go ()
    in
    let parse_number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      let digits () =
        let seen = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
            seen := true;
            advance ();
            go ()
          | _ -> ()
        in
        go ();
        if not !seen then fail "bad number"
      in
      digits ();
      (match peek () with
      | Some '.' ->
        advance ();
        digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some '}' -> advance ()
        | _ ->
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          members ())
      | Some '[' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some ']' -> advance ()
        | _ ->
          let rec items () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          items ())
      | Some '"' -> parse_string ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %c" c)
      | None -> fail "unexpected end of input"
    in
    match
      parse_value ();
      skip_ws ();
      if !pos <> n then fail "trailing data"
    with
    | () -> Ok ()
    | exception Bad msg -> Error msg
end
