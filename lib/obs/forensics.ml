(* Decision forensics: a bounded journal of every tiering/compiler decision
   with its *cause*, linked by method id so causal chains are walkable —
   "deopt at line 14 (speculate guard) -> invalidate -> recompile generic ->
   evicted under cache pressure" as data, not as an eyeballed Chrome trace.

   This is the "why" layer on top of the PR-2 event bus: events say what
   happened, a [decision] says what the engine chose to do about it and
   which trigger forced the choice.  Design constraints match the bus:

   1. Disabled cost is a single load+branch: every instrumentation site is
      `if !Forensics.on then Forensics.record ...` and the journal starts
      disabled.  The overhead gate lives in `bench/main.exe forensics`.
   2. Bounded memory: decisions land in a fixed ring (default 16k entries);
      a pathological run (deopt loop, compile churn) cannot grow the heap.
   3. Allocation-light: one record per decision, no strings built on the
      hot path beyond the labels the emit site already has.
   4. Domain-safe: background JIT workers record concurrently; a mutex
      guards the ring (taken only after the [on] check), and the worker id
      is captured from [Obs.worker_id] so installs/blacklists are
      attributed to the worker domain that performed them. *)

(* ------------------------------------------------------------------ *)
(* Causes and actions                                                  *)

(* Why a decision was taken.  [Unattributed] is the explicit "no recorded
   trigger" value so sites never invent a cause. *)
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
  | Deopt_storm of { tag : string; pc : int; strikes : int }
      (* the governor's circuit breaker counted [strikes] deopts of the
         same guard *)
  | Watchdog_timeout of { ms : float; budget_ms : float }
      (* an in-flight compile exceeded the governor's wall-time budget *)
  | Queue_pressure of { dropped : int }
      (* sustained queue drops observed over a governor tick *)
  | Eviction_spike of { evictions : int }
      (* code-cache eviction rate spiked over a governor tick *)
  | Shutdown_timeout of { ms : int }
      (* bounded shutdown expired before the queue drained *)
  | Chaos_fault of { site : string } (* injected by the chaos harness *)
  | Loop_steps of { steps : int; pc : int; line : int }
      (* an interpreter frame ran [steps] bytecodes of its own and was at
         a back edge to the loop header at [pc] *)
  | Unattributed

(* What the engine did.  Every variant carries only what the emit site
   already has in hand. *)
type action =
  | Promote (* hot method entered the JIT pipeline *)
  | Enqueue of { gen : int; depth : int } (* background compile queued *)
  | Dequeue of { depth : int } (* worker picked the request up *)
  | Drop (* request rejected, mutator keeps interpreting *)
  | Compile_done of { backend : string; ms : float }
  | Install of { gen : int } (* compiled entry published *)
  | Discard (* in-flight result thrown away, not installed *)
  | Deopt of { tag : string; pc : int; line : int; recompile : bool }
  | Invalidate of { gen : int } (* installed code dropped, gen bumped *)
  | Blacklist of { err : string } (* method retired to interpreter-only *)
  | Evict (* FIFO eviction from the code cache *)
  | Guard_plant of { tag : string; pc : int; line : int }
      (* compiler emitted a side-exit guard at this site *)
  | Devirt_install of { deps : string list }
      (* installed code speculates on dispatch of these names *)
  | Devirt_kill of { name : string }
      (* speculation on [name] invalidated by a hierarchy change *)
  | Ic_state of { pc : int; line : int; callee : string; state : string }
      (* inline-cache site moved to [state] ("mono"/"poly"/"mega"/...) *)
  | Ir_fingerprint of { phase : string; fp : string }
      (* structural fingerprint of the optimized graph ([Lms.Snapshot]);
         renderers compare per-method to flag byte-identical recompiles *)
  | Demote of { strikes : int; backoff : int }
      (* governor sent the method back to the interpreter; it re-promotes
         only once hotness reaches [backoff] *)
  | Repromote of { level : int }
      (* a demoted method served its backoff and re-entered the pipeline *)
  | Watchdog_kill of { ms : float; retry : bool }
      (* governor abandoned a stalled compile via a generation bump *)
  | Throttle of { knob : string; was : int; now : int }
      (* governor moved a tiering knob (backpressure / hysteresis) *)
  | Abandon of { pending : int }
      (* bounded shutdown walked away from queued compile requests *)
  | Osr_in (* an interpreter frame entered code compiled from a loop header *)
  | Osr_decline of { pc : int; why : string }
      (* no OSR entry at the header at [pc]: its compile failed, or the
         frame no longer matched the code *)

type decision = {
  d_ts : float; (* monotonic seconds, same clock as the bus *)
  d_mid : int; (* method id; -1 when the decision has no method *)
  d_meth : string; (* "Cls.name" label *)
  d_worker : int; (* 0 = mutator, 1..N = background JIT workers *)
  d_action : action;
  d_cause : cause;
}

(* ------------------------------------------------------------------ *)
(* The journal                                                         *)

type journal = {
  cap : int;
  data : decision array;
  mutable n : int; (* total decisions ever recorded *)
  lock : Mutex.t;
}

let dummy =
  {
    d_ts = 0.0;
    d_mid = -1;
    d_meth = "";
    d_worker = 0;
    d_action = Drop;
    d_cause = Unattributed;
  }

(* THE fast-path flag, mirroring [Obs.enabled]: instrumentation sites read
   it before building any payload. *)
let on = ref false

let journal : journal option ref = ref None

let enable ?(capacity = 16384) () =
  let cap = max 16 capacity in
  journal := Some { cap; data = Array.make cap dummy; n = 0; lock = Mutex.create () };
  on := true

let disable () =
  on := false;
  journal := None

let clear () =
  match !journal with
  | None -> ()
  | Some j ->
    Mutex.lock j.lock;
    j.n <- 0;
    Mutex.unlock j.lock

let capacity () = match !journal with Some j -> j.cap | None -> 0

(* Total decisions ever recorded (>= what survives in the ring). *)
let seen () = match !journal with Some j -> j.n | None -> 0

let record ?(cause = Unattributed) ?(mid = -1) ?(meth = "") action =
  match !journal with
  | None -> ()
  | Some j ->
    let d =
      {
        d_ts = Obs.now ();
        d_mid = mid;
        d_meth = meth;
        d_worker = Obs.worker_id ();
        d_action = action;
        d_cause = cause;
      }
    in
    Mutex.lock j.lock;
    j.data.(j.n mod j.cap) <- d;
    j.n <- j.n + 1;
    Mutex.unlock j.lock

(* Oldest-first; at most [cap] survive wraparound. *)
let decisions () =
  match !journal with
  | None -> []
  | Some j ->
    Mutex.lock j.lock;
    let k = min j.n j.cap in
    let l = List.init k (fun i -> j.data.((j.n - k + i) mod j.cap)) in
    Mutex.unlock j.lock;
    l

let for_mid mid = List.filter (fun d -> d.d_mid = mid) (decisions ())

(* Per-method timelines in first-decision order:
   [(mid, label, decisions oldest-first)].  Method ids restart at 0 in
   every runtime, so a timeline is keyed by id and label together. *)
let timeline () =
  let tbl : (int * string, decision list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun d ->
      if d.d_mid >= 0 then
        let key = (d.d_mid, d.d_meth) in
        match Hashtbl.find_opt tbl key with
        | Some l -> l := d :: !l
        | None ->
          Hashtbl.replace tbl key (ref [ d ]);
          order := key :: !order)
    (decisions ());
  List.rev_map
    (fun ((mid, meth) as key) ->
      let label = if meth = "" then Printf.sprintf "mid %d" mid else meth in
      (mid, label, List.rev !(Hashtbl.find tbl key)))
    !order

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let action_name = function
  | Promote -> "promote"
  | Enqueue _ -> "enqueue"
  | Dequeue _ -> "dequeue"
  | Drop -> "drop"
  | Compile_done _ -> "compile"
  | Install _ -> "install"
  | Discard -> "discard"
  | Deopt _ -> "deopt"
  | Invalidate _ -> "invalidate"
  | Blacklist _ -> "blacklist"
  | Evict -> "evict"
  | Guard_plant _ -> "guard"
  | Devirt_install _ -> "devirt"
  | Devirt_kill _ -> "devirt-kill"
  | Ic_state _ -> "ic"
  | Ir_fingerprint _ -> "fingerprint"
  | Demote _ -> "demote"
  | Repromote _ -> "repromote"
  | Watchdog_kill _ -> "watchdog-kill"
  | Throttle _ -> "throttle"
  | Abandon _ -> "abandon"
  | Osr_in -> "osr-in"
  | Osr_decline _ -> "osr-decline"

let at_line pc line =
  if line > 0 then Printf.sprintf "@pc %d (line %d)" pc line
  else Printf.sprintf "@pc %d" pc

let action_to_string = function
  | Promote -> "promoted to tier 1"
  | Enqueue e -> Printf.sprintf "compile enqueued (gen=%d depth=%d)" e.gen e.depth
  | Dequeue e -> Printf.sprintf "compile dequeued (depth=%d)" e.depth
  | Drop -> "compile request dropped"
  | Compile_done e -> Printf.sprintf "compiled (%s backend, %.2fms)" e.backend e.ms
  | Install e -> Printf.sprintf "code installed (gen=%d)" e.gen
  | Discard -> "compile result discarded"
  | Deopt e ->
    Printf.sprintf "deopt %s '%s'%s" (at_line e.pc e.line) e.tag
      (if e.recompile then " -> recompile" else " -> interpreter")
  | Invalidate e -> Printf.sprintf "code invalidated (gen=%d)" e.gen
  | Blacklist e -> Printf.sprintf "blacklisted: %s" e.err
  | Evict -> "evicted from code cache"
  | Guard_plant e -> Printf.sprintf "guard '%s' planted %s" e.tag (at_line e.pc e.line)
  | Devirt_install e ->
    Printf.sprintf "devirtualized on {%s}" (String.concat ", " e.deps)
  | Devirt_kill e -> Printf.sprintf "devirtualization of '%s' killed" e.name
  | Ic_state e ->
    Printf.sprintf "inline cache %s -> %s on '%s'" (at_line e.pc e.line)
      e.state e.callee
  | Ir_fingerprint e ->
    let short =
      if String.length e.fp > 12 then String.sub e.fp 0 12 else e.fp
    in
    Printf.sprintf "IR fingerprint %s (%s)" short e.phase
  | Demote e ->
    Printf.sprintf "demoted to interpreter (strikes=%d, re-promote at %d)"
      e.strikes e.backoff
  | Repromote e -> Printf.sprintf "re-promoted after backoff (level %d)" e.level
  | Watchdog_kill e ->
    Printf.sprintf "stalled compile abandoned after %.0fms%s" e.ms
      (if e.retry then " -> retry once" else " -> no more retries")
  | Throttle e -> Printf.sprintf "%s throttled %d -> %d" e.knob e.was e.now
  | Abandon e ->
    Printf.sprintf "%d queued compile(s) abandoned at shutdown" e.pending
  | Osr_in -> "entered OSR code mid-call"
  | Osr_decline e -> Printf.sprintf "OSR at @pc %d declined: %s" e.pc e.why

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
    let short s = if String.length s > 12 then String.sub s 0 12 else s in
    Printf.sprintf "profile stale: recorded %s, got %s" (short c.expected)
      (short c.found)
  | Deopt_storm c ->
    Printf.sprintf "deopt storm: guard '%s' @pc %d missed x%d" c.tag c.pc
      c.strikes
  | Watchdog_timeout c ->
    Printf.sprintf "compile ran %.0fms against a %.0fms budget" c.ms c.budget_ms
  | Queue_pressure c -> Printf.sprintf "%d compile drops this tick" c.dropped
  | Eviction_spike c -> Printf.sprintf "%d evictions this tick" c.evictions
  | Shutdown_timeout c -> Printf.sprintf "shutdown timed out after %dms" c.ms
  | Chaos_fault c -> Printf.sprintf "chaos fault '%s'" c.site
  | Loop_steps c ->
    Printf.sprintf "loop: %d own steps, back edge to %s" c.steps
      (at_line c.pc c.line)
  | Unattributed -> ""

(* "+  12.431ms [w1] code installed (gen=0)  <- hot: calls=40 backedges=0" *)
let decision_to_string ?(t0 = 0.0) d =
  let cause = cause_to_string d.d_cause in
  Printf.sprintf "+%9.3fms %s%s%s"
    ((d.d_ts -. t0) *. 1000.)
    (if d.d_worker > 0 then Printf.sprintf "[w%d] " d.d_worker else "")
    (action_to_string d.d_action)
    (if cause = "" then "" else "  <- " ^ cause)

(* ------------------------------------------------------------------ *)
(* Pathology detection                                                 *)

(* A detected anti-pattern with its journal evidence and the knob most
   likely to fix it.  [p_line] is 0 when only the defining line is known —
   renderers resolve that through the runtime's line tables. *)
type pathology = {
  p_kind : string;
  p_mid : int;
  p_meth : string;
  p_line : int;
  p_what : string; (* one-line diagnosis *)
  p_evidence : decision list; (* supporting journal entries, oldest-first *)
  p_knob : string; (* suggested remediation *)
}

let count p l = List.length (List.filter p l)

let evidence ?(limit = 6) p ds =
  let all = List.filter p ds in
  let n = List.length all in
  if n <= limit then all
  else
    (* keep the first and the most recent [limit-1]: the chain's start plus
       its current state *)
    List.filteri (fun i _ -> i = 0 || i > n - limit) all

let detect () =
  let paths = ref [] in
  let add p = paths := p :: !paths in
  List.iter
    (fun (mid, label, ds) ->
      let is_install d = match d.d_action with Install _ -> true | _ -> false in
      let is_evict d = match d.d_action with Evict -> true | _ -> false in
      let hier_cause d =
        match d.d_cause with
        | Hier_change { epoch; name } -> Some (epoch, name)
        | _ -> None
      in
      (* deopt loop: >= 3 deopts at one (pc); the code keeps tiering up and
         falling off the same guard *)
      let deopt_pcs = Hashtbl.create 4 in
      List.iter
        (fun d ->
          match d.d_action with
          | Deopt e ->
            let k = (e.pc, e.line, e.tag) in
            Hashtbl.replace deopt_pcs k
              (1 + Option.value ~default:0 (Hashtbl.find_opt deopt_pcs k))
          | _ -> ())
        ds;
      Hashtbl.iter
        (fun (pc, line, tag) n ->
          if n >= 3 then begin
            let hier = List.find_map hier_cause ds in
            add
              {
                p_kind = "deopt-loop";
                p_mid = mid;
                p_meth = label;
                p_line = line;
                p_what =
                  Printf.sprintf
                    "%d deopts at the same site (pc %d, guard '%s')%s" n pc tag
                    (match hier with
                    | Some (epoch, name) ->
                      Printf.sprintf ", driven by %s"
                        (cause_to_string (Hier_change { epoch; name }))
                    | None -> "");
                p_evidence =
                  evidence
                    (fun d ->
                      match d.d_action with
                      | Deopt e -> e.pc = pc
                      | Invalidate _ | Install _ -> true
                      | _ -> false)
                    ds;
                p_knob =
                  (if String.length tag >= 7 && String.sub tag 0 7 = "devirt:"
                   then
                     "the call site is not monomorphic in practice; let it \
                      reprofile (2 misses auto-invalidate) or restructure the \
                      receiver mix"
                   else
                     Printf.sprintf
                       "weaken or move the '%s' speculation%s — every miss \
                        pays a full OSR exit" tag
                       (if line > 0 then Printf.sprintf " at line %d" line
                        else ""));
              }
          end)
        deopt_pcs;
      (* hierarchy-invalidation churn: compiled code repeatedly killed by
         late method (re)definitions *)
      let hier_invalidates =
        List.filter
          (fun d ->
            match (d.d_action, d.d_cause) with
            | (Invalidate _ | Devirt_kill _), Hier_change _ -> true
            | _ -> false)
          ds
      in
      if List.length hier_invalidates >= 2 then begin
        let name, epoch =
          match List.rev hier_invalidates with
          | d :: _ -> (
            match d.d_cause with
            | Hier_change h -> (h.name, h.epoch)
            | _ -> ("?", 0))
          | [] -> ("?", 0)
        in
        add
          {
            p_kind = "hierarchy-churn";
            p_mid = mid;
            p_meth = label;
            p_line = 0;
            p_what =
              Printf.sprintf
                "compiled code invalidated x%d by late (re)definition of \
                 '%s' (hierarchy epoch now %d)"
                (List.length hier_invalidates)
                name epoch;
            p_evidence =
              evidence
                (fun d ->
                  match (d.d_action, d.d_cause) with
                  | (Invalidate _ | Devirt_kill _), _ -> true
                  | Install _, _ -> true
                  | _ -> false)
                ds;
            p_knob =
              Printf.sprintf
                "define '%s' overrides before warm-up (or raise \
                 --tier-threshold so compilation starts after the hierarchy \
                 settles)" name;
          }
      end;
      (* compile churn: the method keeps being recompiled *)
      let installs = count is_install ds in
      if installs >= 4 then
        add
          {
            p_kind = "compile-churn";
            p_mid = mid;
            p_meth = label;
            p_line = 0;
            p_what = Printf.sprintf "compiled and installed x%d" installs;
            p_evidence =
              evidence
                (fun d ->
                  match d.d_action with
                  | Install _ | Invalidate _ | Deopt _ -> true
                  | _ -> false)
                ds;
            p_knob =
              "recompilation is not converging; check for alternating \
               'stable' values or raise --tier-threshold";
          };
      (* cache thrash: evicted more than once — the cache is too small for
         the working set *)
      let evicts = count is_evict ds in
      if evicts >= 2 then
        add
          {
            p_kind = "cache-thrash";
            p_mid = mid;
            p_meth = label;
            p_line = 0;
            p_what =
              Printf.sprintf "evicted from the code cache x%d (and recompiled)"
                evicts;
            p_evidence =
              evidence
                (fun d ->
                  match d.d_action with
                  | Evict | Install _ -> true
                  | _ -> false)
                ds;
            p_knob = "raise --tier-cache above the hot-method working set";
          };
      (* megamorphic hot site: an IC inside a promoted method went mega —
         the JIT can only emit generic dispatch there *)
      let promoted =
        List.exists
          (fun d ->
            match d.d_action with Promote | Install _ -> true | _ -> false)
          ds
      in
      if promoted then
        List.iter
          (fun d ->
            match d.d_action with
            | Ic_state e when e.state = "mega" ->
              add
                {
                  p_kind = "megamorphic-site";
                  p_mid = mid;
                  p_meth = label;
                  p_line = e.line;
                  p_what =
                    Printf.sprintf
                      "call site for '%s' %s went megamorphic in a hot method"
                      e.callee (at_line e.pc e.line);
                  p_evidence =
                    evidence
                      (fun d ->
                        match d.d_action with
                        | Ic_state i -> i.pc = e.pc
                        | _ -> false)
                      ds;
                  p_knob =
                    "split the call site per receiver type; the compiled \
                     code falls back to generic dispatch here";
                }
            | _ -> ())
          ds;
      (* blacklisted: compile failures retired the method *)
      List.iter
        (fun d ->
          match d.d_action with
          | Blacklist e ->
            add
              {
                p_kind = "blacklisted";
                p_mid = mid;
                p_meth = label;
                p_line = 0;
                p_what =
                  Printf.sprintf "retired to the interpreter: %s" e.err;
                p_evidence = [ d ];
                p_knob =
                  "fix the compile failure; the method will never tier up \
                   again this run";
              }
          | _ -> ())
        ds)
    (timeline ());
  List.rev !paths
