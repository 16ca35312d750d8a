(* Decision forensics: a bounded journal of every tiering/compiler decision
   with its *cause*, linked by method id so causal chains are walkable —
   "deopt at line 14 (speculate guard) -> invalidate -> recompile generic ->
   evicted under cache pressure" as data, not as an eyeballed Chrome trace.

   The journal is a sink on the [Obs] bus: the engine emits each decision
   once, as an event that carries its cause, and the journal keeps the
   decision kinds in a bounded ring.  So:

   1. Disabled cost is the bus's: every decision site is
      `if !Obs.enabled then Obs.emit ...`, and enabling the journal
      attaches its sink.
   2. Bounded memory: decisions land in a fixed ring (default 16k entries);
      a pathological run (deopt loop, compile churn) cannot grow the heap.
   3. Domain-safe: sinks run under the bus lock, on the domain that emits,
      so each decision is attributed to the worker domain that made it. *)

type decision = {
  d_ts : float; (* monotonic seconds, same clock as the bus *)
  d_mid : int; (* method id; -1 when the decision has no method *)
  d_meth : string; (* "Cls.name" label *)
  d_worker : int; (* 0 = mutator, 1..N = background JIT workers *)
  d_event : Obs.event;
  d_cause : Obs.cause;
}

(* The method a decision is about, or [None] for the events the journal
   does not keep: compile starts, failed and explicit ([Lancet.compile])
   compiles, macro expansions, samples, spans and devirt guard misses (the
   deopt that follows a miss is journaled). *)
let subject (ev : Obs.event) =
  match ev with
  | Compile_start _ | Macro_expand _ | Interp_call _ | Exec_sample _
  | Stack_sample _ | Span_begin _ | Span_end _ | Devirt_guard_fail _ ->
    None
  | Compile_end c when c.ci_tier <> 1 || c.ci_backend = "failed" -> None
  | _ -> Some (Obs.about ev)

(* ------------------------------------------------------------------ *)
(* The journal                                                         *)

let journal : (decision Obs.Ring.t * Obs.sink) option ref = ref None

(* Whether the journal is on: for work done only to be journaled, such as
   an IR fingerprint.  Decision sites read [Obs.enabled]. *)
let enabled () = Option.is_some !journal

let disable () =
  match !journal with
  | None -> ()
  | Some (_, sink) ->
    journal := None;
    Obs.detach sink

let enable ?(capacity = 16384) () =
  disable ();
  let ring = Obs.Ring.create ~capacity:(max 16 capacity) () in
  let push ~ts ev =
    match subject ev with
    | None -> ()
    | Some (d_mid, d_meth) ->
      let d_worker = Obs.worker_id () and d_cause = Obs.cause_of ev in
      Obs.Ring.push ring
        { d_ts = ts; d_mid; d_meth; d_worker; d_event = ev; d_cause }
  in
  let sink = { Obs.sink_name = "journal"; sink_emit = push; sink_flush = ignore } in
  journal := Some (ring, sink);
  Obs.attach sink

let with_ring f ~off =
  match !journal with
  | None -> off
  | Some (ring, _) -> Obs.locked (fun () -> f ring)

let clear () = with_ring Obs.Ring.clear ~off:()

let capacity () = with_ring Obs.Ring.capacity ~off:0

(* Total decisions ever recorded (>= what survives in the ring). *)
let seen () = with_ring Obs.Ring.seen ~off:0

(* Oldest-first; at most [capacity ()] survive wraparound. *)
let decisions () = with_ring Obs.Ring.contents ~off:[]

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

(* "+  12.431ms [w1] code installed (gen=0)  <- hot: calls=40 backedges=0" *)
let decision_to_string ?(t0 = 0.0) d =
  let cause = Obs.cause_to_string d.d_cause in
  Printf.sprintf "+%9.3fms %s%s%s"
    ((d.d_ts -. t0) *. 1000.)
    (if d.d_worker > 0 then Printf.sprintf "[w%d] " d.d_worker else "")
    (Obs.describe d.d_event)
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
  List.iter
    (fun (mid, label, ds) ->
      (* one pathology of this method, its evidence the decisions [keep]
         picks *)
      let add ?(line = 0) kind what keep knob =
        paths :=
          {
            p_kind = kind;
            p_mid = mid;
            p_meth = label;
            p_line = line;
            p_what = what;
            p_evidence = evidence keep ds;
            p_knob = knob;
          }
          :: !paths
      in
      let hier_cause d =
        match d.d_cause with
        | Obs.Hier_change { epoch; name } -> Some (epoch, name)
        | _ -> None
      in
      (* deopt loop: >= 3 deopts at one (pc); the code keeps tiering up and
         falling off the same guard *)
      let deopt_pcs = Hashtbl.create 4 in
      List.iter
        (fun d ->
          match d.d_event with
          | Deopt e ->
            let k = (e.pc, e.line, e.tag) in
            Hashtbl.replace deopt_pcs k
              (1 + Option.value ~default:0 (Hashtbl.find_opt deopt_pcs k))
          | _ -> ())
        ds;
      Hashtbl.iter
        (fun (pc, line, tag) n ->
          if n >= 3 then
            add ~line "deopt-loop"
              (Printf.sprintf "%d deopts at the same site (pc %d, guard '%s')%s"
                 n pc tag
                 (match List.find_map hier_cause ds with
                 | Some (epoch, name) ->
                   Printf.sprintf ", driven by %s"
                     (Obs.cause_to_string (Hier_change { epoch; name }))
                 | None -> ""))
              (fun d ->
                match d.d_event with
                | Deopt e -> e.pc = pc
                | Cache_invalidate _ | Cache_install _ -> true
                | _ -> false)
              (if String.length tag >= 7 && String.sub tag 0 7 = "devirt:" then
                 "the call site is not monomorphic in practice; let it \
                  reprofile (2 misses auto-invalidate) or restructure the \
                  receiver mix"
               else
                 Printf.sprintf
                   "weaken or move the '%s' speculation%s — every miss pays a \
                    full OSR exit" tag
                   (if line > 0 then Printf.sprintf " at line %d" line else "")))
        deopt_pcs;
      (* hierarchy-invalidation churn: compiled code repeatedly killed by
         late method (re)definitions *)
      let hier_invalidates =
        List.filter
          (fun d ->
            match d.d_event with
            | Cache_invalidate _ | Devirt_kill _ -> hier_cause d <> None
            | _ -> false)
          ds
      in
      if List.length hier_invalidates >= 2 then begin
        let epoch, name =
          Option.value ~default:(0, "?")
            (hier_cause (List.hd (List.rev hier_invalidates)))
        in
        add "hierarchy-churn"
          (Printf.sprintf
             "compiled code invalidated x%d by late (re)definition of '%s' \
              (hierarchy epoch now %d)"
             (List.length hier_invalidates)
             name epoch)
          (fun d ->
            match d.d_event with
            | Cache_invalidate _ | Devirt_kill _ | Cache_install _ -> true
            | _ -> false)
          (Printf.sprintf
             "define '%s' overrides before warm-up (or raise --tier-threshold \
              so compilation starts after the hierarchy settles)" name)
      end;
      (* compile churn: the method keeps being recompiled *)
      let installs =
        count
          (fun d -> match d.d_event with Cache_install _ -> true | _ -> false)
          ds
      in
      if installs >= 4 then
        add "compile-churn"
          (Printf.sprintf "compiled and installed x%d" installs)
          (fun d ->
            match d.d_event with
            | Cache_install _ | Cache_invalidate _ | Deopt _ -> true
            | _ -> false)
          "recompilation is not converging; check for alternating 'stable' \
           values or raise --tier-threshold";
      (* cache thrash: evicted more than once — the cache is too small for
         the working set *)
      let caps =
        List.filter_map
          (fun d -> match d.d_event with Cache_evict e -> Some e.cap | _ -> None)
          ds
      in
      if List.length caps >= 2 then
        add "cache-thrash"
          (Printf.sprintf "evicted from the code cache x%d (and recompiled)"
             (List.length caps))
          (fun d ->
            match d.d_event with
            | Cache_evict _ | Cache_install _ -> true
            | _ -> false)
          (Printf.sprintf
             "the code cache holds %d method(s), fewer than the hot working \
              set; boot the runtime with a larger ~tier_cache_size"
             (List.hd caps));
      (* megamorphic hot site: an IC inside a promoted method went mega —
         the JIT can only emit generic dispatch there *)
      let promoted =
        List.exists
          (fun d ->
            match d.d_event with
            | Tier_promote _ | Cache_install _ -> true
            | _ -> false)
          ds
      in
      List.iter
        (fun d ->
          match d.d_event with
          | Ic_transition e when promoted && e.to_state = "mega" ->
            add ~line:e.line "megamorphic-site"
              (Printf.sprintf
                 "call site for '%s' %s went megamorphic in a hot method"
                 e.callee (Obs.at_line e.pc e.line))
              (fun d ->
                match d.d_event with Ic_transition i -> i.pc = e.pc | _ -> false)
              "split the call site per receiver type; the compiled code falls \
               back to generic dispatch here"
          | _ -> ())
        ds;
      (* blacklisted: compile failures retired the method *)
      List.iter
        (fun d ->
          match d.d_event with
          | Compile_blacklist e ->
            add "blacklisted"
              (Printf.sprintf "retired to the interpreter: %s" e.err)
              (fun d' -> d' == d)
              "fix the compile failure; the method will never tier up again \
               this run"
          | _ -> ())
        ds)
    (timeline ());
  List.rev !paths
