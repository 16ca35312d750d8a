(* The one aggregate of a run over the event bus.  Every report that sums
   events reads this sink: `run --stats`, `trace`, `profile`, `explain` and
   `coach`.  It keeps

   - per method: the invocation, promotion, compile, deopt, cache and
     compiled-execution counters, the counters at the first promotion, the
     last compile record, and the deopt and OSR-entry sites by pc;
   - per source line: tier-0 stack samples, compiled execution
     milliseconds and deopts (the residency of `lancet explain`);
   - folded stacks from the interpreter's [Stack_sample] events (timer-
     driven call-stack samples, innermost frame first), one
     "frame;frame;frame count" line per distinct stack for flamegraph
     tools (`flamegraph.pl`, speedscope, inferno).

   The ordered, causal record of decisions is the journal ([Forensics]),
   not this module.  The sampling *driver* lives in the interpreter (it
   owns the frame chain); the checkpoint flag and deadline live in [Obs]
   ([Obs.sampling], [Obs.sample_due]) so that with sampling off the
   interpreter pays a single load+branch per step and this module is never
   on the fast path. *)

type deopt_site = {
  ds_tag : string; (* the guard's macro tag, from the first exit here *)
  ds_kind : Obs.deopt_kind;
  ds_line : int;
  mutable ds_count : int;
}

type osr_site = {
  os_line : int; (* the loop header's source line *)
  os_steps : int; (* own steps at the first entry *)
  mutable os_count : int;
}

type meth_stat = {
  pm_mid : int;
  mutable pm_label : string;
  mutable pm_calls : int; (* latest sampled interpreter invocation count *)
  mutable pm_backedges : int;
  mutable pm_promotes : int;
  mutable pm_promoted : (int * int) option; (* calls, backedges at the first *)
  mutable pm_compiles : int;
  mutable pm_last_compile : Obs.compile_info option;
  mutable pm_compile_ms : float;
  mutable pm_deopts : int;
  mutable pm_deopt_sites : (int * deopt_site) list; (* pc -> site *)
  mutable pm_osr_sites : (int * osr_site) list; (* header pc -> entries *)
  mutable pm_installs : int;
  mutable pm_evicts : int;
  mutable pm_exec_calls : int; (* compiled entry-point invocations *)
  mutable pm_exec_ms : float; (* cumulative compiled execution time *)
}

type line_stat = {
  mutable ls_label : string; (* a method label owning the line, for display *)
  mutable ls_samples : int; (* tier-0 (interpreter) stack samples *)
  mutable ls_exec_ms : float; (* compiled execution time attributed here *)
  mutable ls_deopts : int;
}

type t = {
  interval_ms : float; (* sampling period of [sampled] *)
  meths : (int, meth_stat) Hashtbl.t; (* method id -> counters and sites *)
  folded : (string, int) Hashtbl.t; (* folded stack -> sample count *)
  lines : (int, line_stat) Hashtbl.t; (* source line -> residency *)
  mutable samples : int; (* total stack samples seen *)
  mutable attributed : int; (* samples whose leaf frame had a line *)
  mutable exec_ms : float; (* total compiled execution time *)
  mutable exec_ms_attributed : float; (* ... with a known defining line *)
}

let create ?(interval_ms = 1.0) () =
  {
    interval_ms;
    meths = Hashtbl.create 64;
    folded = Hashtbl.create 64;
    lines = Hashtbl.create 64;
    samples = 0;
    attributed = 0;
    exec_ms = 0.0;
    exec_ms_attributed = 0.0;
  }

let meth_stat t mid label =
  match Hashtbl.find_opt t.meths mid with
  | Some m ->
    if m.pm_label = "" then m.pm_label <- label;
    m
  | None ->
    let m =
      {
        pm_mid = mid;
        pm_label = label;
        pm_calls = 0;
        pm_backedges = 0;
        pm_promotes = 0;
        pm_promoted = None;
        pm_compiles = 0;
        pm_last_compile = None;
        pm_compile_ms = 0.0;
        pm_deopts = 0;
        pm_deopt_sites = [];
        pm_osr_sites = [];
        pm_installs = 0;
        pm_evicts = 0;
        pm_exec_calls = 0;
        pm_exec_ms = 0.0;
      }
    in
    Hashtbl.replace t.meths mid m;
    m

let line_stat t line label =
  let ls =
    match Hashtbl.find_opt t.lines line with
    | Some ls -> ls
    | None ->
      let ls = { ls_label = ""; ls_samples = 0; ls_exec_ms = 0.0; ls_deopts = 0 } in
      Hashtbl.replace t.lines line ls;
      ls
  in
  if ls.ls_label = "" then ls.ls_label <- label;
  ls

let frame_name (label, line) =
  if line > 0 then Printf.sprintf "%s:%d" label line else label

let bump_folded t key n =
  Hashtbl.replace t.folded key
    (n + Option.value ~default:0 (Hashtbl.find_opt t.folded key))

(* The entry of the method [ev] is about. *)
let meth_of t ev =
  let mid, label = Obs.about ev in
  meth_stat t mid label

let on_event t (ev : Obs.event) =
  match ev with
  | Obs.Stack_sample { stack } ->
    t.samples <- t.samples + 1;
    (match stack with
    | (label, line) :: _ when line > 0 ->
      t.attributed <- t.attributed + 1;
      let ls = line_stat t line label in
      ls.ls_samples <- ls.ls_samples + 1
    | _ -> ());
    (* folded stacks are rendered root-first *)
    bump_folded t (String.concat ";" (List.rev_map frame_name stack)) 1
  | Obs.Interp_call { calls; backedges; _ } ->
    let m = meth_of t ev in
    m.pm_calls <- max m.pm_calls calls;
    m.pm_backedges <- max m.pm_backedges backedges
  | Obs.Tier_promote { calls; backedges; _ } ->
    let m = meth_of t ev in
    m.pm_promotes <- m.pm_promotes + 1;
    if m.pm_promoted = None then m.pm_promoted <- Some (calls, backedges);
    m.pm_calls <- max m.pm_calls calls;
    m.pm_backedges <- max m.pm_backedges backedges
  | Obs.Compile_end c ->
    let m = meth_of t ev in
    m.pm_compiles <- m.pm_compiles + 1;
    m.pm_last_compile <- Some c;
    m.pm_compile_ms <- m.pm_compile_ms +. c.Obs.ci_ms
  | Obs.Deopt { meth = label; tag; kind; pc; line; _ } ->
    let m = meth_of t ev in
    m.pm_deopts <- m.pm_deopts + 1;
    (match List.assoc_opt pc m.pm_deopt_sites with
    | Some d -> d.ds_count <- d.ds_count + 1
    | None ->
      m.pm_deopt_sites <-
        (pc, { ds_tag = tag; ds_kind = kind; ds_line = line; ds_count = 1 })
        :: m.pm_deopt_sites);
    if line > 0 then begin
      let ls = line_stat t line label in
      ls.ls_deopts <- ls.ls_deopts + 1
    end
  | Obs.Osr_entry { pc; line; steps; _ } -> (
    let m = meth_of t ev in
    match List.assoc_opt pc m.pm_osr_sites with
    | Some o -> o.os_count <- o.os_count + 1
    | None ->
      m.pm_osr_sites <-
        (pc, { os_line = line; os_steps = steps; os_count = 1 })
        :: m.pm_osr_sites)
  | Obs.Cache_install _ ->
    let m = meth_of t ev in
    m.pm_installs <- m.pm_installs + 1
  | Obs.Cache_evict _ ->
    let m = meth_of t ev in
    m.pm_evicts <- m.pm_evicts + 1
  | Obs.Cache_invalidate _ ->
    (* counted by no report, but the method gets its row *)
    ignore (meth_of t ev)
  | Obs.Exec_sample { meth = label; calls; ms; line; _ } ->
    let m = meth_of t ev in
    m.pm_exec_calls <- m.pm_exec_calls + calls;
    m.pm_exec_ms <- m.pm_exec_ms +. ms;
    t.exec_ms <- t.exec_ms +. ms;
    if line > 0 then begin
      t.exec_ms_attributed <- t.exec_ms_attributed +. ms;
      let ls = line_stat t line label in
      ls.ls_exec_ms <- ls.ls_exec_ms +. ms
    end
  | _ -> ()

let sink t =
  {
    Obs.sink_name = "profiler";
    sink_emit = (fun ~ts:_ ev -> on_event t ev);
    sink_flush = ignore;
  }

(* Run [f] with the interpreter's sampling checkpoint armed at [t]'s
   interval; sampling stops on the way out, even on an exception. *)
let sampled t f =
  Obs.start_sampling ~interval_ms:t.interval_ms ();
  Fun.protect ~finally:Obs.stop_sampling f

(* [sampled] with the profiler attached for the duration. *)
let profiled t f = Obs.with_sink (sink t) (fun () -> sampled t f)

(* ---- per-method reads ---- *)

let find t mid = Hashtbl.find_opt t.meths mid

(* Every method seen, by method id. *)
let methods t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.meths []
  |> List.sort (fun a b -> compare a.pm_mid b.pm_mid)

let by_key l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* The sites [get] reads off each method, in (method id, pc) order. *)
let sites get t =
  List.concat_map
    (fun m -> List.map (fun (pc, s) -> (m, pc, s)) (by_key (get m)))
    (methods t)

let deopt_sites t = sites (fun m -> m.pm_deopt_sites) t

let osr_sites t = sites (fun m -> m.pm_osr_sites) t

(* Per-method table, hottest compiled-execution time first. *)
let table t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-32s %8s %9s %5s %5s %5s %5s %5s %9s %9s %9s\n" "method"
       "calls" "backedges" "promo" "comp" "deopt" "inst" "evict" "c-ms"
       "x-calls" "x-ms");
  Hashtbl.fold (fun _ m acc -> m :: acc) t.meths []
  |> List.sort (fun a b ->
         compare
           (b.pm_exec_ms, b.pm_compiles, b.pm_calls)
           (a.pm_exec_ms, a.pm_compiles, a.pm_calls))
  |> List.iter (fun m ->
         Buffer.add_string b
           (Printf.sprintf "%-32s %8d %9d %5d %5d %5d %5d %5d %9.2f %9d %9.2f\n"
              m.pm_label m.pm_calls m.pm_backedges m.pm_promotes m.pm_compiles
              m.pm_deopts m.pm_installs m.pm_evicts m.pm_compile_ms
              m.pm_exec_calls m.pm_exec_ms));
  Buffer.contents b

(* ---- per-line and folded-stack reads ---- *)

(* Folded-stack lines, alphabetical (stable for tests).  Compiled execution
   time has no stack samples — it is measured exactly instead — so it is
   folded in as synthetic `...;[compiled]` frames weighted by the sampling
   interval, keeping interpreter and compiled residency comparable in one
   flamegraph. *)
let folded t =
  let b = Buffer.create 1024 in
  let entries =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.folded []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (k, n) -> if k <> "" then Buffer.add_string b (Printf.sprintf "%s %d\n" k n))
    entries;
  let compiled =
    Hashtbl.fold
      (fun line ls acc ->
        if ls.ls_exec_ms > 0.0 then (line, ls) :: acc else acc)
      t.lines []
    |> List.sort compare
  in
  List.iter
    (fun (line, ls) ->
      let w =
        int_of_float (Float.round (ls.ls_exec_ms /. Float.max t.interval_ms 1e-6))
      in
      if w > 0 then
        Buffer.add_string b
          (Printf.sprintf "%s:%d;[compiled] %d\n" ls.ls_label line w))
    compiled;
  Buffer.contents b

let write_folded t path =
  let oc = open_out path in
  output_string oc (folded t);
  close_out oc

(* Per-line residency, sorted by source line. *)
let line_stats t =
  by_key (Hashtbl.fold (fun line ls acc -> (line, ls) :: acc) t.lines [])

(* Fraction of observed run time attributed to a source line: the minimum of
   sample attribution (tier 0) and compiled-time attribution, so a gap in
   either line table shows up.  1.0 when nothing was observed. *)
let coverage t =
  let s =
    if t.samples = 0 then 1.0
    else float_of_int t.attributed /. float_of_int t.samples
  in
  let x = if t.exec_ms <= 0.0 then 1.0 else t.exec_ms_attributed /. t.exec_ms in
  Float.min s x

let report t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%5s  %-32s %10s %12s %7s\n" "line" "method" "t0-samples"
       "compiled-ms" "deopts");
  List.iter
    (fun (line, ls) ->
      Buffer.add_string b
        (Printf.sprintf "%5d  %-32s %10d %12.2f %7d\n" line ls.ls_label
           ls.ls_samples ls.ls_exec_ms ls.ls_deopts))
    (line_stats t);
  Buffer.add_string b
    (Printf.sprintf
       "%d samples (%d line-attributed), %.2fms compiled (%.2fms attributed), \
        coverage %.0f%%\n"
       t.samples t.attributed t.exec_ms t.exec_ms_attributed
       (100.0 *. coverage t));
  Buffer.contents b
