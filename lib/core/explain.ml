(* `lancet explain`: annotate a Mini source listing with what the JIT did to
   it — tier promotions, compilations (backend, node counts, time), deopt
   sites, OSR entries at loop headers and, when the sampler ran, per-line
   residency.  Everything counted comes from the run's [Profiler], keyed
   by method id and (method id, pc); rendering resolves ids back to source
   lines through the methods' line tables.  Deopt causes come from the
   decision journal when it ran.  The rest of this module renders the
   journal (`lancet why`, `health`), the IR snapshots (`lancet ir`) and the
   missed optimizations (`lancet coach`). *)

(* ---- journal lookups (used when the decision journal ran) ---- *)

let dedup l =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

(* Causes the journal recorded for deopts at [(mid, pc)], deduped and in
   first-occurrence order. *)
let deopt_causes mid pc =
  Forensics.for_mid mid
  |> List.filter_map (fun (d : Forensics.decision) ->
         match d.d_event with
         | Obs.Deopt e when e.pc = pc ->
           let c = Obs.cause_to_string d.d_cause in
           if c = "" then None else Some c
         | _ -> None)
  |> dedup

(* What the engine did about [mid]'s deopts/invalidation — the rest of the
   causal chain, for the explain deopt-site disasm. *)
let deopt_consequences mid =
  Forensics.for_mid mid
  |> List.filter_map (fun (d : Forensics.decision) ->
         match d.d_event with
         | Obs.Cache_invalidate _ | Obs.Devirt_kill _ | Obs.Compile_blacklist _
         | Obs.Compile_drop _ ->
           let c = Obs.cause_to_string d.d_cause in
           Some
             (Obs.describe d.d_event ^ if c = "" then "" else " <- " ^ c)
         | _ -> None)
  |> dedup

(* ---- rendering ---- *)

(* [n] compiles, the last one [c]. *)
let describe_compiles ?(timings = true) n (c : Obs.compile_info) =
  let last =
    Printf.sprintf "%s backend%s, %d->%d nodes%s" c.Obs.ci_backend
      (match c.Obs.ci_fallback with
      | Some why -> Printf.sprintf " (typed fell back: %s)" why
      | None -> "")
      c.Obs.ci_nodes_in c.Obs.ci_nodes_out
      (if timings then Printf.sprintf ", %.2fms" c.Obs.ci_ms else "")
  in
  if n = 1 then "compiled: " ^ last
  else Printf.sprintf "compiled x%d (last: %s)" n last

let kind_word = function
  | Obs.Interpret -> "to interpreter"
  | Obs.Recompile -> "recompile"

(* Annotate [src] (the Mini program text) with everything [p] recorded,
   per-line residency only with [residency].  Events whose method has no
   line table (or which point outside [src]) are listed at the end rather
   than dropped. *)
let render ?(timings = true) ?(ir = false) ~residency (p : Profiler.t) rt ~src =
  let lines = String.split_on_char '\n' src in
  let nlines = List.length lines in
  let ann : (int, string list ref) Hashtbl.t = Hashtbl.create 32 in
  let unplaced = ref [] in
  let add_at line msg =
    if line > 0 && line <= nlines then begin
      let l =
        match Hashtbl.find_opt ann line with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace ann line l;
          l
      in
      l := msg :: !l
    end
    else unplaced := msg :: !unplaced
  in
  let def_line mid =
    match Vm.Runtime.find_method_by_id rt mid with
    | Some m -> Vm.Runtime.meth_def_line m
    | None -> 0
  in
  List.iter
    (fun (m : Profiler.meth_stat) ->
      let line = def_line m.pm_mid in
      (match m.pm_promoted with
      | Some (calls, backedges) ->
        add_at line
          (Printf.sprintf "%s: promoted to tier 1 (calls=%d backedges=%d)"
             m.pm_label calls backedges)
      | None -> ());
      match m.pm_last_compile with
      | Some c ->
        add_at line
          (Printf.sprintf "%s: %s" m.pm_label
             (describe_compiles ~timings m.pm_compiles c))
      | None -> ())
    (Profiler.methods p);
  List.iter
    (fun ((m : Profiler.meth_stat), pc, (d : Profiler.deopt_site)) ->
      let causes =
        match deopt_causes m.pm_mid pc with
        | [] -> ""
        | cs -> "; cause: " ^ String.concat "; " cs
      in
      add_at d.ds_line
        (Printf.sprintf "%s: deopt x%d @pc %d (%s, %s)%s" m.pm_label
           d.ds_count pc d.ds_tag (kind_word d.ds_kind) causes))
    (Profiler.deopt_sites p);
  (* OSR entries, at their loop header's line *)
  List.iter
    (fun ((m : Profiler.meth_stat), pc, (o : Profiler.osr_site)) ->
      add_at o.os_line
        (Printf.sprintf "%s: OSR entry x%d at loop header @pc %d (after %d \
                         own steps)"
           m.pm_label o.os_count pc o.os_steps))
    (Profiler.osr_sites p);
  (* inline-cache sites, stable order: by (mid, pc).  State is read live
     from the runtime (the sites ARE the profile), not replayed from
     events, so this shows where each site ended up: mono:Cls, poly:{A,B}
     or mega. *)
  let ic_sites =
    Hashtbl.fold (fun k s acc -> (k, s) :: acc) rt.Vm.Types.ic_sites []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun ((mid, pc), (site : Vm.Types.callsite)) ->
      match Vm.Runtime.find_method_by_id rt mid with
      | None -> ()
      | Some m ->
        add_at (Vm.Runtime.line_at m pc)
          (Printf.sprintf "%s: inline cache @pc %d %s (hits=%d misses=%d)"
             (Vm.Runtime.meth_label m) pc
             (Vm.Inlinecache.state_string site)
             site.Vm.Types.cs_hits site.Vm.Types.cs_misses))
    ic_sites;
  if residency then
    List.iter
      (fun (line, (ls : Profiler.line_stat)) ->
        if ls.ls_samples > 0 || ls.ls_exec_ms > 0.0 then
          add_at line
            (Printf.sprintf "residency: %d interp samples, %.2fms compiled"
               ls.ls_samples ls.ls_exec_ms))
      (Profiler.line_stats p);
  (* --ir: per-line surviving-node counts per phase, from each method's most
     recent compile (Irtrace must have been enabled during the run) *)
  if ir then begin
    let snaps = Irtrace.snapshots () in
    (* last compile per (mid, spec) *)
    let last_cid : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (sn : Irtrace.snapshot) ->
        let k = (sn.Irtrace.sn_mid, sn.Irtrace.sn_spec) in
        match Hashtbl.find_opt last_cid k with
        | Some c when c >= sn.Irtrace.sn_cid -> ()
        | _ -> Hashtbl.replace last_cid k sn.Irtrace.sn_cid)
      snaps;
    (* phase order and per-(line, phase) counts of the surviving compiles *)
    let phases : (int * string, string list ref) Hashtbl.t = Hashtbl.create 8 in
    let counts = Hashtbl.create 64 in
    let labels = Hashtbl.create 8 in
    let lines_of = Hashtbl.create 64 in
    List.iter
      (fun (sn : Irtrace.snapshot) ->
        let k = (sn.Irtrace.sn_mid, sn.Irtrace.sn_spec) in
        if Hashtbl.find_opt last_cid k = Some sn.Irtrace.sn_cid then begin
          Hashtbl.replace labels k sn.Irtrace.sn_meth;
          (match Hashtbl.find_opt phases k with
          | Some l -> l := sn.Irtrace.sn_phase :: !l
          | None -> Hashtbl.replace phases k (ref [ sn.Irtrace.sn_phase ]));
          List.iter
            (fun (line, c) ->
              Hashtbl.replace counts (k, line, sn.Irtrace.sn_phase) c;
              if not (List.mem line (Option.value ~default:[]
                                       (Hashtbl.find_opt lines_of k)))
              then
                Hashtbl.replace lines_of k
                  (line :: Option.value ~default:[] (Hashtbl.find_opt lines_of k)))
            sn.Irtrace.sn_lines
        end)
      snaps;
    Hashtbl.iter
      (fun k lns ->
        let ph = List.rev !(Hashtbl.find phases k) in
        let label = try Hashtbl.find labels k with Not_found -> "" in
        List.iter
          (fun line ->
            let cells =
              List.map
                (fun p ->
                  Printf.sprintf "%s %d" p
                    (Option.value ~default:0
                       (Hashtbl.find_opt counts (k, line, p))))
                ph
            in
            add_at line
              (Printf.sprintf "%s: ir nodes %s" label
                 (String.concat " -> " cells)))
          (List.sort compare lns))
      lines_of
  end;
  let b = Buffer.create 4096 in
  List.iteri
    (fun i line ->
      let n = i + 1 in
      Buffer.add_string b (Printf.sprintf "%4d | %s\n" n line);
      match Hashtbl.find_opt ann n with
      | None -> ()
      | Some msgs ->
        List.iter
          (fun m -> Buffer.add_string b (Printf.sprintf "     |   ^ %s\n" m))
          (List.rev !msgs))
    lines;
  if !unplaced <> [] then begin
    Buffer.add_string b "\nnot attributed to a source line:\n";
    List.iter
      (fun m -> Buffer.add_string b (Printf.sprintf "  - %s\n" m))
      (List.rev !unplaced)
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* `lancet why`: per-method causal timelines from the decision journal  *)

let meth_header rt mid label =
  match Vm.Runtime.find_method_by_id rt mid with
  | Some m ->
    let line = Vm.Runtime.meth_def_line m in
    if line > 0 then
      Printf.sprintf "%s (%s:%d)" label
        (if m.Vm.Types.msrc = "" then "?" else m.Vm.Types.msrc)
        line
    else label
  | None -> label

(* Render the journal as one timeline per method, oldest decision first.
   [meth] filters by label substring ("f" matches "Main.f").  Timestamps
   are relative to the first journaled decision of the run. *)
let why_report ?meth rt =
  let t0 =
    match Forensics.decisions () with
    | d :: _ -> d.Forensics.d_ts
    | [] -> 0.0
  in
  let keep label =
    match meth with
    | None -> true
    | Some f -> Vm.Strutil.contains label f
  in
  let b = Buffer.create 2048 in
  let groups =
    List.filter (fun (_, label, _) -> keep label) (Forensics.timeline ())
  in
  (* deterministic output: order groups by mid and label rather than
     first-decision time, so report goldens are byte-diff-stable across
     runs (background workers journal in a racy order) *)
  let groups =
    List.sort (fun (a, l, _) (b, l', _) -> compare (a, l) (b, l')) groups
  in
  if groups = [] then
    Buffer.add_string b
      (match meth with
      | Some f ->
        Printf.sprintf
          "no journaled decisions for methods matching %S (did it get hot?)\n" f
      | None ->
        "no journaled decisions: nothing tiered up (lower --tier-threshold, \
         or run longer)\n")
  else
    List.iter
      (fun (mid, label, ds) ->
        Buffer.add_string b
          (Printf.sprintf "== %s ==\n" (meth_header rt mid label));
        (* fingerprints repeat when a recompile reproduced the same graph;
           flag those so "recompiled but nothing changed" is visible *)
        let seen_fps = Hashtbl.create 4 in
        List.iter
          (fun d ->
            let extra =
              match d.Forensics.d_event with
              | Obs.Ir_fingerprint { fp; _ } ->
                if Hashtbl.mem seen_fps fp then
                  "  (identical to previous compile)"
                else begin
                  Hashtbl.replace seen_fps fp ();
                  ""
                end
              | _ -> ""
            in
            Buffer.add_string b
              ("  " ^ Forensics.decision_to_string ~t0 d ^ extra ^ "\n"))
          ds;
        Buffer.add_char b '\n')
      groups;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* `lancet health`: whole-run pathology report                          *)

let health_report rt =
  let b = Buffer.create 2048 in
  let t0 =
    match Forensics.decisions () with
    | d :: _ -> d.Forensics.d_ts
    | [] -> 0.0
  in
  let paths = Forensics.detect () in
  Buffer.add_string b
    (Printf.sprintf "checked %d journaled decisions: %s\n\n" (Forensics.seen ())
       (match List.length paths with
       | 0 -> "no pathologies detected"
       | 1 -> "1 pathology detected"
       | n -> Printf.sprintf "%d pathologies detected" n));
  List.iter
    (fun (p : Forensics.pathology) ->
      (* prefer the pathology's own source line (a deopt/IC site); fall
         back to the method's defining line *)
      let line =
        if p.p_line > 0 then p.p_line
        else
          match Vm.Runtime.find_method_by_id rt p.p_mid with
          | Some m -> Vm.Runtime.meth_def_line m
          | None -> 0
      in
      let src =
        match Vm.Runtime.find_method_by_id rt p.p_mid with
        | Some m when m.Vm.Types.msrc <> "" -> m.Vm.Types.msrc
        | _ -> "?"
      in
      Buffer.add_string b
        (Printf.sprintf "PATHOLOGY %s: %s%s\n" p.p_kind p.p_meth
           (if line > 0 then Printf.sprintf " (%s:%d)" src line else ""));
      Buffer.add_string b (Printf.sprintf "  %s\n" p.p_what);
      if p.p_evidence <> [] then begin
        Buffer.add_string b "  evidence:\n";
        List.iter
          (fun d ->
            Buffer.add_string b
              ("    " ^ Forensics.decision_to_string ~t0 d ^ "\n"))
          p.p_evidence
      end;
      Buffer.add_string b (Printf.sprintf "  suggestion: %s\n\n" p.p_knob))
    paths;
  Buffer.add_string b
    (Printf.sprintf "run stats: %s\n" (Vm.Runtime.tier_stats_string rt));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* `lancet ir`: pass-by-pass snapshots with structural diffs           *)

let fmt_counts cs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) cs)

(* Render the Irtrace snapshot store, one section per compile, filtered by
   method-label substring and phase-name substring.  With [diff], each
   phase transition prints what it created/eliminated and which source
   line's nodes went away. *)
let ir_report ?(meth = "") ?(phase = "") ?(diff = false) () =
  let snaps = Irtrace.snapshots () in
  let groups : (int, Irtrace.snapshot list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (sn : Irtrace.snapshot) ->
      match Hashtbl.find_opt groups sn.Irtrace.sn_cid with
      | Some l -> l := sn :: !l
      | None ->
        Hashtbl.replace groups sn.Irtrace.sn_cid (ref [ sn ]);
        order := sn.Irtrace.sn_cid :: !order)
    snaps;
  let b = Buffer.create 4096 in
  let shown = ref 0 in
  List.iter
    (fun cid ->
      let sns = List.rev !(Hashtbl.find groups cid) in
      match sns with
      | [] -> ()
      | first :: _ ->
        if meth = "" || Vm.Strutil.contains first.Irtrace.sn_meth meth then begin
          Buffer.add_string b
            (Printf.sprintf "== %s [%s] compile #%d ==\n" first.Irtrace.sn_meth
               first.Irtrace.sn_spec cid);
          let prev = ref None in
          List.iter
            (fun (sn : Irtrace.snapshot) ->
              (if diff then
                 match !prev with
                 | Some p ->
                   let d = Irtrace.diff p sn in
                   if d.Irtrace.df_created <> [] || d.Irtrace.df_eliminated <> []
                   then begin
                     let from_n, to_n = d.Irtrace.df_nodes in
                     Buffer.add_string b
                       (Printf.sprintf "  delta %s -> %s: %+d nodes\n"
                          d.Irtrace.df_from d.Irtrace.df_to (to_n - from_n));
                     if d.Irtrace.df_eliminated <> [] then
                       Buffer.add_string b
                         (Printf.sprintf "    eliminated: %s\n"
                            (fmt_counts d.Irtrace.df_eliminated));
                     if d.Irtrace.df_created <> [] then
                       Buffer.add_string b
                         (Printf.sprintf "    created:    %s\n"
                            (fmt_counts d.Irtrace.df_created));
                     List.iter
                       (fun (line, dl) ->
                         Buffer.add_string b
                           (Printf.sprintf "    line %d: %+d nodes\n" line dl))
                       d.Irtrace.df_lines
                   end
                 | None -> ());
              prev := Some sn;
              if Phases.matches ~filter:phase sn.Irtrace.sn_phase then begin
                incr shown;
                Buffer.add_string b
                  (Printf.sprintf "-- %s: %d nodes / %d blocks  fp %s%s --\n"
                     sn.Irtrace.sn_phase sn.Irtrace.sn_nodes sn.Irtrace.sn_blocks
                     (Obs.short_fp sn.Irtrace.sn_fp)
                     (match sn.Irtrace.sn_meta with
                     | [] -> ""
                     | meta ->
                       "  ("
                       ^ String.concat ", "
                           (List.map (fun (k, v) -> k ^ "=" ^ v) meta)
                       ^ ")"));
                if sn.Irtrace.sn_ops <> [] then
                  Buffer.add_string b
                    (Printf.sprintf "   ops: %s\n" (fmt_counts sn.Irtrace.sn_ops));
                match sn.Irtrace.sn_text with
                | Some t ->
                  Buffer.add_string b t;
                  Buffer.add_char b '\n'
                | None -> ()
              end)
            sns;
          Buffer.add_char b '\n'
        end)
    (List.rev !order);
  if !shown = 0 then
    Buffer.add_string b
      "no IR snapshots matched: nothing tiered up (lower --tier-threshold or \
       run longer), or the --method/--phase filters excluded everything\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* `lancet coach`: missed optimizations ranked by profile residency     *)

let miss_suggestion (m : Irtrace.missed) =
  match m.Irtrace.ms_reason with
  | Irtrace.Cse_effect_barrier { op } ->
    Printf.sprintf
      "hoist the repeated '%s' into a local (val x = ...): the JIT must \
       reload it because it cannot prove the location unchanged" op
  | Irtrace.Dce_kept_effectful { op } ->
    Printf.sprintf
      "'%s' computes a value nobody reads but cannot be deleted (it may have \
       effects); drop the expression or use its result" op
  | Irtrace.Devirt_declined { callee; ic_state } ->
    if ic_state = "mega" then
      Printf.sprintf
        "the '%s' site is megamorphic, so the JIT emits generic dispatch; \
         split the call site per receiver class to re-enable guarded direct \
         calls" callee
    else if String.length ic_state >= 4 && String.sub ic_state 0 4 = "poly"
    then
      Printf.sprintf
        "the '%s' site saw several receiver classes (%s): a dispatch chain \
         replaced the direct call; narrow the receiver mix for a single \
         guarded call" callee ic_state
    else if ic_state = "feedback-off" then
      "run under the tiered JIT (type feedback on) so the inline cache can \
       seed devirtualization"
    else
      Printf.sprintf
        "the inline cache had no profile for '%s' when the method compiled; \
         warm the site up before promotion or raise --tier-threshold" callee
  | Irtrace.Guard_fusion_declined { why; _ } ->
    if why = "multi-use" then
      "the branch condition is also used elsewhere, so the guard cannot fuse \
       into the branch; recompute the compare at the branch site for a bare \
       compare-and-branch"
    else if why = "materialized-bool" then
      "the compare was lowered to a 0/1 value before the branch (a boolean \
       local or speculation argument), so the guard re-tests the \
       materialized value; inline the compare into the branch condition"
    else
      "the branch condition is computed in a different block; move the \
       compare next to the branch so the backend can fuse it"

let coach_report ?profiler rt =
  let misses = Irtrace.misses () in
  let b = Buffer.create 2048 in
  if misses = [] then
    Buffer.add_string b
      "no missed-optimization records: either nothing was compiled (lower \
       --tier-threshold or run longer) or the pipeline found nothing to \
       decline\n"
  else begin
    (* residency by source line, for ranking *)
    let total_samples = ref 0 in
    let by_line = Hashtbl.create 32 in
    (match profiler with
    | None -> ()
    | Some p ->
      List.iter
        (fun (line, (ls : Profiler.line_stat)) ->
          total_samples := !total_samples + ls.Profiler.ls_samples;
          Hashtbl.replace by_line line ls)
        (Profiler.line_stats p));
    let residency (m : Irtrace.missed) =
      match Hashtbl.find_opt by_line m.Irtrace.ms_line with
      | Some (ls : Profiler.line_stat) ->
        (ls.Profiler.ls_samples, ls.Profiler.ls_exec_ms)
      | None -> (0, 0.0)
    in
    (* ranked by counts, which two runs of a program agree on: hits,
       then source line, then reason; residency only annotates *)
    let ranked =
      List.sort
        (fun (a : Irtrace.missed) (b : Irtrace.missed) ->
          compare
            (b.ms_count, a.ms_line, Irtrace.reason_to_string a.ms_reason)
            (a.ms_count, b.ms_line, Irtrace.reason_to_string b.ms_reason))
        misses
    in
    let loc (m : Irtrace.missed) =
      let src =
        match Vm.Runtime.find_method_by_id rt m.Irtrace.ms_mid with
        | Some meth when meth.Vm.Types.msrc <> "" -> meth.Vm.Types.msrc
        | _ -> "?"
      in
      if m.Irtrace.ms_line > 0 then
        Printf.sprintf "%s:%d" src m.Irtrace.ms_line
      else src
    in
    let label (m : Irtrace.missed) =
      if m.Irtrace.ms_meth <> "" then m.Irtrace.ms_meth
      else
        match Vm.Runtime.find_method_by_id rt m.Irtrace.ms_mid with
        | Some meth -> Vm.Runtime.meth_label meth
        | None -> Printf.sprintf "mid %d" m.Irtrace.ms_mid
    in
    Buffer.add_string b
      (Printf.sprintf "%d missed-optimization site%s, most hits first:\n\n"
         (List.length ranked)
         (if List.length ranked = 1 then "" else "s"));
    List.iteri
      (fun i (m : Irtrace.missed) ->
        let samples, exec_ms = residency m in
        let hot =
          if samples > 0 && !total_samples > 0 then
            Printf.sprintf "  [hot: %d%% of interp samples%s]"
              (100 * samples / !total_samples)
              (if exec_ms > 0.0 then Printf.sprintf " + %.1fms compiled" exec_ms
               else "")
          else if exec_ms > 0.0 then
            Printf.sprintf "  [hot: %.1fms compiled]" exec_ms
          else ""
        in
        Buffer.add_string b
          (Printf.sprintf "%2d. %s (%s)%s\n" (i + 1) (loc m) (label m) hot);
        Buffer.add_string b
          (Printf.sprintf "    %s  [%s, x%d]\n"
             (Irtrace.reason_to_string m.Irtrace.ms_reason)
             m.Irtrace.ms_phase m.Irtrace.ms_count);
        Buffer.add_string b (Printf.sprintf "    fix: %s\n\n" (miss_suggestion m)))
      ranked
  end;
  Buffer.contents b
