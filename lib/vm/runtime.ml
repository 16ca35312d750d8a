(* Runtime state: the heap (OCaml objects double as the VM heap, as the JVM
   heap does in the paper's Fig. 6 [Runtime] interface), globals, output
   capture, and the registry of compiled function bodies. *)

open Types

let create ?(tiering = false) ?(tier_threshold = 16) ?(tier_cache_size = 512)
    ?(jit_threads = 0) ?(jit_queue = 32) ?(inline_caches = true) () =
  {
    classes = Hashtbl.create 64;
    next_oid = 0;
    next_cid = 0;
    next_mid = 0;
    globals = Array.make 16 Null;
    next_global = 0;
    out = None;
    macros = Hashtbl.create 32;
    compiled = Hashtbl.create 16;
    next_compiled = 0;
    compile_hook = None;
    jit_hook = None;
    interp_steps = 0;
    ic_enabled = inline_caches;
    ic_sites = Hashtbl.create 64;
    analyses = Hashtbl.create 64;
    cha_cache = Hashtbl.create 64;
    tiering =
      {
        t_enabled = tiering;
        t_threshold = max 1 tier_threshold;
        t_cache_size = max 1 tier_cache_size;
        t_cache = Hashtbl.create 64;
        t_order = Queue.create ();
        t_gen = Hashtbl.create 64;
        t_lock = Mutex.create ();
        t_jit_threads = max 0 jit_threads;
        t_jit_queue = max 1 jit_queue;
        t_bg_recompile = None;
        t_osr = None;
        t_submit = None;
        t_osr_failed = Hashtbl.create 4;
        t_hier_epoch = 0;
        t_devirt_deps = Hashtbl.create 16;
        t_compiles = 0;
        t_cache_hits = 0;
        t_cache_misses = 0;
        t_evictions = 0;
        t_deopts = 0;
        t_osr_compiles = 0;
        t_osr_entries = 0;
        t_native_installs = 0;
      };
  }

let alloc rt cls =
  let o = { oid = rt.next_oid; ocls = cls; ofields = Array.make (Array.length cls.cfields) Null } in
  rt.next_oid <- rt.next_oid + 1;
  o

let get_field o (f : field) = o.ofields.(f.fidx)

let set_field o (f : field) v = o.ofields.(f.fidx) <- v

let ensure_global rt i =
  let n = Array.length rt.globals in
  if i >= n then begin
    let g = Array.make (max (i + 1) (2 * n)) Null in
    Array.blit rt.globals 0 g 0 n;
    rt.globals <- g
  end

let get_global rt i =
  ensure_global rt i;
  rt.globals.(i)

let set_global rt i v =
  ensure_global rt i;
  rt.globals.(i) <- v

let alloc_global rt =
  let g = rt.next_global in
  rt.next_global <- g + 1;
  ensure_global rt g;
  g

let output rt s =
  match rt.out with
  | Some b -> Buffer.add_string b s
  | None -> print_string s

(* Redirect printed output into a buffer for the duration of [f]. *)
let capture_output rt f =
  let saved = rt.out in
  let b = Buffer.create 256 in
  rt.out <- Some b;
  Fun.protect ~finally:(fun () -> rt.out <- saved) (fun () ->
      let v = f () in
      (Buffer.contents b, v))

(* Compiled functions are exposed to bytecode as objects of the builtin class
   CompiledFn, whose single field holds an index into [rt.compiled].
   Guarded by the tiering lock: a background JIT worker evaluating a
   [freeze] thunk can register compiled functions concurrently with the
   mutator. *)
let register_compiled rt fn =
  let l = rt.tiering.t_lock in
  Mutex.lock l;
  let id = rt.next_compiled in
  rt.next_compiled <- id + 1;
  Hashtbl.replace rt.compiled id fn;
  Mutex.unlock l;
  id

let compiled_body rt id =
  match Hashtbl.find_opt rt.compiled id with
  | Some f -> f
  | None -> vm_error "no compiled function with id %d" id

(* ------------------------------------------------------------------ *)
(* Tiered execution: the runtime code cache                            *)

(* The label used for a method in observability events and profile tables. *)
let meth_label (m : meth) = m.mowner.cname ^ "." ^ m.mname

(* ---- source provenance lookups (line tables live on [meth]) ---- *)

(* Source line of the instruction at [pc]; 0 when unknown (no line table,
   pc out of range, or the producer had no position for that pc). *)
let line_at (m : meth) pc =
  if pc >= 0 && pc < Array.length m.mlines then m.mlines.(pc) else 0

(* The first pc with an attributed source line, or 0. *)
let meth_def_pc (m : meth) =
  let n = Array.length m.mlines in
  let rec go i = if i >= n then 0 else if m.mlines.(i) > 0 then i else go (i + 1) in
  go 0

(* The method's defining source line: the first attributed pc's. *)
let meth_def_line (m : meth) = line_at m (meth_def_pc m)

(* "Cls.meth @pc 5 (file.mini:12)" — pc always, file:line when known. *)
let meth_loc (m : meth) pc =
  let base = Printf.sprintf "%s @pc %d" (meth_label m) pc in
  match line_at m pc with
  | 0 -> base
  | l ->
    Printf.sprintf "%s (%s:%d)" base (if m.msrc = "" then "?" else m.msrc) l

let find_method_by_id rt mid : meth option =
  let found = ref None in
  Hashtbl.iter
    (fun _ cls ->
      List.iter (fun m -> if m.mid = mid then found := Some m) cls.cmethods)
    rt.classes;
  !found

(* The tiering structures (cache table, FIFO order, generation stamps) are
   shared between the mutator and background JIT worker domains, so every
   structural access goes through [t_lock].  The per-call dispatch
   [tiered_fn] never touches them — it reads only [m.mtier]. *)
let with_tier_lock rt f =
  let l = rt.tiering.t_lock in
  Mutex.lock l;
  match f () with
  | v ->
    Mutex.unlock l;
    v
  | exception e ->
    Mutex.unlock l;
    raise e

let tier_gen_unlocked rt mid =
  match Hashtbl.find_opt rt.tiering.t_gen mid with Some g -> g | None -> 0

let tier_gen rt mid = with_tier_lock rt (fun () -> tier_gen_unlocked rt mid)

(* Evict the oldest resident entry (FIFO; caller holds [t_lock]).  Queue
   entries may be stale (invalidated or re-installed methods); skip until a
   live one is found. *)
let rec tier_evict rt =
  let t = rt.tiering in
  match Queue.take_opt t.t_order with
  | None -> ()
  | Some mid -> (
    match Hashtbl.find_opt t.t_cache mid with
    | None -> tier_evict rt (* stale queue entry *)
    | Some e ->
      Hashtbl.remove t.t_cache mid;
      (* back to cold: the method may become hot and recompile later *)
      (match e.ce_meth.mtier with
      | Tier_compiled _ -> e.ce_meth.mtier <- Tier_cold
      | _ -> ());
      t.t_evictions <- t.t_evictions + 1;
      if !Obs.enabled then
        Obs.emit
          (Obs.Cache_evict
             {
               meth = meth_label e.ce_meth;
               mid = e.ce_meth.mid;
               occ = Hashtbl.length t.t_cache;
               cap = t.t_cache_size;
             }))

(* Record that [m]'s installed code speculates on virtual dispatch of each
   name in [deps] (caller holds [t_lock]); [hierarchy_changed] walks the
   buckets to invalidate every dependent method. *)
let devirt_register_unlocked rt deps (m : meth) =
  List.iter
    (fun name ->
      let bucket =
        match Hashtbl.find_opt rt.tiering.t_devirt_deps name with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.replace rt.tiering.t_devirt_deps name b;
          b
      in
      if not (List.exists (fun (m' : meth) -> m'.mid = m.mid) !bucket) then
        bucket := m :: !bucket)
    deps;
  if !Obs.enabled && deps <> [] then
    Obs.emit (Obs.Devirt_install { meth = meth_label m; mid = m.mid; deps })

let devirt_register rt deps m =
  with_tier_lock rt (fun () -> devirt_register_unlocked rt deps m)

let hier_epoch rt = with_tier_lock rt (fun () -> rt.tiering.t_hier_epoch)

let tier_install_unlocked rt ?(deps = []) (m : meth) fn =
  let t = rt.tiering in
  let entry = { ce_meth = m; ce_fn = fn; ce_gen = tier_gen_unlocked rt m.mid } in
  (* forced eviction pressure: behave as if the cache were full on this
     install, regardless of occupancy *)
  if !Chaos.on && Chaos.fire Chaos.cache_evict then tier_evict rt;
  if
    (not (Hashtbl.mem t.t_cache m.mid))
    && Hashtbl.length t.t_cache >= t.t_cache_size
  then tier_evict rt;
  Hashtbl.replace t.t_cache m.mid entry;
  Queue.add m.mid t.t_order;
  devirt_register_unlocked rt deps m;
  m.mtier <- Tier_compiled fn;
  if !Obs.enabled then
    Obs.emit
      (Obs.Cache_install
         {
           meth = meth_label m;
           mid = m.mid;
           gen = entry.ce_gen;
           occ = Hashtbl.length t.t_cache;
         })

let tier_install ?deps rt m fn =
  with_tier_lock rt (fun () -> tier_install_unlocked rt ?deps m fn)

(* Run [publish] under the tiering lock only if [m]'s generation still
   equals [gen] (the stamp read when the compile or upgrade started) and,
   when the code speculated on receiver types ([deps] non-empty), the
   class-hierarchy epoch still equals [epoch] (read at compile start).  An
   invalidation or a dispatch-changing [Classfile.add_method] that raced
   the compile bumped the corresponding stamp, so nothing is published and
   the mismatch is journaled.  Returns whether [publish] ran. *)
let when_current rt (m : meth) ~gen ?epoch ~deps publish =
  with_tier_lock rt (fun () ->
      let epoch_ok =
        deps = []
        ||
        match epoch with
        | None -> true
        | Some e -> rt.tiering.t_hier_epoch = e
      in
      if epoch_ok && tier_gen_unlocked rt m.mid = gen then begin
        publish ();
        true
      end
      else begin
        if !Obs.enabled then
          Obs.emit
            (Obs.Compile_discard
               {
                 meth = meth_label m;
                 mid = m.mid;
                 cause =
                   (if not epoch_ok then
                      Obs.Epoch_mismatch
                        {
                          expected = Option.value ~default:(-1) epoch;
                          found = rt.tiering.t_hier_epoch;
                        }
                    else
                      Obs.Gen_mismatch
                        { expected = gen; found = tier_gen_unlocked rt m.mid });
               });
        false
      end)

(* The atomic-publish primitive of the background JIT: install [fn] if the
   compile is still current (the caller decides whether to requeue). *)
let tier_install_if_current rt (m : meth) ~gen ?epoch ?(deps = []) fn =
  when_current rt m ~gen ?epoch ~deps (fun () -> tier_install_unlocked rt ~deps m fn)

(* The native tier's publish: [swap] puts native code into an installed
   entry point's cell, if the upgrade is still current. *)
let tier_upgrade_if_current rt (m : meth) ~gen ?epoch ?(deps = []) swap =
  when_current rt m ~gen ?epoch ~deps (fun () ->
      swap ();
      devirt_register_unlocked rt deps m;
      rt.tiering.t_native_installs <- rt.tiering.t_native_installs + 1)

(* Drop the installed code for [m] and bump its generation stamp, so that
   stale entries can never be re-activated (the [Lancet.stable] recompile
   path and explicit invalidation both land here).  [why] is the journaled
   cause: recompile exit, devirt-miss threshold, hierarchy change, ... *)
let tier_invalidate_unlocked ?(why = Obs.Unattributed) rt (m : meth) =
  let t = rt.tiering in
  Hashtbl.replace t.t_gen m.mid (tier_gen_unlocked rt m.mid + 1);
  Hashtbl.remove t.t_cache m.mid;
  (match m.mtier with Tier_compiled _ -> m.mtier <- Tier_cold | _ -> ());
  if !Obs.enabled then
    Obs.emit
      (Obs.Cache_invalidate
         {
           meth = meth_label m;
           mid = m.mid;
           gen = tier_gen_unlocked rt m.mid;
           occ = Hashtbl.length t.t_cache;
           cause = why;
         })

let tier_invalidate ?why rt (m : meth) =
  with_tier_lock rt (fun () -> tier_invalidate_unlocked ?why rt m)

(* Invalidation fan-out for a dispatch-affecting hierarchy mutation (a
   non-static [Classfile.add_method]): flush every interpreter inline cache
   for [name], drop the memoized CHA answers, bump the hierarchy epoch (so
   in-flight speculative compiles discard on install) and invalidate every
   installed method that speculated on dispatch of [name].  Runs on the
   mutator; the IC reset touches mutator-only structures, the rest is under
   [t_lock]. *)
let hierarchy_changed rt ~name =
  Hashtbl.iter
    (fun _ (site : callsite) ->
      if String.equal site.cs_name name then
        match site.cs_state with
        | Ic_empty -> ()
        | _ -> site.cs_state <- Ic_empty)
    rt.ic_sites;
  with_tier_lock rt (fun () ->
      Hashtbl.reset rt.cha_cache;
      let epoch = rt.tiering.t_hier_epoch + 1 in
      rt.tiering.t_hier_epoch <- epoch;
      let why = Obs.Hier_change { epoch; name } in
      match Hashtbl.find_opt rt.tiering.t_devirt_deps name with
      | None -> ()
      | Some bucket ->
        let ms = !bucket in
        Hashtbl.remove rt.tiering.t_devirt_deps name;
        List.iter
          (fun m ->
            if !Obs.enabled then
              Obs.emit
                (Obs.Devirt_kill { meth = meth_label m; mid = m.mid; name; epoch });
            tier_invalidate_unlocked ~why rt m)
          ms)

(* Retire [m] to the interpreter for good: its compile failed with [err].
   Journaled in either mode, with the method's source location and the
   domain that hit the failure; returns the location. *)
let tier_blacklist (m : meth) ~err =
  m.mtier <- Tier_blacklisted;
  let loc = meth_loc m (meth_def_pc m) in
  if !Obs.enabled then
    Obs.emit
      (Obs.Compile_blacklist
         {
           meth = meth_label m;
           mid = m.mid;
           worker = Obs.worker_id ();
           loc;
           err;
           cause = Obs.Compile_failure { err };
         });
  loc

(* Promote a hot method through the installed [jit_hook]; a hook failure
   (or absence of a result) blacklists the method so we never retry. *)
let tier_promote rt (m : meth) : (value array -> value) option =
  match rt.jit_hook with
  | None -> None
  | Some hook -> (
    m.mtier <- Tier_compiling;
    if !Obs.enabled then
      Obs.emit
        (Obs.Tier_promote
           {
             meth = meth_label m;
             mid = m.mid;
             calls = m.mcalls;
             backedges = m.mbackedges;
           });
    (* [t_compiles] is counted at the single place a graph is actually
       built — [Tiering.compile_method_dyn] — so initial compiles and
       on-exit recompiles use the same accounting path. *)
    match hook rt m with
    | Jit_compiled fn ->
      tier_install rt m fn;
      Some fn
    | Jit_pending ->
      (* queued on the background compile queue: the worker publishes into
         the cache when done; meanwhile the interpreter keeps running the
         method at tier 0 (the hook owns [mtier] from here) *)
      None
    | Jit_declined ->
      ignore (tier_blacklist m ~err:"compiler declined");
      None
    | exception e ->
      ignore (tier_blacklist m ~err:(Printexc.to_string e));
      None)

(* The per-call tier dispatch used by the interpreter: return the compiled
   entry point when one is installed, promoting the method first if it just
   crossed the hotness threshold. *)
let tiered_fn rt (m : meth) : (value array -> value) option =
  match m.mtier with
  | Tier_compiled fn ->
    rt.tiering.t_cache_hits <- rt.tiering.t_cache_hits + 1;
    Some fn
  | Tier_compiling | Tier_blacklisted -> None
  | Tier_cold ->
    let t = rt.tiering in
    if not t.t_enabled then None
    else begin
      t.t_cache_misses <- t.t_cache_misses + 1;
      if m.mcalls + m.mbackedges >= t.t_threshold then tier_promote rt m
      else None
    end

(* Aggregate inline-cache counters over all quickened sites:
   (hits, misses, mono, poly, mega) — the last three count sites by their
   current state. *)
let ic_stats rt =
  let hits = ref 0 and misses = ref 0 in
  let mono = ref 0 and poly = ref 0 and mega = ref 0 in
  Hashtbl.iter
    (fun _ (s : callsite) ->
      hits := !hits + s.cs_hits;
      misses := !misses + s.cs_misses;
      match s.cs_state with
      | Ic_empty -> ()
      | Ic_mono _ -> incr mono
      | Ic_poly _ -> incr poly
      | Ic_mega -> incr mega)
    rt.ic_sites;
  (!hits, !misses, !mono, !poly, !mega)

let tier_stats_string rt =
  let t = rt.tiering in
  let ic_hits, ic_misses, mono, poly, mega = ic_stats rt in
  Printf.sprintf
    "compiles=%d cache_hits=%d cache_misses=%d evictions=%d deopts=%d \
     interp_steps=%d ic_hits=%d ic_misses=%d ic_sites=%d(mono=%d poly=%d \
     mega=%d)%s%s"
    t.t_compiles t.t_cache_hits t.t_cache_misses t.t_evictions t.t_deopts
    rt.interp_steps ic_hits ic_misses
    (Hashtbl.length rt.ic_sites)
    mono poly mega
    (if t.t_osr_compiles = 0 then ""
     else
       Printf.sprintf " osr_compiles=%d osr_entries=%d" t.t_osr_compiles
         t.t_osr_entries)
    (if t.t_native_installs = 0 then ""
     else Printf.sprintf " native=%d" t.t_native_installs)
