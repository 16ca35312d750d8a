(* Pipeline introspection: per-phase IR snapshots and missed-optimization
   records.

   Forensics (PR 7) journals what the engine *decided*; this module journals
   what the optimization pipeline *did* to a method's IR — and, just as
   importantly, what it declined to do.  Every compile, when enabled, leaves
   one [snapshot] per pipeline phase (see [Phases]) and the passes themselves
   emit typed [missed] records ("CSE blocked by an effect barrier at line 12")
   that `lancet coach` joins against profile residency.

   Like Obs and Forensics, this layer sits below the VM and the IR: it never
   sees a graph.  Capture — walking nodes, counting op kinds, hashing the
   canonical form — lives in [Lms.Snapshot]; what arrives here is plain
   counts, strings and hashes.  Design constraints match the bus:

   1. Disabled cost is a single load+branch: every site is
      `if !Irtrace.on then ...` and tracing starts disabled.  The overhead
      gate runs in `bench/main.exe check`.
   2. Bounded memory: snapshots land in an [Obs.Ring] and missed-optimization
      records dedupe by site into a capped table with counts.
   3. Domain-safe: background JIT workers compile concurrently; the current
      compile's identity is domain-local ([Domain.DLS]) and a mutex guards
      the store (taken only after the [on] check). *)

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

(* One phase of one compile.  [sn_cid] groups the phases of a single build;
   [sn_fp] is a digest of the graph's canonical form — stable across
   recompiles of the same (mid, spec) whatever domain built it. *)
type snapshot = {
  sn_cid : int; (* compile sequence number *)
  sn_mid : int;
  sn_meth : string; (* "Cls.name" label *)
  sn_spec : string; (* argument specialization, e.g. "ds" = dyn,static *)
  sn_phase : string; (* Phases.name *)
  sn_blocks : int;
  sn_nodes : int;
  sn_ops : (string * int) list; (* op kind -> live node count, sorted *)
  sn_lines : (int * int) list; (* source line -> node count, sorted *)
  sn_fp : string; (* structural fingerprint (hex digest) *)
  sn_text : string option; (* annotated pretty-print, when [keep_text] *)
  sn_meta : (string * string) list; (* phase-specific detail, e.g. cse hits *)
}

(* Why an optimization did not fire.  Each constructor is one pass's decline
   with the machine-readable detail the emit site had in hand. *)
type miss_reason =
  | Cse_effect_barrier of { op : string }
      (* a repeated load the builder could not hash-cons: the op is
         effect-tagged (mutable field, global, array cell) even though no
         intervening write was seen in the block *)
  | Dce_kept_effectful of { op : string }
      (* the node's value is never used, but its effect pins it *)
  | Devirt_declined of { callee : string; ic_state : string }
      (* speculative devirtualization declined; [ic_state] is the inline
         cache state that forced the decision ("mega", "poly:{A,B}", ...) *)
  | Guard_fusion_declined of { cond : string; why : string }
      (* a branch compare could not fuse into the branch: "multi-use",
         "cross-block", or "materialized-bool" (the compare was lowered to
         a 0/1 join in a predecessor block) *)

type missed = {
  ms_mid : int;
  ms_meth : string;
  ms_phase : string; (* pipeline phase that declined *)
  ms_pc : int; (* bytecode pc from prov; -1 when unknown *)
  ms_line : int; (* source line from prov; 0 when unknown *)
  ms_reason : miss_reason;
  mutable ms_count : int; (* occurrences (recompiles re-report the site) *)
}

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

type store = {
  snaps : snapshot Obs.Ring.t;
  misses : (int * int * string, missed) Hashtbl.t; (* (mid, pc, key) *)
  mutable miss_order : (int * int * string) list; (* newest-first keys *)
  miss_cap : int;
  keep_text : bool;
  fps : (int * string * string, string) Hashtbl.t;
      (* (mid, spec, phase) -> last fingerprint seen *)
  mutable refits : int; (* snapshots that matched the previous fingerprint *)
  lock : Mutex.t;
}

(* THE fast-path flag, mirroring [Obs.enabled]: capturing a snapshot walks
   the graph, so this layer keeps a flag of its own. *)
let on = ref false

let store : store option ref = ref None

let enable ?(capacity = 1024) ?(keep_text = false) () =
  store :=
    Some
      {
        snaps = Obs.Ring.create ~capacity:(max 16 capacity) ();
        misses = Hashtbl.create 64;
        miss_order = [];
        miss_cap = 4096;
        keep_text;
        fps = Hashtbl.create 64;
        refits = 0;
        lock = Mutex.create ();
      };
  on := true

let disable () =
  on := false;
  store := None

(* Should capture sites build the pretty-printed text?  Read without the
   lock: it is fixed for the lifetime of one [enable]. *)
let keep_text () = match !store with Some s -> s.keep_text | None -> false

let seen () = match !store with Some s -> Obs.Ring.seen s.snaps | None -> 0

(* ------------------------------------------------------------------ *)
(* Current compile (domain-local)                                      *)

(* A compile runs start-to-finish on one domain (the mutator or a background
   JIT worker), so the compile's identity travels in domain-local storage
   instead of being threaded through every backend signature. *)
type compile_ctx = { cc_cid : int; cc_mid : int; cc_meth : string; cc_spec : string }

let ctx_key : compile_ctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let next_cid = Atomic.make 0

let begin_compile ~mid ~meth ~spec =
  Domain.DLS.set ctx_key
    (Some
       {
         cc_cid = Atomic.fetch_and_add next_cid 1;
         cc_mid = mid;
         cc_meth = meth;
         cc_spec = spec;
       })

let current () = Domain.DLS.get ctx_key

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

(* Called by [Lms.Snapshot.take] with the summarized graph.  Returns whether
   this fingerprint reproduced the previous one for the same
   (mid, spec, phase) — the "byte-identical recompile" signal. *)
let record_snapshot ~phase ~blocks ~nodes ~ops ~lines ~fp ?text ?(meta = []) () =
  match !store with
  | None -> false
  | Some s ->
    let cid, mid, meth, spec =
      match current () with
      | Some c -> (c.cc_cid, c.cc_mid, c.cc_meth, c.cc_spec)
      | None -> (-1, -1, "", "")
    in
    let sn =
      {
        sn_cid = cid;
        sn_mid = mid;
        sn_meth = meth;
        sn_spec = spec;
        sn_phase = phase;
        sn_blocks = blocks;
        sn_nodes = nodes;
        sn_ops = ops;
        sn_lines = lines;
        sn_fp = fp;
        sn_text = text;
        sn_meta = meta;
      }
    in
    Mutex.lock s.lock;
    Obs.Ring.push s.snaps sn;
    let key = (mid, spec, phase) in
    let same = Hashtbl.find_opt s.fps key = Some fp in
    if same then s.refits <- s.refits + 1 else Hashtbl.replace s.fps key fp;
    Mutex.unlock s.lock;
    same

let reason_key = function
  | Cse_effect_barrier m -> "cse-effect-barrier:" ^ m.op
  | Dce_kept_effectful m -> "dce-kept-effectful:" ^ m.op
  | Devirt_declined m -> "devirt-declined:" ^ m.callee ^ ":" ^ m.ic_state
  | Guard_fusion_declined m -> "guard-fusion-declined:" ^ m.why

(* The stable machine-readable kind, without per-site detail. *)
let reason_kind = function
  | Cse_effect_barrier _ -> "cse-effect-barrier"
  | Dce_kept_effectful _ -> "dce-kept-effectful"
  | Devirt_declined _ -> "devirt-declined"
  | Guard_fusion_declined _ -> "guard-fusion-declined"

let reason_to_string = function
  | Cse_effect_barrier m ->
    Printf.sprintf "CSE blocked by effect barrier: '%s' reloaded (the JIT \
                    cannot prove no intervening write)" m.op
  | Dce_kept_effectful m ->
    Printf.sprintf "DCE kept '%s': result unused but the op has effects" m.op
  | Devirt_declined m ->
    Printf.sprintf "devirt of '%s' declined (inline cache: %s)" m.callee
      m.ic_state
  | Guard_fusion_declined m ->
    Printf.sprintf "guard fusion declined for '%s' (%s compare)" m.cond m.why

let record_miss ~phase ?(mid = -1) ?(meth = "") ~pc ~line reason =
  match !store with
  | None -> ()
  | Some s ->
    let key = (mid, pc, reason_key reason) in
    Mutex.lock s.lock;
    (match Hashtbl.find_opt s.misses key with
    | Some m -> m.ms_count <- m.ms_count + 1
    | None ->
      if Hashtbl.length s.misses < s.miss_cap then begin
        Hashtbl.replace s.misses key
          {
            ms_mid = mid;
            ms_meth = meth;
            ms_phase = phase;
            ms_pc = pc;
            ms_line = line;
            ms_reason = reason;
            ms_count = 1;
          };
        s.miss_order <- key :: s.miss_order
      end);
    Mutex.unlock s.lock

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

(* Oldest-first; at most [cap] survive wraparound. *)
let snapshots () =
  match !store with
  | None -> []
  | Some s ->
    Mutex.lock s.lock;
    let l = Obs.Ring.contents s.snaps in
    Mutex.unlock s.lock;
    l

(* First-recorded-first, with deduped counts. *)
let misses () =
  match !store with
  | None -> []
  | Some s ->
    Mutex.lock s.lock;
    let l = List.rev_map (fun k -> Hashtbl.find s.misses k) s.miss_order in
    Mutex.unlock s.lock;
    l

(* Snapshots that reproduced the previous fingerprint of their
   (mid, spec, phase) — recompiles that changed nothing. *)
let identical_recompiles () = match !store with Some s -> s.refits | None -> 0

let last_fp ~mid ~spec ~phase =
  match !store with
  | None -> None
  | Some s ->
    Mutex.lock s.lock;
    let r = Hashtbl.find_opt s.fps (mid, spec, phase) in
    Mutex.unlock s.lock;
    r

(* ------------------------------------------------------------------ *)
(* Structural diffing                                                  *)

(* Delta between two snapshots of the same compile: what the later phase
   created and eliminated, per op kind and per source line. *)
type diff = {
  df_from : string; (* phase names *)
  df_to : string;
  df_nodes : int * int;
  df_created : (string * int) list; (* op kind -> nodes gained *)
  df_eliminated : (string * int) list; (* op kind -> nodes lost *)
  df_lines : (int * int) list; (* line -> node delta (negative = removed) *)
}

(* Merge two sorted association lists into (key, before, after) triples. *)
let merge_counts a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (v, 0)) a;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some (x, _) -> Hashtbl.replace tbl k (x, v)
      | None -> Hashtbl.replace tbl k (0, v))
    b;
  let l = Hashtbl.fold (fun k (x, y) acc -> (k, x, y) :: acc) tbl [] in
  List.sort compare l

let diff a b =
  let ops = merge_counts a.sn_ops b.sn_ops in
  let created =
    List.filter_map (fun (k, x, y) -> if y > x then Some (k, y - x) else None) ops
  in
  let eliminated =
    List.filter_map (fun (k, x, y) -> if x > y then Some (k, x - y) else None) ops
  in
  let lines =
    List.filter_map
      (fun (l, x, y) -> if y <> x then Some (l, y - x) else None)
      (merge_counts a.sn_lines b.sn_lines)
  in
  {
    df_from = a.sn_phase;
    df_to = b.sn_phase;
    df_nodes = (a.sn_nodes, b.sn_nodes);
    df_created = created;
    df_eliminated = eliminated;
    df_lines = lines;
  }
