(* Core data model of the bytecode VM: runtime values, classes, methods and
   instructions are mutually recursive (an object points to its class, a class
   to its methods, a method's code to classes and fields), so they live in one
   module. Operations are in the sibling modules [Value], [Classfile],
   [Runtime], [Interp]. *)

(* A JIT macro, as registered in a runtime's macro table.  Its constructor
   is defined by the compiler that expands macros, which this module cannot
   name. *)
type macro = ..

(* A per-method analysis of bytecode that a runtime caches for the JIT (the
   control-flow analysis of the compiler's [Bcfg]).  Its constructor is
   defined by the analysis, which this module cannot name. *)
type analysis = ..

type value =
  | Null
  | Int of int (* ints, booleans (0/1) and characters *)
  | Float of float
  | Str of string (* immutable string primitive *)
  | Obj of obj
  | Arr of value array
  | Farr of float array

and obj = {
  oid : int; (* unique identity, used by the abstract heap *)
  ocls : cls;
  ofields : value array;
}

and cls = {
  cid : int;
  cname : string;
  csuper : cls option;
  cfields : field array; (* flattened: inherited fields first *)
  mutable cmethods : meth list; (* own methods, most recent first *)
  cvtable : (string, meth) Hashtbl.t; (* resolved dispatch table *)
  cflags : class_flag list;
}

and class_flag =
  | Cf_js (* DOM/JS marker interface: calls cross-compile to JavaScript *)

and field = {
  fowner : string; (* defining class name *)
  fname : string;
  fidx : int; (* slot in [ofields] *)
  ffinal : bool;
}

and meth = {
  mid : int;
  mname : string;
  mowner : cls;
  mstatic : bool;
  mnargs : int; (* declared parameters, excluding the receiver *)
  mutable mnlocals : int; (* local slots incl. receiver and parameters *)
  mutable mmaxstack : int;
  mutable mcode : code;
  (* source provenance: [mlines.(pc)] is the source line the instruction at
     [pc] was generated from (0 = unknown); [||] when the producer supplied
     no positions (hand-assembled code, natives).  [msrc] names the source
     file for diagnostics; "" = unknown. *)
  mutable mlines : int array;
  mutable msrc : string;
  (* tiered-execution profiling: bumped by the interpreter, read by the
     promotion logic in [Runtime.tiered_fn] *)
  mutable mcalls : int; (* invocation counter *)
  mutable mbackedges : int; (* backward-jump counter *)
  mutable mtier : tier_state;
}

and tier_state =
  | Tier_cold (* interpreted; eligible for promotion once hot *)
  | Tier_compiling
    (* promotion in flight — compiling synchronously on the mutator, or
       queued/being compiled on a background JIT worker; blocks re-entrant
       promotion either way *)
  | Tier_compiled of (value array -> value) (* tier-1 entry point *)
  | Tier_blacklisted (* compilation failed; stay in the interpreter *)

(* What a [jit_hook] did with a hot method.  [Jit_pending] is the background
   compilation answer: the request is queued, the interpreter keeps running
   the method at tier 0 and the worker publishes the entry point into the
   code cache when it is ready. *)
and jit_result =
  | Jit_compiled of (value array -> value) (* compiled now: install and call *)
  | Jit_pending (* queued for background compilation; stay on tier 0 *)
  | Jit_declined (* compilation failed or refused: blacklist the method *)

(* Code compiled for one interpreter activation from a loop header (OSR
   entry).  [osr_run] takes the frame's locals at the header and returns the
   method's result.  [osr_admits] holds when the locals have the kinds the
   code was built for and no class-hierarchy change has invalidated its
   speculation since the compile started. *)
and osr_code = {
  osr_admits : value array -> bool;
  osr_run : value array -> value;
}

(* The answer to an OSR request, published into the cell the requesting
   frame polls at back edges to the header: at once by a synchronous
   compile, later by a background JIT worker. *)
and osr_state =
  | Osr_queued
  | Osr_ready of osr_code
  | Osr_failed (* compile failed or the request was dropped *)

(* A request the background JIT runs: a promotion or recompile of a
   method, an OSR compile for one interpreter activation, or a native
   upgrade of installed tier-1 code.  [job_build pid meanwhile] builds the
   code with what the worker lends it: the cell that holds a compiler
   child's pid while it runs (-1 once the job is cancelled), and
   [meanwhile], which runs one other waiting job, if there is one, and
   says whether it did.  It returns the code and the step that publishes
   it, which answers [false] when the method's generation moved (the
   code is stale), and raises when the build fails.  [job_give_up cause]
   gives the job up: with [Compile_failure], the way its kind fails (a
   promotion blacklists, an OSR header is marked failed, an upgrade is
   declined); with any other cause, the pool turned it away. *)
and job = {
  job_meth : meth;
  job_kind : job_kind;
  job_build :
    int Atomic.t ->
    (unit -> bool) ->
    (value array -> value) * ((value array -> value) -> bool);
  job_give_up : Obs.cause -> unit;
}

and job_kind = Promotion | Osr_compile | Native_upgrade

and code =
  | Bytecode of instr array
  | Native of string * (runtime -> value array -> value)
    (* the string names the native for disassembly and macro matching *)

and instr =
  | Const of value
  | Load of int
  | Store of int
  | Dup
  | Pop
  | Swap
  | Iop of iop (* pops y then x, pushes [x op y] *)
  | Ineg
  | Fop of fop
  | Fneg
  | I2f
  | F2i
  | If of cond * int (* pops y then x (ints); jumps when [x cond y] *)
  | Iff of cond * int (* float comparison branch *)
  | Ifz of cond * int (* pops x; jumps when [x cond 0] *)
  | Ifnull of bool * int (* jumps when top is Null (true) / non-Null (false) *)
  | Goto of int
  | New of cls
  | Getfield of field
  | Putfield of field (* pops value then receiver *)
  | Getglobal of int
  | Putglobal of int
  | Newarr (* pops length, pushes fresh value array *)
  | Newfarr (* pops length, pushes fresh float array *)
  | Aload (* pops index then array *)
  | Astore (* pops value, index, array *)
  | Faload
  | Fastore
  | Alen (* length of either array kind *)
  | Invoke of invoke
  | Ret (* return Null *)
  | Retv (* return top of stack *)
  | Trap of string (* unconditional runtime failure *)

and iop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

and fop = FAdd | FSub | FMul | FDiv

and cond = Eq | Ne | Lt | Le | Gt | Ge

and invoke =
  | Static of meth
  | Special of meth (* direct call: constructors, super calls *)
  | Virtual of string * int * cls option
    (* method name, parameter count, optional static receiver-type hint
       emitted by the front-end (used for CHA devirtualization) *)
  | Virtual_ic of callsite
    (* quickened virtual call: the interpreter rewrites [Virtual] to this on
       first execution, threading the site's mutable inline cache *)

(* Per-call-site inline cache: receiver class -> resolved method.  A site
   starts [Ic_empty], quickens to monomorphic on first dispatch, grows a
   small polymorphic cache on miss and degrades to megamorphic (generic
   lookup) beyond [Inlinecache.poly_limit].  The entry counts double as the
   receiver-type profile consumed by the JIT's speculative devirtualizer. *)
and ic_entry = {
  ice_cls : cls;
  ice_meth : meth;
  mutable ice_count : int; (* dispatches through this entry *)
}

and ic_state =
  | Ic_empty
  | Ic_mono of ic_entry
  | Ic_poly of ic_entry array (* 2..poly_limit entries, insertion order *)
  | Ic_mega

and callsite = {
  cs_mid : int; (* enclosing method *)
  cs_pc : int; (* pc of the invokevirtual *)
  cs_name : string;
  cs_argc : int;
  cs_hint : cls option;
  mutable cs_state : ic_state;
  mutable cs_hits : int;
  mutable cs_misses : int;
}

and runtime = {
  classes : (string, cls) Hashtbl.t;
  mutable next_oid : int;
  mutable next_cid : int;
  mutable next_mid : int;
  mutable globals : value array;
  mutable next_global : int; (* allocation cursor for global slots *)
  mutable out : Buffer.t option; (* when set, println etc. append here *)
  macros : (string, macro) Hashtbl.t;
    (* "Cls.name" -> JIT macro taking over calls to that method while
       Lancet stages code (the paper's Lancet.install) *)
  compiled : (int, value array -> value) Hashtbl.t;
    (* bodies of CompiledFn objects, keyed by their id field *)
  mutable next_compiled : int;
  mutable compile_hook : (runtime -> value -> value) option;
    (* installed by Lancet: implements the [Lancet.compile] native *)
  mutable jit_hook : (runtime -> meth -> jit_result) option;
    (* installed by Lancet: compiles a hot bytecode method for the tiered
       execution engine, either synchronously ([Jit_compiled]) or by
       enqueueing it for a background JIT worker ([Jit_pending]);
       [Jit_declined] blacklists the method *)
  mutable interp_steps : int; (* instruction counter, for tests/benches *)
  mutable ic_enabled : bool; (* quicken invokevirtual sites to inline caches *)
  ic_sites : (int * int, callsite) Hashtbl.t;
    (* (mid, pc) -> quickened call site; mutator-only structure (sites are
       created and transitioned by the interpreter; JIT workers read the
       word-sized [cs_state] field of individual sites) *)
  analyses : (int, analysis) Hashtbl.t;
    (* mid -> the JIT's analysis of that method's bytecode; it dies with
       the runtime.  Guarded by [t_lock]: JIT workers stage methods too *)
  cha_cache : (int * string, bool) Hashtbl.t;
    (* (cid, name) -> [Classfile.no_override_below] answer; guarded by
       [t_lock] (compile-time CHA queries arrive from worker domains) and
       reset wholesale on hierarchy mutation *)
  tiering : tiering;
}

(* Tiered execution: knobs, the runtime code cache and its statistics.
   The cache maps method id -> installed entry; a per-method generation
   stamp lets [stable]-style recompiles invalidate cleanly.  With background
   compilation enabled, installs arrive from JIT worker domains while the
   mutator invalidates and evicts, so the cache structures are guarded by
   [t_lock]; the per-call dispatch ([Runtime.tiered_fn]) stays lock-free by
   reading only the word-sized [mtier] field. *)
and tiering = {
  mutable t_enabled : bool;
  t_threshold : int; (* promote when mcalls + mbackedges reach this *)
  mutable t_cache_size : int; (* max resident compiled methods *)
  t_cache : (int, cache_entry) Hashtbl.t; (* method id -> entry *)
  t_order : int Queue.t; (* FIFO installation order, drives eviction *)
  t_gen : (int, int) Hashtbl.t; (* method id -> current generation *)
  t_lock : Mutex.t; (* guards cache/order/gen across mutator and workers *)
  mutable t_jit_threads : int; (* background JIT worker domains; 0 = sync *)
  mutable t_jit_queue : int; (* bound on the background compile queue *)
  mutable t_bg_recompile : (meth -> unit) option;
    (* installed by the background JIT: route deopt-triggered recompiles
       through the compile queue instead of rebuilding on the mutator *)
  mutable t_osr : (meth -> int -> value array -> osr_state Atomic.t -> unit) option;
    (* installed by Lancet: [f m pc locals cell] makes the job that
       compiles the rest of [m] from the loop header at [pc] for a frame
       holding [locals] and publishes the outcome into [cell]; it runs at
       once, or on a worker when [t_submit] is set *)
  mutable t_submit : (job -> unit) option;
    (* installed by the background JIT: queue an OSR or native job (one
       the queue turns away is given up).  Without a pool there is none:
       OSR jobs run at once and no native job is made. *)
  t_osr_failed : (int * int, unit) Hashtbl.t;
    (* (method id, header pc) pairs whose OSR compile failed: never
       retried.  Guarded by [t_lock]. *)
  mutable t_hier_epoch : int;
    (* class-hierarchy epoch, bumped under [t_lock] whenever a method
       (re)definition can change virtual dispatch; an in-flight compile
       that speculated on receiver types installs only if the epoch it
       read at compile start is still current *)
  t_devirt_deps : (string, meth list ref) Hashtbl.t;
    (* method name -> compiled methods whose installed code speculates on
       dispatch of that name (IC feedback or CHA); [hierarchy_changed]
       invalidates the bucket.  Guarded by [t_lock]. *)
  mutable t_compiles : int;
  mutable t_cache_hits : int;
  mutable t_cache_misses : int;
  mutable t_evictions : int;
  mutable t_deopts : int;
  mutable t_osr_compiles : int; (* OSR graphs built (also in [t_compiles]) *)
  mutable t_osr_entries : int; (* interpreter frames that entered OSR code *)
  mutable t_native_installs : int; (* native upgrades swapped in *)
}

and cache_entry = {
  ce_meth : meth;
  ce_fn : value array -> value;
  ce_gen : int; (* generation the entry was compiled at *)
}

exception Vm_error of string

let vm_error fmt = Format.kasprintf (fun s -> raise (Vm_error s)) fmt
