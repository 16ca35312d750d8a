(** Runtime state: the heap (OCaml objects double as the VM heap, as the JVM
    heap does in the paper's Fig. 6 Runtime interface), globals, output
    capture, and the registry of compiled function bodies. *)

open Types

val create :
  ?tiering:bool ->
  ?tier_threshold:int ->
  ?tier_cache_size:int ->
  ?jit_threads:int ->
  ?jit_queue:int ->
  ?inline_caches:bool ->
  unit ->
  runtime
(** A fresh runtime with no classes; see {!Natives.boot} for one with the
    builtin classes installed.  [tiering] enables hotness-driven method
    promotion (off by default; it only takes effect once a [jit_hook] is
    installed, e.g. by [Lancet.Api.install]); [tier_threshold] is the
    combined invocation + back-edge count that triggers compilation and
    [tier_cache_size] bounds the number of resident compiled methods.
    [jit_threads] is the number of background JIT worker domains the
    [Bgjit] subsystem should run (0, the default, keeps compilation
    synchronous and deterministic) and [jit_queue] bounds its compile
    queue; the runtime only records these knobs — [Bgjit.create] reads
    them.  [inline_caches] (default true) lets the interpreter quicken
    invokevirtual sites into per-site inline caches. *)

val alloc : runtime -> cls -> obj
(** Allocate an instance with all fields [Null]. *)

val get_field : obj -> field -> value
val set_field : obj -> field -> value -> unit

val get_global : runtime -> int -> value
val set_global : runtime -> int -> value -> unit

val alloc_global : runtime -> int
(** Reserve a fresh global slot (used by the Mini code generator). *)

val output : runtime -> string -> unit
(** Print to stdout, or into the capture buffer when one is active. *)

val capture_output : runtime -> (unit -> 'a) -> string * 'a
(** Redirect printed output into a buffer for the duration of the call. *)

val register_compiled : runtime -> (value array -> value) -> int
(** Register an OCaml function as a CompiledFn body; returns its id. *)

val compiled_body : runtime -> int -> value array -> value

(** {2 Tiered execution: the runtime code cache}

    Compiled method bodies are keyed by method id with a generation stamp;
    installation evicts FIFO beyond [tier_cache_size].  Statistics live on
    [rt.tiering]. *)

val meth_label : meth -> string
(** ["Cls.name"], the label used in observability events and profiles. *)

(** {2 Source provenance}

    Line tables ([mlines], pc -> source line, 0 = unknown) are produced by
    the assembler and the Mini code generator; these helpers resolve them. *)

val line_at : meth -> int -> int
(** Source line of the instruction at [pc]; 0 when unknown. *)

val meth_def_line : meth -> int
(** The method's defining source line: the first attributed pc, or 0. *)

val meth_loc : meth -> int -> string
(** ["Cls.meth @pc 5 (file.mini:12)"] — pc always, file:line when known. *)

val find_method_by_id : runtime -> int -> meth option
(** Reverse lookup of a method by its [mid] across all loaded classes. *)

val tier_gen : runtime -> int -> int
(** Current generation stamp of a method id (0 until first invalidation). *)

val with_tier_lock : runtime -> (unit -> 'a) -> 'a
(** Run [f] holding the tiering lock (code-cache structure, CHA memo and
    devirtualization bookkeeping are guarded by it).  [f] must not call
    back into locked runtime entry points. *)

val tier_install :
  ?deps:string list -> runtime -> meth -> (value array -> value) -> unit
(** Install a compiled entry point for [m] at its current generation.
    [deps] names the virtual-call targets the code speculates on (IC
    feedback or CHA); {!hierarchy_changed} on any of them invalidates the
    entry. *)

val tier_install_if_current :
  runtime ->
  meth ->
  gen:int ->
  ?epoch:int ->
  ?deps:string list ->
  (value array -> value) ->
  bool
(** Atomic publish for background compilation: install the entry point only
    if [m]'s generation still equals [gen] (the stamp read when the compile
    started) and — when the compile speculated on receiver types ([deps]
    non-empty) — the class-hierarchy epoch still equals [epoch].  Returns
    [false] — and installs nothing — when an invalidation or a
    dispatch-changing method definition raced the compile. *)

val tier_upgrade_if_current :
  runtime ->
  meth ->
  gen:int ->
  ?epoch:int ->
  ?deps:string list ->
  (unit -> unit) ->
  bool
(** The native tier's publish: under the tiering lock, run [swap] (which
    puts native code into an installed entry point's cell) only if [m]'s
    generation still equals [gen] and, when [deps] is non-empty, the
    hierarchy epoch still equals [epoch]; registers [deps] and counts
    [t_native_installs].  Returns [false], journaling the mismatch as a
    [Compile_discard], when either moved. *)

val tier_invalidate : ?why:Obs.cause -> runtime -> meth -> unit
(** Drop [m]'s installed code and bump its generation stamp.  [why] is the
    cause the [Cache_invalidate] event carries: recompile exit, devirt-miss
    threshold, hierarchy change, ... *)

val devirt_register : runtime -> string list -> meth -> unit
(** Record that [m]'s installed code speculates on virtual dispatch of the
    given method names (used by the synchronous promotion path, where
    compile and install are not raced by hierarchy mutation). *)

val hier_epoch : runtime -> int
(** Current class-hierarchy epoch; bumped whenever a method (re)definition
    can change virtual dispatch. *)

val hierarchy_changed : runtime -> name:string -> unit
(** A (re)definition of a virtual method [name] happened: flush interpreter
    inline caches for that name, drop memoized CHA answers, bump the
    hierarchy epoch and invalidate every installed method whose compiled
    code speculated on dispatch of [name]. *)

val ic_stats : runtime -> int * int * int * int * int
(** Aggregate inline-cache counters over all quickened sites:
    [(hits, misses, mono_sites, poly_sites, mega_sites)]. *)

val tier_blacklist : meth -> err:string -> string
(** Retire [m] to the interpreter for good, its compile having failed with
    [err]: journals [Compile_blacklist] with the method's source location,
    the domain that hit the failure and [err], and returns the location
    ("Cls.meth @pc k (file.mini:12)"). *)

val tier_promote : runtime -> meth -> (value array -> value) option
(** Compile [m] through the installed [jit_hook] and install the result;
    [Jit_declined] (or a raising hook) blacklists the method, [Jit_pending]
    leaves it interpreted until a background worker installs the code. *)

val tiered_fn : runtime -> meth -> (value array -> value) option
(** Per-call tier dispatch: the installed compiled entry point, if any,
    promoting the method first when it just crossed the hotness threshold.
    Updates hit/miss statistics. *)

val tier_stats_string : runtime -> string
(** One-line summary of the tiering counters, for benches and logging. *)
