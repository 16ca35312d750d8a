(** Deterministic, seeded fault injection for the JIT control paths.

    Named injection sites are threaded through the hot control paths
    (bgjit workers, the compile queue, the code cache, the profile
    writer, the interpreter's invoke path).  A spec string like

    {[ compile_crash:p=0.1,compile_stall:ms=50,seed=42 ]}

    arms a subset of sites; each armed site draws from its own
    splitmix64 stream derived from the global seed, so a failure
    schedule is reproducible from the (spec, seed) pair alone.

    Disabled cost is one load+branch: guard every site as
    [if !Chaos.on && Chaos.fire Chaos.some_site then ...]. *)

type site

val on : bool ref
(** Global fast-path flag; [false] unless a spec is armed. *)

(** {1 Injection sites} *)

val compile_crash : site
(** Background compile raises on the worker (exercises the blacklist
    path). *)

val compile_stall : site
(** Background compile sleeps for [ms] milliseconds (exercises bounded
    drain and shutdown). *)

val compile_garbage : site
(** Compile result is replaced with a garbage function; the
    generation-stamp check must discard it before install. *)

val queue_full : site
(** [Bgjit.enqueue] behaves as if the queue were saturated (exercises
    the drop path). *)

val cache_evict : site
(** [Runtime] code cache evicts its oldest entry on install, regardless
    of occupancy (exercises eviction pressure / re-promotion). *)

val profile_truncate : site
(** The profile write is killed midway: half the bytes land in the
    temporary file and the write raises [Sys_error].  The previous
    profile must survive. *)

val profile_corrupt : site
(** Profile bytes are corrupted before the write; the loader must
    degrade to a cold start. *)

val hier_churn : site
(** Interpreter-visible class-hierarchy churn on the invoke path:
    semantically a no-op, but flushes inline caches, bumps the
    hierarchy epoch and invalidates devirtualized code. *)

(** {1 Configuration} *)

val configure : string -> (unit, string) result
(** Parse and arm a spec string: comma-separated entries, each either
    [seed=N] or [site\[:k=v\]*] with parameters [p] (fire probability,
    default 1), [ms] (stall duration) and [n] (fire every nth draw).
    On success sets [on := true].  Unknown sites or malformed
    parameters leave everything disabled and return [Error]. *)

val disable : unit -> unit
(** Disarm all sites, clear counters, set [on := false]. *)

(** {1 Drawing} *)

val fire : site -> bool
(** Should this site's fault trigger now?  Deterministic per site for a
    given seed.  Callers check [!on] first. *)

val ms : site -> int
(** The site's [ms] parameter (0 if unset). *)

val param_n : site -> int
(** The site's [n] parameter (0 if unset). *)

val site_name : site -> string

val sleep_ms : int -> unit
(** Sleep helper for stall faults. *)

(** {1 Reporting} *)

val seed : unit -> int
val spec : unit -> string

val describe : unit -> (string * string) list
(** [(name, doc)] of every registered site, sorted by name. *)

val stats : unit -> (string * int * int) list
(** [(site, draws, fires)] for every site that is armed or has drawn. *)

val stats_string : unit -> string
(** One-line ["site=fires/draws ..."] rendering of [stats]. *)
