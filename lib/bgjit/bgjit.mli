(** Background JIT compilation: a bounded compile queue serviced by worker
    domains, so method promotion no longer pauses the interpreter.

    The subsystem sits between the tiered execution engine and the Lancet
    compile pipeline: the promotion path ([Runtime.tier_promote] via
    [rt.jit_hook]) enqueues hot methods and keeps interpreting at tier 0;
    worker domains pull requests, run the injected [compile] function, and
    publish the entry point into the runtime code cache with an atomic
    generation-checked install ([Runtime.tier_install_if_current]) so an
    invalidation that races an in-flight compile can never activate stale
    code.  A worker exception blacklists the method and logs a diagnostic
    carrying the method's [file:line] — it never kills the VM. *)

open Vm.Types

type t

(** Monotone counters describing what the queue did.  Every request is
    accounted exactly once: [enqueued] splits into [installed] + [stale] +
    [blacklisted] once drained, while [coalesced] and [dropped] count
    requests that never entered the queue.  Native upgrades are counted
    apart, in the last three: each requested upgrade ends as [native],
    [native_declined] or [native_stale]. *)
type stats = {
  mutable s_enqueued : int;  (** requests that entered the queue *)
  mutable s_coalesced : int;  (** merged into an already-pending request *)
  mutable s_dropped : int;  (** rejected: queue full (the method retries) *)
  mutable s_installed : int;  (** compiled and published into the cache *)
  mutable s_stale : int;  (** compiled, but the generation moved: discarded *)
  mutable s_blacklisted : int;  (** compile failed: method blacklisted *)
  mutable s_abandoned : int;
      (** queued requests walked away from by a timed-out [shutdown] *)
  mutable s_native : int;  (** native upgrades swapped into their entry *)
  mutable s_native_declined : int;
      (** upgrades given up: turned away, build failed or killed, injected
          crash *)
  mutable s_native_stale : int;
      (** upgrades built, but the generation moved: discarded *)
}

val create :
  ?threads:int ->
  ?queue:int ->
  ?log:(string -> unit) ->
  compile:
    (runtime -> meth -> ((value array -> value) * string list * int) option) ->
  runtime ->
  t
(** Spawn a pool of [threads] worker domains (default: the runtime's
    [t_jit_threads] knob, clamped to at least 1) over a queue bounded at
    [queue] requests (default: [t_jit_queue]).  [compile] is the raw
    compile step — [Lancet.Tiering.compile] in production, a stub in tests —
    returning the entry point, the devirtualization dependencies the code
    speculates on, and the hierarchy epoch the compile started from (both
    checked at install time).  [log] receives blacklist diagnostics
    (default: stderr). *)

val install : t -> unit
(** Point the runtime at the pool: replaces [rt.jit_hook] with the
    enqueueing hook, routes deopt-triggered recompiles through the queue
    ([t_bg_recompile]) and takes native upgrades ([t_native]), which
    workers run only when no other job waits.  [shutdown] restores the
    previous hooks and removes [t_native]. *)

val enqueue :
  ?why:Obs.cause -> t -> meth -> [ `Queued | `Coalesced | `Dropped ]
(** Request a (re)compile of [m].  Never blocks: a request for a method
    already pending coalesces, and a full queue drops the request (the
    method returns to cold and retries on a later promotion).  [why] is
    the cause the [Compile_enqueue] event carries. *)

val drain : ?timeout_ms:int -> t -> unit
(** Block until the queue is empty and no compile is in flight.  Test and
    benchmark hook; production callers never wait on the compiler.  With
    [timeout_ms], give up after that long (a stalled worker cannot hang
    the caller); the pool may still have work pending on return. *)

val shutdown : ?timeout_ms:int -> t -> unit
(** Stop the pool and restore the runtime's synchronous hook.  Without
    [timeout_ms]: drain remaining requests and join the workers
    (idempotent).  With [timeout_ms]: wait at most that long; on expiry
    the remaining queue is abandoned (counted in [s_abandoned], journaled,
    methods returned to cold), a running native build has its compiler
    killed and reaped, and stalled workers are leaked rather than joined,
    so a wedged compile cannot hang process exit. *)

val stats : t -> stats

val pending : t -> int
(** Requests currently queued or being compiled (0 after [drain]). *)

val stats_string : t -> string
(** One-line summary of the pool counters, for benches and logging. *)
