(** Background JIT compilation: a bounded compile queue serviced by worker
    domains, so method promotion no longer pauses the interpreter.

    Every request the pool runs is one [Vm.Types.job], and every job
    travels one path: one enqueue with one refusal rule, one worker path
    (a [Compile_dequeue] with the job's wait, the chaos sites, the job's
    build and publish) and one account.  The pool makes promotion and
    recompile jobs from its injected [compile] ([Runtime.tier_promote] via
    [rt.jit_hook], and deopt-triggered recompiles); [Lancet.Tiering] makes
    OSR and native jobs and hands them to [t_submit].  The mutator keeps
    interpreting at tier 0 while a worker builds; the code is published
    only if the method's generation has not moved, so an invalidation that
    races a compile can never activate stale code.  A build that raises
    gives its job up the way its kind fails (a promotion blacklists the
    method and logs a diagnostic carrying its [file:line]) — it never
    kills the VM. *)

open Vm.Types

type t

(** Monotone counters describing what the queue did.  Every job is
    accounted exactly once: [enqueued] splits into [installed] + [stale] +
    [failed] + [abandoned] once the pool is drained or stopped, while
    [coalesced] and [dropped] count requests that never entered the queue.
    Native jobs are also counted by kind, in the last two. *)
type stats = {
  mutable s_enqueued : int;  (** jobs that entered a queue *)
  mutable s_coalesced : int;  (** promotions merged into a pending one *)
  mutable s_dropped : int;
      (** refused: queue full, pool stopping or forced saturation *)
  mutable s_installed : int;  (** built and published *)
  mutable s_stale : int;  (** built, but the generation moved: discarded *)
  mutable s_failed : int;
      (** build failed or injected crash: a promotion blacklists its
          method, an OSR header is marked failed, an upgrade declined *)
  mutable s_abandoned : int;
      (** queued jobs given up at [shutdown]: native jobs at any, every job
          at a timed-out one *)
  mutable s_native : int;  (** native upgrades swapped into their entry *)
  mutable s_native_declined : int;
      (** native jobs refused, failed or abandoned *)
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
    ([t_bg_recompile]) and takes OSR and native jobs ([t_submit]); native
    jobs run only when no other job waits.  [shutdown] restores the
    previous hook and removes the other two. *)

val enqueue :
  ?why:Obs.cause -> t -> meth -> [ `Queued | `Coalesced | `Dropped ]
(** Request a (re)compile of [m].  Never blocks: a request for a method
    already queued coalesces, and a refused request (queue full, pool
    stopping) returns the method to cold, so it retries on a later
    promotion.  [why] is the cause the [Compile_enqueue] event carries. *)

val drain : ?timeout_ms:int -> t -> unit
(** Block until both queues are empty and no job is running.  Test and
    benchmark hook; production callers never wait on the compiler.  With
    [timeout_ms], give up after that long (a stalled worker cannot hang
    the caller); the pool may still have work pending on return. *)

val shutdown : ?timeout_ms:int -> t -> unit
(** Stop the pool and restore the runtime's synchronous hook.  Without
    [timeout_ms]: drain remaining requests and join the workers
    (idempotent).  Queued native jobs are given up either way.  With
    [timeout_ms]: wait at most that long; on expiry the remaining queue is
    abandoned (counted in [s_abandoned], journaled, methods returned to
    cold), a running compiler is killed and reaped, and stalled workers
    are leaked rather than joined, so a wedged compile cannot hang process
    exit. *)

val stats : t -> stats

val pending : t -> int
(** Jobs currently queued or running (0 after [drain]). *)

val stats_string : t -> string
(** One-line summary of the pool counters, for benches and logging. *)
