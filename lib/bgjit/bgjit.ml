(* Background JIT compilation (the "compile off the hot path" layer that
   production VMs — HotSpot, Graal, the paper's Lancet substrate — take for
   granted): a bounded compile queue serviced by worker domains.

   Every request the pool runs is one [Vm.Types.job]: a promotion or
   recompile, which the pool makes from its injected [compile]; an OSR
   compile for one interpreter activation; or a native upgrade of
   installed tier-1 code.  [Tiering] makes the last two and hands them to
   the runtime's [t_submit] hook, which [install] points here.  Each job
   travels one path:

   1. [submit] queues it, or refuses it when its queue is at capacity, the
      pool is stopping or the chaos [queue_full] site fires; a refused job
      is given up as turned away.  A promotion of a method already queued
      coalesces into the pending one; the queued promotion owns
      [Tier_compiling] until it terminates.  The mutator never blocks.

   2. A worker takes it, emits [Compile_dequeue] with its wait and runs the
      chaos sites around the job's build: a stall, a crash (the job is
      given up the way its kind fails) and a garbage result, which a
      generation bump makes the publish refuse.  A build that raises gives
      the job up the way its kind fails: a promotion blacklists the method
      (with a diagnostic carrying its [file:line]), an OSR header is marked
      failed, an upgrade is declined.  Worker domains never let an
      exception escape.

   3. The job's publish step installs the code only if the method's
      generation has not moved ([Runtime.tier_install_if_current] for a
      promotion, whose stamp is read when the worker starts the build), so
      an invalidation that raced the build discards it.  A discarded
      promotion returns its method to [Tier_cold], unless a newer request
      owns it.

   Native jobs wait in their own queue, which a worker turns to only when
   the other is empty: a method's first compiled code is worth more than
   a faster version of code that already runs.  While a native job's
   compiler child runs, its worker serves the other jobs ([meanwhile]).
   [shutdown] gives queued native jobs up, as the program they would speed
   up has finished; [drain] waits for them.  A timed-out [shutdown]
   abandons the queue and kills a running compiler.

   Observability: [Compile_enqueue] (emitted under the queue lock, before
   a worker can take the job) and [Compile_dequeue] carry the number of
   waiting jobs, and the dequeue the wait, timed from a stamp queued with
   the job.  Compiles run with [Obs.set_worker], so their events land on
   per-worker tracks. *)

open Vm.Types

type stats = {
  mutable s_enqueued : int;
  mutable s_coalesced : int;
  mutable s_dropped : int;
  mutable s_installed : int;
  mutable s_stale : int;
  mutable s_failed : int;
  mutable s_abandoned : int;
  mutable s_native : int;
  mutable s_native_declined : int;
}

(* A job a worker is running, with the cell that holds its compiler's pid *)
type running = { job : job; pid : int Atomic.t }

type t = {
  rt : runtime;
  compile : runtime -> meth -> ((value array -> value) * string list * int) option;
  (* entry point, devirtualization deps, hierarchy epoch at compile start *)
  capacity : int; (* bound on each queue *)
  queue : (job * float) Queue.t;
  (* promotions, recompiles and OSR jobs, each with the [Obs.now] of its
     enqueue *)
  natives : (job * float) Queue.t; (* native jobs, taken when [queue] is empty *)
  pending : (int, unit) Hashtbl.t; (* mids of the promotions queued *)
  mutable running : running list;
  lock : Mutex.t; (* guards the queues, pending, running, stats and stop *)
  nonempty : Condition.t; (* signaled on enqueue and shutdown *)
  idle : Condition.t; (* signaled when the pool goes quiescent *)
  log : string -> unit;
  stats : stats;
  mutable stop : bool;
  alive : int Atomic.t; (* workers that have not exited their loop yet *)
  mutable domains : unit Domain.t list;
  mutable saved_hook : (runtime -> meth -> jit_result) option;
}

let locked t f = Mutex.protect t.lock f

let stats t = t.stats

(* Jobs waiting in either queue (caller holds the lock). *)
let waiting t = Queue.length t.queue + Queue.length t.natives

(* Nothing queued, nothing running (caller holds the lock). *)
let is_idle t = waiting t = 0 && t.running = []

let pending t = locked t (fun () -> waiting t + List.length t.running)

(* Cancel a job through its compiler-pid cell: a running compiler is
   killed (answering [true]), one not yet spawned never runs. *)
let kill_compiler r =
  let pid = Atomic.exchange r.pid (-1) in
  pid > 0 && (try Unix.kill pid Sys.sigkill; true with Unix.Unix_error _ -> false)

let stats_string t =
  let s = t.stats in
  Printf.sprintf
    "enqueued=%d coalesced=%d dropped=%d installed=%d stale=%d failed=%d%s%s"
    s.s_enqueued s.s_coalesced s.s_dropped s.s_installed s.s_stale s.s_failed
    (if s.s_abandoned > 0 then Printf.sprintf " abandoned=%d" s.s_abandoned
     else "")
    (if s.s_native + s.s_native_declined = 0 then ""
     else Printf.sprintf " native=%d native_declined=%d" s.s_native s.s_native_declined)

(* The one account: each job that entered the queue ends in one of
   [installed], [stale], [failed] or [abandoned]; a refused one counts in
   [dropped].  Native jobs are also counted by kind (caller holds the
   lock). *)
let count t (job : job) outcome =
  let s = t.stats in
  (match outcome with
  | `Installed -> s.s_installed <- s.s_installed + 1
  | `Stale -> s.s_stale <- s.s_stale + 1
  | `Failed -> s.s_failed <- s.s_failed + 1
  | `Dropped -> s.s_dropped <- s.s_dropped + 1
  | `Abandoned -> s.s_abandoned <- s.s_abandoned + 1);
  if job.job_kind = Native_upgrade then
    match outcome with
    | `Installed -> s.s_native <- s.s_native + 1
    | `Stale -> ()
    | _ -> s.s_native_declined <- s.s_native_declined + 1

(* ------------------------------------------------------------------ *)
(* Enqueue (mutator side)                                              *)

(* The one enqueue.  All tier-state writes happen inside the queue lock: a
   worker can only take (and later blacklist/install/retire) a promotion
   strictly after the enqueue's critical section, so its terminal [mtier]
   write can never be clobbered by the mutator's [Tier_compiling] mark
   racing it. *)
let submit ?(why = Obs.Unattributed) t (job : job) =
  let m = job.job_meth and promotion = job.job_kind = Promotion in
  locked t (fun () ->
      if promotion && (not t.stop) && Hashtbl.mem t.pending m.mid then begin
        t.stats.s_coalesced <- t.stats.s_coalesced + 1;
        (* the pending promotion will compile the current generation
           (stamps are read when a worker starts it), so this one merges *)
        m.mtier <- Tier_compiling;
        `Coalesced
      end
      else
        let q = if job.job_kind = Native_upgrade then t.natives else t.queue in
        if
          t.stop || Queue.length q >= t.capacity
          || (!Chaos.on && Chaos.fire Chaos.queue_full)
        then begin
          count t job `Dropped;
          job.job_give_up
            (if t.stop then Obs.Pool_stopped
             else Obs.Queue_full { capacity = t.capacity });
          `Dropped
        end
        else begin
          t.stats.s_enqueued <- t.stats.s_enqueued + 1;
          if promotion then begin
            Hashtbl.replace t.pending m.mid ();
            m.mtier <- Tier_compiling
          end;
          Queue.add (job, Obs.now ()) q;
          (* under the lock: no worker can take the job before its enqueue
             is on the bus *)
          if !Obs.enabled then
            Obs.emit
              (Obs.Compile_enqueue
                 {
                   meth = Vm.Runtime.meth_label m;
                   mid = m.mid;
                   gen = Vm.Runtime.tier_gen t.rt m.mid;
                   depth = waiting t;
                   cause = why;
                 });
          Condition.signal t.nonempty;
          `Queued
        end)

(* A promotion or recompile of [m] through the injected [compile].  A
   refused one returns the method to cold, so a later promotion retries;
   a failed one blacklists it. *)
let promotion t (m : meth) =
  let job_build _ _ =
    (* the stamp the install is conditioned on: read when a worker starts
       the job, so an invalidation while it sat in the queue is already
       absorbed and only one racing the compile itself makes it stale *)
    let gen = Vm.Runtime.tier_gen t.rt m.mid in
    if m.mtier = Tier_blacklisted then
      (* retired (a racing failure) while queued: never resurrect it *)
      ((fun _ -> Null), fun _ -> false)
    else
      match t.compile t.rt m with
      | Some (fn, deps, epoch) ->
        (fn, Vm.Runtime.tier_install_if_current t.rt m ~gen ~epoch ~deps)
      | None -> failwith "compiler declined (no entry point)"
  in
  let job_give_up = function
    | Obs.Compile_failure { err } ->
      let loc = Vm.Runtime.tier_blacklist m ~err in
      t.log
        (Printf.sprintf "[bgjit] worker %d: blacklisted %s: %s" (Obs.worker_id ())
           loc err)
    | cause ->
      if m.mtier = Tier_compiling then m.mtier <- Tier_cold;
      if !Obs.enabled then
        Obs.emit
          (Obs.Compile_drop { meth = Vm.Runtime.meth_label m; mid = m.mid; cause })
  in
  { job_meth = m; job_kind = Promotion; job_build; job_give_up }

let enqueue ?why t m = submit ?why t (promotion t m)

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

(* The next job and the number left waiting, registered as running:
   promotions and OSR jobs first, then, with [natives], native jobs
   (caller holds the lock). *)
let take t ~natives =
  let next =
    if not (Queue.is_empty t.queue) then Queue.take_opt t.queue
    else if natives then Queue.take_opt t.natives
    else None
  in
  Option.map
    (fun (job, queued) ->
      if job.job_kind = Promotion then Hashtbl.remove t.pending job.job_meth.mid;
      let r = { job; pid = Atomic.make 0 } in
      t.running <- r :: t.running;
      (r, queued, waiting t))
    next

(* Terminal bookkeeping, atomic with the removal from [running], so the
   stale-retire decision cannot mistake this worker's own entry for a
   newer request. *)
let settle t r outcome =
  locked t (fun () ->
      t.running <- List.filter (fun r' -> r' != r) t.running;
      count t r.job outcome;
      let m = r.job.job_meth in
      let newer () =
        Hashtbl.mem t.pending m.mid
        || List.exists (fun r' -> r'.job.job_kind = Promotion && r'.job.job_meth == m) t.running
      in
      (* a discarded promotion: back to cold so hotness can promote the
         method again, unless a newer request owns it *)
      if
        outcome = `Stale && r.job.job_kind = Promotion && m.mtier = Tier_compiling
        && not (newer ())
      then m.mtier <- Tier_cold;
      if is_idle t then Condition.broadcast t.idle)

(* The one worker path.  While a job's compiler child runs, [meanwhile]
   serves the other jobs that arrive, so none waits for the child. *)
let rec run t wid (r, queued, depth) =
  let job = r.job and m = r.job.job_meth in
  if !Obs.enabled then
    Obs.emit
      (Obs.Compile_dequeue
         { meth = Vm.Runtime.meth_label m; mid = m.mid; worker = wid; depth;
           wait_ms = (Obs.now () -. queued) *. 1000. });
  let meanwhile () =
    match locked t (fun () -> take t ~natives:false) with
    | Some next ->
      run t wid next;
      true
    | None -> false
  in
  let outcome =
    match
      if !Chaos.on then begin
        if Chaos.fire Chaos.compile_stall then
          Chaos.sleep_ms (max 1 (Chaos.ms Chaos.compile_stall));
        if Chaos.fire Chaos.compile_crash then begin
          if !Obs.enabled then
            Obs.emit
              (Obs.Compile_discard
                 {
                   meth = Vm.Runtime.meth_label m;
                   mid = m.mid;
                   cause = Obs.Chaos_fault { site = "compile_crash" };
                 });
          failwith "chaos: injected compile crash"
        end
      end;
      job.job_build r.pid meanwhile
    with
    | code, publish ->
      let code =
        if !Chaos.on && Chaos.fire Chaos.compile_garbage then begin
          (* garbage result: bump the stamp first so the publish provably
             refuses it — the generation check is the safety net under
             test *)
          Vm.Runtime.tier_invalidate
            ~why:(Obs.Chaos_fault { site = "compile_garbage" })
            t.rt m;
          fun _ -> Int 0xDEAD
        end
        else code
      in
      if publish code then `Installed else `Stale
    | exception e ->
      job.job_give_up (Obs.Compile_failure { err = Printexc.to_string e });
      `Failed
  in
  settle t r outcome

let rec worker_loop t wid =
  let job =
    locked t (fun () ->
        while waiting t = 0 && not t.stop do
          Condition.wait t.nonempty t.lock
        done;
        (* on shutdown, finish whatever is queued before exiting: no
           request is ever lost or left stuck in [Tier_compiling] *)
        take t ~natives:true)
  in
  match job with
  | None -> () (* stop requested and queue drained *)
  | Some job ->
    run t wid job;
    worker_loop t wid

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create ?threads ?queue ?log ~compile rt =
  let threads =
    max 1 (match threads with Some n -> n | None -> rt.tiering.t_jit_threads)
  in
  let capacity =
    max 1 (match queue with Some n -> n | None -> rt.tiering.t_jit_queue)
  in
  rt.tiering.t_jit_threads <- threads;
  rt.tiering.t_jit_queue <- capacity;
  let t =
    {
      rt;
      compile;
      capacity;
      queue = Queue.create ();
      natives = Queue.create ();
      pending = Hashtbl.create 64;
      running = [];
      lock = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      log =
        (match log with
        | Some f -> f
        | None -> fun s -> prerr_string (s ^ "\n"));
      stats =
        {
          s_enqueued = 0;
          s_coalesced = 0;
          s_dropped = 0;
          s_installed = 0;
          s_stale = 0;
          s_failed = 0;
          s_abandoned = 0;
          s_native = 0;
          s_native_declined = 0;
        };
      stop = false;
      alive = Atomic.make 0;
      domains = [];
      saved_hook = None;
    }
  in
  Atomic.set t.alive threads;
  t.domains <-
    List.init threads (fun i ->
        let wid = i + 1 in
        Domain.spawn (fun () ->
            Obs.set_worker wid;
            Fun.protect
              ~finally:(fun () -> Atomic.decr t.alive)
              (fun () -> worker_loop t wid)));
  t

let install t =
  t.saved_hook <- t.rt.jit_hook;
  t.rt.jit_hook <-
    Some
      (fun _ m ->
        match m.mcode with
        | Native _ -> Jit_declined
        | Bytecode _ ->
          ignore
            (enqueue t m
               ~why:(Obs.Hotness { calls = m.mcalls; backedges = m.mbackedges }));
          (* even a dropped request answers [Jit_pending]: the method keeps
             interpreting and retries, it is not blacklisted *)
          Jit_pending);
  t.rt.tiering.t_submit <- Some (fun job -> ignore (submit t job));
  t.rt.tiering.t_bg_recompile <-
    Some
      (fun m ->
        ignore
          (enqueue t m
             ~why:(Obs.Recompile_exit { tag = "deopt-recompile" })))

let quiescent t = locked t (fun () -> is_idle t)

let drain ?timeout_ms t =
  match timeout_ms with
  | None ->
    locked t (fun () ->
        while not (is_idle t) do
          Condition.wait t.idle t.lock
        done)
  | Some ms ->
    (* bounded: poll rather than wait — a stalled worker never signals
       [idle], and OCaml conditions have no timed wait *)
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    let rec go () =
      if (not (quiescent t)) && Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.001;
        go ()
      end
    in
    go ()

let restore_hooks t =
  (* restore synchronous compilation for whatever runs after the pool *)
  if t.rt.tiering.t_bg_recompile <> None then begin
    t.rt.tiering.t_bg_recompile <- None;
    t.rt.tiering.t_submit <- None;
    t.rt.jit_hook <- t.saved_hook
  end

(* Give the jobs of [q] up with [cause], each counted in [s_abandoned]
   (caller holds the lock). *)
let abandon t q cause =
  let jobs = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  List.iter
    (fun (job, _) ->
      if job.job_kind = Promotion then Hashtbl.remove t.pending job.job_meth.mid;
      count t job `Abandoned;
      job.job_give_up cause)
    jobs;
  List.length jobs

(* Stop the pool.  Queued native jobs are given up at once: the code they
   would speed up has run.  Without [timeout_ms], workers finish the other
   queued jobs and are joined.  With [timeout_ms], wait at most that long
   for the workers to go quiet; on expiry the remaining queue is
   abandoned, a running compiler is killed, and stalled worker domains are
   leaked rather than joined, so a wedged compile cannot hang process
   exit. *)
let shutdown ?timeout_ms t =
  locked t (fun () ->
      t.stop <- true;
      ignore (abandon t t.natives Obs.Pool_stopped);
      Condition.broadcast t.nonempty);
  match timeout_ms with
  | None ->
    List.iter Domain.join t.domains;
    t.domains <- [];
    restore_hooks t
  | Some ms ->
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    while Atomic.get t.alive > 0 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    if Atomic.get t.alive = 0 then begin
      List.iter Domain.join t.domains;
      t.domains <- []
    end
    else begin
      (* abandon whatever is still queued: a stalled worker would hold the
         rest hostage, and the mutator must never wait on it *)
      let cause = Obs.Shutdown_timeout { ms } in
      let n = locked t (fun () -> abandon t t.queue cause) in
      (* a running compiler is killed; its worker reaps it and gives the
         job up, which takes a moment more *)
      let killed = locked t (fun () -> List.filter kill_compiler t.running) in
      let reap_deadline = Unix.gettimeofday () +. 1.0 in
      while
        locked t (fun () -> List.exists (fun r -> List.memq r t.running) killed)
        && Unix.gettimeofday () < reap_deadline
      do
        Unix.sleepf 0.001
      done;
      if !Obs.enabled && n > 0 then Obs.emit (Obs.Abandon { pending = n; cause });
      if n > 0 || Atomic.get t.alive > 0 then
        t.log
          (Printf.sprintf
             "[bgjit] shutdown timed out after %dms: %d request(s) \
              abandoned, %d worker(s) leaked"
             ms n (Atomic.get t.alive));
      t.domains <- []
    end;
    restore_hooks t
