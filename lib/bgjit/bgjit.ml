(* Background JIT compilation (the "compile off the hot path" layer that
   production VMs — HotSpot, Graal, the paper's Lancet substrate — take for
   granted): a bounded compile queue serviced by worker domains.

   Protocol, in the order a request travels:

   1. Promotion ([Runtime.tier_promote] via the hook installed by [install])
      calls [enqueue]: the method is marked [Tier_compiling] and appended to
      the queue.  A request for a method already queued coalesces into the
      pending one; a full queue drops the request and returns the method to
      [Tier_cold] so a later promotion retries.  The mutator never blocks.

   2. A worker dequeues the request, reads the method's current generation
      stamp, and runs the injected [compile] function (the full Lancet
      stage/optimize/backend pipeline).  The interpreter keeps executing the
      method at tier 0 throughout.

   3. The result is published with [Runtime.tier_install_if_current]: under
      the runtime's tiering lock, the entry point is installed only if the
      generation still matches the stamp from step 2.  An invalidation that
      raced the compile (deopt-recompile, explicit invalidate) bumped the
      generation, so the stale code is discarded; if no newer request exists
      for the method it returns to [Tier_cold] and may promote again.

   4. A compile failure (exception or [None]) blacklists the method and logs
      a diagnostic carrying the method's source location ([Runtime.meth_loc]
      over the PR-3 line tables).  Worker domains never let an exception
      escape: failure means "keep interpreting", not "kill the VM".

   Native upgrades (the runtime's [t_native] hook, set by [install]) are
   [Native] jobs, in a second queue that a worker turns to only when the
   first is empty: a method's first compiled code is worth more than a
   faster version of code that already runs.  The job builds native code
   for the graph the typed code came from with ocamlopt in a child
   process ([Lms.Native_tier]) and swaps it into the entry point's cell if
   the method's generation has not moved since the job was made.  A failure
   gives the upgrade up and leaves the typed code running: no blacklist.
   [shutdown] gives queued native jobs up, as the program they would speed
   up has finished; [drain] waits for them.  A timed-out [shutdown] kills
   the compiler of a running native job.

   OSR requests (the runtime's [t_osr] hook, replaced by [install]) travel
   the same queue.  The worker runs the synchronous OSR hook [install]
   replaced, which publishes the code into the requesting frame's cell;
   the mutator keeps interpreting and enters the code at the first back
   edge to the header after that.  Nothing is installed, so no generation
   stamp is involved; a request the queue cannot take publishes
   [Osr_failed] and the frame runs on in the interpreter.

   Observability: [Compile_enqueue]/[Compile_dequeue] events carry the queue
   depth (the Chrome sink renders a queue-depth counter track).  The
   enqueue is emitted under the queue lock, before a worker can take the
   request, and the dequeue carries the wait, timed from a stamp queued
   with the request.  Compiles run
   with [Obs.set_worker] so Compile_start/Compile_end land on per-worker
   tracks, and [Compile_blacklist] records failures.  Coalesced, dropped,
   stale and blacklisted requests are counted in [stats]. *)

open Vm.Types

type stats = {
  mutable s_enqueued : int;
  mutable s_coalesced : int;
  mutable s_dropped : int;
  mutable s_installed : int;
  mutable s_stale : int;
  mutable s_blacklisted : int;
  mutable s_abandoned : int; (* queued requests walked away from at a
                                timed-out shutdown *)
  mutable s_native : int; (* native upgrades installed *)
  mutable s_native_declined : int; (* given up: build failed, dropped, killed *)
  mutable s_native_stale : int; (* built, but the generation moved *)
}

type job =
  | Promote of { meth : meth; queued : float (* [Obs.now] at the enqueue *) }
  | Osr of { meth : meth; pc : int; locals : value array; cell : osr_state Atomic.t }
  | Native of { nj : native_job; cell : int Atomic.t }
      (* [cell] holds the compiler's pid while it runs; [kill_compiler] *)

type t = {
  rt : runtime;
  compile : runtime -> meth -> ((value array -> value) * string list * int) option;
  (* entry point, devirtualization deps, hierarchy epoch at compile start *)
  capacity : int;
  queue : job Queue.t;
  natives : job Queue.t; (* [Native] jobs, taken when [queue] is empty *)
  mutable native_running : int Atomic.t list;
  (* the compiler-pid cell of each running native job *)
  pending : (int, unit) Hashtbl.t; (* mids queued, not yet picked up *)
  inflight : (int, unit) Hashtbl.t;
  (* mids of the promotion compiles a worker is running now *)
  mutable osr_running : int; (* OSR compiles a worker is running now *)
  lock : Mutex.t; (* guards queue/pending/inflight/stats/stop *)
  nonempty : Condition.t; (* signaled on enqueue and shutdown *)
  idle : Condition.t; (* signaled when the pool goes quiescent *)
  log : string -> unit;
  stats : stats;
  mutable stop : bool;
  alive : int Atomic.t; (* workers that have not exited their loop yet *)
  mutable domains : unit Domain.t list;
  mutable saved_hook : (runtime -> meth -> jit_result) option;
  mutable saved_osr :
    (meth -> int -> value array -> osr_state Atomic.t -> unit) option;
    (* the synchronous OSR compile, run by the workers *)
}

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let stats t = t.stats

(* Nothing queued, nothing compiling (caller holds the lock). *)
let is_idle t =
  Queue.is_empty t.queue && Queue.is_empty t.natives
  && Hashtbl.length t.inflight = 0 && t.osr_running = 0 && t.native_running = []

let pending t =
  locked t (fun () ->
      Queue.length t.queue + Queue.length t.natives + Hashtbl.length t.inflight
      + t.osr_running + List.length t.native_running)

(* Cancel a native job through its compiler-pid cell: a running compiler
   is killed, one not yet spawned never runs. *)
let kill_compiler cell =
  let pid = Atomic.exchange cell (-1) in
  if pid > 0 then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let stats_string t =
  let s = t.stats in
  Printf.sprintf
    "enqueued=%d coalesced=%d dropped=%d installed=%d stale=%d blacklisted=%d%s%s"
    s.s_enqueued s.s_coalesced s.s_dropped s.s_installed s.s_stale
    s.s_blacklisted
    (if s.s_abandoned > 0 then Printf.sprintf " abandoned=%d" s.s_abandoned
     else "")
    (if s.s_native + s.s_native_declined + s.s_native_stale = 0 then ""
     else
       Printf.sprintf " native=%d native_declined=%d%s" s.s_native
         s.s_native_declined
         (if s.s_native_stale > 0 then Printf.sprintf " native_stale=%d" s.s_native_stale
          else ""))

(* ------------------------------------------------------------------ *)
(* Enqueue (mutator side)                                              *)

(* Saturation, shutdown or forced saturation (caller holds the lock). *)
let full t =
  t.stop
  || Queue.length t.queue + Queue.length t.natives >= t.capacity
  || (!Chaos.on && Chaos.fire Chaos.queue_full)

(* Report a compile request for [m] that was turned away, and why. *)
let dropped (m : meth) cause =
  if !Obs.enabled then
    Obs.emit
      (Obs.Compile_drop { meth = Vm.Runtime.meth_label m; mid = m.mid; cause })

(* All tier-state writes happen inside the queue lock: a worker can only
   dequeue (and later blacklist/install/retire) a request strictly after
   the enqueue's critical section, so its terminal [mtier] write can never
   be clobbered by the mutator's [Tier_compiling] mark racing it. *)
let enqueue ?(why = Obs.Unattributed) t (m : meth) =
  let r =
    locked t (fun () ->
        if (not t.stop) && Hashtbl.mem t.pending m.mid then begin
          t.stats.s_coalesced <- t.stats.s_coalesced + 1;
          (* the already-pending request will compile the current
             generation (stamps are read at dequeue), so this one merges *)
          m.mtier <- Tier_compiling;
          `Coalesced
        end
        else if full t then begin
          t.stats.s_dropped <- t.stats.s_dropped + 1;
          (* saturation (or shutdown, or forced saturation): back to cold,
             so the method stays interpretable and a later promotion
             retries *)
          if m.mtier = Tier_compiling then m.mtier <- Tier_cold;
          `Dropped
        end
        else begin
          t.stats.s_enqueued <- t.stats.s_enqueued + 1;
          Hashtbl.replace t.pending m.mid ();
          Queue.add (Promote { meth = m; queued = Obs.now () }) t.queue;
          (* the queued request owns the tier state until it terminates *)
          m.mtier <- Tier_compiling;
          (* under the lock: no worker can dequeue the request before its
             enqueue is on the bus *)
          if !Obs.enabled then
            Obs.emit
              (Obs.Compile_enqueue
                 {
                   meth = Vm.Runtime.meth_label m;
                   mid = m.mid;
                   gen = Vm.Runtime.tier_gen t.rt m.mid;
                   depth = Queue.length t.queue;
                   cause = why;
                 });
          Condition.signal t.nonempty;
          `Queued
        end)
  in
  if r = `Dropped then dropped m (Obs.Queue_full { capacity = t.capacity });
  r

(* An OSR request: the frame's locals are copied, as the mutator goes on
   writing them while the worker reads their kinds. *)
let enqueue_osr t (m : meth) pc locals cell =
  let rejected =
    locked t (fun () ->
        if full t then begin
          t.stats.s_dropped <- t.stats.s_dropped + 1;
          true
        end
        else begin
          t.stats.s_enqueued <- t.stats.s_enqueued + 1;
          Queue.add (Osr { meth = m; pc; locals = Array.copy locals; cell }) t.queue;
          Condition.signal t.nonempty;
          false
        end)
  in
  if rejected then begin
    Atomic.set cell Osr_failed;
    dropped m (Obs.Queue_full { capacity = t.capacity })
  end

(* A native upgrade; one the queue cannot take is given up at once. *)
let enqueue_native t (job : native_job) =
  let rejected =
    locked t (fun () ->
        if full t then begin
          t.stats.s_native_declined <- t.stats.s_native_declined + 1;
          true
        end
        else begin
          Queue.add (Native { nj = job; cell = Atomic.make 0 }) t.natives;
          Condition.signal t.nonempty;
          false
        end)
  in
  if rejected then
    job.nj_drop (Printf.sprintf "compile queue full (capacity %d)" t.capacity)

let jit_hook t (_rt : runtime) (m : meth) : jit_result =
  match m.mcode with
  | Native _ -> Jit_declined
  | Bytecode _ ->
    ignore
      (enqueue t m
         ~why:(Obs.Hotness { calls = m.mcalls; backedges = m.mbackedges }));
    (* even a dropped request answers [Jit_pending]: the method keeps
       interpreting and retries, it is not blacklisted *)
    Jit_pending

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

(* "Cls.meth @pc k (file.mini:12)": the first pc with an attributed source
   line, so blacklist diagnostics carry file:line when line tables exist. *)
let meth_src_loc (m : meth) =
  let n = Array.length m.mlines in
  let rec first_attributed i =
    if i >= n then 0 else if m.mlines.(i) > 0 then i else first_attributed (i + 1)
  in
  Vm.Runtime.meth_loc m (first_attributed 0)

let blacklist t wid (m : meth) err =
  m.mtier <- Tier_blacklisted;
  let loc = meth_src_loc m in
  if !Obs.enabled then
    Obs.emit
      (Obs.Compile_blacklist
         {
           meth = Vm.Runtime.meth_label m;
           mid = m.mid;
           worker = wid;
           loc;
           err;
           cause = Obs.Worker_failure { err };
         });
  t.log
    (Printf.sprintf "[bgjit] worker %d: blacklisted %s: %s" wid loc err)

let process t wid (m : meth) =
  (* the stamp the install is conditioned on: read after dequeue, so an
     invalidation while the request sat in the queue is already absorbed
     and only an invalidation racing the compile itself can make it stale *)
  let gen = Vm.Runtime.tier_gen t.rt m.mid in
  let outcome =
    if m.mtier = Tier_blacklisted then
      (* retired (a racing failure) while the request sat in the queue:
         never resurrect a blacklisted method *)
      `Stale
    else
      match
        (if !Chaos.on then begin
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
         end);
        t.compile t.rt m
      with
      | Some (fn, deps, epoch) ->
        let fn =
          if !Chaos.on && Chaos.fire Chaos.compile_garbage then begin
            (* garbage result: bump the stamp first so the conditional
               install provably discards it — the generation check is the
               safety net under test *)
            Vm.Runtime.tier_invalidate
              ~why:(Obs.Chaos_fault { site = "compile_garbage" })
              t.rt m;
            fun _ -> Vm.Types.Int 0xDEAD
          end
          else fn
        in
        (* speculative code additionally requires the hierarchy epoch to be
           unchanged since the compile started; [tier_install_if_current]
           checks it under the same lock as the generation stamp *)
        if Vm.Runtime.tier_install_if_current t.rt m ~gen ~epoch ~deps fn then
          `Installed
        else `Stale
      | None -> `Failed "compiler declined (no entry point)"
      | exception e -> `Failed (Printexc.to_string e)
  in
  (match outcome with `Failed err -> blacklist t wid m err | _ -> ());
  (* terminal bookkeeping is atomic with the in-flight removal, so the
     stale-retire decision cannot mistake this worker's own entry for a
     newer request *)
  locked t (fun () ->
      Hashtbl.remove t.inflight m.mid;
      (match outcome with
      | `Installed -> t.stats.s_installed <- t.stats.s_installed + 1
      | `Failed _ -> t.stats.s_blacklisted <- t.stats.s_blacklisted + 1
      | `Stale ->
        (* the generation moved while compiling: the code was discarded
           by the conditional install.  If no newer request owns the
           method (queued, or in flight on another worker), return it to
           cold so hotness can promote it again. *)
        t.stats.s_stale <- t.stats.s_stale + 1;
        let newer =
          Hashtbl.mem t.pending m.mid || Hashtbl.mem t.inflight m.mid
        in
        if (not newer) && m.mtier = Tier_compiling then m.mtier <- Tier_cold);
      if is_idle t then Condition.broadcast t.idle)

(* Run an OSR compile through the synchronous hook, which publishes into
   the frame's cell. *)
let process_osr t ~meth ~pc ~locals ~cell =
  (match t.saved_osr with
  | Some compile -> (
    try compile meth pc locals cell with _ -> Atomic.set cell Osr_failed)
  | None -> Atomic.set cell Osr_failed);
  locked t (fun () ->
      t.osr_running <- t.osr_running - 1;
      if is_idle t then Condition.broadcast t.idle)

(* The next job and the depth left behind it, or [None]: promotions and
   OSR requests first, then, with [natives], native upgrades (caller holds
   the lock). *)
let take t ~natives =
  let next =
    if not (Queue.is_empty t.queue) then Queue.take_opt t.queue
    else if natives then Queue.take_opt t.natives
    else None
  in
  match next with
  | Some (Promote { meth = m; _ } as job) ->
    Hashtbl.remove t.pending m.mid;
    (* [add], not [replace]: the same mid can be in flight on two
       workers at once (requeued while compiling), and each holds
       its own binding — [Hashtbl.length] counts both *)
    Hashtbl.add t.inflight m.mid ();
    Some (job, Queue.length t.queue)
  | Some (Osr _ as job) ->
    t.osr_running <- t.osr_running + 1;
    Some (job, Queue.length t.queue)
  | Some (Native { cell; _ } as job) ->
    t.native_running <- cell :: t.native_running;
    Some (job, Queue.length t.natives)
  | None -> None

let rec run t wid (job, depth) =
  match job with
  | Osr { meth; pc; locals; cell } -> process_osr t ~meth ~pc ~locals ~cell
  | Promote { meth = m; queued } ->
    if !Obs.enabled then
      Obs.emit
        (Obs.Compile_dequeue
           { meth = Vm.Runtime.meth_label m; mid = m.mid; worker = wid; depth;
             wait_ms = (Obs.now () -. queued) *. 1000. });
    process t wid m
  | Native { nj; cell } -> process_native t wid nj cell

(* Run a native upgrade through the worker's chaos sites: a stall, a crash
   (the upgrade is given up, the method keeps its typed code) and a
   garbage result, which a generation bump makes the install refuse.
   While the compiler runs, the worker serves the promotions and OSR
   requests that arrive, so none waits for the child. *)
and process_native t wid (job : native_job) cell =
  let m = job.nj_meth in
  let meanwhile () =
    match locked t (fun () -> take t ~natives:false) with
    | Some next ->
      run t wid next;
      true
    | None -> false
  in
  let outcome =
    if m.mtier = Tier_blacklisted then begin
      job.nj_drop "method blacklisted while queued";
      `Declined
    end
    else begin
      if !Chaos.on && Chaos.fire Chaos.compile_stall then
        Chaos.sleep_ms (max 1 (Chaos.ms Chaos.compile_stall));
      if !Chaos.on && Chaos.fire Chaos.compile_crash then begin
        job.nj_drop "chaos: injected compile crash";
        `Declined
      end
      else
        match job.nj_build { nw_pid = cell; nw_meanwhile = meanwhile } with
        | Error _ -> `Declined
        | Ok fn ->
          let fn =
            if !Chaos.on && Chaos.fire Chaos.compile_garbage then begin
              Vm.Runtime.tier_invalidate
                ~why:(Obs.Chaos_fault { site = "compile_garbage" })
                t.rt m;
              fun _ -> Vm.Types.Int 0xDEAD
            end
            else fn
          in
          if job.nj_install fn then `Installed else `Stale
        | exception e ->
          job.nj_drop (Printexc.to_string e);
          `Declined
    end
  in
  locked t (fun () ->
      t.native_running <- List.filter (fun c -> c != cell) t.native_running;
      (match outcome with
      | `Installed -> t.stats.s_native <- t.stats.s_native + 1
      | `Stale -> t.stats.s_native_stale <- t.stats.s_native_stale + 1
      | `Declined -> t.stats.s_native_declined <- t.stats.s_native_declined + 1);
      if is_idle t then Condition.broadcast t.idle)

let rec worker_loop t wid =
  let job =
    locked t (fun () ->
        while Queue.is_empty t.queue && Queue.is_empty t.natives && not t.stop do
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
      native_running = [];
      pending = Hashtbl.create 64;
      inflight = Hashtbl.create 8;
      osr_running = 0;
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
          s_blacklisted = 0;
          s_abandoned = 0;
          s_native = 0;
          s_native_declined = 0;
          s_native_stale = 0;
        };
      stop = false;
      alive = Atomic.make 0;
      domains = [];
      saved_hook = None;
      saved_osr = None;
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
  t.rt.jit_hook <- Some (fun rt m -> jit_hook t rt m);
  t.saved_osr <- t.rt.tiering.t_osr;
  if Option.is_some t.saved_osr then t.rt.tiering.t_osr <- Some (enqueue_osr t);
  t.rt.tiering.t_native <- Some (enqueue_native t);
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
    t.rt.tiering.t_native <- None;
    t.rt.jit_hook <- t.saved_hook;
    t.rt.tiering.t_osr <- t.saved_osr
  end

(* Stop the pool.  Queued native upgrades are given up at once, each
   journaled by its [nj_drop] and counted in [s_native_declined]: the code
   they would speed up has run.  Without [timeout_ms], workers finish the
   other queued requests and are joined.  With [timeout_ms], wait at most
   that long for the workers to go quiet; on expiry the remaining queue is
   abandoned — each leftover request is counted in [s_abandoned],
   journaled, and its method returned to [Tier_cold] — and stalled worker
   domains are leaked rather than joined, so a wedged compile cannot hang
   process exit. *)
let shutdown ?timeout_ms t =
  let natives =
    locked t (fun () ->
        t.stop <- true;
        let jobs = List.of_seq (Queue.to_seq t.natives) in
        Queue.clear t.natives;
        t.stats.s_native_declined <- t.stats.s_native_declined + List.length jobs;
        Condition.broadcast t.nonempty;
        jobs)
  in
  List.iter
    (function Native n -> n.nj.nj_drop "pool shut down" | Promote _ | Osr _ -> ())
    natives;
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
      let leftovers =
        locked t (fun () ->
            let jobs = List.of_seq (Queue.to_seq t.queue) in
            Queue.clear t.queue;
            List.filter_map
              (fun job ->
                t.stats.s_abandoned <- t.stats.s_abandoned + 1;
                match job with
                | Promote { meth = m; _ } ->
                  Hashtbl.remove t.pending m.mid;
                  if m.mtier = Tier_compiling then m.mtier <- Tier_cold;
                  Some m
                | Osr o ->
                  Atomic.set o.cell Osr_failed;
                  None
                | Native _ -> None (* never in [queue] *))
              jobs)
      in
      (* a running native build is killed; its worker reaps the compiler
         and gives the upgrade up, which takes a moment more *)
      let running () = locked t (fun () -> t.native_running) in
      List.iter kill_compiler (running ());
      let reap_deadline = Unix.gettimeofday () +. 1.0 in
      while running () <> [] && Unix.gettimeofday () < reap_deadline do
        Unix.sleepf 0.001
      done;
      let n = List.length leftovers in
      if !Obs.enabled && n > 0 then begin
        let cause = Obs.Shutdown_timeout { ms } in
        List.iter (fun m -> dropped m cause) leftovers;
        Obs.emit (Obs.Abandon { pending = n; cause })
      end;
      if n > 0 || Atomic.get t.alive > 0 then
        t.log
          (Printf.sprintf
             "[bgjit] shutdown timed out after %dms: %d request(s) \
              abandoned, %d worker(s) leaked"
             ms n (Atomic.get t.alive));
      t.domains <- []
    end;
    restore_hooks t
