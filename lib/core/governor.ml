(* The self-healing layer: detection (the forensics journal, the metrics
   registry, the pool counters) closed into remediation.  `lancet health`
   names a pathology and suggests a knob; the governor turns the same
   signals into actions the engine takes by itself, each one journaled
   with its cause so `lancet why` shows not just what went wrong but what
   the VM did about it.

   Four remediations:

   - Deopt-loop circuit breaker.  Every guard deopt reports in through
     [t_on_deopt]; after [g_deopt_k] strikes of the same (tag, pc) the
     method is demoted to the interpreter (invalidate + hotness counters
     zeroed) and a promotion gate holds it back until hotness reaches
     threshold * 2^level — exponential backoff.  Past [g_max_backoff]
     levels the method is blacklisted for good: the guard is structurally
     wrong and every OSR exit costs more than tier 0.

   - Compile watchdog.  [tick] reads [Bgjit.inflight_ages]; a compile
     running past [g_watchdog_ms] is abandoned through the existing
     generation-stamp discard path (bump the stamp; whatever the stalled
     worker eventually produces is stale and thrown away at install) —
     the mutator never waits on it.  The method is retried once on the
     queue; a second overdue instance blacklists it.  An overdue native
     upgrade has its compiler killed: only the upgrade is dropped, and the
     method keeps its typed code, with no retry and no blacklist.

   - Queue backpressure.  Sustained [s_dropped] growth over a tick means
     promotion outruns compilation: the promotion threshold doubles
     (bounded), so fewer methods qualify; it decays halfway back per calm
     tick, floored at the value the runtime booted with.

   - Cache-thrash damping.  An eviction-rate spike over a tick gets the
     same hysteresis: raising the bar keeps borderline-hot methods from
     cycling through a full cache.

   All knob movements go through the one [throttle] helper, so every
   adjustment is journaled ([Throttle]) and counted.  Lock order: the
   governor's own mutex is taken first and [t_lock] (inside
   [tier_invalidate]) strictly after; nothing in the VM calls back into
   the governor while holding [t_lock]. *)

open Vm.Types

type config = {
  g_deopt_k : int; (* strikes on one guard before demotion *)
  g_max_backoff : int; (* backoff doublings before permanent blacklist *)
  g_watchdog_ms : float; (* per-compile wall-time budget *)
  g_drop_window : int; (* queue drops per tick that trigger backpressure *)
  g_evict_window : int; (* evictions per tick that trigger damping *)
  g_threshold_cap : int; (* upper bound for throttled promotion threshold *)
  g_tick_ms : float; (* ticker period when [attach ~ticker:true] *)
}

let default_config =
  {
    g_deopt_k = 4;
    g_max_backoff = 4;
    g_watchdog_ms = 500.0;
    g_drop_window = 4;
    g_evict_window = 8;
    g_threshold_cap = 1 lsl 20;
    g_tick_ms = 25.0;
  }

type stats = {
  mutable g_demotions : int;
  mutable g_backoffs : int; (* active backoff levels entered *)
  mutable g_blacklists : int;
  mutable g_watchdog_kills : int;
  mutable g_watchdog_retries : int;
  mutable g_throttle_ups : int;
  mutable g_throttle_downs : int;
  mutable g_repromotions : int;
}

(* Per-method breaker state.  [e_bar] > 0 gates promotion until hotness
   reaches it; 0 means the gate is open. *)
type entry = {
  e_strikes : (string * int, int) Hashtbl.t; (* (tag, pc) -> deopt count *)
  mutable e_level : int;
  mutable e_bar : int;
}

type t = {
  rt : runtime;
  pool : Bgjit.t option;
  cfg : config;
  lock : Mutex.t;
  entries : (int, entry) Hashtbl.t; (* mid -> breaker state *)
  killed : (int, float) Hashtbl.t; (* mid -> start ts of the killed instance *)
  kill_counts : (int, int) Hashtbl.t; (* mid -> overdue instances seen *)
  st : stats;
  base_threshold : int; (* promotion threshold at attach: throttle floor *)
  mutable last_dropped : int;
  mutable last_evictions : int;
  mutable stop : bool;
  mutable ticker : unit Domain.t option;
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

let entry_for t mid =
  match Hashtbl.find_opt t.entries mid with
  | Some e -> e
  | None ->
    let e = { e_strikes = Hashtbl.create 4; e_level = 0; e_bar = 0 } in
    Hashtbl.replace t.entries mid e;
    e

let stats t = t.st

(* Retire [m] to the interpreter for good. *)
let blacklist t (m : meth) ~why err =
  m.mtier <- Tier_blacklisted;
  t.st.g_blacklists <- t.st.g_blacklists + 1;
  if !Obs.enabled then
    Obs.emit
      (Obs.Compile_blacklist
         {
           meth = Vm.Runtime.meth_label m;
           mid = m.mid;
           worker = Obs.worker_id ();
           loc = Bgjit.meth_src_loc m;
           err;
           cause = why;
         })

(* ------------------------------------------------------------------ *)
(* Deopt-loop circuit breaker                                          *)

(* Called from the deopt handler via [t_on_deopt].  Returns true when the
   governor took over remediation (so tiering skips its own recompile). *)
let on_deopt t (m : meth) tag pc _line =
  locked t (fun () ->
      let e = entry_for t m.mid in
      let key = (tag, pc) in
      let strikes =
        1 + Option.value ~default:0 (Hashtbl.find_opt e.e_strikes key)
      in
      Hashtbl.replace e.e_strikes key strikes;
      if strikes < t.cfg.g_deopt_k then false
      else begin
        Hashtbl.replace e.e_strikes key 0;
        e.e_level <- e.e_level + 1;
        let why = Obs.Deopt_storm { tag; pc; strikes } in
        if e.e_level > t.cfg.g_max_backoff then begin
          (* backoff exhausted: the guard keeps failing at every level, so
             retire the method to the interpreter for good *)
          Vm.Runtime.tier_invalidate ~why t.rt m;
          blacklist t m ~why "governor: deopt-loop breaker"
        end
        else begin
          (* demote: back to tier 0 with counters zeroed, and gate
             re-promotion behind an exponentially growing hotness bar *)
          Vm.Runtime.tier_invalidate ~why t.rt m;
          m.mcalls <- 0;
          m.mbackedges <- 0;
          e.e_bar <- t.base_threshold * (1 lsl e.e_level);
          t.st.g_demotions <- t.st.g_demotions + 1;
          t.st.g_backoffs <- t.st.g_backoffs + 1;
          if !Obs.enabled then
            Obs.emit
              (Obs.Demote
                 {
                   meth = Vm.Runtime.meth_label m;
                   mid = m.mid;
                   strikes;
                   backoff = e.e_bar;
                   cause = why;
                 })
        end;
        true
      end)

(* Consulted by [Runtime.tiered_fn] after the hotness threshold: a gated
   method waits out its backoff, everything else promotes as usual. *)
let promote_gate t (m : meth) =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries m.mid with
      | None -> true
      | Some e ->
        if e.e_bar = 0 then true
        else if m.mcalls + m.mbackedges >= e.e_bar then begin
          e.e_bar <- 0;
          t.st.g_repromotions <- t.st.g_repromotions + 1;
          if !Obs.enabled then
            Obs.emit
              (Obs.Repromote
                 {
                   meth = Vm.Runtime.meth_label m;
                   mid = m.mid;
                   level = e.e_level;
                   calls = m.mcalls;
                   backedges = m.mbackedges;
                 });
          true
        end
        else false)

(* ------------------------------------------------------------------ *)
(* Watchdog, backpressure, damping: the periodic tick                  *)

let throttle t ~knob ~cause ~up =
  let tr = t.rt.tiering in
  let was = tr.t_threshold in
  let now =
    if up then min (was * 2) t.cfg.g_threshold_cap
    else max (was / 2) t.base_threshold
  in
  if now <> was then begin
    tr.t_threshold <- now;
    if up then t.st.g_throttle_ups <- t.st.g_throttle_ups + 1
    else t.st.g_throttle_downs <- t.st.g_throttle_downs + 1;
    if !Obs.enabled then Obs.emit (Obs.Throttle { knob; was; now; cause })
  end

let watchdog t =
  match t.pool with
  | None -> ()
  | Some pool ->
    List.iter
      (fun (mid, age_s) ->
        let age_ms = age_s *. 1000. in
        if age_ms > t.cfg.g_watchdog_ms then begin
          let started = Obs.now () -. age_s in
          let fresh =
            locked t (fun () ->
                (* one kill per inflight instance: identify it by start
                   time, so repeated ticks don't stack strikes while the
                   same stalled compile keeps aging *)
                match Hashtbl.find_opt t.killed mid with
                | Some ts when abs_float (ts -. started) < 0.5e-3 -> false
                | _ ->
                  Hashtbl.replace t.killed mid started;
                  let k =
                    1
                    + Option.value ~default:0 (Hashtbl.find_opt t.kill_counts mid)
                  in
                  Hashtbl.replace t.kill_counts mid k;
                  true)
          in
          if fresh then
            match Vm.Runtime.find_method_by_id t.rt mid with
            | None -> ()
            | Some m ->
              let kills =
                Option.value ~default:1 (Hashtbl.find_opt t.kill_counts mid)
              in
              let retry = kills <= 1 in
              let why =
                Obs.Watchdog_timeout
                  { ms = age_ms; budget_ms = t.cfg.g_watchdog_ms }
              in
              (* abandon via the generation stamp: whatever the stalled
                 worker eventually returns is discarded at install *)
              Vm.Runtime.tier_invalidate ~why t.rt m;
              t.st.g_watchdog_kills <- t.st.g_watchdog_kills + 1;
              if !Obs.enabled then
                Obs.emit
                  (Obs.Watchdog_kill
                     {
                       meth = Vm.Runtime.meth_label m;
                       mid;
                       ms = age_ms;
                       retry;
                       cause = why;
                     });
              if retry then begin
                t.st.g_watchdog_retries <- t.st.g_watchdog_retries + 1;
                ignore (Bgjit.enqueue ~why pool m)
              end
              else blacklist t m ~why "governor: compile watchdog"
        end)
      (Bgjit.inflight_ages pool);
    List.iter
      (fun (mid, age_s) ->
        let age_ms = age_s *. 1000. in
        if age_ms > t.cfg.g_watchdog_ms && Bgjit.cancel_native pool mid then begin
          t.st.g_watchdog_kills <- t.st.g_watchdog_kills + 1;
          if !Obs.enabled then
            match Vm.Runtime.find_method_by_id t.rt mid with
            | None -> ()
            | Some m ->
              Obs.emit
                (Obs.Watchdog_kill
                   {
                     meth = Vm.Runtime.meth_label m;
                     mid;
                     ms = age_ms;
                     retry = false;
                     cause =
                       Obs.Watchdog_timeout
                         { ms = age_ms; budget_ms = t.cfg.g_watchdog_ms };
                   })
        end)
      (Bgjit.native_ages pool)

let backpressure t =
  match t.pool with
  | None -> ()
  | Some pool ->
    let dropped = (Bgjit.stats pool).Bgjit.s_dropped in
    let delta = dropped - t.last_dropped in
    t.last_dropped <- dropped;
    if delta >= t.cfg.g_drop_window then
      throttle t ~knob:"tier-threshold" ~up:true
        ~cause:(Obs.Queue_pressure { dropped = delta })
    else if delta = 0 && t.rt.tiering.t_threshold > t.base_threshold then
      throttle t ~knob:"tier-threshold" ~up:false ~cause:Obs.Unattributed

let damping t =
  let evictions = t.rt.tiering.t_evictions in
  let delta = evictions - t.last_evictions in
  t.last_evictions <- evictions;
  if delta >= t.cfg.g_evict_window then
    throttle t ~knob:"tier-threshold" ~up:true
      ~cause:(Obs.Eviction_spike { evictions = delta })

(* One governor step: deterministic entry point for tests; the optional
   ticker domain just calls this on a period. *)
let tick t =
  watchdog t;
  backpressure t;
  damping t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let attach ?(cfg = default_config) ?pool ?(ticker = false) rt =
  let t =
    {
      rt;
      pool;
      cfg;
      lock = Mutex.create ();
      entries = Hashtbl.create 32;
      killed = Hashtbl.create 8;
      kill_counts = Hashtbl.create 8;
      st =
        {
          g_demotions = 0;
          g_backoffs = 0;
          g_blacklists = 0;
          g_watchdog_kills = 0;
          g_watchdog_retries = 0;
          g_throttle_ups = 0;
          g_throttle_downs = 0;
          g_repromotions = 0;
        };
      base_threshold = rt.tiering.t_threshold;
      last_dropped =
        (match pool with Some p -> (Bgjit.stats p).Bgjit.s_dropped | None -> 0);
      last_evictions = rt.tiering.t_evictions;
      stop = false;
      ticker = None;
    }
  in
  rt.tiering.t_on_deopt <- Some (fun m tag pc line -> on_deopt t m tag pc line);
  rt.tiering.t_promote_gate <- Some (fun m -> promote_gate t m);
  if ticker then
    t.ticker <-
      Some
        (Domain.spawn (fun () ->
             (* sleep in small slices so [detach] never waits a full period *)
             let slice = 0.002 in
             let period = max slice (cfg.g_tick_ms /. 1000.) in
             let rec loop () =
               if not t.stop then begin
                 let slept = ref 0.0 in
                 while (not t.stop) && !slept < period do
                   Unix.sleepf slice;
                   slept := !slept +. slice
                 done;
                 if not t.stop then tick t;
                 loop ()
               end
             in
             loop ()));
  t

let detach t =
  t.stop <- true;
  (match t.ticker with
  | Some d ->
    Domain.join d;
    t.ticker <- None
  | None -> ());
  t.rt.tiering.t_on_deopt <- None;
  t.rt.tiering.t_promote_gate <- None

let report t =
  let s = t.st in
  Printf.sprintf
    "demotions=%d backoffs=%d repromotions=%d blacklists=%d watchdog_kills=%d \
     watchdog_retries=%d throttles=+%d/-%d threshold=%d (base %d)"
    s.g_demotions s.g_backoffs s.g_repromotions s.g_blacklists
    s.g_watchdog_kills s.g_watchdog_retries s.g_throttle_ups s.g_throttle_downs
    t.rt.tiering.t_threshold t.base_threshold
