(* An always-on metrics registry: counters, gauges and log-scale histograms
   with lock-free-ish per-domain accumulation.

   Writers touch only their own shard (indexed by [Obs.worker_id () land 7])
   with plain int loads/stores — no mutex, no atomics — so a mutator
   increment costs an array store.  Shards are folded at read/flush time;
   the occasional lost update under a same-shard race is acceptable for
   monitoring data (this is the standard statsd/prometheus-client trade).
   Registration is mutex-guarded (it's rare); reads fold all shards.

   Exported as JSON (for `lancet run --metrics out.json`) and as Prometheus
   text exposition format (for out.prom), so a run's numbers drop straight
   into existing dashboards. *)

let shards = 8

let shard () = Obs.worker_id () land (shards - 1)

type counter = { c_name : string; c_help : string; c_cells : int array }

type gauge = { g_name : string; g_help : string; mutable g_value : float }

(* Log-scale histogram: bucket [i] holds observations with
   value <= lo * base^i; the last bucket is the overflow (+Inf) bucket.
   Per-shard bucket rows, sums and counts, folded at read time. *)
type histogram = {
  h_name : string;
  h_help : string;
  h_lo : float;
  h_base : float;
  h_nb : int;
  h_counts : int array array; (* shard x bucket *)
  h_sums : float array; (* shard *)
  h_ns : int array; (* shard *)
}

type t = {
  mutable counters : counter list;
  mutable gauges : gauge list;
  mutable histos : histogram list;
  reg_lock : Mutex.t;
}

let create () =
  { counters = []; gauges = []; histos = []; reg_lock = Mutex.create () }

let registered t f =
  Mutex.lock t.reg_lock;
  match f () with
  | v ->
    Mutex.unlock t.reg_lock;
    v
  | exception e ->
    Mutex.unlock t.reg_lock;
    raise e

let counter t ?(help = "") name =
  registered t (fun () ->
      match List.find_opt (fun c -> c.c_name = name) t.counters with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_help = help; c_cells = Array.make shards 0 } in
        t.counters <- t.counters @ [ c ];
        c)

let add c n =
  let s = shard () in
  c.c_cells.(s) <- c.c_cells.(s) + n

let inc c = add c 1

let value c = Array.fold_left ( + ) 0 c.c_cells

let gauge t ?(help = "") name =
  registered t (fun () ->
      match List.find_opt (fun g -> g.g_name = name) t.gauges with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_help = help; g_value = 0.0 } in
        t.gauges <- t.gauges @ [ g ];
        g)

let set g v = g.g_value <- v

let gauge_value g = g.g_value

let histogram t ?(help = "") ?(lo = 0.001) ?(base = 2.0) ?(buckets = 28) name =
  registered t (fun () ->
      match List.find_opt (fun h -> h.h_name = name) t.histos with
      | Some h -> h
      | None ->
        let nb = max 2 buckets in
        let h =
          {
            h_name = name;
            h_help = help;
            h_lo = lo;
            h_base = Float.max 1.01 base;
            h_nb = nb;
            h_counts = Array.init shards (fun _ -> Array.make nb 0);
            h_sums = Array.make shards 0.0;
            h_ns = Array.make shards 0;
          }
        in
        t.histos <- t.histos @ [ h ];
        h)

(* Upper bound of bucket [i]; the last bucket reads as +Inf in exports. *)
let bucket_le h i = h.h_lo *. (h.h_base ** float_of_int i)

let bucket_index h v =
  if v <= h.h_lo then 0
  else
    let i =
      int_of_float (Float.ceil (Float.log (v /. h.h_lo) /. Float.log h.h_base))
    in
    if i < 0 then 0 else if i > h.h_nb - 1 then h.h_nb - 1 else i

let observe h v =
  let s = shard () in
  let b = bucket_index h v in
  h.h_counts.(s).(b) <- h.h_counts.(s).(b) + 1;
  h.h_sums.(s) <- h.h_sums.(s) +. v;
  h.h_ns.(s) <- h.h_ns.(s) + 1

(* Fold the shards: (per-bucket counts, sum, count). *)
let histo_fold h =
  let buckets = Array.make h.h_nb 0 in
  for s = 0 to shards - 1 do
    for i = 0 to h.h_nb - 1 do
      buckets.(i) <- buckets.(i) + h.h_counts.(s).(i)
    done
  done;
  let sum = Array.fold_left ( +. ) 0.0 h.h_sums in
  let n = Array.fold_left ( + ) 0 h.h_ns in
  (buckets, sum, n)

let histo_count h =
  let _, _, n = histo_fold h in
  n

(* q in [0,1]; reports the upper bound of the first bucket whose cumulative
   count reaches q * total (0.0 when empty) — the usual bucketed-quantile
   upper estimate. *)
let percentile h q =
  let buckets, _, n = histo_fold h in
  if n = 0 then 0.0
  else begin
    let target = Float.max 1.0 (Float.ceil (q *. float_of_int n)) in
    let cum = ref 0 in
    let res = ref (bucket_le h (h.h_nb - 1)) in
    (try
       for i = 0 to h.h_nb - 1 do
         cum := !cum + buckets.(i);
         if float_of_int !cum >= target then begin
           res := bucket_le h i;
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": %d"
           (if i > 0 then "," else "")
           (json_escape c.c_name) (value c)))
    t.counters;
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i g ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": %g"
           (if i > 0 then "," else "")
           (json_escape g.g_name) g.g_value))
    t.gauges;
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i h ->
      let buckets, sum, n = histo_fold h in
      Buffer.add_string b
        (Printf.sprintf
           "%s\n    \"%s\": {\"count\": %d, \"sum\": %g, \"p50\": %g, \
            \"p90\": %g, \"p99\": %g, \"buckets\": ["
           (if i > 0 then "," else "")
           (json_escape h.h_name) n sum (percentile h 0.50) (percentile h 0.90)
           (percentile h 0.99));
      let first = ref true in
      Array.iteri
        (fun j c ->
          if c > 0 then begin
            if not !first then Buffer.add_string b ", ";
            first := false;
            Buffer.add_string b
              (if j = h.h_nb - 1 then
                 Printf.sprintf "{\"le\": \"+Inf\", \"n\": %d}" c
               else Printf.sprintf "{\"le\": %g, \"n\": %d}" (bucket_le h j) c)
          end)
        buckets;
      Buffer.add_string b "]}")
    t.histos;
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let prom_name s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_') s

(* Prometheus text exposition format, §"text format details": HELP/TYPE
   comments, cumulative _bucket{le=...} series, _sum and _count. *)
let to_prometheus t =
  let b = Buffer.create 1024 in
  let header name help typ =
    if help <> "" then
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun c ->
      let name = "lancet_" ^ prom_name c.c_name ^ "_total" in
      header name c.c_help "counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" name (value c)))
    t.counters;
  List.iter
    (fun g ->
      let name = "lancet_" ^ prom_name g.g_name in
      header name g.g_help "gauge";
      Buffer.add_string b (Printf.sprintf "%s %g\n" name g.g_value))
    t.gauges;
  List.iter
    (fun h ->
      let name = "lancet_" ^ prom_name h.h_name in
      header name h.h_help "histogram";
      let buckets, sum, n = histo_fold h in
      let cum = ref 0 in
      Array.iteri
        (fun j c ->
          cum := !cum + c;
          if c > 0 || j = h.h_nb - 1 then
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                 (if j = h.h_nb - 1 then "+Inf"
                  else Printf.sprintf "%g" (bucket_le h j))
                 !cum))
        buckets;
      Buffer.add_string b (Printf.sprintf "%s_sum %g\n" name sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" name n))
    t.histos;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The stock JIT metric bundle, fed from the event bus                 *)

type jit = {
  j_reg : t;
  j_promotions : counter;
  j_compiles : counter;
  j_deopts : counter;
  j_installs : counter;
  j_evictions : counter;
  j_invalidations : counter;
  j_blacklists : counter;
  j_enqueues : counter;
  j_ic_transitions : counter;
  j_devirt_fails : counter;
  j_osr_entries : counter;
  j_queue_depth : gauge;
  j_cache_occupancy : gauge;
  j_ic_hit_ratio : gauge;
  j_time_to_peak_ms : gauge;
  j_profile_replayed : gauge;
  j_profile_warm_ok : gauge;
  j_profile_warm_stale : gauge;
  j_compile_ms : histogram;
  j_mutator_pause_ms : histogram;
  j_queue_wait_ms : histogram;
  j_pending : (int, float) Hashtbl.t; (* mid -> enqueue ts, for queue wait *)
}

let jit ?reg () =
  let reg = match reg with Some r -> r | None -> create () in
  {
    j_reg = reg;
    j_promotions = counter reg ~help:"methods promoted to tier 1" "promotions";
    j_compiles = counter reg ~help:"JIT graph builds completed" "compiles";
    j_deopts = counter reg ~help:"side exits taken from compiled code" "deopts";
    j_installs = counter reg ~help:"code-cache installs" "cache_installs";
    j_evictions = counter reg ~help:"code-cache FIFO evictions" "cache_evictions";
    j_invalidations =
      counter reg ~help:"code-cache invalidations" "cache_invalidations";
    j_blacklists = counter reg ~help:"methods blacklisted" "blacklists";
    j_enqueues = counter reg ~help:"background compile requests queued" "compile_enqueues";
    j_ic_transitions =
      counter reg ~help:"inline-cache state transitions" "ic_transitions";
    j_devirt_fails =
      counter reg ~help:"devirtualization guard failures" "devirt_guard_fails";
    j_osr_entries =
      counter reg ~help:"interpreter frames that entered OSR code"
        "osr_entries";
    j_queue_depth = gauge reg ~help:"background compile queue depth" "jit_queue_depth";
    j_cache_occupancy =
      gauge reg ~help:"resident compiled methods" "code_cache_occupancy";
    j_ic_hit_ratio = gauge reg ~help:"inline-cache hit ratio" "ic_hit_ratio";
    j_time_to_peak_ms =
      gauge reg
        ~help:"first JIT event to latest code-cache install (ms)"
        "time_to_peak_ms";
    j_profile_replayed =
      gauge reg ~help:"method records replayed from a profile snapshot"
        "profile_replayed_methods";
    j_profile_warm_ok =
      gauge reg
        ~help:"warm compiles whose IR fingerprint matched the snapshot"
        "profile_warm_matches";
    j_profile_warm_stale =
      gauge reg
        ~help:"warm compiles whose IR fingerprint differed from the snapshot"
        "profile_warm_stale";
    j_compile_ms =
      histogram reg ~help:"compile latency (ms)" "compile_ms";
    j_mutator_pause_ms =
      histogram reg ~help:"mutator pauses for synchronous compiles (ms)"
        "mutator_pause_ms";
    j_queue_wait_ms =
      histogram reg ~help:"enqueue-to-dequeue wait (ms)" "queue_wait_ms";
    j_pending = Hashtbl.create 16;
  }

(* Bus sink translating JIT events into the bundle.  Runs under the bus
   lock like every sink, so the pending table needs no extra guard. *)
let jit_sink j =
  (* time-to-peak: wall time from the first JIT event this sink sees to
     the most recent code-cache install — once installs stop arriving the
     gauge freezes at the warmup cost *)
  let t_first = ref nan in
  {
    Obs.sink_name = "metrics";
    sink_emit =
      (fun ~ts ev ->
        if Float.is_nan !t_first then t_first := ts;
        match ev with
        | Obs.Tier_promote _ -> inc j.j_promotions
        | Obs.Compile_end c ->
          inc j.j_compiles;
          observe j.j_compile_ms c.Obs.ci_ms;
          (* a compile on the mutator domain stalls the program for its
             full duration: that IS the pause *)
          if c.Obs.ci_worker = 0 then observe j.j_mutator_pause_ms c.Obs.ci_ms
        | Obs.Compile_enqueue e ->
          inc j.j_enqueues;
          set j.j_queue_depth (float_of_int e.depth);
          Hashtbl.replace j.j_pending e.mid ts
        | Obs.Compile_dequeue e ->
          set j.j_queue_depth (float_of_int e.depth);
          (match Hashtbl.find_opt j.j_pending e.mid with
          | Some t0 ->
            Hashtbl.remove j.j_pending e.mid;
            observe j.j_queue_wait_ms ((ts -. t0) *. 1000.)
          | None -> ())
        | Obs.Compile_blacklist _ -> inc j.j_blacklists
        | Obs.Deopt _ -> inc j.j_deopts
        | Obs.Cache_install e ->
          inc j.j_installs;
          set j.j_cache_occupancy (float_of_int e.occ);
          set j.j_time_to_peak_ms ((ts -. !t_first) *. 1000.)
        | Obs.Cache_evict e ->
          inc j.j_evictions;
          set j.j_cache_occupancy (float_of_int e.occ)
        | Obs.Cache_invalidate e ->
          inc j.j_invalidations;
          set j.j_cache_occupancy (float_of_int e.occ)
        (* a site's quickening and a profile-seeded state are not
           transitions the interpreter observed *)
        | Obs.Ic_transition { cause = Obs.Ic_miss _; _ } ->
          inc j.j_ic_transitions
        | Obs.Devirt_guard_fail _ -> inc j.j_devirt_fails
        | Obs.Osr_entry _ -> inc j.j_osr_entries
        | _ -> ());
    sink_flush = ignore;
  }
