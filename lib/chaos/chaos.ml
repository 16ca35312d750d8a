(* Deterministic, seeded fault injection for the JIT control paths.

   The engine's resilience story (generation-stamp discards, bounded
   queues, blacklisting, bounded shutdown) is only as credible as the
   failures it has been shown to survive, so this module turns "a worker
   crashed mid compile" / "the queue saturated" / "the profile write was
   killed" into reproducible schedules: a registry of *named injection
   sites* threaded through the hot control paths, armed from a spec
   string such as

       compile_crash:p=0.1,compile_stall:ms=50,seed=42

   Design constraints match the other always-compiled checkpoints
   ([Obs.enabled], [Irtrace.on]):

   1. Disabled cost is a single load+branch: every site is guarded as
      `if !Chaos.on && Chaos.fire Chaos.some_site then ...` and [on] starts
      false.  The overhead gate runs in `bench/main.exe check`.
   2. Determinism: each site draws from its own splitmix64 stream, seeded
      from the global seed mixed with the site name, so arming one site
      never perturbs another's schedule and a (seed, spec) pair replays
      the same per-site outcome sequence.  (With several worker domains
      the interleaving of *which method* meets which outcome still depends
      on scheduling; the per-site outcome sequence does not.)
   3. No dependencies upward: the module knows nothing about the VM — call
      sites decide what a fired fault means (raise, stall, drop, corrupt)
      and report it on the event bus themselves. *)

type site = {
  s_name : string;
  s_doc : string;
  mutable s_armed : bool;
  mutable s_p : float; (* fire probability per draw (when [s_n] = 0) *)
  mutable s_ms : int; (* duration parameter (stalls), milliseconds *)
  mutable s_n : int; (* when > 0: fire deterministically every nth draw *)
  mutable s_state : int64; (* splitmix64 stream, seeded per site *)
  mutable s_draws : int;
  mutable s_fires : int;
}

(* THE fast-path flag: sites read it before anything else. *)
let on = ref false

(* One leaf lock for all site state: draws happen on mutator and worker
   domains alike, and fires are rare enough that contention is noise. *)
let lock = Mutex.create ()

let registry : site list ref = ref []

let mk name doc =
  let s =
    {
      s_name = name;
      s_doc = doc;
      s_armed = false;
      s_p = 0.0;
      s_ms = 0;
      s_n = 0;
      s_state = 0L;
      s_draws = 0;
      s_fires = 0;
    }
  in
  registry := s :: !registry;
  s

(* The injection sites, in the order a compile travels. *)
let compile_crash =
  mk "compile_crash" "background compile raises on the worker"

let compile_stall =
  mk "compile_stall" "background compile stalls for ms=N milliseconds"

let compile_garbage =
  mk "compile_garbage"
    "compile result is garbage; the generation check must discard it"

let queue_full = mk "queue_full" "compile queue reports saturation"

let cache_evict =
  mk "cache_evict" "code cache evicts its oldest entry on install"

let profile_truncate =
  mk "profile_truncate" "profile write killed midway (truncated bytes)"

let profile_corrupt =
  mk "profile_corrupt" "profile bytes corrupted before the write"

let hier_churn =
  mk "hier_churn" "interpreter-visible class-hierarchy churn on invoke"

(* ------------------------------------------------------------------ *)
(* Seeded randomness: splitmix64, one independent stream per site       *)

let splitmix64 st =
  let z = Int64.add !st 0x9E3779B97F4A7C15L in
  st := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let next_float st =
  let bits = Int64.shift_right_logical (splitmix64 st) 11 in
  Int64.to_float bits /. 9007199254740992.0

let site_seed ~seed name =
  let h = Hashtbl.hash name in
  let st = ref (Int64.logxor (Int64.of_int seed) (Int64.of_int (h * 0x9E3779B9))) in
  ignore (splitmix64 st);
  !st

let current_seed = ref 0
let current_spec = ref ""

(* ------------------------------------------------------------------ *)
(* Drawing                                                             *)

(* Should this armed site fire now?  Callers guard with [!on] first, so
   the disabled cost never reaches here. *)
let fire (s : site) =
  if not s.s_armed then false
  else begin
    Mutex.lock lock;
    s.s_draws <- s.s_draws + 1;
    let hit =
      if s.s_n > 0 then s.s_draws mod s.s_n = 0
      else
        let st = ref s.s_state in
        let u = next_float st in
        s.s_state <- !st;
        u < s.s_p
    in
    if hit then s.s_fires <- s.s_fires + 1;
    Mutex.unlock lock;
    hit
  end

let ms (s : site) = s.s_ms
let param_n (s : site) = s.s_n
let site_name (s : site) = s.s_name

let sleep_ms n = if n > 0 then Unix.sleepf (float_of_int n /. 1000.)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let reset_sites () =
  List.iter
    (fun s ->
      s.s_armed <- false;
      s.s_p <- 0.0;
      s.s_ms <- 0;
      s.s_n <- 0;
      s.s_state <- 0L;
      s.s_draws <- 0;
      s.s_fires <- 0)
    !registry

let disable () =
  on := false;
  Mutex.lock lock;
  reset_sites ();
  current_spec := "";
  Mutex.unlock lock

let find_site name = List.find_opt (fun s -> s.s_name = name) !registry

let known_sites () =
  List.sort compare (List.map (fun s -> s.s_name) !registry)

(* [(name, doc)] of every site, for `--chaos help`-style listings. *)
let describe () =
  List.sort compare (List.map (fun s -> (s.s_name, s.s_doc)) !registry)

(* Parse and arm a spec string: comma-separated entries, each either the
   global [seed=N] or [site[:k=v]*] with k in {p, ms, n}.  A site named
   with no parameters fires on every draw (p defaults to 1). *)
let configure spec =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let entries =
    List.filter
      (fun e -> String.trim e <> "")
      (String.split_on_char ',' spec)
  in
  if entries = [] then err "empty chaos spec"
  else begin
    Mutex.lock lock;
    reset_sites ();
    let seed = ref 42 in
    let armed = ref [] in
    let parse_entry e =
      match String.split_on_char ':' (String.trim e) with
      | [] -> err "empty chaos entry"
      | name :: params -> (
        match String.index_opt name '=' with
        | Some _ -> (
          (* a bare k=v entry: only the global seed lives here *)
          match String.split_on_char '=' name with
          | [ "seed"; v ] -> (
            match int_of_string_opt v with
            | Some n when params = [] ->
              seed := n;
              Ok ()
            | _ -> err "chaos: bad seed %S" name)
          | _ -> err "chaos: unknown setting %S" name)
        | None -> (
          match find_site name with
          | None ->
            err "chaos: unknown site %S (known: %s)" name
              (String.concat ", " (known_sites ()))
          | Some s ->
            s.s_armed <- true;
            s.s_p <- 1.0;
            let rec go = function
              | [] ->
                armed := s :: !armed;
                Ok ()
              | p :: rest -> (
                match String.split_on_char '=' p with
                | [ "p"; v ] -> (
                  match float_of_string_opt v with
                  | Some f when f >= 0.0 && f <= 1.0 ->
                    s.s_p <- f;
                    go rest
                  | _ -> err "chaos: %s: bad probability %S" name v)
                | [ "ms"; v ] -> (
                  match int_of_string_opt v with
                  | Some n when n >= 0 ->
                    s.s_ms <- n;
                    go rest
                  | _ -> err "chaos: %s: bad ms %S" name v)
                | [ "n"; v ] -> (
                  match int_of_string_opt v with
                  | Some n when n > 0 ->
                    s.s_n <- n;
                    go rest
                  | _ -> err "chaos: %s: bad n %S" name v)
                | _ -> err "chaos: %s: unknown parameter %S" name p)
            in
            go params))
    in
    let rec all = function
      | [] -> Ok ()
      | e :: rest -> ( match parse_entry e with Ok () -> all rest | Error _ as r -> r)
    in
    match all entries with
    | Error _ as r ->
      reset_sites ();
      Mutex.unlock lock;
      r
    | Ok () ->
      current_seed := !seed;
      current_spec := spec;
      List.iter (fun s -> s.s_state <- site_seed ~seed:!seed s.s_name) !armed;
      Mutex.unlock lock;
      on := true;
      Ok ()
  end

let seed () = !current_seed
let spec () = !current_spec

(* [(name, draws, fires)] for every armed site, stable order. *)
let stats () =
  Mutex.lock lock;
  let l =
    List.filter_map
      (fun s ->
        if s.s_armed || s.s_draws > 0 then Some (s.s_name, s.s_draws, s.s_fires)
        else None)
      !registry
  in
  Mutex.unlock lock;
  List.sort compare l

let stats_string () =
  String.concat " "
    (List.map (fun (n, d, f) -> Printf.sprintf "%s=%d/%d" n f d) (stats ()))
