(* Persistent JIT profiles: warmup snapshots with fingerprint-validated
   replay.

   Every `lancet run` used to start cold: hotness counters, inline-cache
   states and devirt decisions were rebuilt from scratch on each process,
   so time-to-peak was pure waste across restarts.  This module carries
   the learned state over the process boundary as a small, versioned,
   line-oriented text snapshot (".lprof"):

     %lprof 1
     M <cls> <name> <static> <nargs> <calls> <backedges> <tier> <fp>
     I <cls> <meth> <pc> <callee> <argc> <state> <recvs> <hits> <misses>
     D <cls> <meth> <dep1,dep2,...>
     E <record-count>

   Design rules, in order of importance:

   1. Never crash on input: the snapshot is advisory.  A corrupt,
      truncated or version-bumped file degrades to a cold start with a
      single stderr diagnostic.  The trailer count catches truncation.
   2. Symbolic, never numeric identity: methods and IC receivers are
      recorded by (class name, method name, staticness, arity) — cids and
      mids are assigned in load order and do not survive a restart.
      Records that no longer resolve (renamed, vanished, re-signatured)
      are dropped, not guessed at.
   3. Forward compatible: unknown record tags are skipped (they still
      count toward the trailer), so a newer writer's extra records do not
      break an older reader.
   4. Deterministic: all tables are sorted by mid before rendering, so
      two captures of the same state are byte-identical.

   Replay composes with the rest of the engine rather than bypassing it:
   formerly-hot methods go through the ordinary promotion path (the bgjit
   queue when background compilation is on, [Runtime.tier_promote]
   otherwise), so generation stamps, hierarchy epochs and the decision
   journal all see warm compiles as first-class citizens.  After each
   warm compile the freshly staged graph's fingerprint ([Lms.Snapshot],
   reported by the pipeline through [on_fingerprint]) is compared to the
   recorded one: a match journals [Profile_replay], a mismatch journals
   [Profile_stale] — `lancet why` can attribute warm code to the profile
   either way. *)

open Vm.Types

let magic = "%lprof"
let version = 1

(* ------------------------------------------------------------------ *)
(* Snapshot model                                                      *)

type mrec = {
  pm_cls : string;
  pm_name : string;
  pm_static : bool;
  pm_nargs : int;
  pm_calls : int;
  pm_backedges : int;
  pm_tier : [ `Cold | `Compiled | `Blacklisted ];
  pm_fp : string; (* expected installed-code IR fingerprint; "" = none *)
}

type srec = {
  ps_cls : string;
  ps_meth : string;
  ps_pc : int;
  ps_callee : string;
  ps_argc : int;
  ps_state : string; (* "mono" | "poly" | "mega" *)
  ps_recvs : (string * int) list; (* receiver class name, hit count *)
  ps_hits : int;
  ps_misses : int;
}

type drec = { pd_cls : string; pd_meth : string; pd_deps : string list }

type profile = {
  p_src : string;
  p_methods : mrec list;
  p_sites : srec list;
  p_devirt : drec list;
}

let method_count p = List.length p.p_methods
let site_count p = List.length p.p_sites

(* ------------------------------------------------------------------ *)
(* Collector / validator state                                         *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let collecting_flag = ref false

(* writer side: mid -> latest staged fingerprint *)
let fps : (int, string) Hashtbl.t = Hashtbl.create 64

(* replayer side: mid -> fingerprint the snapshot promised *)
let expected : (int, string) Hashtbl.t = Hashtbl.create 64

(* fast-path mirror of [Hashtbl.length expected]: [active] is read on
   every compile, possibly from worker domains, without taking the lock *)
let expectations = ref 0
let replay_source = ref ""
let warm_match_count = ref 0
let warm_stale_count = ref 0
let replayed_count = ref 0

let collect () = collecting_flag := true
let collecting () = !collecting_flag
let active () = !collecting_flag || !expectations > 0
let warm_matches () = locked (fun () -> !warm_match_count)
let warm_stale () = locked (fun () -> !warm_stale_count)
let replayed_methods () = locked (fun () -> !replayed_count)

let reset () =
  locked (fun () ->
      collecting_flag := false;
      Hashtbl.reset fps;
      Hashtbl.reset expected;
      expectations := 0;
      replay_source := "";
      warm_match_count := 0;
      warm_stale_count := 0;
      replayed_count := 0)

let on_fingerprint ~mid ~meth ~fp =
  let verdict =
    locked (fun () ->
        if !collecting_flag then Hashtbl.replace fps mid fp;
        match Hashtbl.find_opt expected mid with
        | None -> None
        | Some want ->
          Hashtbl.remove expected mid;
          expectations := !expectations - 1;
          if String.equal want fp then begin
            incr warm_match_count;
            Some `Match
          end
          else begin
            incr warm_stale_count;
            Some (`Stale want)
          end)
  in
  match verdict with
  | None -> ()
  | Some v ->
    if !Obs.enabled then
      Obs.emit
        (Obs.Ir_fingerprint
           {
             meth;
             mid;
             phase = "profile-replay";
             fp;
             cause =
               (match v with
               | `Match -> Obs.Profile_replay { src = !replay_source }
               | `Stale want -> Obs.Profile_stale { expected = want; found = fp });
           })

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

let tier_tag (m : meth) =
  match m.mtier with
  | Tier_compiled _ | Tier_compiling -> `Compiled
  | Tier_blacklisted -> `Blacklisted
  | Tier_cold -> `Cold

let capture rt =
  let fp_snapshot = locked (fun () -> Hashtbl.copy fps) in
  let methods = ref [] in
  Hashtbl.iter
    (fun _ (c : cls) ->
      List.iter
        (fun (m : meth) ->
          match m.mcode with
          | Native _ -> ()
          | Bytecode _ ->
            let fp =
              Option.value ~default:"" (Hashtbl.find_opt fp_snapshot m.mid)
            in
            let tier = tier_tag m in
            if m.mcalls + m.mbackedges > 0 || tier <> `Cold || fp <> "" then
              methods :=
                ( m.mid,
                  {
                    pm_cls = m.mowner.cname;
                    pm_name = m.mname;
                    pm_static = m.mstatic;
                    pm_nargs = m.mnargs;
                    pm_calls = m.mcalls;
                    pm_backedges = m.mbackedges;
                    pm_tier = tier;
                    pm_fp = fp;
                  } )
                :: !methods)
        c.cmethods)
    rt.classes;
  let methods =
    List.map snd
      (List.sort (fun (a, _) (b, _) -> compare a b) !methods)
  in
  let sites =
    Hashtbl.fold (fun _ s acc -> s :: acc) rt.ic_sites []
    |> List.sort (fun a b -> compare (a.cs_mid, a.cs_pc) (b.cs_mid, b.cs_pc))
    |> List.filter_map (fun s ->
           match (Vm.Runtime.find_method_by_id rt s.cs_mid, s.cs_state) with
           | None, _ | _, Ic_empty -> None
           | Some m, st ->
             let state, recvs =
               match st with
               | Ic_empty -> assert false
               | Ic_mono e -> ("mono", [ (e.ice_cls.cname, e.ice_count) ])
               | Ic_poly es ->
                 ( "poly",
                   Array.to_list
                     (Array.map (fun e -> (e.ice_cls.cname, e.ice_count)) es)
                 )
               | Ic_mega -> ("mega", [])
             in
             Some
               {
                 ps_cls = m.mowner.cname;
                 ps_meth = m.mname;
                 ps_pc = s.cs_pc;
                 ps_callee = s.cs_name;
                 ps_argc = s.cs_argc;
                 ps_state = state;
                 ps_recvs = recvs;
                 ps_hits = s.cs_hits;
                 ps_misses = s.cs_misses;
               })
  in
  (* invert name -> dependent methods into per-method dependency lists
     (guarded by [t_lock]: workers append under the same lock) *)
  let devirt =
    Vm.Runtime.with_tier_lock rt (fun () ->
        let per_mid : (int, meth * string list ref) Hashtbl.t =
          Hashtbl.create 8
        in
        Hashtbl.iter
          (fun name bucket ->
            List.iter
              (fun (m : meth) ->
                let deps =
                  match Hashtbl.find_opt per_mid m.mid with
                  | Some (_, r) -> r
                  | None ->
                    let r = ref [] in
                    Hashtbl.replace per_mid m.mid (m, r);
                    r
                in
                deps := name :: !deps)
              !bucket)
          rt.tiering.t_devirt_deps;
        Hashtbl.fold
          (fun mid (m, deps) acc ->
            ( mid,
              {
                pd_cls = m.mowner.cname;
                pd_meth = m.mname;
                pd_deps = List.sort_uniq compare !deps;
              } )
            :: acc)
          per_mid []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd)
  in
  { p_src = ""; p_methods = methods; p_sites = sites; p_devirt = devirt }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let tier_to_string = function
  | `Cold -> "cold"
  | `Compiled -> "compiled"
  | `Blacklisted -> "blacklisted"

let recvs_to_string = function
  | [] -> "-"
  | rs ->
    String.concat ","
      (List.map (fun (c, n) -> Printf.sprintf "%s*%d" c n) rs)

let to_string p =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s %d\n" magic version;
  let n = ref 0 in
  let record fmt = incr n; Printf.bprintf b fmt in
  List.iter
    (fun r ->
      record "M %s %s %d %d %d %d %s %s\n" r.pm_cls r.pm_name
        (if r.pm_static then 1 else 0)
        r.pm_nargs r.pm_calls r.pm_backedges
        (tier_to_string r.pm_tier)
        (if r.pm_fp = "" then "-" else r.pm_fp))
    p.p_methods;
  List.iter
    (fun s ->
      record "I %s %s %d %s %d %s %s %d %d\n" s.ps_cls s.ps_meth s.ps_pc
        s.ps_callee s.ps_argc s.ps_state
        (recvs_to_string s.ps_recvs)
        s.ps_hits s.ps_misses)
    p.p_sites;
  List.iter
    (fun d ->
      record "D %s %s %s\n" d.pd_cls d.pd_meth (String.concat "," d.pd_deps))
    p.p_devirt;
  Printf.bprintf b "E %d\n" !n;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let parse_recvs s =
  if String.equal s "-" then Some []
  else
    let parts = String.split_on_char ',' s in
    let entry p =
      match String.index_opt p '*' with
      | None -> if p = "" then None else Some (p, 1)
      | Some i -> (
        let cls = String.sub p 0 i in
        let count = String.sub p (i + 1) (String.length p - i - 1) in
        if cls = "" then None
        else
          match int_of_string_opt count with
          | Some n -> Some (cls, n)
          | None -> None)
    in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
        match entry p with Some e -> go (e :: acc) rest | None -> None)
    in
    go [] parts

let of_string ?(src = "<string>") s : (profile, string) result =
  let err fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "%s: %s" src m)) fmt
  in
  match String.split_on_char '\n' s with
  | [] -> err "empty profile"
  | header :: body -> (
    let header_ok =
      match String.split_on_char ' ' (String.trim header) with
      | [ m; v ] when String.equal m magic -> (
        match int_of_string_opt v with
        | Some v when v = version -> Ok ()
        | Some v ->
          err "unsupported profile version %d (this build reads %d)" v version
        | None -> err "malformed version header")
      | _ -> err "not a lancet profile (bad magic)"
    in
    match header_ok with
    | Error e -> Error e
    | Ok () ->
      let methods = ref [] and sites = ref [] and devirt = ref [] in
      let count = ref 0 and finished = ref false in
      let int_ what v k =
        match int_of_string_opt v with
        | Some n -> k n
        | None -> err "malformed %s record (bad %s)" what v
      in
      let rec go lineno = function
        | [] ->
          if !finished then
            Ok
              {
                p_src = src;
                p_methods = List.rev !methods;
                p_sites = List.rev !sites;
                p_devirt = List.rev !devirt;
              }
          else err "truncated profile (missing end record)"
        | line :: rest -> (
          let line = String.trim line in
          if line = "" || line.[0] = '#' then go (lineno + 1) rest
          else if !finished then err "trailing data after end record"
          else
            let fields =
              List.filter (fun t -> t <> "") (String.split_on_char ' ' line)
            in
            let step () = go (lineno + 1) rest in
            match fields with
            | [ "M"; cls; name; st; nargs; calls; backedges; tier; fp ] ->
              let tier_of = function
                | "cold" -> Some `Cold
                | "compiled" -> Some `Compiled
                | "blacklisted" -> Some `Blacklisted
                | _ -> None
              in
              (match (tier_of tier, st) with
              | None, _ -> err "malformed method record (line %d)" lineno
              | Some t, ("0" | "1") ->
                int_ "method" nargs (fun nargs ->
                    int_ "method" calls (fun calls ->
                        int_ "method" backedges (fun backedges ->
                            incr count;
                            methods :=
                              {
                                pm_cls = cls;
                                pm_name = name;
                                pm_static = st = "1";
                                pm_nargs = nargs;
                                pm_calls = calls;
                                pm_backedges = backedges;
                                pm_tier = t;
                                pm_fp = (if fp = "-" then "" else fp);
                              }
                              :: !methods;
                            step ())))
              | Some _, _ -> err "malformed method record (line %d)" lineno)
            | [ "I"; cls; meth; pc; callee; argc; state; recvs; hits; misses ]
              -> (
              match
                (parse_recvs recvs, List.mem state [ "mono"; "poly"; "mega" ])
              with
              | None, _ | _, false ->
                err "malformed ic-site record (line %d)" lineno
              | Some recvs, true ->
                int_ "ic-site" pc (fun pc ->
                    int_ "ic-site" argc (fun argc ->
                        int_ "ic-site" hits (fun hits ->
                            int_ "ic-site" misses (fun misses ->
                                incr count;
                                sites :=
                                  {
                                    ps_cls = cls;
                                    ps_meth = meth;
                                    ps_pc = pc;
                                    ps_callee = callee;
                                    ps_argc = argc;
                                    ps_state = state;
                                    ps_recvs = recvs;
                                    ps_hits = hits;
                                    ps_misses = misses;
                                  }
                                  :: !sites;
                                step ())))))
            | [ "D"; cls; meth; deps ] ->
              let deps =
                List.filter (fun d -> d <> "") (String.split_on_char ',' deps)
              in
              incr count;
              devirt := { pd_cls = cls; pd_meth = meth; pd_deps = deps } :: !devirt;
              step ()
            | [ "E"; n ] ->
              int_ "end" n (fun n ->
                  if n = !count then begin
                    finished := true;
                    step ()
                  end
                  else
                    err
                      "record count mismatch: trailer says %d, read %d \
                       (truncated?)"
                      n !count)
            | ("M" | "I" | "D" | "E") :: _ ->
              err "malformed record (line %d)" lineno
            | _ :: _ ->
              (* unknown record tag: a newer writer's extension — skip it,
                 but it still counts toward the trailer *)
              incr count;
              step ()
            | [] -> step ())
      in
      go 2 body)

(* ------------------------------------------------------------------ *)
(* File I/O                                                            *)

(* Atomic: write to a sibling temp file and [Sys.rename] into place, so a
   crash mid-write (or an injected [profile_truncate] fault) can never leave
   a truncated profile under [path] — at worst the temp file holds debris
   and the previous snapshot survives intact. *)
let save rt path =
  let s = to_string (capture rt) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     if !Chaos.on && Chaos.fire Chaos.profile_truncate then begin
       (* simulated crash mid-write: half the bytes land in the temp file,
          which is left behind; the rename below must never happen *)
       output_string oc (String.sub s 0 (String.length s / 2));
       close_out_noerr oc;
       raise (Sys_error (tmp ^ ": chaos: profile write killed mid-write"))
     end;
     let s =
       if !Chaos.on && Chaos.fire Chaos.profile_corrupt then
         (* clobber the header so the loader must degrade to a cold start *)
         String.mapi (fun i c -> if i < 8 then '#' else c) s
       else s
     in
     output_string oc s;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

let load path : profile option =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
    Printf.eprintf "[profile] cold start: cannot read %s (%s)\n%!" path e;
    None
  | s -> (
    match of_string ~src:path s with
    | Ok p -> Some p
    | Error e ->
      Printf.eprintf "[profile] cold start: %s\n%!" e;
      None)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay_stats = {
  mutable rs_methods : int;
  mutable rs_sites : int;
  mutable rs_enqueued : int;
  mutable rs_blacklisted : int;
  mutable rs_dropped : int;
}

let replay rt (p : profile) =
  let st =
    {
      rs_methods = 0;
      rs_sites = 0;
      rs_enqueued = 0;
      rs_blacklisted = 0;
      rs_dropped = 0;
    }
  in
  locked (fun () -> replay_source := p.p_src);
  (* every method name resolvable in the fresh classfile; devirt
     dependencies naming anything outside this set mean the profile
     speculated on code that no longer exists *)
  let known_names : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (c : cls) ->
      List.iter
        (fun (m : meth) -> Hashtbl.replace known_names m.mname ())
        c.cmethods)
    rt.classes;
  let dep_tbl : (string * string, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun d -> Hashtbl.replace dep_tbl (d.pd_cls, d.pd_meth) d.pd_deps)
    p.p_devirt;
  (* pass 1: resolve method symbols, seed counters, restore the blacklist,
     collect warm-compile candidates *)
  let warm = ref [] in
  List.iter
    (fun r ->
      match
        Vm.Classfile.resolve_symbol rt ~cls:r.pm_cls ~name:r.pm_name
          ~static:r.pm_static ~nargs:r.pm_nargs
      with
      | None -> st.rs_dropped <- st.rs_dropped + 1
      | Some m -> (
        st.rs_methods <- st.rs_methods + 1;
        m.mcalls <- max m.mcalls r.pm_calls;
        m.mbackedges <- max m.mbackedges r.pm_backedges;
        match r.pm_tier with
        | `Cold -> ()
        | `Blacklisted -> (
          match m.mtier with
          | Tier_cold ->
            m.mtier <- Tier_blacklisted;
            st.rs_blacklisted <- st.rs_blacklisted + 1
          | _ -> ())
        | `Compiled ->
          let deps_ok =
            match Hashtbl.find_opt dep_tbl (r.pm_cls, r.pm_name) with
            | None -> true
            | Some deps -> List.for_all (Hashtbl.mem known_names) deps
          in
          if deps_ok then begin
            if r.pm_fp <> "" then
              locked (fun () ->
                  if not (Hashtbl.mem expected m.mid) then incr expectations;
                  Hashtbl.replace expected m.mid r.pm_fp);
            warm := m :: !warm
          end
          else begin
            (* installed code speculated on a method that vanished: the
               record is stale, keep the method cold *)
            st.rs_dropped <- st.rs_dropped + 1;
            if !Obs.enabled then
              Obs.emit
                (Obs.Compile_drop
                   {
                     meth = Vm.Runtime.meth_label m;
                     mid = m.mid;
                     cause =
                       Obs.Profile_stale
                         { expected = "devirt deps"; found = "vanished symbol" };
                   })
          end))
    p.p_methods;
  locked (fun () -> replayed_count := st.rs_methods);
  (* pass 2: pre-quicken IC sites whose bytecode still matches, exactly as
     the interpreter would have ([Interp] rewrites Virtual -> Virtual_ic
     at the same pc), so warm compiles see the recorded receiver profile *)
  if rt.ic_enabled then
    List.iter
      (fun s ->
        let resolved =
          match Vm.Classfile.find_class_opt rt s.ps_cls with
          | None -> None
          | Some c -> Vm.Classfile.own_method_opt c s.ps_meth
        in
        match resolved with
        | None -> st.rs_dropped <- st.rs_dropped + 1
        | Some m -> (
          match m.mcode with
          | Native _ -> st.rs_dropped <- st.rs_dropped + 1
          | Bytecode code ->
            if s.ps_pc < 0 || s.ps_pc >= Array.length code then
              st.rs_dropped <- st.rs_dropped + 1
            else (
              match code.(s.ps_pc) with
              | Invoke (Virtual (name, argc, hint))
                when String.equal name s.ps_callee && argc = s.ps_argc ->
                let site =
                  Vm.Inlinecache.make_site rt ~mid:m.mid ~pc:s.ps_pc ~name
                    ~argc ~hint
                in
                let entries =
                  List.filter_map
                    (fun (cn, count) ->
                      match Vm.Classfile.find_class_opt rt cn with
                      | None -> None
                      | Some c -> (
                        match Vm.Classfile.resolve_virtual_opt c s.ps_callee with
                        | None -> None
                        | Some callee ->
                          Some
                            {
                              ice_cls = c;
                              ice_meth = callee;
                              ice_count = max 1 count;
                            }))
                    s.ps_recvs
                in
                (match (s.ps_state, entries) with
                | "mega", _ -> site.cs_state <- Ic_mega
                | _, [] -> () (* no receiver survived: leave it empty *)
                | _, [ e ] -> site.cs_state <- Ic_mono e
                | _, es ->
                  let es = Array.of_list es in
                  let es =
                    if Array.length es > Vm.Inlinecache.poly_limit then
                      Array.sub es 0 Vm.Inlinecache.poly_limit
                    else es
                  in
                  site.cs_state <- Ic_poly es);
                site.cs_hits <- s.ps_hits;
                site.cs_misses <- s.ps_misses;
                code.(s.ps_pc) <- Invoke (Virtual_ic site);
                st.rs_sites <- st.rs_sites + 1;
                if !Obs.enabled then
                  Obs.emit
                    (Obs.Ic_transition
                       {
                         meth = Vm.Runtime.meth_label m;
                         mid = m.mid;
                         pc = s.ps_pc;
                         line = Vm.Runtime.line_at m s.ps_pc;
                         callee = s.ps_callee;
                         from_state = "empty";
                         to_state = s.ps_state;
                         cause = Obs.Profile_replay { src = p.p_src };
                       })
              | Invoke (Virtual_ic _) -> () (* already quickened *)
              | _ -> st.rs_dropped <- st.rs_dropped + 1)))
      p.p_sites;
  (* pass 3: promote formerly-compiled methods before the mutator starts,
     through the promotion hook: it compiles at once, or enqueues for the
     background pool when one is installed *)
  if rt.tiering.t_enabled && rt.jit_hook <> None then
    List.iter
      (fun (m : meth) ->
        if m.mtier = Tier_cold then begin
          ignore (Vm.Runtime.tier_promote rt m);
          match m.mtier with
          | Tier_compiling | Tier_compiled _ -> st.rs_enqueued <- st.rs_enqueued + 1
          | Tier_cold | Tier_blacklisted -> ()
        end)
      (List.rev !warm);
  st

let replay_file rt path =
  match load path with
  | None -> None
  | Some p -> Some (replay rt p)

(* ------------------------------------------------------------------ *)
(* Exit-time writer                                                    *)

let writer_paths : (string, unit) Hashtbl.t = Hashtbl.create 4

let register_writer rt path =
  let fresh =
    locked (fun () ->
        if Hashtbl.mem writer_paths path then false
        else begin
          Hashtbl.replace writer_paths path ();
          true
        end)
  in
  if fresh then begin
    Obs.add_flusher (fun () ->
        try save rt path
        with Sys_error e ->
          Printf.eprintf "[profile] write failed: %s\n%!" e);
    Obs.arm_exit_flush ()
  end
