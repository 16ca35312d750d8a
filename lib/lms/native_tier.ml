(* The native tier's builder: one emitted unit ([Native_emit]) becomes a
   loaded kernel.  The unit is written to a private temporary directory,
   built by [ocamlopt -shared] in a child process and loaded with Dynlink;
   its top level registers its maker in [Native_abi], and the maker,
   given an env built from the caller's hooks, gives the entry point.

   - A plugin cannot be unloaded, so one process-wide table keyed by the
     digest of each kernel's source keeps one loaded copy per source:
     every runtime that emits the same source reuses it, and a job whose
     digest is being built waits for that build.  At most [max_plugins]
     builds hold a slot, loaded plugins and failed builds alike, so a
     process runs ocamlopt at most that many times; beyond, a build is
     declined.  Several kernels may share one unit ([compile_all]), which
     takes one slot.
   - The toolchain is found once per process, at the first build:
     [ocamlopt] on [PATH], and the [.cmi]/[.cmx] files of [Native_abi] and
     [Vm] under the [_build/default] directory that holds the running
     executable.  A plugin imports no implementation but [Native_abi]'s.
   - The child is spawned with [Unix.create_process] ([Unix.fork] is not
     allowed in a process that runs more than one domain), and waited for
     by the caller, a background JIT worker.  The caller's cancel cell
     holds the child's pid while it runs; whoever swaps -1 into the cell
     kills that pid (a timed-out [Bgjit.shutdown]), and a build not yet
     spawned never runs.  An [at_exit] hook kills and reaps any child still
     running and removes the directory.
   - Dynlink loads are serialized under one lock.

   Every failure is a decline with a cause ([Error]); the caller keeps the
   code it had. *)

open Vm.Types

let max_plugins = 64

type entry = Building | Loaded of Native_abi.maker | Failed of string

let table : (string, entry) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()
let settled = Condition.create () (* a build finished *)
let load_lock = Mutex.create ()

(* compiler processes spawned, process-wide *)
let compiler_runs = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Child processes and the temporary directory                         *)

let children : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  go ()

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let live_children () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun pid () acc -> pid :: acc) children [])

let kill_children () =
  List.iter
    (fun pid ->
      kill pid;
      ignore (reap pid);
      Mutex.protect lock (fun () -> Hashtbl.remove children pid))
    (live_children ())

let workdir = ref None

let rm_rf dir =
  let remove f = try Sys.remove (Filename.concat dir f) with Sys_error _ -> () in
  (try Array.iter remove (Sys.readdir dir) with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

(* the private directory, made at the first build (caller holds [lock]) *)
let dir () =
  match !workdir with
  | Some d -> d
  | None ->
    let d = Filename.temp_dir "lancet-native" "" in
    workdir := Some d;
    at_exit (fun () ->
        kill_children ();
        Option.iter rm_rf !workdir);
    d

(* ------------------------------------------------------------------ *)
(* The toolchain                                                        *)

type toolchain = { compiler : string; includes : string list }

let override = ref None
let found : (toolchain, string) result option ref = ref None

let on_path name =
  let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
  let dirs = String.split_on_char ':' path in
  List.find_map
    (fun d ->
      let p = Filename.concat (if d = "" then "." else d) name in
      if Sys.file_exists p && not (Sys.is_directory p) then Some p else None)
    dirs

(* the [_build/default] directory above the running executable *)
let build_root () =
  let rec up d =
    if
      Filename.basename d = "default"
      && Filename.basename (Filename.dirname d) = "_build"
    then Some d
    else
      let p = Filename.dirname d in
      if p = d then None else up p
  in
  up (Filename.dirname Sys.executable_name)

let find_toolchain () =
  let compiler =
    match !override with
    | Some p -> if Sys.file_exists p then Ok p else Error ("no compiler at " ^ p)
    | None -> (
      match on_path "ocamlopt" with
      | Some p -> Ok p
      | None -> Error "ocamlopt not found on PATH")
  in
  match compiler with
  | Error e -> Error e
  | Ok compiler -> (
    match build_root () with
    | None -> Error ("no _build/default above " ^ Sys.executable_name)
    | Some root ->
      let dirs =
        List.map (Filename.concat root)
          [
            "lib/native_abi/.native_abi.objs/byte";
            "lib/native_abi/.native_abi.objs/native";
            "lib/vm/.vm.objs/byte";
          ]
      in
      match List.find_opt (fun d -> not (Sys.file_exists d)) dirs with
      | Some d -> Error ("missing " ^ d)
      | None -> Ok { compiler; includes = dirs })

(* caller holds [lock] *)
let toolchain () =
  match !found with
  | Some r -> r
  | None ->
    let r = find_toolchain () in
    found := Some r;
    r

(* Build with [path] in place of the [ocamlopt] found on [PATH] ([None]:
   find it again).  For tests: a missing compiler, one that fails, one
   that stalls. *)
let use_compiler path =
  Mutex.protect lock (fun () ->
      override := path;
      found := None)

(* ------------------------------------------------------------------ *)
(* One build                                                           *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* The compiler's message: its "Error" line, else its first line. *)
let error_text log =
  let lines = List.map String.trim (String.split_on_char '\n' log) in
  match List.find_opt (String.starts_with ~prefix:"Error") lines with
  | Some l -> l
  | None -> Option.value ~default:"" (List.find_opt (( <> ) "") lines)

(* Run the compiler on [ml]; the caller's [pid] cell holds its pid.  With
   [meanwhile], the caller polls for the child's exit and runs
   [meanwhile] between polls; else it blocks. *)
let run_compiler tc ~pid:cell ?meanwhile ~ml ~cmxs ~log () =
  let includes = List.concat_map (fun d -> [ "-I"; d ]) tc.includes in
  let args =
    Array.of_list
      ((tc.compiler :: "-shared" :: "-w" :: "-a" :: includes) @ [ "-o"; cmxs; ml ])
  in
  if Atomic.get cell < 0 then Error "cancelled before the compiler ran"
  else begin
    let out =
      Unix.openfile log
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o600
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    let spawned =
      Mutex.protect lock (fun () ->
          match Unix.create_process tc.compiler args null out out with
          | pid ->
            Hashtbl.replace children pid ();
            Ok pid
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
    in
    Unix.close out;
    Unix.close null;
    match spawned with
    | Error e -> Error ("cannot run " ^ tc.compiler ^ ": " ^ e)
    | Ok pid ->
      Atomic.incr compiler_runs;
      if not (Atomic.compare_and_set cell 0 pid) then kill pid;
      let status =
        match meanwhile with
        | None -> reap pid
        | Some meanwhile ->
          let rec poll () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
              if not (meanwhile ()) then Unix.sleepf 0.001;
              poll ()
            | _, status -> Some status
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
          in
          poll ()
      in
      Mutex.protect lock (fun () -> Hashtbl.remove children pid);
      let cancelled = Atomic.exchange cell 0 < 0 in
      match status with
      | _ when cancelled -> Error "cancelled: compiler killed"
      | Some (Unix.WEXITED 0) -> Ok ()
      | Some (Unix.WEXITED n) ->
        Error
          (Printf.sprintf "ocamlopt exited %d: %s" n (error_text (read_file log)))
      | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "compiler killed by signal %d" s)
      | None -> Error "compiler killed and reaped at exit"
  end

let build tc ~pid ?meanwhile (es : Native_emit.t list) :
    (Native_abi.maker list, string) result =
  let source = Native_emit.unit_source es in
  let name =
    match es with [ e ] -> e.digest | _ -> Digest.to_hex (Digest.string source)
  in
  let d = Mutex.protect lock dir in
  let base = Filename.concat d ("lancet_native_" ^ name) in
  let ml = base ^ ".ml" and cmxs = base ^ ".cmxs" and log = base ^ ".log" in
  Out_channel.with_open_bin ml (fun oc -> output_string oc source);
  let result =
    match run_compiler tc ~pid ?meanwhile ~ml ~cmxs ~log () with
    | Error why -> Error why
    | Ok () ->
      Mutex.protect load_lock (fun () ->
          match Dynlink.loadfile_private cmxs with
          | () -> (
            let find (e : Native_emit.t) = Native_abi.find e.digest in
            match List.filter_map find es with
            | makers when List.length makers = List.length es -> Ok makers
            | _ -> Error "plugin registered no maker")
          | exception Dynlink.Error err ->
            Error ("dynlink: " ^ Dynlink.error_message err))
  in
  List.iter
    (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
    [ ".ml"; ".cmi"; ".cmx"; ".o"; ".cmxs"; ".log" ];
  result

(* Builds that hold a slot of the table, loaded or failed; [max_plugins]
   bounds them.  Caller holds [lock]. *)
let slots = ref 0
let failed_slots = ref 0

(* The makers for [es]: loaded before, being built by another job (wait
   for it), or built now, the missing ones in one unit. *)
let makers ~pid ?meanwhile (es : Native_emit.t list) :
    (Native_abi.maker list, string) result =
  let state (e : Native_emit.t) = Hashtbl.find_opt table e.digest in
  let loaded () =
    List.map (fun e -> match state e with Some (Loaded m) -> m | _ -> assert false) es
  in
  let set entry (es : Native_emit.t list) =
    List.iter (fun (e : Native_emit.t) -> Hashtbl.replace table e.digest entry) es
  in
  let building e = match state e with Some Building -> true | _ -> false in
  let failed e = match state e with Some (Failed why) -> Some why | _ -> None in
  let claim =
    Mutex.protect lock (fun () ->
        let rec look () =
          if List.exists building es then begin
            Condition.wait settled lock;
            look ()
          end
          else
            match List.find_map failed es with
            | Some why -> `Done (Error why)
            | None -> (
              let missing =
                List.sort_uniq
                  (fun (a : Native_emit.t) b -> compare a.digest b.digest)
                  (List.filter (fun e -> Option.is_none (state e)) es)
              in
              if missing = [] then `Done (Ok (loaded ()))
              else
                match toolchain () with
                | Error why -> `Done (Error why)
                | Ok _ when !slots >= max_plugins ->
                  `Done (Error (Printf.sprintf "plugin table full (%d)" max_plugins))
                | Ok tc ->
                  set Building missing;
                  incr slots;
                  `Build (tc, missing))
        in
        look ())
  in
  match claim with
  | `Done r -> r
  | `Build (tc, missing) ->
    let r =
      match build tc ~pid ?meanwhile missing with
      | r -> r
      | exception ex -> Error (Printexc.to_string ex)
    in
    Mutex.protect lock (fun () ->
        (match r with
        | Ok ms ->
          List.iter2
            (fun (e : Native_emit.t) m -> Hashtbl.replace table e.digest (Loaded m))
            missing ms
        | Error why when String.starts_with ~prefix:"cancelled" why ->
          (* a killed build may run again *)
          decr slots;
          List.iter (fun (e : Native_emit.t) -> Hashtbl.remove table e.digest) missing
        | Error why ->
          incr failed_slots;
          set (Failed why) missing);
        Condition.broadcast settled;
        Result.map (fun _ -> loaded ()) r)

let env ~(hooks : Hooks.hooks) ~typed (e : Native_emit.t) : Native_abi.env =
  let rt = hooks.rt in
  {
    Native_abi.consts = e.consts;
    calls =
      Array.map
        (function
          | Native_emit.Call_static m -> (
            match m.mcode with
            | Native (_, fn) -> fun args -> fn rt args
            | Bytecode _ -> hooks.call_static m)
          | Call_virtual name -> hooks.call_virtual name)
        e.calls;
    call_closure = hooks.call_closure;
    news = Array.map (fun cls () -> Obj (Vm.Runtime.alloc rt cls)) e.news;
    get_global = Vm.Runtime.get_global rt;
    set_global = Vm.Runtime.set_global rt;
    exits = Array.map (fun se vals -> hooks.on_exit se vals) e.exits;
    typed;
  }

(* Native code for each [(hooks, typed, g)], calling [typed] on ill-typed
   arguments, built in one unit; or why not.  [pid] holds the compiler's
   pid while it runs; [meanwhile] runs while the caller waits for it. *)
let compile_all ?(pid = Atomic.make 0) ?meanwhile jobs :
    ((value array -> value) list, string) result =
  let rec emit_all acc = function
    | [] -> Ok (List.rev acc)
    | (hooks, typed, g) :: rest -> (
      match Native_emit.emit g with
      | Error why -> Error ("not emitted: " ^ why)
      | Ok e -> emit_all ((hooks, typed, e) :: acc) rest)
  in
  match emit_all [] jobs with
  | Error why -> Error why
  | Ok emitted -> (
    match makers ~pid ?meanwhile (List.map (fun (_, _, e) -> e) emitted) with
    | Error why -> Error why
    | Ok ms ->
      Ok (List.map2 (fun make (hooks, typed, e) -> make (env ~hooks ~typed e)) ms emitted))

let compile ?pid ?meanwhile ~hooks ~typed g =
  Result.map List.hd (compile_all ?pid ?meanwhile [ (hooks, typed, g) ])

(* Free the slots of failed builds and forget their sources, which may
   then build again.  For tests that fill the table with failures. *)
let forget_failures () =
  Mutex.protect lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ e -> match e with Failed _ -> None | e -> Some e)
        table;
      slots := !slots - !failed_slots;
      failed_slots := 0)

(* Slots left in the table. *)
let free_slots () = Mutex.protect lock (fun () -> max_plugins - !slots)
