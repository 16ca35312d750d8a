(* Class and method construction, dispatch-table resolution, lookups. *)

open Types

let find_class rt name =
  match Hashtbl.find_opt rt.classes name with
  | Some c -> c
  | None -> vm_error "unknown class %s" name

let find_class_opt rt name = Hashtbl.find_opt rt.classes name

(* Fields of [cls] are flattened with inherited fields first, so a field
   index valid for a superclass is valid for every subclass. *)
let declare_class rt ~name ?super ?(flags = []) ~fields () =
  if Hashtbl.mem rt.classes name then vm_error "class %s redeclared" name;
  let super_cls = Option.map (find_class rt) super in
  let inherited =
    match super_cls with None -> [||] | Some s -> s.cfields
  in
  let base = Array.length inherited in
  let own =
    Array.of_list
      (List.mapi
         (fun i (fname, ffinal) ->
           { fowner = name; fname; fidx = base + i; ffinal })
         fields)
  in
  let cls =
    {
      cid = rt.next_cid;
      cname = name;
      csuper = super_cls;
      cfields = Array.append inherited own;
      cmethods = [];
      cvtable = Hashtbl.create 8;
      cflags =
        (flags
        @ match super_cls with Some s -> s.cflags | None -> []);
    }
  in
  rt.next_cid <- rt.next_cid + 1;
  Hashtbl.replace rt.classes name cls;
  cls

let field cls name =
  let n = Array.length cls.cfields in
  let rec go i =
    if i >= n then vm_error "class %s has no field %s" cls.cname name
    else if String.equal cls.cfields.(i).fname name then cls.cfields.(i)
    else go (i + 1)
  in
  go 0

(* Gate for the resolution memoization below; `bench/main.exe check` flips
   it off (together with [rt.ic_enabled]) to run the unmemoized
   superclass-chain walk. *)
let cha_memo = ref true

let add_method rt cls ~name ?(static = false) ~nargs code =
  let nlocals = nargs + (if static then 0 else 1) in
  let m =
    {
      mid = rt.next_mid;
      mname = name;
      mowner = cls;
      mstatic = static;
      mnargs = nargs;
      mnlocals = nlocals;
      mmaxstack = 8;
      mcode = code;
      mlines = [||];
      msrc = "";
      mcalls = 0;
      mbackedges = 0;
      mtier = Tier_cold;
    }
  in
  rt.next_mid <- rt.next_mid + 1;
  cls.cmethods <- m :: cls.cmethods;
  if not static then begin
    Hashtbl.replace cls.cvtable name m;
    (* The (re)definition changes what [name] resolves to at and below
       [cls]: drop memoized inherited bindings for the name (they lazily
       re-resolve), then fan out to the runtime — flush inline caches,
       CHA answers and compiled code speculating on the old receiver set. *)
    Hashtbl.iter
      (fun _ c ->
        if c != cls then
          match Hashtbl.find_opt c.cvtable name with
          | Some m' when m'.mowner != c -> Hashtbl.remove c.cvtable name
          | _ -> ())
      rt.classes;
    Runtime.hierarchy_changed rt ~name
  end;
  m

let add_native rt cls ~name ?(static = false) ~nargs fn =
  add_method rt cls ~name ~static ~nargs (Native (cls.cname ^ "." ^ name, fn))

(* Virtual lookup: own dispatch table first, then the superclass chain (the
   chain is walked lazily so that methods may be added to a superclass after
   subclasses were declared).  A successful chain walk is memoized into the
   starting class's own table so later lookups are a single probe; memoized
   (inherited) bindings are recognizable by [mowner != cls] and are purged
   by [add_method].  Writes happen only on the main domain — a JIT worker
   resolving during compilation must not mutate tables the mutator reads. *)
let rec resolve_virtual_opt cls name =
  match Hashtbl.find_opt cls.cvtable name with
  | Some m -> Some m
  | None -> (
    match cls.csuper with
    | Some s -> (
      match resolve_virtual_opt s name with
      | Some m as r ->
        if !cha_memo && Domain.is_main_domain () then
          Hashtbl.replace cls.cvtable name m;
        r
      | None -> None)
    | None -> None)

let resolve_virtual cls name =
  match resolve_virtual_opt cls name with
  | Some m -> m
  | None -> vm_error "class %s has no virtual method %s" cls.cname name

(* Lookup of a method declared directly on [cls] (static or not). *)
let own_method cls name =
  match List.find_opt (fun m -> String.equal m.mname name) cls.cmethods with
  | Some m -> m
  | None -> vm_error "class %s has no method %s" cls.cname name

let own_method_opt cls name =
  List.find_opt (fun m -> String.equal m.mname name) cls.cmethods

let static_method rt ~cls ~name = own_method (find_class rt cls) name

(* Symbolic method resolution, used by the profile replayer: a method
   recorded in a snapshot by (class name, method name) resolves against
   the freshly loaded classfile only when its shape still matches — same
   staticness and arity.  Renamed, vanished or re-signatured methods
   return [None] so the caller can drop the stale record instead of
   seeding state onto the wrong code. *)
let resolve_symbol rt ~cls ~name ~static ~nargs =
  match find_class_opt rt cls with
  | None -> None
  | Some c -> (
    match own_method_opt c name with
    | Some m when m.mstatic = static && m.mnargs = nargs -> Some m
    | Some _ | None -> None)

let is_subclass sub super =
  let rec go c =
    c.cid = super.cid || match c.csuper with Some s -> go s | None -> false
  in
  go sub

(* Class-hierarchy analysis: no strict subclass of [cls] (re)defines
   [name], so a virtual call on a receiver statically typed [cls] always
   resolves to [resolve_virtual cls name].  The full class-table scan is
   memoized per (cid, name) in [rt.cha_cache] — compile-time CHA was
   quadratic during warm-up — and reset by [Runtime.hierarchy_changed].
   Queries arrive from background JIT workers, hence the lock. *)
let no_override_below rt cls name =
  let key = (cls.cid, name) in
  Runtime.with_tier_lock rt (fun () ->
      match Hashtbl.find_opt rt.cha_cache key with
      | Some ans -> ans
      | None ->
        let overridden = ref false in
        Hashtbl.iter
          (fun _ c ->
            if c.cid <> cls.cid && is_subclass c cls then
              if List.exists (fun m -> String.equal m.mname name) c.cmethods
              then overridden := true)
          rt.classes;
        let ans = not !overridden in
        if !cha_memo then Hashtbl.replace rt.cha_cache key ans;
        ans)
