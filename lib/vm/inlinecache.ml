(* Per-call-site inline caches for invokevirtual, driven by bytecode
   quickening: the interpreter rewrites each [Invoke (Virtual ...)] into
   [Invoke (Virtual_ic site)] on first execution and from then on dispatch
   is a pointer compare against the cached receiver class instead of a
   superclass hashtable-chain walk.  A site monotonically degrades
   mono -> poly (up to [poly_limit] entries) -> mega; a hierarchy mutation
   ([Classfile.add_method]) resets affected sites to empty via
   [Runtime.hierarchy_changed].  The per-entry hit counts double as the
   receiver-type profile the JIT's speculative devirtualizer consumes. *)

open Types

let poly_limit = 4

let state_name = function
  | Ic_empty -> "empty"
  | Ic_mono _ -> "mono"
  | Ic_poly _ -> "poly"
  | Ic_mega -> "mega"

(* "mono:Cls" / "poly:{A,B}" / "mega" — for disassembly and explain. *)
let state_string site =
  match site.cs_state with
  | Ic_empty -> "empty"
  | Ic_mono e -> "mono:" ^ e.ice_cls.cname
  | Ic_poly es ->
    "poly:{"
    ^ String.concat ","
        (Array.to_list (Array.map (fun e -> e.ice_cls.cname) es))
    ^ "}"
  | Ic_mega -> "mega"

let site_of rt ~mid ~pc = Hashtbl.find_opt rt.ic_sites (mid, pc)

(* Per-site table for `lancet run --stats` and test goldens: one row per
   quickened site, sorted by (mid, pc) so the output is byte-diff-stable
   across runs regardless of hashtable iteration order. *)
let site_table rt =
  let sites = Hashtbl.fold (fun _ s acc -> s :: acc) rt.ic_sites [] in
  let sites =
    List.sort (fun a b -> compare (a.cs_mid, a.cs_pc) (b.cs_mid, b.cs_pc)) sites
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-5s %-5s %-24s %-14s %-28s %8s %8s\n" "mid" "pc"
       "method" "callee" "state" "hits" "misses");
  List.iter
    (fun s ->
      let label =
        match Runtime.find_method_by_id rt s.cs_mid with
        | Some m -> Runtime.meth_label m
        | None -> Printf.sprintf "mid:%d" s.cs_mid
      in
      Buffer.add_string b
        (Printf.sprintf "%-5d %-5d %-24s %-14s %-28s %8d %8d\n" s.cs_mid
           s.cs_pc label s.cs_name (state_string s) s.cs_hits s.cs_misses))
    sites;
  Buffer.contents b

let make_site rt ~mid ~pc ~name ~argc ~hint =
  let site =
    {
      cs_mid = mid;
      cs_pc = pc;
      cs_name = name;
      cs_argc = argc;
      cs_hint = hint;
      cs_state = Ic_empty;
      cs_hits = 0;
      cs_misses = 0;
    }
  in
  Hashtbl.replace rt.ic_sites (mid, pc) site;
  site

let transition ~cause (fmeth : meth) site to_state =
  let from_state = state_name site.cs_state in
  site.cs_state <- to_state;
  if !Obs.enabled then
    Obs.emit
      (Obs.Ic_transition
         {
           meth = fmeth.mowner.cname ^ "." ^ fmeth.mname;
           mid = site.cs_mid;
           pc = site.cs_pc;
           line =
             (if site.cs_pc >= 0 && site.cs_pc < Array.length fmeth.mlines then
                fmeth.mlines.(site.cs_pc)
              else 0);
           callee = site.cs_name;
           from_state;
           to_state = state_name to_state;
           cause;
         })

(* Miss path: resolve through the (memoized) vtable walk and grow the
   cache one state at a time.  A megamorphic site stays megamorphic. *)
let miss (fmeth : meth) site (c : cls) =
  site.cs_misses <- site.cs_misses + 1;
  let m = Classfile.resolve_virtual c site.cs_name in
  let entry = { ice_cls = c; ice_meth = m; ice_count = 1 } in
  let cause = Obs.Ic_miss { seen = c.cname } in
  (match site.cs_state with
  | Ic_empty -> transition ~cause fmeth site (Ic_mono entry)
  | Ic_mono e -> transition ~cause fmeth site (Ic_poly [| e; entry |])
  | Ic_poly es ->
    if Array.length es < poly_limit then
      transition ~cause fmeth site (Ic_poly (Array.append es [| entry |]))
    else transition ~cause fmeth site Ic_mega
  | Ic_mega -> ());
  m

let dispatch (fmeth : meth) site (o : obj) =
  let c = o.ocls in
  match site.cs_state with
  | Ic_mono e when e.ice_cls == c ->
    site.cs_hits <- site.cs_hits + 1;
    e.ice_count <- e.ice_count + 1;
    e.ice_meth
  | Ic_poly es ->
    let n = Array.length es in
    let rec scan i =
      if i >= n then miss fmeth site c
      else begin
        let e = Array.unsafe_get es i in
        if e.ice_cls == c then begin
          site.cs_hits <- site.cs_hits + 1;
          e.ice_count <- e.ice_count + 1;
          e.ice_meth
        end
        else scan (i + 1)
      end
    in
    scan 0
  | Ic_mega ->
    (* generic slow path; counted as a miss (the cache is not helping) *)
    site.cs_misses <- site.cs_misses + 1;
    Classfile.resolve_virtual c site.cs_name
  | Ic_mono _ | Ic_empty -> miss fmeth site c
