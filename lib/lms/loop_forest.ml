(* The loop-nest forest of a control-flow graph: reverse postorder,
   dominators, back edges and natural loops, with a reducibility verdict.
   Built once per analysis over whatever edges the caller hands it: the
   typed backend passes its threaded jumps, and [Bcfg] a method's
   bytecode successors.

   Nodes are non-negative ids (block ids).  Every array below is indexed by
   a node's position in reverse postorder, so a forward edge goes to a
   higher position and a retreating edge to a lower or equal one.  A
   retreating edge whose target dominates its source is a back edge and
   closes a natural loop; any other retreating edge enters a cycle at more
   than one place, and makes the graph irreducible. *)

type t = {
  order : int array; (* node ids, in reverse postorder *)
  pos : (int, int) Hashtbl.t; (* node id -> position *)
  idom : int array; (* immediate dominator; the entry's is itself *)
  loop : int array; (* header of the innermost loop holding it, or -1 *)
  parent : int array; (* of a header: the header of the loop around it *)
  reducible : bool; (* every retreating edge is a back edge *)
}

let position t id = Hashtbl.find t.pos id

(* [a] dominates [b]: an immediate dominator sits earlier in the order *)
let dominates t a b =
  let rec go b = b = a || (b > a && go t.idom.(b)) in
  go b

let back_edge t u v = v <= u && dominates t v u
let is_header t i = t.loop.(i) = i

let in_loop t ~header i =
  let rec go l = l = header || (l >= 0 && go t.parent.(l)) in
  go t.loop.(i)

let build ~entry ~(succs : int -> int list) : t =
  (* reverse postorder from a depth-first walk *)
  let pos = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs id =
    if not (Hashtbl.mem pos id) then begin
      Hashtbl.replace pos id (-1);
      List.iter dfs (List.rev (succs id));
      post := id :: !post
    end
  in
  dfs entry;
  let order = Array.of_list !post in
  let n = Array.length order in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) order;
  let succs = Array.map (fun id -> List.map (Hashtbl.find pos) (succs id)) order in
  let preds = Array.make n [] in
  Array.iteri (fun u vs -> List.iter (fun v -> preds.(v) <- u :: preds.(v)) vs) succs;
  (* dominators: Cooper, Harvey and Kennedy's iteration over the order *)
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec meet a b =
    if a = b then a else if a > b then meet idom.(a) b else meet a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let d =
        List.fold_left
          (fun d p -> if idom.(p) < 0 then d else if d < 0 then p else meet p d)
          (-1) preds.(i)
      in
      if d <> idom.(i) then begin
        idom.(i) <- d;
        changed := true
      end
    done
  done;
  let t =
    { order; pos; idom; loop = Array.make n (-1);
      parent = Array.make n (-1); reducible = true }
  in
  (* natural loops, innermost first: a header sits after every header
     around it, and a node belongs to the first loop that reaches it *)
  let seen = Array.make n (-1) in
  for h = n - 1 downto 0 do
    let rec reach x =
      if seen.(x) <> h then begin
        seen.(x) <- h;
        (match t.loop.(x) with
        | -1 -> t.loop.(x) <- h
        | l when l = x && x <> h && t.parent.(x) < 0 -> t.parent.(x) <- h
        | _ -> ());
        if x <> h then List.iter reach preds.(x)
      end
    in
    match List.filter (fun u -> back_edge t u h) preds.(h) with
    | [] -> ()
    | sources ->
      t.loop.(h) <- h;
      List.iter reach sources
  done;
  let reducible =
    Array.for_all Fun.id
      (Array.mapi (fun u vs -> List.for_all (fun v -> v > u || back_edge t u v) vs) succs)
  in
  { t with reducible }
