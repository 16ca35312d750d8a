(* The execution lowering of the JIT, the analogue of Delite's kernel code
   generation: an IR graph becomes closure-threaded OCaml code.  A kernel
   runs on a register file of three lanes: an [int array] for ints and
   bools, a [float array] for floats and a [value array] for everything
   else.  Every operand is a slot in one of them, and every step is a
   closure over its slot indices, specialized on its op, e.g.
   [fun r -> let f = r.floats in f.(d) <- f.(a) +. f.(b)].

   The lowering has two modes, and the code picks one per graph.  The
   typed mode, tried first, keeps each value in its type's lane, so no int
   or float crosses a closure boundary and a numeric loop allocates nothing
   per iteration, which is where the paper's generated kernels get their
   edge over library bytecode.  It raises [Fallback] on a graph whose types
   disagree with its lanes (a float read as an int).  The boxed mode keeps
   every graph parameter and node in the value lane, unboxes only through
   conversion steps at the ops that need a number, and never raises
   [Fallback]: it runs the graphs the typed mode refuses, and the calls of a
   typed kernel whose arguments fail its entry check.  It is labelled
   [closure] in snapshots, spans and compile events.

   - A constant gets one slot in each lane it is read in, written once,
     when a register file is created.
   - In the typed mode, a graph parameter read as an int or a float gets
     one slot in that lane, filled at kernel entry after a kind check
     ([Int] for the int lane, [Int | Float] for the float lane).  A call
     whose arguments fail the check runs the boxed mode's code for the same
     graph instead, so an ill-typed argument raises where the interpreter
     raises.
   - Any other read in another lane than the value's own, such as a call
     result used as an int, is a conversion step into a fresh slot just
     before the use.
   - An extension op ([Ir.Ext]) is one boxed step: the compiler registered
     in [Hooks] for it, over getters of its arguments' value-lane slots.
   - A single-use [iadd]/[isub]/[imul] over int operands folds into the
     index of its array load or store, and [a*b+c] is one index, computed
     in place by the step that reads it.  Every array access unwraps its
     array with an inline match; only another kind of value reaches
     [Vm.Value.to_farr]/[to_arr], which raise the interpreter's error.  A float
     op on two single-use loads is one step, and so is [x +- y*z] with a
     single-use [fmul].  A folded load may only move past nodes that
     cannot raise or touch state, or past the other folded load, and the
     two loads run in source order.  (Folding needs operands in the int or
     float lane, so the boxed mode folds nothing.)
   - A jump copies its arguments slot to slot, lane by lane; when a source
     is also a destination, the copy goes through temp slots fixed at
     compile time.  A jump passing constants to a block that only
     compares them goes straight to the successor the compare picks, and
     empty forwarding blocks are skipped.  A jump whose argument count is
     not its target's parameter count is refused.
   - A node whose one use is an argument of its own block's jump takes the
     slot of the parameter it is passed to, when the block reads that
     parameter no later, so a loop's back edge need not copy it.
   - In the typed mode, values are boxed only at calls, extension ops, side
     exits and the return.

   Control flow is lowered from the graph's loop-nest forest
   ([Loop_forest], built once over the threaded edges), with blocks
   indexed in its reverse postorder, so only a loop's back edges point
   backward.  A block and the blocks it dominates become one region: a
   list of steps and a [ctl] naming where control goes next.  Regions nest
   four ways: a block only one forward edge enters is spliced after the
   edge; a branch to a bare side exit is an in-line guard step; a branch
   whose arms meet at a join is an if/else step followed by the join's
   region; and a loop header runs its natural loop, inner loops and
   diamonds included, as one recursive closure that goes round while its
   body returns the header's index.  A run of steps is one closure with a
   call site per position ([run_then], [close]), not a loop over a step
   array.  Only an edge into a cycle its target does not dominate (an
   irreducible graph) returns a block index to the kernel's trampoline;
   the [schedule:<mode>] snapshot counts such blocks as [trampolined]. *)

open Ir

type lane = Lint | Lfloat | Lval

let lane_of_ty = function
  | Tint | Tbool -> Lint
  | Tfloat -> Lfloat
  | Tstr | Tobj | Tarr | Tfarr | Tunit | Tany -> Lval

type regs = {
  ints : int array;
  floats : float array;
  vals : Vm.Types.value array;
}

type step = regs -> unit

(* raised by the typed mode when a node's type disagrees with its lane;
   callers compile the graph in the boxed mode instead *)
exception Fallback of string

(* raised by a spliced guard step on the miss path, after running the side
   exit and storing its result; the kernel entry catches it *)
exception Guard_miss

(* val slot 0 receives a call's result, slots 1..nparams its arguments *)
let result_slot = 0

(* A step moving slot [a] of lane [la] into slot [b] of lane [lb]. *)
let convert (la, a) (lb, b) : step =
  match (la, lb) with
  | Lval, Lint -> fun r -> r.ints.(b) <- Vm.Value.to_int r.vals.(a)
  | Lval, Lfloat -> fun r -> r.floats.(b) <- Vm.Value.to_float r.vals.(a)
  | Lint, Lfloat -> fun r -> r.floats.(b) <- float_of_int r.ints.(a)
  | Lint, Lval -> fun r -> r.vals.(b) <- Vm.Types.Int r.ints.(a)
  | Lfloat, Lval -> fun r -> r.vals.(b) <- Vm.Types.Float r.floats.(a)
  | Lfloat, Lint -> raise (Fallback "float used as int")
  | Lint, Lint | Lfloat, Lfloat | Lval, Lval -> invalid_arg "convert: same lane"

(* A copy of [(lane, src, dst)] moves whose sources are no destinations. *)
let copy moves : step =
  let lane l =
    let m = List.filter (fun (l', _, _) -> l' = l) moves in
    ( Array.of_list (List.map (fun (_, s, _) -> s) m),
      Array.of_list (List.map (fun (_, _, d) -> d) m) )
  in
  let isrc, idst = lane Lint in
  let fsrc, fdst = lane Lfloat in
  let vsrc, vdst = lane Lval in
  (* one int and one float: most copies k-means runs, entering a distance
     loop with [(j, s)] and passing [(best, bd)] round [nearest]'s loop *)
  match (isrc, fsrc, vsrc) with
  | [| s |], [| t |], [||] ->
    let d = idst.(0) and e = fdst.(0) in
    fun r -> r.ints.(d) <- r.ints.(s); r.floats.(e) <- r.floats.(t)
  | _ ->
  fun r ->
    let a = r.ints in
    for k = 0 to Array.length isrc - 1 do
      a.(idst.(k)) <- a.(isrc.(k))
    done;
    let a = r.floats in
    for k = 0 to Array.length fsrc - 1 do
      a.(fdst.(k)) <- a.(fsrc.(k))
    done;
    let a = r.vals in
    for k = 0 to Array.length vsrc - 1 do
      a.(vdst.(k)) <- a.(vsrc.(k))
    done

(* [steps] in order, then [last], as one closure: each position is a call
   site of its own, so each is predicted on its own. *)
let rec run_then (steps : step list) (last : regs -> 'a) : regs -> 'a =
  match steps with
  | [] -> last
  | [ a ] -> fun r -> a r; last r
  | [ a; b ] -> fun r -> a r; b r; last r
  | a :: b :: c :: rest ->
    let t = run_then rest last in
    fun r -> a r; b r; c r; t r

(* One step running [steps] in order. *)
let seq (steps : step list) : step =
  match List.rev steps with
  | [] -> fun _ -> ()
  | last :: rest -> run_then (List.rev rest) last

let gather (v : Vm.Types.value array) (slots : int array) =
  Array.map (fun i -> v.(i)) slots

let int_op (op : Vm.Types.iop) a b d : step =
  match op with
  | Add -> fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (i.(a) + i.(b))
  | Sub -> fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (i.(a) - i.(b))
  | Mul -> fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (i.(a) * i.(b))
  | Div | Rem | And | Or | Xor | Shl | Shr ->
    fun r -> let i = r.ints in i.(d) <- Vm.Value.iop_apply op i.(a) i.(b)

let float_op (op : Vm.Types.fop) a b d : step =
  match op with
  | FAdd -> fun r -> let f = r.floats in f.(d) <- f.(a) +. f.(b)
  | FSub -> fun r -> let f = r.floats in f.(d) <- f.(a) -. f.(b)
  | FMul -> fun r -> let f = r.floats in f.(d) <- f.(a) *. f.(b)
  | FDiv -> fun r -> let f = r.floats in f.(d) <- f.(a) /. f.(b)

let int_cond (c : Vm.Types.cond) a b : regs -> bool =
  match c with
  | Eq -> fun r -> let i = r.ints in i.(a) = i.(b)
  | Ne -> fun r -> let i = r.ints in i.(a) <> i.(b)
  | Lt -> fun r -> let i = r.ints in i.(a) < i.(b)
  | Le -> fun r -> let i = r.ints in i.(a) <= i.(b)
  | Gt -> fun r -> let i = r.ints in i.(a) > i.(b)
  | Ge -> fun r -> let i = r.ints in i.(a) >= i.(b)

let float_cond (c : Vm.Types.cond) a b : regs -> bool =
  match c with
  | Eq -> fun r -> let f = r.floats in f.(a) = f.(b)
  | Ne -> fun r -> let f = r.floats in f.(a) <> f.(b)
  | Lt -> fun r -> let f = r.floats in f.(a) < f.(b)
  | Le -> fun r -> let f = r.floats in f.(a) <= f.(b)
  | Gt -> fun r -> let f = r.floats in f.(a) > f.(b)
  | Ge -> fun r -> let f = r.floats in f.(a) >= f.(b)

let class_id a d : step =
 fun r ->
  r.ints.(d) <-
    (match r.vals.(a) with Vm.Types.Obj o -> o.ocls.cid | _ -> -1)

(* An array index: an int slot, or a folded [a*b + c] that the step reading
   it computes in place.  A folded [a+b], [a-b] or [a*b] is [1*a + b],
   [-1*b + a] or [a*b + 0], its constant in a pooled slot.  One [wrap32]
   gives what the interpreter's [wrap32] per op gives, as both keep the
   value mod 2^32. *)
type index = Islot of int | Imadd of int * int * int

let[@inline] index_at (r : regs) = function
  | Islot a -> r.ints.(a)
  | Imadd (a, b, c) -> let i = r.ints in Vm.Value.wrap32 ((i.(a) * i.(b)) + i.(c))

(* The array in a value, unwrapped in place; any other value raises the
   interpreter's error. *)
let[@inline] arr = function Vm.Types.Arr a -> a | v -> Vm.Value.to_arr v
let[@inline] farr = function Vm.Types.Farr a -> a | v -> Vm.Value.to_farr v

let[@inline] fload (r : regs) a ix = (farr r.vals.(a)).(index_at r ix)

(* [d <- x op y] where x and y are the folded loads [(array, index)];
   [left_first] says x's load comes first in the source, and so runs first. *)
let fop_loads (op : Vm.Types.fop) ~left_first (a, i) (b, j) d : step =
  match (op, left_first) with
  | FAdd, true ->
    fun r ->
      let x = fload r a i in
      let y = fload r b j in
      r.floats.(d) <- x +. y
  | FSub, true ->
    fun r ->
      let x = fload r a i in
      let y = fload r b j in
      r.floats.(d) <- x -. y
  | FMul, true ->
    fun r ->
      let x = fload r a i in
      let y = fload r b j in
      r.floats.(d) <- x *. y
  | FDiv, true ->
    fun r ->
      let x = fload r a i in
      let y = fload r b j in
      r.floats.(d) <- x /. y
  | FAdd, false ->
    fun r ->
      let y = fload r b j in
      let x = fload r a i in
      r.floats.(d) <- x +. y
  | FSub, false ->
    fun r ->
      let y = fload r b j in
      let x = fload r a i in
      r.floats.(d) <- x -. y
  | FMul, false ->
    fun r ->
      let y = fload r b j in
      let x = fload r a i in
      r.floats.(d) <- x *. y
  | FDiv, false ->
    fun r ->
      let y = fload r b j in
      let x = fload r a i in
      r.floats.(d) <- x /. y

(* A float add or subtract with a folded [fmul y z] on one side:
   [x + y*z], [y*z + x], [x - y*z] or [y*z - x], operands in that order. *)
let fop_mul (op : Vm.Types.fop) ~mul_left x y z d : step =
  match (op, mul_left) with
  | FAdd, false ->
    fun r ->
      let f = r.floats in
      f.(d) <- f.(x) +. (f.(y) *. f.(z))
  | FAdd, true ->
    fun r ->
      let f = r.floats in
      f.(d) <- (f.(y) *. f.(z)) +. f.(x)
  | FSub, false ->
    fun r ->
      let f = r.floats in
      f.(d) <- f.(x) -. (f.(y) *. f.(z))
  | FSub, true ->
    fun r ->
      let f = r.floats in
      f.(d) <- (f.(y) *. f.(z)) -. f.(x)
  | (FMul | FDiv), _ -> invalid_arg "fop_mul"

(* A branch condition: an int compare of two slots, which a loop's test
   does in place, or a closure. *)
type test = Icmp_slots of Vm.Types.cond * int * int | Cond of (regs -> bool)

let test_fn = function Icmp_slots (c, a, b) -> int_cond c a b | Cond f -> f

(* [a1] when [test] holds, else [a2]. *)
let branch test (a1 : regs -> 'a) (a2 : regs -> 'a) : regs -> 'a =
  let cond = test_fn test in
  fun r -> if cond r then a1 r else a2 r

(* Where control goes after a run of steps: a block index known at compile
   time (-1: the call is done), a closure returning one, or an if/else of
   two such runs. *)
type ctl = Goto of int | Code of (regs -> int) | If of test * arm * arm
and arm = step list * ctl

(* [steps], then [ctl], as one closure. *)
let rec close ((steps, ctl) : arm) : regs -> int =
  run_then steps
    (match ctl with
    | Goto k -> fun _ -> k
    | Code f -> f
    | If (test, a1, a2) -> branch test (close a1) (close a2))

(* A region, then block [y]'s region [code_y] wherever the first goes to
   [y].  An if/else whose two arms go straight to [y] becomes one step
   before [code_y]: the diamond meets at its join. *)
let join y (code_y : arm) ((steps, ctl) : arm) : arm =
  match ctl with
  | If (test, (s1, Goto y1), (s2, Goto y2)) when y1 = y && y2 = y ->
    let s, c = code_y in
    (steps @ (branch test (seq s1) (seq s2) :: s), c)
  | _ ->
    let f = close ([], ctl) and code_y = close code_y in
    (steps, Code (fun r -> let k = f r in if k = y then code_y r else k))

let negate : Vm.Types.cond -> Vm.Types.cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Le -> Gt
  | Gt -> Le

(* The loop headed by block [h]: [head] runs before each test, and while
   [test] reads [enter] the loop runs [body], which goes to [h] to go round
   again and anywhere else to leave the loop there; else the loop leaves
   through [exit]. *)
let rec native_loop h head test ~enter (body : arm) (exit : regs -> int)
    : regs -> int =
  match (head, test) with
  | [], Icmp_slots (c, a, b) -> (
    (* [a > b] is [b < a] *)
    match if enter then c else negate c with
    | (Lt | Gt | Le | Ge) as c ->
      let a, b = if c = Lt || c = Le then (a, b) else (b, a) in
      let le = c = Le || c = Ge in
      let[@inline] holds r = let i = r.ints in i.(a) < i.(b) || (le && i.(a) = i.(b)) in
      (match body with
      | [ s1; s2; s3 ], Goto k when k = h ->
        (* three steps that only go round again, called in place: most
           loop iterations k-means runs, in its distance loop *)
        fun r -> while holds r do s1 r; s2 r; s3 r done; exit r
      | _ ->
        let body = close body in
        let rec go r = if holds r then (let k = body r in if k = h then go r else k) else exit r in
        go)
    | Eq | Ne -> native_loop h [] (Cond (test_fn test)) ~enter body exit)
  | _ ->
    let cond = test_fn test and head = seq head and body = close body in
    let rec go r =
      head r;
      if cond r = enter then (let k = body r in if k = h then go r else k) else exit r
    in
    go

(* An op that touches no state and cannot raise once its operands are in
   its lane: a folded load may move past it. *)
let quiet_op = function
  | Konst _ | Param _ | Bparam | Ineg | Fop _ | Fneg | I2f | F2i | Icmp _
  | Fcmp _ | IsNull | ClassId ->
    true
  | Iop op -> ( match op with Div | Rem -> false | _ -> true)
  | _ -> false

(* The lane an op reads its operands in, when all are read in one. *)
let operand_lane = function
  | Iop _ | Ineg | Icmp _ | I2f -> Some Lint
  | Fop _ | Fneg | Fcmp _ | F2i -> Some Lfloat
  | _ -> None

(* The label of a mode in snapshots, spans and compile events. *)
let mode_name ~boxed = if boxed then "closure" else "typed"

(* [trace]: record the IR snapshots and missed optimizations of the
   compile, when IR tracing is on. *)
let rec lower ~boxed ~trace (hooks : Hooks.hooks) (g : graph) :
    Vm.Types.value array -> Vm.Types.value =
  let open Vm.Types in
  let rt = hooks.rt in
  (* the lane of a node or block parameter of type [ty] *)
  let lane_of ty = if boxed then Lval else lane_of_ty ty in
  let blocks = reachable_blocks g in
  let fusion =
    Guard_fusion.analyse ~trace ~backend:(mode_name ~boxed) g blocks
  in
  let fused = fusion.Guard_fusion.fused in
  (* [s] can be read in [lane] with no conversion step that could raise:
     in the typed mode graph parameters are read from their entry slots,
     checked at entry *)
  let native lane s =
    let n = node g s in
    match (n.op, lane) with
    | _, Lval -> true
    | Konst (Int _), (Lint | Lfloat) | Konst (Float _), Lfloat -> true
    | Konst _, _ -> false
    | Param k, _ -> (not boxed) && k < g.nparams
    | _ -> lane_of n.ty = lane
  in
  (* Folding, one pass in source order over each block.  [folded_into]
     names the node a folded node is computed in and [pos] gives a node's
     place in its block. *)
  let module T = Guard_fusion.Symtbl in
  let folded_into : sym T.t = T.create 16 in
  let pos : int T.t = T.create 64 in
  let pos_of s = Guard_fusion.find_or pos s 0 in
  let is_folded s = T.mem folded_into s in
  let fold ~into s = T.replace folded_into s into in
  let plain lane s = native lane s && not (is_folded s) in
  let int_tree bid s =
    Guard_fusion.single_use fusion bid s
    &&
    let m = node g s in
    lane_of m.ty = Lint
    &&
    match (m.op, m.args) with
    | Iop (Add | Sub | Mul), [| x; y |] -> plain Lint x && plain Lint y
    | _ -> false
  in
  (* [a*b+c] first, so the multiply folds too *)
  let fold_index bid ~into s =
    let m = node g s in
    let madd = Guard_fusion.single_use fusion bid s && lane_of m.ty = Lint in
    let mul t = int_tree bid t && (node g t).op = Iop Mul in
    match (m.op, m.args) with
    | Iop Add, [| x; y |] when madd && mul x && plain Lint y ->
      fold ~into:s x;
      fold ~into s
    | Iop Add, [| x; y |] when madd && mul y && plain Lint x ->
      fold ~into:s y;
      fold ~into s
    | _ -> if int_tree bid s then fold ~into s
  in
  let load bid s =
    Guard_fusion.single_use fusion bid s
    &&
    let m = node g s in
    m.op = Faload && lane_of m.ty = Lfloat
    && (is_folded m.args.(1) || plain Lint m.args.(1))
  in
  let fmul bid s =
    Guard_fusion.single_use fusion bid s
    &&
    let m = node g s in
    m.op = Fop FMul && lane_of m.ty = Lfloat
    && plain Lfloat m.args.(0) && plain Lfloat m.args.(1)
  in
  let quiet (n : node) =
    quiet_op n.op
    &&
    match operand_lane n.op with
    | Some lane -> Array.for_all (native lane) n.args
    | None -> true
  in
  List.iter
    (fun b ->
      let bid = b.bid and body = Array.of_list (body_in_order b) in
      (* every node after [lo] and before [q] is quiet, bar the one at [hi] *)
      let quiet_between lo hi q =
        let rec go p = p <= lo || ((p = hi || quiet body.(p)) && go (p - 1)) in
        go (q - 1)
      in
      Array.iteri
        (fun q (n : node) ->
          T.replace pos n.id q;
          (match (n.op, n.args) with
          | (Aload | Astore | Faload | Fastore), _ ->
            fold_index bid ~into:n.id n.args.(1)
          | Fop op, [| x; y |] when lane_of n.ty = Lfloat ->
            if x <> y && load bid x && load bid y then begin
              let lo = min (pos_of x) (pos_of y) in
              let hi = max (pos_of x) (pos_of y) in
              if quiet_between lo hi q then begin
                fold ~into:n.id x;
                fold ~into:n.id y
              end
            end
            else if op = FAdd || op = FSub then
              if fmul bid y && plain Lfloat x then fold ~into:n.id y
              else if fmul bid x && plain Lfloat y then fold ~into:n.id x
          | _ -> ()))
        body)
    blocks;
  (* Threading: a jump into an empty block that jumps on, or into a block
     whose only work is a fused compare of its parameters against
     constants, when the jump passes constants, goes straight to the
     successor.  Arguments must already be in the skipped block's lanes,
     so skipping it skips no conversion, and its parameters must have no
     use outside it, as no slot of theirs is written.  Every edge passes
     through here first, and one whose argument count differs from its
     target's parameter count is refused. *)
  let nblocks = List.length blocks in
  let passes_as lane s =
    match (node g s).op with
    | Konst v -> (
      match (lane, v) with
      | Lint, Int _ | Lfloat, Float _ | Lval, _ -> true
      | _ -> false)
    | Param _ -> lane = Lval
    | _ -> lane_of (node g s).ty = lane
  in
  let rec resolve hops (t : target) : target =
    let tb = block g t.tblock in
    if List.length tb.params <> Array.length t.targs then
      raise
        (Hooks.Compile_unsupported
           (Printf.sprintf "jump arity mismatch into block %d" t.tblock));
    let shape =
      match tb.term with
      | Jump t' when tb.body = [] -> Some (`Jump t')
      | Br (c, t1, t2)
        when List.for_all (fun n -> Hashtbl.mem fused n.id) tb.body ->
        Some (`Br (c, t1, t2))
      | _ -> None
    in
    match shape with
    | None -> t
    | Some _ when hops = 0 -> t
    | Some shape -> (
      let params = Array.of_list tb.params in
      let arg s =
        let rec go k =
          if k = Array.length params then s
          else if fst params.(k) = s then t.targs.(k)
          else go (k + 1)
        in
        go 0
      in
      let subst (t' : target) = { t' with targs = Array.map arg t'.targs } in
      let const_int s =
        match (node g (arg s)).op with Konst (Int v) -> Some v | _ -> None
      in
      let next =
        match shape with
        | `Jump t' -> Some t'
        | `Br (c, t1, t2) -> (
          let taken =
            match Hashtbl.find_opt fusion.conds tb.bid with
            | Some (Int_cmp (cc, Sym x, Sym y)) -> (
              match (const_int x, const_int y) with
              | Some a, Some b -> Some (Vm.Value.cond_apply cc a b)
              | _ -> None)
            | Some _ -> None
            | None -> Option.map (fun v -> v <> 0) (const_int c)
          in
          match taken with
          | Some true -> Some t1
          | Some false -> Some t2
          | None -> None)
      in
      let used_inside p =
        let count a =
          Array.fold_left (fun k s -> if s = p then k + 1 else k) 0 a
        in
        List.fold_left (fun k n -> k + count n.args) 0 tb.body
        +
        match tb.term with
        | Jump t' -> count t'.targs
        | Br (c, t1, t2) -> count [| c |] + count t1.targs + count t2.targs
        | _ -> 0
      in
      let local p = Guard_fusion.find_or fusion.uses p 0 = used_inside p in
      match next with
      | Some t'
        when Array.for_all2
               (fun (p, ty) s -> passes_as (lane_of ty) s && local p)
               params t.targs ->
        resolve (hops - 1) (subst t')
      | _ -> t)
  in
  let threaded = ref 0 in
  let redirect (t : target) =
    let t' = resolve nblocks t in
    if t'.tblock <> t.tblock then incr threaded;
    t'
  in
  let threaded_term = Hashtbl.create nblocks in
  List.iter
    (fun b ->
      Hashtbl.replace threaded_term b.bid
        (match b.term with
        | Jump t -> Jump (redirect t)
        | Br (c, t1, t2) ->
          let t1 = redirect t1 in
          Br (c, t1, redirect t2)
        | term -> term))
    blocks;
  (* The loop forest of the threaded edges.  The blocks they still reach
     are indexed in its reverse postorder, the entry at 0. *)
  let forest =
    Loop_forest.build ~entry:g.entry ~succs:(fun bid ->
        match Hashtbl.find threaded_term bid with
        | Jump t -> [ t.tblock ]
        | Br (_, t1, t2) -> [ t1.tblock; t2.tblock ]
        | Ir.Ret _ | Exit _ | Unreachable _ -> [])
  in
  let barr = Array.map (block g) forest.order in
  let term_of = Array.map (fun b -> Hashtbl.find threaded_term b.bid) barr in
  let idx_of = Loop_forest.position forest in
  (* Coalescing: a node whose one use is an argument of its own block's
     jump takes the slot of the parameter it is passed to, when nothing in
     the block reads that parameter after the node is written, so the jump
     copies nothing for it.  A folded node is read where the node it is
     folded into is. *)
  let shared : (sym, sym) Hashtbl.t = Hashtbl.create 16 in
  let rec read_at s =
    match T.find_opt folded_into s with
    | Some into -> read_at into
    | None -> pos_of s
  in
  Array.iteri
    (fun i (b : block) ->
      match term_of.(i) with
      | Jump t
        when Array.exists
                  (fun s ->
                    Guard_fusion.single_use fusion b.bid s && not (is_folded s))
                  t.targs ->
        let params = (block g t.tblock).params in
        (* the last place in [b] that reads each parameter *)
        let reads = Hashtbl.create 8 in
        List.iter (fun (p, _) -> Hashtbl.replace reads p (-1)) params;
        List.iter
          (fun (n : node) ->
            Array.iter
              (fun a ->
                match Hashtbl.find_opt reads a with
                | Some q -> Hashtbl.replace reads a (max q (read_at n.id))
                | None -> ())
              n.args)
          b.body;
        List.iteri
          (fun k (p, ty) ->
            let s = t.targs.(k) in
            let n = node g s in
            match n.op with
            | Konst _ | Param _ | Bparam -> ()
            | _ ->
              if
                Guard_fusion.single_use fusion b.bid s
                && (not (is_folded s))
                && lane_of n.ty = lane_of ty
                && (not (Array.mem p t.targs))
                && Hashtbl.find reads p <= pos_of s
              then Hashtbl.replace shared s p)
          params
      | _ -> ())
    barr;
  (* slot assignment per lane *)
  let counts = [| 0; 0; 1 + g.nparams |] in
  let fresh lane =
    let k = match lane with Lint -> 0 | Lfloat -> 1 | Lval -> 2 in
    let i = counts.(k) in
    counts.(k) <- i + 1;
    i
  in
  let slots : (sym, lane * int) Hashtbl.t = Hashtbl.create 64 in
  let assign s lane =
    if not (Hashtbl.mem slots s) then Hashtbl.replace slots s (lane, fresh lane)
  in
  List.iter
    (fun b ->
      List.iter (fun (s, ty) -> assign s (lane_of ty)) b.params;
      List.iter
        (fun n ->
          match n.op with
          | Konst _ | Param _ -> ()
          | _ ->
            if not (is_folded n.id || Hashtbl.mem shared n.id) then
              assign n.id (lane_of n.ty))
        (body_in_order b))
    blocks;
  Hashtbl.iter
    (fun s p -> Hashtbl.replace slots s (Hashtbl.find slots p))
    shared;
  let slot_of s =
    match Hashtbl.find_opt slots s with
    | Some x -> x
    | None -> (
      (* graph parameters are floating nodes; a folded node has no slot,
         and reading one is a lowering bug *)
      match (node g s).op with
      | Param k when k < g.nparams -> (Lval, 1 + k)
      | _ when is_folded s ->
        invalid_arg (Printf.sprintf "typed kernel %s: x%d is folded" g.name s)
      | _ ->
        raise (Hooks.Compile_unsupported (Printf.sprintf "unassigned sym %d" s)))
  in
  (* entry slots: (parameter, slot) per lane, filled when a call starts *)
  let entry : (int * lane, int) Hashtbl.t = Hashtbl.create 8 in
  let entry_slot k lane =
    match Hashtbl.find_opt entry (k, lane) with
    | Some i -> i
    | None ->
      let i = fresh lane in
      Hashtbl.replace entry (k, lane) i;
      i
  in
  (* constant pool: (slot, value) pairs per lane *)
  let consts : (sym * lane, int) Hashtbl.t = Hashtbl.create 16 in
  let kints = ref [] and kfloats = ref [] and kvals = ref [] in
  let const_slot s lane v =
    match Hashtbl.find_opt consts (s, lane) with
    | Some i -> Some i
    | None -> (
      let pool cell x =
        let i = fresh lane in
        cell := (i, x) :: !cell;
        Hashtbl.replace consts (s, lane) i;
        Some i
      in
      match (lane, v) with
      | Lint, Int x -> pool kints x
      | Lfloat, Float x -> pool kfloats x
      | Lfloat, Int x -> pool kfloats (float_of_int x)
      | Lval, v -> pool kvals v
      | (Lint | Lfloat), _ -> None)
  in
  (* a pooled int slot holding [v], for the folded indices *)
  let int_consts = Hashtbl.create 4 in
  let int_const v =
    match Hashtbl.find_opt int_consts v with
    | Some i -> i
    | None ->
      let i = fresh Lint in
      kints := (i, v) :: !kints;
      Hashtbl.replace int_consts v i;
      i
  in
  (* The slot holding [s] in [lane].  A read from another lane adds a
     conversion step to [pre], the steps that run right before the use. *)
  let read pre lane s =
    let via src =
      let t = fresh lane in
      pre := convert src (lane, t) :: !pre;
      t
    in
    match (node g s).op with
    | Konst v -> (
      match const_slot s lane v with
      | Some i -> i
      | None -> via (Lval, Option.get (const_slot s Lval v)))
    | Param k when (not boxed) && lane <> Lval && k < g.nparams ->
      entry_slot k lane
    | _ ->
      let ((l, i) as src) = slot_of s in
      if l = lane then i else via src
  in
  (* The slot a step producing a [lane] value writes node [n]'s result to.
     When [n] lives in another lane, a conversion step into [n]'s slot is
     added to [post], the steps that run right after. *)
  let write post (n : node) lane =
    let ((l, i) as dst) = slot_of n.id in
    if l = lane then i
    else begin
      (match (lane, l) with
      | Lint, Lfloat -> raise (Fallback "int result in float slot")
      | Lfloat, Lint -> raise (Fallback "float result in int slot")
      | _ -> ());
      let t = fresh lane in
      post := convert (lane, t) dst :: !post;
      t
    end
  in
  (* lowering of the fused branch-condition shapes into the int/float
     lanes; classid(x) == const, the devirtualization guard, compares the
     receiver's class id with the constant in place *)
  let cid_eq : Guard_fusion.cond -> (sym * int) option = function
    | Int_cmp (Eq, Class_id x, Sym k) -> (
      match (node g k).op with Konst (Int k) -> Some (x, k) | _ -> None)
    | _ -> None
  in
  let int_operand pre : Guard_fusion.operand -> int = function
    | Sym s -> read pre Lint s
    | Class_id s ->
      let a = read pre Lval s in
      let t = fresh Lint in
      pre := class_id a t :: !pre;
      t
  in
  let fused_cond pre (fc : Guard_fusion.cond) : regs -> bool =
    match (cid_eq fc, fc) with
    | Some (x, k), _ ->
      let a = read pre Lval x in
      fun r -> (match r.vals.(a) with Obj o -> o.ocls.cid | _ -> -1) = k
    | None, Int_cmp (c, x, y) ->
      let a = int_operand pre x in
      let b = int_operand pre y in
      int_cond c a b
    | None, Float_cmp (c, x, y) ->
      let a = read pre Lfloat x in
      let b = read pre Lfloat y in
      float_cond c a b
    | None, Null_test x ->
      let a = read pre Lval x in
      fun r -> (match r.vals.(a) with Null -> true | _ -> false)
  in
  (* the index operand of an array access, with a folded int tree computed
     in place *)
  let index pre s : index =
    if not (is_folded s) then Islot (read pre Lint s)
    else
      let m = node g s in
      let opnd t = read pre Lint t in
      let mul t =
        let k = node g t in
        (opnd k.args.(0), opnd k.args.(1))
      in
      match (m.op, m.args) with
      | Iop Add, [| x; y |] when is_folded x ->
        let a, b = mul x in
        Imadd (a, b, opnd y)
      | Iop Add, [| x; y |] when is_folded y ->
        let c = opnd x in
        let a, b = mul y in
        Imadd (a, b, c)
      | Iop op, [| x; y |] -> (
        let a = opnd x in
        let b = opnd y in
        match op with
        | Add -> Imadd (int_const 1, a, b)
        | Sub -> Imadd (int_const (-1), b, a)
        | Mul -> Imadd (a, b, int_const 0)
        | _ -> invalid_arg "typed kernel: folded index")
      | _ -> invalid_arg "typed kernel: folded index"
  in
  let compile_node n : step list =
    if Hashtbl.mem fused n.id || is_folded n.id then []
    else
      let pre = ref [] and post = ref [] in
      let arg lane k = read pre lane n.args.(k) in
      let dst lane = write post n lane in
      let step : step option =
        match n.op with
        | Konst _ | Param _ | Bparam -> None
        | Iop op ->
          let a = arg Lint 0 in
          let b = arg Lint 1 in
          Some (int_op op a b (dst Lint))
        | Ineg ->
          let a = arg Lint 0 in
          let d = dst Lint in
          Some (fun r -> let i = r.ints in i.(d) <- Vm.Value.wrap32 (-i.(a)))
        | Fop op -> (
          let x = n.args.(0) and y = n.args.(1) in
          match (is_folded x, is_folded y) with
          | true, true ->
            let load s =
              let m = node g s in
              let a = read pre Lval m.args.(0) in
              (a, index pre m.args.(1))
            in
            let lx = load x in
            let ly = load y in
            Some
              (fop_loads op
                 ~left_first:(pos_of x < pos_of y)
                 lx ly (dst Lfloat))
          | false, true ->
            let a = arg Lfloat 0 in
            let m = node g y in
            let b = read pre Lfloat m.args.(0) in
            let c = read pre Lfloat m.args.(1) in
            Some (fop_mul op ~mul_left:false a b c (dst Lfloat))
          | true, false ->
            let m = node g x in
            let b = read pre Lfloat m.args.(0) in
            let c = read pre Lfloat m.args.(1) in
            let a = arg Lfloat 1 in
            Some (fop_mul op ~mul_left:true a b c (dst Lfloat))
          | false, false ->
            let a = arg Lfloat 0 in
            let b = arg Lfloat 1 in
            Some (float_op op a b (dst Lfloat)))
        | Fneg ->
          let a = arg Lfloat 0 in
          let d = dst Lfloat in
          Some (fun r -> let f = r.floats in f.(d) <- -.f.(a))
        | I2f ->
          let a = arg Lint 0 in
          let d = dst Lfloat in
          Some (fun r -> r.floats.(d) <- float_of_int r.ints.(a))
        | F2i ->
          let a = arg Lfloat 0 in
          let d = dst Lint in
          Some
            (fun r -> r.ints.(d) <- Vm.Value.wrap32 (int_of_float r.floats.(a)))
        | Icmp c ->
          let a = arg Lint 0 in
          let b = arg Lint 1 in
          let d = dst Lint in
          let t = int_cond c a b in
          Some (fun r -> r.ints.(d) <- (if t r then 1 else 0))
        | Fcmp c ->
          let a = arg Lfloat 0 in
          let b = arg Lfloat 1 in
          let d = dst Lint in
          let t = float_cond c a b in
          Some (fun r -> r.ints.(d) <- (if t r then 1 else 0))
        | IsNull ->
          let a = arg Lval 0 in
          let d = dst Lint in
          Some
            (fun r -> r.ints.(d) <- (match r.vals.(a) with Null -> 1 | _ -> 0))
        | ClassId ->
          let a = arg Lval 0 in
          Some (class_id a (dst Lint))
        | Getfield f ->
          let a = arg Lval 0 in
          let d = dst Lval in
          let i = f.fidx in
          Some
            (fun r ->
              let v = r.vals in
              v.(d) <- (Vm.Value.to_obj v.(a)).ofields.(i))
        | Putfield f ->
          let a = arg Lval 0 in
          let b = arg Lval 1 in
          let i = f.fidx in
          Some
            (fun r ->
              let v = r.vals in
              (Vm.Value.to_obj v.(a)).ofields.(i) <- v.(b))
        | Getglobal gi ->
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Vm.Runtime.get_global rt gi)
        | Putglobal gi ->
          let a = arg Lval 0 in
          Some (fun r -> Vm.Runtime.set_global rt gi r.vals.(a))
        | NewObj cls ->
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Obj (Vm.Runtime.alloc rt cls))
        | Newarr ->
          let a = arg Lint 0 in
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Arr (Array.make r.ints.(a) Null))
        | Newfarr ->
          let a = arg Lint 0 in
          let d = dst Lval in
          Some (fun r -> r.vals.(d) <- Farr (Array.make r.ints.(a) 0.0))
        | Aload ->
          let a = arg Lval 0 in
          let ix = index pre n.args.(1) in
          let d = dst Lval in
          Some (fun r -> let v = r.vals in v.(d) <- (arr v.(a)).(index_at r ix))
        | Astore ->
          let a = arg Lval 0 in
          let ix = index pre n.args.(1) in
          let x = arg Lval 2 in
          Some (fun r -> let v = r.vals in (arr v.(a)).(index_at r ix) <- v.(x))
        | Faload ->
          let a = arg Lval 0 in
          let ix = index pre n.args.(1) in
          let d = dst Lfloat in
          Some (fun r -> r.floats.(d) <- fload r a ix)
        | Fastore ->
          let a = arg Lval 0 in
          let ix = index pre n.args.(1) in
          let x = arg Lfloat 2 in
          Some (fun r -> (farr r.vals.(a)).(index_at r ix) <- r.floats.(x))
        | Alen ->
          let a = arg Lval 0 in
          let d = dst Lint in
          Some
            (fun r ->
              r.ints.(d) <-
                (match r.vals.(a) with
                | Arr x -> Array.length x
                | Farr x -> Array.length x
                | _ -> vm_error "alen"))
        (* pure math natives run on the float lane *)
        | CallStatic
            {
              mcode =
                Native
                  ((("Math.sqrt" | "Math.exp" | "Math.log" | "Math.fabs") as
                    name), _);
              _;
            }
          when Array.length n.args = 1 -> (
          let a = arg Lfloat 0 in
          let d = dst Lfloat in
          match name with
          | "Math.sqrt" -> Some (fun r -> let f = r.floats in f.(d) <- sqrt f.(a))
          | "Math.exp" -> Some (fun r -> let f = r.floats in f.(d) <- exp f.(a))
          | "Math.log" -> Some (fun r -> let f = r.floats in f.(d) <- log f.(a))
          | _ ->
            Some (fun r -> let f = r.floats in f.(d) <- abs_float f.(a)))
        | CallStatic m -> (
          let a = Array.mapi (fun k _ -> arg Lval k) n.args in
          let d = dst Lval in
          match m.mcode with
          | Native (_, fn) ->
            Some (fun r -> let v = r.vals in v.(d) <- fn rt (gather v a))
          | Bytecode _ ->
            let call = hooks.call_static in
            Some (fun r -> let v = r.vals in v.(d) <- call m (gather v a)))
        | CallVirtual (name, _) ->
          let a = Array.mapi (fun k _ -> arg Lval k) n.args in
          let d = dst Lval in
          let call = hooks.call_virtual in
          Some (fun r -> let v = r.vals in v.(d) <- call name (gather v a))
        | CallClosure _ ->
          let f = arg Lval 0 in
          let a =
            Array.init (Array.length n.args - 1) (fun k -> arg Lval (k + 1))
          in
          let d = dst Lval in
          let call = hooks.call_closure in
          Some (fun r -> let v = r.vals in v.(d) <- call v.(f) (gather v a))
        | Ext op ->
          let a = Array.mapi (fun k _ -> arg Lval k) n.args in
          let d = dst Lval in
          let fn = Hooks.compile_ext hooks op (Array.map (fun i v -> v.(i)) a) in
          Some (fun r -> let v = r.vals in v.(d) <- fn v)
      in
      List.rev_append !pre (Option.to_list step @ List.rev !post)
  in
  (* jumps: conversion steps for cross-lane arguments, then the copy *)
  let compile_jump (t : target) : step list =
    let pre = ref [] in
    let moves =
      List.mapi
        (fun k (p, _) ->
          let lane, d = slot_of p in
          (lane, read pre lane t.targs.(k), d))
        (block g t.tblock).params
      |> List.filter (fun (_, s, d) -> s <> d)
    in
    let overlap =
      List.exists
        (fun (l, s, _) -> List.exists (fun (l', _, d) -> l = l' && s = d) moves)
        moves
    in
    let copies =
      if moves = [] then []
      else if not overlap then [ copy moves ]
      else
        let tmps = List.map (fun (l, _, _) -> fresh l) moves in
        [
          copy (List.map2 (fun (l, s, _) t -> (l, s, t)) moves tmps);
          copy (List.map2 (fun (l, _, d) t -> (l, t, d)) moves tmps);
        ]
    in
    List.rev_append !pre copies
  in
  let compile_exit se : regs -> value =
    let pre = ref [] in
    let a =
      List.concat_map
        (fun fd -> Array.to_list fd.fd_locals @ Array.to_list fd.fd_stack)
        se.se_frames
      |> List.map (read pre Lval)
      |> Array.of_list
    in
    let box = seq (List.rev !pre) in
    let handler = hooks.on_exit in
    fun r ->
      box r;
      handler se (gather r.vals a)
  in
  (* Control-flow lowering, over the loop forest.  [tree i] lowers block
     [i], with every block it dominates that is not lowered elsewhere, into
     steps and a [ctl] saying where control goes next: a block index, or -1
     once the call is done.  Each block is lowered once.
     - An edge to a block that no other forward edge enters splices that
       block's steps after the edge's copy.
     - A Br whose cold arm is a bare side-exit block is an in-line guard
       step (the miss path runs the exit and raises [Guard_miss]), so a
       devirtualization guard costs one compare step on the hot path.
     - Any other Br is an if/else of its two arms.
     - An edge to a join (a block two forward edges enter) goes to its
       index; the join's immediate dominator runs it when its own code
       returns that index.  The arms of a forward diamond meet that way.
     - A loop header runs its natural loop in one closure: a back edge
       goes to the header's index, and the loop leaves on any other.
     - An edge into a cycle that its target does not dominate (an
       irreducible graph) goes to the target's index, which the kernel's
       trampoline runs: the blocks of such a graph each get a closure of
       their own. *)
  let n = Array.length barr in
  let exit_only (t : target) : side_exit option =
    let tb = block g t.tblock in
    match tb.term with
    | Exit se when body_in_order tb = [] -> Some se
    | _ -> None
  in
  (* forward in-edges, and blocks entered through the trampoline *)
  let fwd = Array.make n 0 and tramp = Array.make n false in
  Array.iteri
    (fun u term ->
      let edge (t : target) =
        let v = idx_of t.tblock in
        if v > u then fwd.(v) <- fwd.(v) + 1
        else if not (Loop_forest.back_edge forest u v) then tramp.(v) <- true
      in
      match term with
      | Jump t -> edge t
      | Br (_, t1, t2) ->
        edge t1;
        if exit_only t2 = None then edge t2
      | Ir.Ret _ | Exit _ | Unreachable _ -> ())
    term_of;
  (* the joins each block immediately dominates, earliest first *)
  let joins = Array.make n [] in
  for v = n - 1 downto 1 do
    if fwd.(v) > 1 && not tramp.(v) then
      let d = forest.idom.(v) in
      joins.(d) <- v :: joins.(d)
  done;
  let test_of pre (b : block) c : test =
    match Hashtbl.find_opt fusion.conds b.bid with
    | Some (Int_cmp (cc, Sym x, Sym y)) ->
      let a = read pre Lint x in
      Icmp_slots (cc, a, read pre Lint y)
    | Some fc -> Cond (fused_cond pre fc)
    | None ->
      let a = read pre Lint c in
      Cond (fun r -> r.ints.(a) <> 0)
  in
  let guard pre (b : block) c (t2 : target) se : step =
    let cp2 = seq (compile_jump t2) in
    let exit_run = compile_exit se in
    let miss r =
      cp2 r;
      r.vals.(result_slot) <- exit_run r;
      raise Guard_miss
    in
    (* the devirtualization shape reads the receiver slot and compares its
       class id, no nested calls on the hit path *)
    match Option.bind (Hashtbl.find_opt fusion.conds b.bid) cid_eq with
    | Some (x, k) ->
      let a = read pre Lval x in
      fun r ->
        (match r.vals.(a) with Obj o when o.ocls.cid = k -> () | _ -> miss r)
    | None ->
      let cond = test_fn (test_of pre b c) in
      fun r -> if not (cond r) then miss r
  in
  let loops = ref 0 in
  let lowered = Array.make n None in
  let rec tree i =
    match lowered.(i) with
    | Some x -> x
    | None ->
      let x = lower i in
      lowered.(i) <- Some x;
      x
  and lower i =
    let wrap ys code = List.fold_left (fun code y -> join y (tree y) code) code ys in
    if not (Loop_forest.is_header forest i) then wrap joins.(i) (block_code i)
    else begin
      incr loops;
      let inner, outer =
        List.partition (Loop_forest.in_loop forest ~header:i) joins.(i)
      in
      let inside (t : target) =
        Loop_forest.in_loop forest ~header:i (idx_of t.tblock)
      in
      let b = barr.(i) in
      let loop =
        match term_of.(i) with
        | Br (c, t1, t2)
          when inner = [] && exit_only t2 = None && inside t1 <> inside t2 ->
          let into, out, enter =
            if inside t1 then (t1, t2, true) else (t2, t1, false)
          in
          let head = List.concat_map compile_node (body_in_order b) in
          let pre = ref [] in
          let test = test_of pre b c in
          native_loop i (head @ List.rev !pre) test ~enter (edge i into)
            (close (edge i out))
        | _ ->
          let body = close (wrap inner (block_code i)) in
          let rec go r =
            let k = body r in
            if k = i then go r else k
          in
          go
      in
      wrap outer ([], Code loop)
    end
  (* block [i]'s own steps and terminator *)
  and block_code i : arm =
    let b = barr.(i) in
    let steps = List.concat_map compile_node (body_in_order b) in
    let pre = ref [] in
    let more, ctl =
      match term_of.(i) with
      | Jump t -> edge i t
      | Br (c, t1, t2) -> (
        match exit_only t2 with
        | Some se ->
          let check = guard pre b c t2 se in
          let s1, c1 = edge i t1 in
          (check :: s1, c1)
        | None ->
          let test = test_of pre b c in
          let a1 = edge i t1 in
          ([], If (test, a1, edge i t2)))
      | Ir.Ret s ->
        let a = read pre Lval s in
        ([], Code (fun r -> let v = r.vals in v.(result_slot) <- v.(a); -1))
      | Exit se ->
        let run = compile_exit se in
        ([], Code (fun r -> r.vals.(result_slot) <- run r; -1))
      | Unreachable msg ->
        ([], Code (fun _ -> vm_error "reached unreachable block: %s" msg))
    in
    (steps @ List.rev_append !pre more, ctl)
  (* the copy of edge [i -> t], then the target spliced or gone to *)
  and edge i (t : target) : arm =
    let v = idx_of t.tblock in
    let cp = compile_jump t in
    if v > i && fwd.(v) = 1 && not tramp.(v) then
      let s, c = tree v in
      (cp @ s, c)
    else (cp, Goto v)
  in
  let compiled = Array.make n (fun _ -> -1) in
  compiled.(0) <- close (tree 0);
  if not forest.reducible then
    for i = 1 to n - 1 do
      compiled.(i) <- close (tree i)
    done;
  if trace && !Irtrace.on then
    Snapshot.take g (Phases.Schedule (mode_name ~boxed))
      ~exclude:(fun s -> Hashtbl.mem fused s || is_folded s)
      ~meta:
        [
          ("blocks", string_of_int nblocks);
          ("folded", string_of_int (T.length folded_into));
          ("loops", string_of_int !loops);
          ("threaded", string_of_int !threaded);
          ( "trampolined",
            string_of_int (Array.fold_left (fun k b -> if b then k + 1 else k) 0 tramp) );
        ];
  let nparams = g.nparams in
  let ni = counts.(0) and nf = counts.(1) and nv = counts.(2) in
  let kints = Array.of_list !kints
  and kfloats = Array.of_list !kfloats
  and kvals = Array.of_list !kvals in
  let entries lane =
    Hashtbl.fold
      (fun (k, l) i acc -> if l = lane then (k, i) :: acc else acc)
      entry []
    |> Array.of_list
  in
  let ient = entries Lint and fent = entries Lfloat in
  let registers () =
    let r =
      {
        ints = Array.make ni 0;
        floats = Array.make nf 0.0;
        vals = Array.make nv Null;
      }
    in
    Array.iter (fun (i, x) -> r.ints.(i) <- x) kints;
    Array.iter (fun (i, x) -> r.floats.(i) <- x) kfloats;
    Array.iter (fun (i, x) -> r.vals.(i) <- x) kvals;
    r
  in
  (* The arguments into the register file; false when one has not the
     kind its entry slots need. *)
  let fill r args =
    Array.blit args 0 r.vals 1 nparams;
    let ok = ref true in
    for j = 0 to Array.length ient - 1 do
      let k, i = ient.(j) in
      match args.(k) with Int x -> r.ints.(i) <- x | _ -> ok := false
    done;
    for j = 0 to Array.length fent - 1 do
      let k, i = fent.(j) in
      match args.(k) with
      | Float x -> r.floats.(i) <- x
      | Int x -> r.floats.(i) <- float_of_int x
      | _ -> ok := false
    done;
    !ok
  in
  (* The boxed mode's code for this graph, built by the first call whose
     arguments fail the entry check (the boxed mode has no entry slots, so
     its own calls never do), recording no snapshot and no missed
     optimization. *)
  let slow = Atomic.make None in
  let boxed_code () =
    match Atomic.get slow with
    | Some f -> f
    | None ->
      let f = spanned ~boxed:true ~trace:false hooks g in
      if Atomic.compare_and_set slow None (Some f) then f
      else Option.get (Atomic.get slow)
  in
  (* One pooled register file, taken for the length of a call.  A call that
     finds the pool empty (recursion, another domain, or an earlier call
     that raised) makes a fresh one.  SSA: no step reads a stale slot, and
     no step writes a constant's slot. *)
  let empty = { ints = [||]; floats = [||]; vals = [||] } in
  let pool = Atomic.make empty in
  fun args ->
    (* a short call reads its missing arguments as null, as an interpreter
       frame does, and a long one drops the extra; a null fails the entry
       check, so the boxed code raises the interpreter's error *)
    let args =
      if Array.length args >= nparams then args
      else Array.append args (Array.make (nparams - Array.length args) Null)
    in
    let r = Atomic.exchange pool empty in
    let r = if r == empty then registers () else r in
    if fill r args then begin
      (try
         let bid = ref 0 in
         while !bid >= 0 do
           bid := compiled.(!bid) r
         done
       with Guard_miss -> ());
      let v = r.vals.(result_slot) in
      Atomic.set pool r;
      v
    end
    else begin
      Atomic.set pool r;
      boxed_code () args
    end

(* Attributes backend compile time in traces (a no-op single branch when no
   observability sink is attached). *)
and spanned ~boxed ~trace hooks g =
  Obs.span ~cat:Phases.cat_jit (Phases.span_backend (mode_name ~boxed))
    (fun () -> lower ~boxed ~trace hooks g)

(* The typed mode; raises [Fallback] when the graph's types disagree with
   the lanes. *)
let compile ~hooks g = spanned ~boxed:false ~trace:true hooks g

(* The boxed mode, which lowers any graph. *)
let compile_boxed ~hooks g = spanned ~boxed:true ~trace:true hooks g
