(* The paper's Section 2.1/2.2 in miniature (Fig. 5): a toy While-language,
   its definitional interpreter, and the staged interpreter obtained by
   switching the value domain from [int] to [sym] — which *is* a compiler.
   The staged version also carries the abstract store (Const/Dyn) and
   iterates loop bodies to a fixpoint, exactly the pseudocode of Sec. 2.2. *)

module StringMap = Map.Make (String)

type exp =
  | Const of int
  | Var of string
  | Plus of exp * exp
  | Minus of exp * exp
  | Times of exp * exp
  | Div of exp * exp
  | Lt of exp * exp
  | Eq of exp * exp

type stm =
  | Assign of string * exp
  | Seq of stm list
  | If of exp * stm * stm
  | While of exp * stm
  | Skip

type store = int StringMap.t

(* ------------------------------------------------------------------ *)
(* The interpreter, read off the denotational semantics.               *)

(* Arithmetic wraps to 32 bits, the semantics of the VM's integer ops; the
   staged interpreter's constant folding must agree exactly. *)
let w32 = Vm.Value.wrap32

let rec eval (e : exp) (st : store) : int =
  match e with
  | Const c -> c
  | Var x -> (try StringMap.find x st with Not_found -> 0)
  | Plus (a, b) -> w32 (eval a st + eval b st)
  | Minus (a, b) -> w32 (eval a st - eval b st)
  | Times (a, b) -> w32 (eval a st * eval b st)
  | Div (a, b) -> w32 (eval a st / eval b st)
  | Lt (a, b) -> if eval a st < eval b st then 1 else 0
  | Eq (a, b) -> if eval a st = eval b st then 1 else 0

let rec exec (s : stm) (st : store) : store =
  match s with
  | Assign (x, e) -> StringMap.add x (eval e st) st
  | Seq ss -> List.fold_left (fun st s -> exec s st) st ss
  | If (c, t, f) -> if eval c st <> 0 then exec t st else exec f st
  | While (c, body) ->
    let st = ref st in
    while eval c !st <> 0 do
      st := exec body !st
    done;
    !st
  | Skip -> st

(* ------------------------------------------------------------------ *)
(* The staged interpreter: values become IR symbols.  The abstract      *)
(* store tracks which variables are compile-time constants.             *)

type aval = AConst of int | ADyn

let lub a b =
  match a, b with
  | AConst x, AConst y when x = y -> AConst x
  | _, _ -> ADyn

type astate = { syms : Ir.sym StringMap.t; abs : aval StringMap.t }

let avar st x = try StringMap.find x st.abs with Not_found -> AConst 0

let aget abs x = try StringMap.find x abs with Not_found -> AConst 0

(* join over the union of keys; a variable absent on one side reads as the
   unassigned default (AConst 0), matching the interpreter. *)
let join_abs a b =
  StringMap.merge
    (fun _ x y ->
      Some (lub (Option.value x ~default:(AConst 0))
              (Option.value y ~default:(AConst 0))))
    a b

module StringSet = Set.Make (String)

let rec assigned_vars = function
  | Assign (x, _) -> StringSet.singleton x
  | Seq ss ->
    List.fold_left
      (fun acc s -> StringSet.union acc (assigned_vars s))
      StringSet.empty ss
  | If (_, t, f) -> StringSet.union (assigned_vars t) (assigned_vars f)
  | While (_, body) -> assigned_vars body
  | Skip -> StringSet.empty

(* Staged evaluation: fold when the abstract store proves constancy. *)
let rec eval_s bld (e : exp) (st : astate) : Ir.sym * aval =
  let binop op fold a b =
    let sa, aa = eval_s bld a st and sb, ab = eval_s bld b st in
    match aa, ab with
    | AConst x, AConst y ->
      let v = fold x y in
      (Builder.int bld v, AConst v)
    | _ -> (Builder.emit bld op [| sa; sb |] Ir.Tint, ADyn)
  in
  match e with
  | Const c -> (Builder.int bld c, AConst c)
  | Var x -> (
    match StringMap.find_opt x st.syms with
    | Some s -> (s, avar st x)
    | None -> (Builder.int bld 0, AConst 0))
  | Plus (a, b) -> binop (Ir.Iop Vm.Types.Add) (fun x y -> w32 (x + y)) a b
  | Minus (a, b) -> binop (Ir.Iop Vm.Types.Sub) (fun x y -> w32 (x - y)) a b
  | Times (a, b) -> binop (Ir.Iop Vm.Types.Mul) (fun x y -> w32 (x * y)) a b
  | Div (a, b) -> binop (Ir.Iop Vm.Types.Div) (fun x y -> w32 (x / y)) a b
  | Lt (a, b) -> binop (Ir.Icmp Vm.Types.Lt) (fun x y -> if x < y then 1 else 0) a b
  | Eq (a, b) -> binop (Ir.Icmp Vm.Types.Eq) (fun x y -> if x = y then 1 else 0) a b

(* Purely abstract execution, used to find the loop fixpoint (Sec. 2.2:
   "iterate until the abstract store at loop entry has converged"). *)
let rec exec_a (s : stm) (abs : aval StringMap.t) : aval StringMap.t =
  match s with
  | Assign (x, e) -> StringMap.add x (abs_eval e abs) abs
  | Seq ss -> List.fold_left (fun a s -> exec_a s a) abs ss
  | If (_, t, f) -> join_abs (exec_a t abs) (exec_a f abs)
  | While (_, body) ->
    let rec fix a =
      let a' = join_abs a (exec_a body a) in
      if StringMap.equal ( = ) a a' then a else fix a'
    in
    fix abs
  | Skip -> abs

and abs_eval (e : exp) abs : aval =
  match e with
  | Const c -> AConst c
  | Var x -> (try StringMap.find x abs with Not_found -> AConst 0)
  | Plus (a, b) -> abs_binop (fun x y -> w32 (x + y)) a b abs
  | Minus (a, b) -> abs_binop (fun x y -> w32 (x - y)) a b abs
  | Times (a, b) -> abs_binop (fun x y -> w32 (x * y)) a b abs
  | Div (a, b) -> (
    match abs_eval a abs, abs_eval b abs with
    | AConst x, AConst y when y <> 0 -> AConst (w32 (x / y))
    | _ -> ADyn)
  | Lt (a, b) -> abs_binop (fun x y -> if x < y then 1 else 0) a b abs
  | Eq (a, b) -> abs_binop (fun x y -> if x = y then 1 else 0) a b abs

and abs_binop f a b abs =
  match abs_eval a abs, abs_eval b abs with
  | AConst x, AConst y -> AConst (f x y)
  | _ -> ADyn

let rec exec_s bld (s : stm) (st : astate) : astate =
  match s with
  | Assign (x, e) ->
    let sym, a = eval_s bld e st in
    { syms = StringMap.add x sym st.syms; abs = StringMap.add x a st.abs }
  | Seq ss -> List.fold_left (fun st s -> exec_s bld s st) st ss
  | Skip -> st
  | If (c, t, f) -> (
    let csym, ca = eval_s bld c st in
    match ca with
    | AConst v -> exec_s bld (if v <> 0 then t else f) st
    | ADyn ->
      let bt = Builder.new_block bld and bf = Builder.new_block bld in
      Builder.br bld csym (bt, [||]) (bf, [||]);
      (* variables live after the if: anything bound before it, or assigned
         on either branch (unassigned reads default to 0) *)
      let vars =
        StringSet.union
          (StringSet.of_list (List.map fst (StringMap.bindings st.syms)))
          (StringSet.union (assigned_vars t) (assigned_vars f))
        |> StringSet.elements
      in
      let sym_of stx x =
        match StringMap.find_opt x stx.syms with
        | Some s -> s
        | None -> Builder.int bld 0
      in
      let join = Builder.new_block bld in
      Builder.switch_to bld bt;
      let st_t = exec_s bld t st in
      Builder.jump bld join
        (Array.of_list (List.map (sym_of st_t) vars));
      Builder.switch_to bld bf;
      let st_f = exec_s bld f st in
      Builder.jump bld join
        (Array.of_list (List.map (sym_of st_f) vars));
      let params =
        List.map (fun _ -> Ir.add_block_param (Builder.graph bld) join Ir.Tint) vars
      in
      Builder.switch_to bld join;
      let syms =
        List.fold_left2
          (fun m x p -> StringMap.add x p m)
          st.syms vars params
      in
      let abs =
        List.fold_left
          (fun m x -> StringMap.add x (lub (avar st_t x) (avar st_f x)) m)
          st.abs vars
      in
      { syms; abs })
  | While (c, body) ->
    (* While the condition is a compile-time constant the loop unrolls at
       staging time (classic partial evaluation); fuel bounds runaway static
       loops and falls back to residual code. *)
    let rec unroll st fuel =
      match abs_eval c st.abs with
      | AConst 0 -> st
      | AConst _ when fuel > 0 -> unroll (exec_s bld body st) (fuel - 1)
      | _ -> emit_loop st
    and emit_loop st =
      (* abstract fixpoint: which vars stay constant through the loop? *)
      let abs_fix =
        let rec fix a =
          let a' = join_abs a (exec_a body a) in
          if StringMap.equal ( = ) a a' then a else fix a'
        in
        fix st.abs
      in
      let g = Builder.graph bld in
      let vars =
        StringSet.union
          (StringSet.of_list (List.map fst (StringMap.bindings st.syms)))
          (assigned_vars body)
        |> StringSet.elements
      in
      let dyn_vars = List.filter (fun x -> aget abs_fix x = ADyn) vars in
      let sym_of stx x =
        match StringMap.find_opt x stx.syms with
        | Some s -> s
        | None -> Builder.int bld 0
      in
      let head = Builder.new_block bld in
      Builder.jump bld head
        (Array.of_list (List.map (sym_of st) dyn_vars));
      let params = List.map (fun _ -> Ir.add_block_param g head Ir.Tint) dyn_vars in
      Builder.switch_to bld head;
      let st_head =
        {
          syms =
            List.fold_left2
              (fun m x p -> StringMap.add x p m)
              st.syms dyn_vars params;
          abs = abs_fix;
        }
      in
      let csym, _ = eval_s bld c st_head in
      let bbody = Builder.new_block bld and bexit = Builder.new_block bld in
      Builder.br bld csym (bbody, [||]) (bexit, [||]);
      Builder.switch_to bld bbody;
      let st_body = exec_s bld body st_head in
      Builder.jump bld head
        (Array.of_list (List.map (sym_of st_body) dyn_vars));
      Builder.switch_to bld bexit;
      st_head
    in
    unroll st 10_000

(* Stage [prog] with respect to input variables [inputs] (dynamic function
   parameters); returns a graph computing the final value of [result]. *)
let stage ?(name = "toy") ~inputs ~result prog =
  let bld = Builder.create ~name ~nparams:(List.length inputs) () in
  let st =
    List.fold_left
      (fun (st, i) x ->
        ( {
            syms = StringMap.add x (Builder.param bld i Ir.Tint) st.syms;
            abs = StringMap.add x ADyn st.abs;
          },
          i + 1 ))
      ({ syms = StringMap.empty; abs = StringMap.empty }, 0)
      inputs
    |> fst
  in
  let st' = exec_s bld prog st in
  let rsym, _ =
    eval_s bld (Var result) st'
  in
  Builder.ret bld rsym;
  let g = Builder.graph bld in
  Ir.dead_code_elim g;
  g

(* Interpreter + staging = compiler: produce a runnable function. *)
let compile rt ?name ~inputs ~result prog : int list -> int =
  let g = stage ?name ~inputs ~result prog in
  let fn = Typed_backend.compile_boxed ~hooks:(Hooks.default_hooks rt) g in
  fun args ->
    let vs = Array.of_list (List.map (fun i -> Vm.Types.Int i) args) in
    Vm.Value.to_int (fn vs)

let rec pp_exp ppf = function
  | Const c -> Format.fprintf ppf "%d" c
  | Var x -> Format.fprintf ppf "%s" x
  | Plus (a, b) -> Format.fprintf ppf "(%a + %a)" pp_exp a pp_exp b
  | Minus (a, b) -> Format.fprintf ppf "(%a - %a)" pp_exp a pp_exp b
  | Times (a, b) -> Format.fprintf ppf "(%a * %a)" pp_exp a pp_exp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_exp a pp_exp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp_exp a pp_exp b
  | Eq (a, b) -> Format.fprintf ppf "(%a == %a)" pp_exp a pp_exp b

let rec pp_stm ppf = function
  | Assign (x, e) -> Format.fprintf ppf "%s = %a" x pp_exp e
  | Seq ss ->
    Format.fprintf ppf "{ %a }"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_stm)
      ss
  | If (c, t, f) ->
    Format.fprintf ppf "if (%a) %a else %a" pp_exp c pp_stm t pp_stm f
  | While (c, b) -> Format.fprintf ppf "while (%a) %a" pp_exp c pp_stm b
  | Skip -> Format.fprintf ppf "skip"

let stm_to_string s = Format.asprintf "%a" pp_stm s

(* Reference semantics for tests: run the interpreter on the same inputs. *)
let run_interp ~inputs ~result prog args =
  let st =
    List.fold_left2
      (fun st x v -> StringMap.add x v st)
      StringMap.empty inputs args
  in
  let st' = exec prog st in
  try StringMap.find result st' with Not_found -> 0
