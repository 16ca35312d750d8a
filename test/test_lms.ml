(* Tests for the LMS-style IR layer: builder, CSE, DCE, the closure backend,
   and the toy staged interpreter (paper Sec. 2.1-2.2, Fig. 5). *)

open Lms

let rt = Vm.Natives.boot ()

let check_int = Alcotest.(check int)

(* --- builder / backend basics ------------------------------------- *)

let test_straightline () =
  let b = Builder.create ~name:"add" ~nparams:2 () in
  let x = Builder.param b 0 Ir.Tint and y = Builder.param b 1 Ir.Tint in
  let s = Builder.iop b Vm.Types.Add x y in
  let s2 = Builder.iop b Vm.Types.Mul s (Builder.int b 3) in
  Builder.ret b s2;
  let fn =
    Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt)
      (Builder.graph b)
  in
  check_int "((4+5)*3)" 27 (Vm.Value.to_int (fn [| Int 4; Int 5 |]))

let test_cse () =
  let b = Builder.create ~name:"cse" ~nparams:2 () in
  let x = Builder.param b 0 Ir.Tint and y = Builder.param b 1 Ir.Tint in
  let s1 = Builder.iop b Vm.Types.Add x y in
  let s2 = Builder.iop b Vm.Types.Add x y in
  Alcotest.(check bool) "x+y hash-consed" true (s1 = s2);
  let s3 = Builder.iop b Vm.Types.Add y x in
  Alcotest.(check bool) "y+x is distinct" true (s1 <> s3);
  Builder.ret b s1

let test_dce () =
  let b = Builder.create ~name:"dce" ~nparams:1 () in
  let x = Builder.param b 0 Ir.Tint in
  let _dead = Builder.iop b Vm.Types.Mul x (Builder.int b 100) in
  let live = Builder.iop b Vm.Types.Add x (Builder.int b 1) in
  Builder.ret b live;
  let g = Builder.graph b in
  Ir.dead_code_elim g;
  check_int "only live node remains" 1 (Ir.node_count g);
  let fn = Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  check_int "x+1" 8 (Vm.Value.to_int (fn [| Int 7 |]))

let test_branch_join () =
  (* abs(x) via branch with a join param *)
  let b = Builder.create ~name:"abs" ~nparams:1 () in
  let g = Builder.graph b in
  let x = Builder.param b 0 Ir.Tint in
  let c = Builder.icmp b Vm.Types.Lt x (Builder.int b 0) in
  let bneg = Builder.new_block b and bjoin = Builder.new_block b in
  Builder.br b c (bneg, [||]) (bjoin, [| x |]);
  Builder.switch_to b bneg;
  let nx = Builder.emit b Ir.Ineg [| x |] Ir.Tint in
  Builder.jump b bjoin [| nx |];
  let p = Ir.add_block_param g bjoin Ir.Tint in
  Builder.switch_to b bjoin;
  Builder.ret b p;
  let fn = Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  check_int "abs -5" 5 (Vm.Value.to_int (fn [| Int (-5) |]));
  check_int "abs 9" 9 (Vm.Value.to_int (fn [| Int 9 |]))

let test_loop () =
  (* sum 0..n-1 with a loop header carrying (i, acc) *)
  let b = Builder.create ~name:"sum" ~nparams:1 () in
  let g = Builder.graph b in
  let n = Builder.param b 0 Ir.Tint in
  let zero = Builder.int b 0 in
  let head = Builder.new_block b in
  Builder.jump b head [| zero; zero |];
  let i = Ir.add_block_param g head Ir.Tint in
  let acc = Ir.add_block_param g head Ir.Tint in
  Builder.switch_to b head;
  let c = Builder.icmp b Vm.Types.Lt i n in
  let body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b c (body, [||]) (exit, [||]);
  Builder.switch_to b body;
  let acc' = Builder.iop b Vm.Types.Add acc i in
  let i' = Builder.iop b Vm.Types.Add i (Builder.int b 1) in
  Builder.jump b head [| i'; acc' |];
  Builder.switch_to b exit;
  Builder.ret b acc;
  let fn = Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  check_int "sum 10" 45 (Vm.Value.to_int (fn [| Int 10 |]));
  check_int "sum 0" 0 (Vm.Value.to_int (fn [| Int 0 |]))

(* Both execution backends on one graph: the closure backend's uniform
   boxed registers and the typed backend's int/float/value lanes. *)
let backends g =
  let hooks = Closure_backend.default_hooks rt in
  [
    ("closure", Closure_backend.compile ~hooks g);
    ("typed", Typed_backend.compile ~hooks g);
  ]

let test_loop_swap () =
  (* rotating loop params exercises the parallel-copy path: fib-ish *)
  let b = Builder.create ~name:"swap" ~nparams:1 () in
  let g = Builder.graph b in
  let n = Builder.param b 0 Ir.Tint in
  let head = Builder.new_block b in
  Builder.jump b head [| Builder.int b 0; Builder.int b 1; Builder.int b 0 |];
  let a = Ir.add_block_param g head Ir.Tint in
  let bb = Ir.add_block_param g head Ir.Tint in
  let i = Ir.add_block_param g head Ir.Tint in
  Builder.switch_to b head;
  let c = Builder.icmp b Vm.Types.Lt i n in
  let body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b c (body, [||]) (exit, [||]);
  Builder.switch_to b body;
  let s = Builder.iop b Vm.Types.Add a bb in
  let i' = Builder.iop b Vm.Types.Add i (Builder.int b 1) in
  (* pass (b, a+b): b becomes a — a swap-like rotation *)
  Builder.jump b head [| bb; s; i' |];
  Builder.switch_to b exit;
  Builder.ret b a;
  List.iter
    (fun (name, fn) ->
      let fib k = Vm.Value.to_int (fn [| Vm.Types.Int k |]) in
      check_int (name ^ ": fib 10") 55 (fib 10);
      check_int (name ^ ": fib 0") 0 (fib 0))
    (backends g)

let test_loop_swap_float () =
  (* a float-lane rotation (x, y, z) <- (y, z, x): the last move reads the
     slot the first one wrote, so only a parallel copy gets it right *)
  let b = Builder.create ~name:"frot" ~nparams:1 () in
  let g = Builder.graph b in
  let n = Builder.param b 0 Ir.Tint in
  let f v = Builder.const b (Vm.Types.Float v) in
  let head = Builder.new_block b in
  Builder.jump b head [| f 1.0; f 2.0; f 3.0; Builder.int b 0 |];
  let x = Ir.add_block_param g head Ir.Tfloat in
  let y = Ir.add_block_param g head Ir.Tfloat in
  let z = Ir.add_block_param g head Ir.Tfloat in
  let i = Ir.add_block_param g head Ir.Tint in
  Builder.switch_to b head;
  let c = Builder.icmp b Vm.Types.Lt i n in
  let body = Builder.new_block b and exit = Builder.new_block b in
  Builder.br b c (body, [||]) (exit, [||]);
  Builder.switch_to b body;
  let i' = Builder.iop b Vm.Types.Add i (Builder.int b 1) in
  Builder.jump b head [| y; z; x; i' |];
  Builder.switch_to b exit;
  let fop op a b' = Builder.emit b (Ir.Fop op) [| a; b' |] Ir.Tfloat in
  let digit d v = fop Vm.Types.FMul d (f v) in
  let xy = fop Vm.Types.FAdd (digit x 100.0) (digit y 10.0) in
  Builder.ret b (fop Vm.Types.FAdd xy z);
  List.iter
    (fun (name, fn) ->
      List.iter
        (fun (k, want) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d rotations give %g" name k want)
            true
            (Vm.Value.equal (Vm.Types.Float want) (fn [| Vm.Types.Int k |])))
        [ (0, 123.0); (4, 231.0); (5, 312.0) ])
    (backends g)

let test_jump_constants () =
  (* a join entered by two jumps whose arguments are all constants, one
     per lane *)
  let b = Builder.create ~name:"kjoin" ~nparams:1 () in
  let g = Builder.graph b in
  let x = Builder.param b 0 Ir.Tint in
  let c = Builder.icmp b Vm.Types.Lt x (Builder.int b 0) in
  let neg = Builder.new_block b and pos = Builder.new_block b in
  let join = Builder.new_block b in
  Builder.br b c (neg, [||]) (pos, [||]);
  Builder.switch_to b neg;
  let consts k f tag =
    [| Builder.int b k; Builder.const b (Float f); Builder.const b (Str tag) |]
  in
  Builder.jump b join (consts (-1) 0.5 "neg");
  Builder.switch_to b pos;
  Builder.jump b join (consts 2 2.5 "pos");
  let k = Ir.add_block_param g join Ir.Tint in
  let f = Ir.add_block_param g join Ir.Tfloat in
  let tag = Ir.add_block_param g join Ir.Tstr in
  Builder.switch_to b join;
  let kf = Builder.emit b Ir.I2f [| k |] Ir.Tfloat in
  let prod = Builder.emit b (Ir.Fop Vm.Types.FMul) [| kf; f |] Ir.Tfloat in
  let arr = Builder.emit b Ir.Newarr [| Builder.int b 2 |] Ir.Tarr in
  let _ = Builder.emit b Ir.Astore [| arr; Builder.int b 0; prod |] Ir.Tunit in
  let _ = Builder.emit b Ir.Astore [| arr; Builder.int b 1; tag |] Ir.Tunit in
  Builder.ret b arr;
  List.iter
    (fun (name, fn) ->
      List.iter
        (fun (x, want) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: x = %d" name x)
            true
            (Vm.Value.equal (Vm.Types.Arr want) (fn [| Vm.Types.Int x |])))
        [
          (-3, [| Vm.Types.Float (-0.5); Str "neg" |]);
          (4, [| Vm.Types.Float 5.0; Str "pos" |]);
        ])
    (backends g)

let test_typed_two_domains () =
  (* one typed kernel called from two domains at once: each call must get
     its own result back *)
  let b = Builder.create ~name:"triple" ~nparams:1 () in
  let x = Builder.param b 0 Ir.Tint in
  Builder.ret b (Builder.iop b Vm.Types.Mul x (Builder.int b 3));
  let fn =
    Typed_backend.compile ~hooks:(Closure_backend.default_hooks rt)
      (Builder.graph b)
  in
  let run base () =
    let bad = ref 0 in
    for i = 1 to 20_000 do
      if Vm.Value.to_int (fn [| Vm.Types.Int (base + i) |]) <> 3 * (base + i)
      then incr bad
    done;
    !bad
  in
  let other = Domain.spawn (run 1_000_000) in
  let here = run 0 () in
  check_int "wrong results, this domain" 0 here;
  check_int "wrong results, other domain" 0 (Domain.join other);
  (* Both domains at once call a kernel with a string for an int parameter
     the taken path never reads: both take the boxed code, which is built
     at most once per racing domain and then shared, and nothing raises. *)
  let src = "def pick(x: int, flag: int): int = if (flag > 0) x * 3 else 0 - 1" in
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt src in
  let m = Mini.Front.find_function p "pick" in
  let g = Lancet.Compiler.stage rt m [| Lancet.Compiler.Dyn; Dyn |] in
  let fn = Typed_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  let builds = Atomic.make 0 in
  let sink =
    {
      Obs.sink_name = "boxed-builds";
      sink_emit =
        (fun ~ts:_ -> function
          | Obs.Span_begin { name = "backend:closure"; _ } -> Atomic.incr builds
          | _ -> ());
      sink_flush = ignore;
    }
  in
  let ready = Atomic.make 0 in
  let run () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let bad = ref 0 in
    for _ = 1 to 2_000 do
      if fn [| Vm.Types.Str "s"; Int 0 |] <> Vm.Types.Int (-1) then incr bad
    done;
    !bad
  in
  Obs.with_sink sink (fun () ->
      let other = Domain.spawn run in
      let here = run () in
      check_int "mismatch path, this domain" 0 here;
      check_int "mismatch path, other domain" 0 (Domain.join other);
      let n = Atomic.get builds in
      Alcotest.(check bool) "boxed code built once per racing domain at most" true
        (n >= 1 && n <= 2);
      ignore (fn [| Vm.Types.Str "s"; Int 0 |]);
      check_int "later mismatches reuse the published code" n
        (Atomic.get builds));
  check_int "well-typed calls keep the fast path" 21
    (Vm.Value.to_int (fn [| Int 7; Int 1 |]))

(* A kernel's entry check: an int parameter given a string or a float.  The
   call runs the boxed code, so it returns the interpreter's result when the
   parameter is only read on a path not taken, and raises the boxed
   backend's error, after the store before the read, when it is read. *)
let test_typed_entry_check () =
  let src =
    "def k(xs: farray, n: int, flag: int): int = { xs[0] = 7.0; if (flag > \
     0) n + 1 else 0 }"
  in
  let rt = Lancet.Api.boot () in
  let p = Mini.Front.load rt src in
  let m = Mini.Front.find_function p "k" in
  let g = Lancet.Compiler.stage rt m (Array.make 3 Lancet.Compiler.Dyn) in
  let fn = Typed_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  let run f n flag =
    let xs = [| 0.0; 1.0 |] in
    let v =
      match f [| Vm.Types.Farr xs; n; Int flag |] with
      | v -> Ok (Vm.Value.to_string v)
      | exception Vm.Types.Vm_error e -> Error e
    in
    (v, xs)
  in
  let show (v, xs) =
    (match v with Ok v -> v | Error e -> "error: " ^ e)
    ^ Printf.sprintf " xs.(0)=%g" xs.(0)
  in
  List.iter
    (fun (bad, kind) ->
      Alcotest.(check string)
        (kind ^ ", parameter not read: the interpreter's result")
        (show (run (Vm.Interp.call rt m) bad 0))
        (show (run fn bad 0));
      Alcotest.(check string)
        (kind ^ ", parameter read: the error, after the store")
        ("error: expected int, got " ^ kind ^ " xs.(0)=7")
        (show (run fn bad 1));
      Alcotest.(check string)
        (kind ^ ", same as the interpreter")
        (show (run (Vm.Interp.call rt m) bad 1))
        (show (run fn bad 1));
      Alcotest.(check string)
        (kind ^ ", then a well-typed call") "42 xs.(0)=7"
        (show (run fn (Int 41) 1)))
    [ (Vm.Types.Str "x", "string"); (Float 2.5, "float") ]

let test_heap_ops () =
  let cls =
    Vm.Classfile.declare_class rt ~name:"PointLms"
      ~fields:[ ("x", false); ("y", false) ] ()
  in
  let fx = Vm.Classfile.field cls "x" and fy = Vm.Classfile.field cls "y" in
  let b = Builder.create ~name:"pt" ~nparams:2 () in
  let p0 = Builder.param b 0 Ir.Tint and p1 = Builder.param b 1 Ir.Tint in
  let o = Builder.emit b (Ir.NewObj cls) [||] Ir.Tobj in
  let _ = Builder.emit b (Ir.Putfield fx) [| o; p0 |] Ir.Tunit in
  let _ = Builder.emit b (Ir.Putfield fy) [| o; p1 |] Ir.Tunit in
  let rx = Builder.emit b (Ir.Getfield fx) [| o |] Ir.Tint in
  let ry = Builder.emit b (Ir.Getfield fy) [| o |] Ir.Tint in
  Builder.ret b (Builder.iop b Vm.Types.Add rx ry);
  let fn =
    Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt)
      (Builder.graph b)
  in
  check_int "field roundtrip" 30 (Vm.Value.to_int (fn [| Int 10; Int 20 |]))

let test_pretty () =
  let b = Builder.create ~name:"pp" ~nparams:1 () in
  let x = Builder.param b 0 Ir.Tint in
  Builder.ret b (Builder.iop b Vm.Types.Add x (Builder.int b 2));
  let s = Pretty.graph_to_string (Builder.graph b) in
  Alcotest.(check bool) "mentions iadd" true (Util.contains_sub s "iadd")

(* --- toy staged interpreter ---------------------------------------- *)

open Toy

let toy_pow =
  (* res = 1; while (i < n) { res = res * base; i = i + 1 } *)
  Seq
    [
      Assign ("res", Const 1);
      Assign ("i", Const 0);
      While
        ( Lt (Var "i", Var "n"),
          Seq
            [
              Assign ("res", Times (Var "res", Var "base"));
              Assign ("i", Plus (Var "i", Const 1));
            ] );
    ]

let test_toy_interp () =
  check_int "interp pow 2^10" 1024
    (run_interp ~inputs:[ "base"; "n" ] ~result:"res" toy_pow [ 2; 10 ])

let test_toy_compile () =
  let fn = compile rt ~inputs:[ "base"; "n" ] ~result:"res" toy_pow in
  check_int "compiled pow 2^10" 1024 (fn [ 2; 10 ]);
  check_int "compiled pow 3^4" 81 (fn [ 3; 4 ])

let test_toy_const_fold () =
  (* with constant inputs the whole loop folds away *)
  let prog =
    Seq [ Assign ("n", Const 5); Assign ("base", Const 2); toy_pow ]
  in
  let g = stage ~inputs:[] ~result:"res" prog in
  check_int "fully static program residualizes to nothing" 0 (Ir.node_count g);
  let fn = Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  check_int "result" 32 (Vm.Value.to_int (fn [||]))

let test_toy_partially_static () =
  (* base static, n dynamic: multiplications stay, bookkeeping folds *)
  let prog = Seq [ Assign ("base", Const 2); toy_pow ] in
  let g = stage ~inputs:[ "n" ] ~result:"res" prog in
  let fn = Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  check_int "2^8" 256 (Vm.Value.to_int (fn [| Int 8 |]))

let test_toy_if_join () =
  let prog =
    Seq
      [
        Assign ("r", Const 0);
        If (Lt (Var "x", Const 10), Assign ("r", Const 1), Assign ("r", Const 2));
      ]
  in
  let fn = compile rt ~inputs:[ "x" ] ~result:"r" prog in
  check_int "then" 1 (fn [ 3 ]);
  check_int "else" 2 (fn [ 30 ])

let test_toy_static_if () =
  let prog =
    Seq
      [
        Assign ("x", Const 3);
        If (Lt (Var "x", Const 10), Assign ("r", Const 1), Assign ("r", Const 2));
      ]
  in
  let g = stage ~inputs:[] ~result:"r" prog in
  check_int "static if residualizes to nothing" 0 (Ir.node_count g)

(* qcheck property: staged-then-compiled == interpreted, over random progs *)
let gen_exp =
  QCheck.Gen.(
    sized @@ fix (fun self k ->
        let leaf =
          oneof
            [
              map (fun i -> Toy.Const i) (int_range (-20) 20);
              oneofl [ Toy.Var "a"; Toy.Var "b"; Toy.Var "c" ];
            ]
        in
        if k <= 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 3,
                map2
                  (fun a b -> Toy.Plus (a, b))
                  (self (k / 2)) (self (k / 2)) );
              ( 2,
                map2
                  (fun a b -> Toy.Minus (a, b))
                  (self (k / 2)) (self (k / 2)) );
              ( 2,
                map2
                  (fun a b -> Toy.Times (a, b))
                  (self (k / 2)) (self (k / 2)) );
              (1, map2 (fun a b -> Toy.Lt (a, b)) (self (k / 2)) (self (k / 2)));
            ]))

(* Loop counters get fresh names never assigned by loop bodies, so every
   generated program terminates. *)
let loop_counter = ref 0

let gen_stm =
  QCheck.Gen.(
    sized @@ fix (fun self k ->
        let assign =
          map2
            (fun x e -> Toy.Assign (x, e))
            (oneofl [ "a"; "b"; "c"; "r" ])
            (gen_exp >|= fun e -> e)
        in
        if k <= 0 then assign
        else
          frequency
            [
              (3, assign);
              ( 2,
                map2 (fun a b -> Toy.Seq [ a; b ]) (self (k / 2)) (self (k / 2))
              );
              ( 2,
                map3
                  (fun c t f -> Toy.If (c, t, f))
                  gen_exp (self (k / 2)) (self (k / 2)) );
              ( 1,
                (* bounded loop: while (v < const) { body; v = v + 1 } with a
                   fresh counter v that the body cannot mention *)
                map2
                  (fun bound body ->
                    incr loop_counter;
                    let v = Printf.sprintf "loop%d" !loop_counter in
                    Toy.Seq
                      [
                        Toy.Assign (v, Toy.Const 0);
                        Toy.While
                          ( Toy.Lt (Toy.Var v, Toy.Const bound),
                            Toy.Seq
                              [
                                body;
                                Toy.Assign (v, Toy.Plus (Toy.Var v, Toy.Const 1));
                              ] );
                      ])
                  (int_range 0 8) (self (k / 3)) );
            ]))

(* avoid division in random programs (Div by zero raises in both, but the
   interpreter raises OCaml Division_by_zero while staged code may fold) *)
let prop_staged_equals_interp =
  QCheck.Test.make ~name:"staged interpreter == direct interpreter" ~count:200
    (QCheck.make ~print:Lms.Toy.stm_to_string gen_stm)
    (fun prog ->
      let inputs = [ "a"; "b" ] in
      let args = [ 3; -7 ] in
      let expected = run_interp ~inputs ~result:"r" prog args in
      let fn = compile rt ~inputs ~result:"r" prog in
      fn args = expected)

let suite =
  [
    Alcotest.test_case "straightline" `Quick test_straightline;
    Alcotest.test_case "cse" `Quick test_cse;
    Alcotest.test_case "dce" `Quick test_dce;
    Alcotest.test_case "branch-join" `Quick test_branch_join;
    Alcotest.test_case "loop" `Quick test_loop;
    Alcotest.test_case "loop-param-rotation" `Quick test_loop_swap;
    Alcotest.test_case "loop-param-rotation-float" `Quick test_loop_swap_float;
    Alcotest.test_case "jump-constants" `Quick test_jump_constants;
    Alcotest.test_case "typed-two-domains" `Quick test_typed_two_domains;
    Alcotest.test_case "typed-entry-check" `Quick test_typed_entry_check;
    Alcotest.test_case "heap-ops" `Quick test_heap_ops;
    Alcotest.test_case "pretty" `Quick test_pretty;
    Alcotest.test_case "toy-interp" `Quick test_toy_interp;
    Alcotest.test_case "toy-compile" `Quick test_toy_compile;
    Alcotest.test_case "toy-const-fold" `Quick test_toy_const_fold;
    Alcotest.test_case "toy-partially-static" `Quick test_toy_partially_static;
    Alcotest.test_case "toy-if-join" `Quick test_toy_if_join;
    Alcotest.test_case "toy-static-if" `Quick test_toy_static_if;
    QCheck_alcotest.to_alcotest prop_staged_equals_interp;
  ]

let test_dce_cross_block () =
  (* regression: a value defined in one block and consumed only by a later
     block's terminator must survive DCE (needs a second marking pass) *)
  let b = Builder.create ~name:"dce2" ~nparams:2 () in
  let a = Builder.param b 0 Ir.Tint and bb = Builder.param b 1 Ir.Tint in
  let x = Builder.iop b Vm.Types.Sub bb (Builder.int b 0) in
  let y = Builder.iop b Vm.Types.Sub a bb in
  let z = Builder.iop b Vm.Types.Add x y in
  let next = Builder.new_block b in
  Builder.jump b next [||];
  Builder.switch_to b next;
  Builder.ret b z;
  let g = Builder.graph b in
  Ir.dead_code_elim g;
  check_int "all three ops survive" 3 (Ir.node_count g);
  let fn = Closure_backend.compile ~hooks:(Closure_backend.default_hooks rt) g in
  check_int "(b-0)+(a-b) = a" 3 (Vm.Value.to_int (fn [| Int 3; Int 9 |]))

let suite = suite @ [ Alcotest.test_case "dce-cross-block" `Quick test_dce_cross_block ]

(* --- loop forest and the typed backend's control-flow lowering ------- *)

(* The [schedule:typed] snapshot meta of each kernel [compile] builds. *)
let typed_meta compile =
  Irtrace.enable ();
  Fun.protect ~finally:Irtrace.disable (fun () ->
      compile ();
      List.filter_map
        (fun sn ->
          if sn.Irtrace.sn_phase = "schedule:typed" then
            Some sn.Irtrace.sn_meta
          else None)
        (Irtrace.snapshots ()))

(* A cycle with two entries: the entry branches into either of blocks A and
   B, which jump to each other until [i] reaches [n].  Neither dominates
   the other, so the graph is irreducible; the typed backend must run the
   cycle through its trampoline and agree with the boxed backend. *)
let two_entry_cycle () =
  let b = Builder.create ~name:"two-entry" ~nparams:1 () in
  let g = Builder.graph b in
  let n = Builder.param b 0 Ir.Tint in
  let ba = Builder.new_block b and bb = Builder.new_block b in
  let bx = Builder.new_block b in
  let zero = Builder.int b 0 in
  Builder.br b
    (Builder.icmp b Vm.Types.Lt n (Builder.int b 5))
    (ba, [| zero; zero |])
    (bb, [| zero; Builder.int b 1 |]);
  let side blk other ~mul ~add =
    let i = Ir.add_block_param g blk Ir.Tint in
    let acc = Ir.add_block_param g blk Ir.Tint in
    Builder.switch_to b blk;
    let i' = Builder.iop b Vm.Types.Add i (Builder.int b 1) in
    let acc' =
      Builder.iop b Vm.Types.Add
        (Builder.iop b Vm.Types.Mul acc (Builder.int b mul))
        (Builder.iop b Vm.Types.Add i (Builder.int b add))
    in
    Builder.br b (Builder.icmp b Vm.Types.Lt i' n) (other, [| i'; acc' |]) (bx, [| acc' |])
  in
  side ba bb ~mul:3 ~add:1;
  side bb ba ~mul:2 ~add:7;
  let r = Ir.add_block_param g bx Ir.Tint in
  Builder.switch_to b bx;
  Builder.ret b r;
  g

let test_irreducible_trampolines () =
  let g = two_entry_cycle () in
  let f = Loop_forest.build ~entry:g.Ir.entry ~succs:(fun bid ->
      match (Ir.block g bid).Ir.term with
      | Ir.Jump t -> [ t.Ir.tblock ]
      | Ir.Br (_, t1, t2) -> [ t1.Ir.tblock; t2.Ir.tblock ]
      | _ -> [])
  in
  Alcotest.(check bool) "irreducible" false f.Loop_forest.reducible;
  Alcotest.(check bool) "no natural loop" false
    (Array.exists (fun l -> l >= 0) f.Loop_forest.loop);
  (* the OCaml reference: A and B alternate from the side the entry picks *)
  let reference n =
    let wrap x = Vm.Value.wrap32 x in
    let rec go a i acc =
      let i' = i + 1 in
      let acc' = if a then wrap (wrap (acc * 3) + (i + 1)) else wrap (wrap (acc * 2) + (i + 7)) in
      if i' < n then go (not a) i' acc' else acc'
    in
    if n < 5 then go true 0 0 else go false 0 1
  in
  let fns = ref [] in
  let metas = typed_meta (fun () -> fns := backends g) in
  List.iter
    (fun n ->
      List.iter
        (fun (name, fn) ->
          check_int
            (Printf.sprintf "%s, n=%d" name n)
            (reference n)
            (Vm.Value.to_int (fn [| Vm.Types.Int n |])))
        !fns)
    [ 0; 1; 2; 4; 5; 6; 9 ];
  match metas with
  | [ meta ] ->
    Alcotest.(check string) "no native loop" "0" (List.assoc "loops" meta);
    Alcotest.(check bool) "the cycle takes the trampoline" true
      (int_of_string (List.assoc "trampolined" meta) > 0)
  | _ -> Alcotest.fail "expected one schedule:typed snapshot"

(* The forest of a reducible nest, given as successor lists: an outer loop
   whose body holds an inner loop and then an if/else. *)
let test_loop_forest_nest () =
  let succs = function
    | 0 -> [ 1 ] (* entry -> outer header *)
    | 1 -> [ 2; 7 ] (* outer header -> body, exit *)
    | 2 -> [ 3 ] (* -> inner header *)
    | 3 -> [ 4; 5 ] (* inner header -> inner body, if *)
    | 4 -> [ 3 ] (* inner back edge *)
    | 5 -> [ 6; 8 ] (* if/else *)
    | 6 | 8 -> [ 9 ] (* both arms to the join *)
    | 9 -> [ 1 ] (* outer back edge *)
    | _ -> []
  in
  let f = Loop_forest.build ~entry:0 ~succs in
  let at = Loop_forest.position f in
  Alcotest.(check bool) "reducible" true f.Loop_forest.reducible;
  Alcotest.(check (list int)) "headers" [ 1; 3 ]
    (List.filter (fun id -> Loop_forest.is_header f (at id)) [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
  Alcotest.(check bool) "inner nested in outer" true
    (Loop_forest.in_loop f ~header:(at 1) (at 3));
  Alcotest.(check bool) "join in outer loop" true (Loop_forest.in_loop f ~header:(at 1) (at 9));
  Alcotest.(check bool) "join not in inner loop" false
    (Loop_forest.in_loop f ~header:(at 3) (at 9));
  Alcotest.(check bool) "exit in no loop" false (Loop_forest.in_loop f ~header:(at 1) (at 7));
  check_int "join's idom is the if" (at 5) f.Loop_forest.idom.(at 9);
  Alcotest.(check bool) "back edge" true (Loop_forest.back_edge f (at 9) (at 1))

let suite =
  suite
  @ [
      Alcotest.test_case "irreducible-trampolines" `Quick test_irreducible_trampolines;
      Alcotest.test_case "loop-forest-nest" `Quick test_loop_forest_nest;
    ]
