(* Control-flow analyses over bytecode at instruction granularity:
   successors, immediate postdominators (used to locate the join point of
   a conditional) and loop headers (used to drive the abstract-
   interpretation fixpoint of paper Sec. 2.2), the latter from the
   loop-nest forest the typed backend also builds ([Lms.Loop_forest]). *)

open Vm.Types

type t = {
  code : instr array;
  n : int;
  succs : int list array;
  ipostdom : int array; (* -1 = exits / no postdominator *)
  loop_headers : bool array; (* targets of back edges from reachable pcs *)
}

let successors code pc =
  match code.(pc) with
  | Goto t -> [ t ]
  | If (_, t) | Iff (_, t) | Ifz (_, t) | Ifnull (_, t) -> [ pc + 1; t ]
  | Ret | Retv | Trap _ -> []
  | Const _ | Load _ | Store _ | Dup | Pop | Swap | Iop _ | Ineg | Fop _
  | Fneg | I2f | F2i | New _ | Getfield _ | Putfield _ | Getglobal _
  | Putglobal _ | Newarr | Newfarr | Aload | Astore | Faload | Fastore | Alen
  | Invoke _ ->
    [ pc + 1 ]

(* bitset helpers over int arrays *)
module Bits = struct
  let make n full =
    let words = (n + 62) / 63 in
    Array.make (max words 1) (if full then -1 else 0)

  let mem b i = b.(i / 63) land (1 lsl (i mod 63)) <> 0
  let add b i = b.(i / 63) <- b.(i / 63) lor (1 lsl (i mod 63))

  let inter_into dst src =
    let changed = ref false in
    for w = 0 to Array.length dst - 1 do
      let v = dst.(w) land src.(w) in
      if v <> dst.(w) then begin
        dst.(w) <- v;
        changed := true
      end
    done;
    !changed

  let copy = Array.copy
end

(* Exit-augmented postdominators, by standard iterative bitset dataflow
   in reverse; bytecode methods are small. *)
let analyze (code : instr array) : t =
  let n = Array.length code in
  let succs = Array.init n (fun pc -> List.filter (fun s -> s < n) (successors code pc)) in
  (* postdominators, with a virtual exit node joining all Ret/Trap *)
  let pdom = Array.init n (fun _ -> Bits.make n true) in
  let is_exit pc = succs.(pc) = [] in
  for pc = 0 to n - 1 do
    if is_exit pc then begin
      pdom.(pc) <- Bits.make n false;
      Bits.add pdom.(pc) pc
    end
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      if not (is_exit pc) then begin
        match succs.(pc) with
        | [] -> ()
        | s0 :: rest ->
          let acc = Bits.copy pdom.(s0) in
          List.iter (fun s -> ignore (Bits.inter_into acc pdom.(s))) rest;
          Bits.add acc pc;
          let old = Bits.copy pdom.(pc) in
          Array.blit acc 0 pdom.(pc) 0 (Array.length acc);
          if old <> pdom.(pc) then changed := true
      end
    done
  done;
  (* immediate postdominator: the postdominator (other than pc itself) that is
     postdominated by all other postdominators of pc *)
  let pd_list pc =
    let l = ref [] in
    for i = 0 to n - 1 do
      if i <> pc && Bits.mem pdom.(pc) i then l := i :: !l
    done;
    !l
  in
  let ipostdom =
    Array.init n (fun pc ->
        let cands = pd_list pc in
        let is_ipd c =
          List.for_all (fun o -> o = c || Bits.mem pdom.(c) o) cands
        in
        match List.find_opt is_ipd cands with Some c -> c | None -> -1)
  in
  let forest = Lms.Loop_forest.build ~entry:0 ~succs:(fun pc -> succs.(pc)) in
  let loop_headers = Array.make n false in
  Array.iteri
    (fun i pc -> loop_headers.(pc) <- Lms.Loop_forest.is_header forest i)
    forest.order;
  { code; n; succs; ipostdom; loop_headers }

let is_loop_header t pc = pc < t.n && t.loop_headers.(pc)

type analysis += Cfg of t

(* One analysis per method body, cached on the method's runtime, so it
   dies with the runtime; the runtime's tier lock guards the table, as
   background compile workers stage on domains of their own. *)
let of_method rt (m : meth) : t =
  let code =
    match m.mcode with
    | Bytecode c -> c
    | Native _ -> invalid_arg "Bcfg.of_method: native method"
  in
  let cached () = Hashtbl.find_opt rt.analyses m.mid in
  match Vm.Runtime.with_tier_lock rt cached with
  | Some (Cfg t) when t.code == code -> t
  | _ ->
    let t = analyze code in
    Vm.Runtime.with_tier_lock rt (fun () ->
        Hashtbl.replace rt.analyses m.mid (Cfg t));
    t
