(* The four workloads: their Mini programs, seeded inputs and the references
   every op's output is checked against.  References are plain OCaml and
   never touch the VM or the JIT, so a miscompile cannot agree with itself.

   Inputs are generated from [(seed, op index)] before anything is timed;
   the program receives only these values. *)

open Vm.Types

type mode =
  | Plain  (** [Lancet.Api.boot ()]: explicit [Lancet.compile] only *)
  | Tiered  (** [--tiered], synchronous compiles on the mutator *)
  | Tiered_bg  (** [--tiered --jit-threads 1]: one background compile worker *)

type t = {
  name : string;
  mode : mode;
  src : string;  (** the Mini program loaded into every fresh runtime *)
  ops_per_runtime : int;
      (** consecutive ops that share one runtime, booted and loaded in a
          process of their own before the first of them.  With 1, every op
          boots and loads its own runtime as part of the op (loop-once). *)
  ops_per_second : int;
      (** ops per second of [--seconds]: fixed, so a run's op count depends
          on its arguments only and the traced run repeats the same ops *)
  smoke_ops : int;
  prepare : seed:int -> first:int -> count:int -> smoke:bool -> corrupt:bool ->
    (Mini.Front.program -> bool) array;
      (** one closure per op [first .. first+count-1]: runs the op on a loaded
          program and reports whether its output equals the reference.  Each
          closure owns its inputs and runs once.  [corrupt] perturbs the
          reference of op [first], for the benchmark's self-test. *)
}

let rng ~seed ~salt i = Random.State.make [| seed; salt; i |]
let wrap32 i = Int32.to_int (Int32.of_int i)

(* The expected value of op [j] of a batch, perturbed for [corrupt]. *)
let expect ~corrupt j v = if corrupt && j = 0 then v + 1 else v

(* ------------------------------------------------------------------ *)
(* k-means (paper Table 2 kernels)                                      *)

let kmeans_src =
  {|
def sqdist(ps: farray, cs: farray, r: int, c: int, d: int): float = {
  var s = 0.0;
  for (j <- 0 until d) {
    val diff = ps[r * d + j] - cs[c * d + j];
    s = s + diff * diff
  };
  s
}
def nearest(ps: farray, cs: farray, r: int, d: int, k: int): int = {
  var best = 0;
  var bd = sqdist(ps, cs, r, 0, d);
  for (c <- 1 until k) {
    val dd = sqdist(ps, cs, r, c, d);
    if (dd < bd) { bd = dd; best = c }
  };
  best
}
def assign_all(ps: farray, cs: farray, n: int, d: int, k: int): int = {
  var s = 0;
  for (r <- 0 until n) { s = s + nearest(ps, cs, r, d, k) };
  s
}
def update(ps: farray, cs: farray, sums: farray, cnts: farray,
           n: int, d: int, k: int): unit = {
  for (i <- 0 until k * d) { sums[i] = 0.0 };
  for (c <- 0 until k) { cnts[c] = 0.0 };
  for (r <- 0 until n) {
    val c = nearest(ps, cs, r, d, k);
    cnts[c] = cnts[c] + 1.0;
    for (j <- 0 until d) { sums[c * d + j] = sums[c * d + j] + ps[r * d + j] }
  };
  for (c <- 0 until k) {
    if (cnts[c] > 0.0) {
      for (j <- 0 until d) { cs[c * d + j] = sums[c * d + j] / cnts[c] }
    }
  }
}
def kstep(ps: farray, cs: farray, sums: farray, cnts: farray,
          n: int, d: int, k: int, steps: int): int = {
  var t = 0;
  for (s <- 0 until steps) {
    t = t + assign_all(ps, cs, n, d, k);
    update(ps, cs, sums, cnts, n, d, k)
  };
  t
}
|}

(* The same steps in OCaml, in the same floating-point operation order, so
   centroids must agree bit for bit. *)
let kmeans_reference ps cs ~n ~d ~k ~steps =
  let sums = Array.make (k * d) 0.0 and cnts = Array.make k 0.0 in
  let sqdist r c =
    let s = ref 0.0 in
    for j = 0 to d - 1 do
      let diff = ps.((r * d) + j) -. cs.((c * d) + j) in
      s := !s +. (diff *. diff)
    done;
    !s
  in
  let nearest r =
    let best = ref 0 and bd = ref (sqdist r 0) in
    for c = 1 to k - 1 do
      let dd = sqdist r c in
      if dd < !bd then begin
        bd := dd;
        best := c
      end
    done;
    !best
  in
  let t = ref 0 in
  for _ = 1 to steps do
    for r = 0 to n - 1 do
      t := wrap32 (!t + nearest r)
    done;
    Array.fill sums 0 (k * d) 0.0;
    Array.fill cnts 0 k 0.0;
    for r = 0 to n - 1 do
      let c = nearest r in
      cnts.(c) <- cnts.(c) +. 1.0;
      for j = 0 to d - 1 do
        sums.((c * d) + j) <- sums.((c * d) + j) +. ps.((r * d) + j)
      done
    done;
    for c = 0 to k - 1 do
      if cnts.(c) > 0.0 then
        for j = 0 to d - 1 do
          cs.((c * d) + j) <- sums.((c * d) + j) /. cnts.(c)
        done
    done
  done;
  !t

(* Points drawn around k seeded centres; the initial centroids are the
   first k points, as the paper's k-means starts. *)
let kmeans_prepare ~seed ~first ~count ~smoke ~corrupt =
  let n = if smoke then 200 else 1000 and d = 4 and k = 8 in
  let steps = if smoke then 2 else 3 in
  Array.init count (fun j ->
      let r = rng ~seed ~salt:1 (first + j) in
      let centres = Array.init (k * d) (fun _ -> Random.State.float r 100.0) in
      let ps =
        Array.init (n * d) (fun i ->
            centres.((Random.State.int r k * d) + (i mod d))
            +. Random.State.float r 12.0 -. 6.0)
      in
      let cs = Array.sub ps 0 (k * d) in
      let want_cs = Array.copy cs in
      let want_t =
        expect ~corrupt j (kmeans_reference ps want_cs ~n ~d ~k ~steps)
      in
      let sums = Array.make (k * d) 0.0 and cnts = Array.make k 0.0 in
      fun prog ->
        let got =
          Mini.Front.call prog "kstep"
            [| Farr ps; Farr cs; Farr sums; Farr cnts; Int n; Int d; Int k;
               Int steps |]
        in
        Vm.Value.to_int got = want_t && cs = want_cs)

(* ------------------------------------------------------------------ *)
(* CSV with a fresh column order per file (paper Table 1 / Fig. 3)      *)

let csv_cols = 20
let csv_summed = [| "K2"; "K4"; "K6"; "K8"; "K10"; "K12"; "K14"; "K16"; "K18" |]

(* A file whose header is a seeded permutation of K0..K19; each row carries
   the value for column Kc at that column's position. *)
let csv_file r ~rows =
  let perm = Array.init csv_cols Fun.id in
  for i = csv_cols - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let b = Buffer.create (rows * 80) in
  Array.iteri
    (fun p c ->
      if p > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "K%d" c))
    perm;
  Buffer.add_char b '\n';
  for _ = 1 to rows do
    Array.iteri
      (fun p c ->
        if p > 0 then Buffer.add_char b ',';
        if c = 5 then
          Buffer.add_string b (if Random.State.int r 4 = 0 then "yes" else "no")
        else Buffer.add_string b (string_of_int (Random.State.int r 1000)))
      perm;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* By-name sum: columns are located through the file's own header. *)
let csv_reference text =
  match String.split_on_char '\n' text with
  | [] -> 0
  | header :: rows ->
    let names = Array.of_list (String.split_on_char ',' header) in
    let pos key =
      let rec go i = if names.(i) = key then i else go (i + 1) in
      go 0
    in
    let summed = Array.map pos csv_summed and flag = pos "K5" in
    List.fold_left
      (fun total row ->
        if row = "" then total
        else begin
          let f = Array.of_list (String.split_on_char ',' row) in
          let acc =
            Array.fold_left
              (fun acc i -> wrap32 (acc + int_of_string f.(i)))
              0 summed
          in
          let acc = if f.(flag) = "yes" then wrap32 (acc + 1_000_000) else acc in
          wrap32 (total + acc)
        end)
      0 rows

(* Ops cycle through [csv_files] distinct files, which bounds the input
   memory; every op still compiles afresh, since [Lancet.compile] has no
   cache.  Each compiled function stays in [rt.compiled] for the runtime's
   life, and the memory it keeps grows with the size of its input, so a
   runtime serves [ops_per_runtime] files and peak RSS does not grow with
   the run's length. *)
let csv_files = 25

let csv_prepare ~seed ~first ~count ~smoke ~corrupt =
  let rows = if smoke then 40 else 1000 in
  let files =
    Array.init (min count csv_files) (fun f ->
        let text = csv_file (rng ~seed ~salt:2 (first + f)) ~rows in
        (text, csv_reference text))
  in
  Array.init count (fun j ->
      let text, want = files.(j mod csv_files) in
      let want = expect ~corrupt j want in
      fun prog ->
        Vm.Value.to_int (Mini.Front.call prog "run_specialized" [| Str text |])
        = want)

(* ------------------------------------------------------------------ *)
(* One call of a long loop (OSR-in's target: never promoted)            *)

let loop_src =
  {|
class Shape {
  var w: int
  def init(w: int): unit = { this.w = w }
  def area(x: int): int = this.w + x
}
class Circle extends Shape { def area(x: int): int = this.w * 3 + x }
class Square extends Shape { def area(x: int): int = this.w * 5 - x }
class Tri extends Shape { def area(x: int): int = (this.w + x) / 2 }
def run(xs: array[int], n: int): int = {
  val shapes = new array[Shape](3);
  shapes[0] = new Circle(3);
  shapes[1] = new Square(5);
  shapes[2] = new Tri(7);
  val len = xs.length;
  var acc = 0;
  for (i <- 0 until n) {
    val x = xs[i % len];
    xs[i % len] = (x * 31 + i) % 1000;
    acc = (acc + shapes[x % 3].area(x)) % 1000003
  };
  acc
}
|}

let loop_reference xs ~n =
  let len = Array.length xs in
  let area x =
    match x mod 3 with
    | 0 -> (3 * 3) + x
    | 1 -> (5 * 5) - x
    | _ -> (7 + x) / 2
  in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let x = xs.(i mod len) in
    xs.(i mod len) <- wrap32 ((x * 31) + i) mod 1000;
    acc := wrap32 (!acc + area x) mod 1000003
  done;
  !acc

let loop_prepare ~seed ~first ~count ~smoke ~corrupt =
  let n = if smoke then 20_000 else 40_000 and len = 256 in
  Array.init count (fun j ->
      let r = rng ~seed ~salt:3 (first + j) in
      let init = Array.init len (fun _ -> Random.State.int r 1000) in
      let want = expect ~corrupt j (loop_reference (Array.copy init) ~n) in
      let xs = Array.map (fun x -> Int x) init in
      fun prog ->
        Vm.Value.to_int (Mini.Front.call prog "run" [| Arr xs; Int n |]) = want)

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "kmeans-tiered";
      mode = Tiered;
      src = kmeans_src;
      ops_per_runtime = max_int;
      ops_per_second = 15;
      smoke_ops = 4;
      prepare = kmeans_prepare;
    };
    {
      name = "kmeans-bgjit";
      mode = Tiered_bg;
      src = kmeans_src;
      ops_per_runtime = max_int;
      ops_per_second = 15;
      smoke_ops = 4;
      prepare = kmeans_prepare;
    };
    {
      name = "csv-schemas";
      mode = Plain;
      src = Csvlib.Mini_src.specialized;
      ops_per_runtime = 250;
      ops_per_second = 150;
      smoke_ops = 6;
      prepare = csv_prepare;
    };
    {
      name = "loop-once";
      mode = Tiered;
      src = loop_src;
      ops_per_runtime = 1;
      ops_per_second = 20;
      smoke_ops = 3;
      prepare = loop_prepare;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
