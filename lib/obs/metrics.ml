(* The `--metrics` export: log-scale histograms, and the JSON and Prometheus
   text writers over a list of named series.  This module sums no events:
   the series are read off one run's [Profiler] (`Profiler.metrics`).

   Exported as JSON (for `lancet run --metrics out.json`) and as Prometheus
   text exposition format (for out.prom), so a run's numbers drop straight
   into existing dashboards. *)

(* Log-scale histogram: bucket [i] holds observations with
   value <= lo * base^i; the last bucket is the overflow (+Inf) bucket. *)
type histogram = {
  h_lo : float;
  h_base : float;
  h_counts : int array; (* per bucket *)
  mutable h_sum : float;
  mutable h_n : int;
}

let histogram ?(lo = 0.001) ?(base = 2.0) ?(buckets = 28) () =
  {
    h_lo = lo;
    h_base = Float.max 1.01 base;
    h_counts = Array.make (max 2 buckets) 0;
    h_sum = 0.0;
    h_n = 0;
  }

let nb h = Array.length h.h_counts

(* Upper bound of bucket [i]; the last bucket reads as +Inf in exports. *)
let bucket_le h i = h.h_lo *. (h.h_base ** float_of_int i)

(* The upper bound of bucket [i] as the exports print it. *)
let le h i = if i = nb h - 1 then "+Inf" else Printf.sprintf "%g" (bucket_le h i)

let bucket_index h v =
  if v <= h.h_lo then 0
  else
    let i =
      int_of_float (Float.ceil (Float.log (v /. h.h_lo) /. Float.log h.h_base))
    in
    if i < 0 then 0 else if i > nb h - 1 then nb h - 1 else i

let observe h v =
  let b = bucket_index h v in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_n <- h.h_n + 1

let histo_count h = h.h_n

(* q in [0,1]; reports the upper bound of the first bucket whose cumulative
   count reaches q * total (0.0 when empty) — the usual bucketed-quantile
   upper estimate. *)
let percentile h q =
  if h.h_n = 0 then 0.0
  else begin
    let target = Float.max 1.0 (Float.ceil (q *. float_of_int h.h_n)) in
    let cum = ref 0 in
    let res = ref (bucket_le h (nb h - 1)) in
    (try
       for i = 0 to nb h - 1 do
         cum := !cum + h.h_counts.(i);
         if float_of_int !cum >= target then begin
           res := bucket_le h i;
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)

type value = Counter of int | Gauge of float | Histogram of histogram

(* One exported series: name, HELP text, value.  Both writers keep the
   list's order within each kind. *)
type series = string * string * value

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_value = function
  | Counter n -> string_of_int n
  | Gauge v -> Printf.sprintf "%g" v
  | Histogram h ->
    let buckets =
      List.filter_map
        (fun j ->
          let c = h.h_counts.(j) in
          if c = 0 then None
          else if j = nb h - 1 then Some (Printf.sprintf "{\"le\": \"+Inf\", \"n\": %d}" c)
          else Some (Printf.sprintf "{\"le\": %s, \"n\": %d}" (le h j) c))
        (List.init (nb h) Fun.id)
    in
    Printf.sprintf
      "{\"count\": %d, \"sum\": %g, \"p50\": %g, \"p90\": %g, \"p99\": %g, \
       \"buckets\": [%s]}"
      h.h_n h.h_sum (percentile h 0.50) (percentile h 0.90) (percentile h 0.99)
      (String.concat ", " buckets)

(* Counters, gauges and histograms, each in an object of its own. *)
let to_json (series : series list) =
  let section (title, kind) =
    let rows =
      List.filter_map
        (fun (name, _, v) ->
          if kind v then
            Some (Printf.sprintf "\n    \"%s\": %s" (json_escape name) (json_value v))
          else None)
        series
    in
    Printf.sprintf "  \"%s\": {%s\n  }" title (String.concat "," rows)
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map section
         [
           ("counters", function Counter _ -> true | _ -> false);
           ("gauges", function Gauge _ -> true | _ -> false);
           ("histograms", function Histogram _ -> true | _ -> false);
         ])
  ^ "\n}\n"

let prom_name s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_') s

(* Prometheus text exposition format, §"text format details": HELP/TYPE
   comments, cumulative _bucket{le=...} series, _sum and _count. *)
let to_prometheus (series : series list) =
  let b = Buffer.create 1024 in
  let header name help typ =
    if help <> "" then
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun (name, help, v) ->
      let name = "lancet_" ^ prom_name name in
      match v with
      | Counter n ->
        let name = name ^ "_total" in
        header name help "counter";
        Buffer.add_string b (Printf.sprintf "%s %d\n" name n)
      | Gauge v ->
        header name help "gauge";
        Buffer.add_string b (Printf.sprintf "%s %g\n" name v)
      | Histogram h ->
        header name help "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun j c ->
            cum := !cum + c;
            if c > 0 || j = nb h - 1 then
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (le h j) !cum))
          h.h_counts;
        Buffer.add_string b (Printf.sprintf "%s_sum %g\n" name h.h_sum);
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.h_n))
    series;
  Buffer.contents b
