(** Log-scale latency histogram (HdrHistogram-style bucketing:
    32 sub-buckets per power of two gives ~3% value resolution), used
    for per-operation latencies in nanoseconds.

    This is the project-wide implementation; [Ycsb.Histogram] is a
    re-export so the load generator and the telemetry subsystem share
    one definition. *)

let sub_bits = 5

let sub_count = 1 lsl sub_bits

let n_buckets = 64 * sub_count

(* Most significant set bit of a positive int: the exponent field of
   its float conversion (exact below 2^53, far beyond any nanosecond
   latency recorded here). No allocation — recording runs on every
   traced op. *)
let msb v =
  if v <= 0 then invalid_arg "Histogram.msb";
  (Int64.to_int (Int64.bits_of_float (float_of_int v)) lsr 52) - 1023

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { counts = Array.make n_buckets 0; total = 0; sum = 0;
    vmin = max_int; vmax = 0 }

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0

let bucket_of v =
  let v = Int.max v 1 in
  let msb = msb v in
  if msb < sub_bits then v
  else
    let minor = (v lsr (msb - sub_bits)) land (sub_count - 1) in
    ((msb - sub_bits + 1) * sub_count) + minor

let value_of b =
  if b < sub_count then b
  else
    let major = (b / sub_count) + sub_bits - 1 in
    let minor = b land (sub_count - 1) in
    (1 lsl major) lor (minor lsl (major - sub_bits))

let record t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.total <- into.total + src.total;
  into.sum <- into.sum + src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax

let count t = t.total

let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

let min_value t = if t.total = 0 then 0 else t.vmin

let max_value t = t.vmax

let sum t = t.sum

(* Percentile edge cases: an empty histogram returns the sentinel 0
   (there is no sample to interpolate towards); a single-sample
   histogram returns that sample exactly. In general the answer is a
   bucket's lower bound clamped into [vmin, vmax] — without the vmin
   clamp a lone sample of 1000 would report p50 = 992, the bucket
   floor, a value that was never recorded. *)
let percentile t p =
  if t.total = 0 then 0
  else if t.total = 1 then t.vmin
  else begin
    let target =
      int_of_float (Float.round (p /. 100.0 *. float_of_int t.total))
    in
    let target = max 1 (min target t.total) in
    let rec go b acc =
      if b >= n_buckets then t.vmax
      else
        let acc = acc + t.counts.(b) in
        if acc >= target then max t.vmin (min (value_of b) t.vmax)
        else go (b + 1) acc
    in
    go 0 0
  end

(** Flat summary of a histogram as stats-style key/value pairs, each
    key prefixed with [prefix ^ ":"]. *)
let kvs ~prefix t =
  [ (prefix ^ ":count", string_of_int (count t));
    (prefix ^ ":mean_ns", Printf.sprintf "%.0f" (mean t));
    (prefix ^ ":p50_ns", string_of_int (percentile t 50.0));
    (prefix ^ ":p99_ns", string_of_int (percentile t 99.0));
    (prefix ^ ":max_ns", string_of_int (max_value t)) ]
