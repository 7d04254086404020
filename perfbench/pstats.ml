(* Pure statistics for the benchmark: quantiles, the tail-sample rule
   for percentiles, the knee finder for a rate ladder, and span
   self-time subtraction. Kept free of the program's libraries so the
   unit tests exercise them alone. *)

(* Nearest-rank quantile of an ascending array, [q] in [0, 1]. *)
let quantile_sorted (a : float array) q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.quantile_sorted: empty";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs = quantile_sorted (sorted xs) 0.5

(* A percentile is reported only when at least [min_beyond] samples
   lie strictly above its rank: a p99 over 500 samples would rest on
   five values and move with each of them. *)
let min_beyond = 10

let percentile (xs : float array) p =
  let n = Array.length xs in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  if n = 0 || n - rank < min_beyond then None
  else Some (quantile_sorted (sorted xs) (p /. 100.0))

(* ---- Knee of an open-loop rate ladder -------------------------------

   Each rung is (offered rate, p99 latency), ascending by rate; a rung
   where any request failed carries [infinity]. The knee is the
   highest rate whose p99 stays within [limit]: the rung before the
   first failing one, moved toward the failing rung by linear
   interpolation in log(rate) to where p99 crosses the limit. A knee
   at either end of the ladder says the ladder does not bracket the
   system, so it is an error rather than a number. *)

type knee = Knee of float | Below_ladder | Above_ladder

let knee ~limit (rungs : (float * float) list) =
  let rec go prev = function
    | [] -> Above_ladder
    | (rate, p99) :: rest ->
      if p99 <= limit then go (Some (rate, p99)) rest
      else (
        match prev with
        | None -> Below_ladder
        | Some (r0, _) when p99 = Float.infinity -> Knee r0
        | Some (r0, p0) ->
          let f = (limit -. p0) /. (p99 -. p0) in
          let lr = Float.log r0 +. (f *. (Float.log rate -. Float.log r0)) in
          Knee (Float.exp lr))
  in
  go None rungs

(* ---- Span self time -------------------------------------------------

   A span's self time is its duration minus the part of its interval
   that its children cover. Children are clipped to the parent and
   their union is taken, so overlapping children (two threads working
   for one request) are not subtracted twice. [parent] is -1 for a
   root; the result is indexed like the input. *)

type span = { name : string; start : int; stop : int; parent : int; req : int }

let self_times (spans : span array) =
  let n = Array.length spans in
  let kids = Array.make n [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let iv =
        List.filter_map
          (fun c ->
            let a = max s.start spans.(c).start
            and b = min s.stop spans.(c).stop in
            if b > a then Some (a, b) else None)
          kids.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) iv
      in
      s.stop - s.start - covered)
    spans
