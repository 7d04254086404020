(* Unit tests for the benchmark's own statistics helpers. *)

open Pstats

let check name b = if not b then failwith ("test_pstats: " ^ name)

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* nearest-rank quantiles *)
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "median of 1..100" (median xs = 50.0);
  check "q0 is the minimum" (quantile_sorted (sorted xs) 0.0 = 1.0);
  check "q1 is the maximum" (quantile_sorted (sorted xs) 1.0 = 100.0);
  check "median of one" (median [| 7.0 |] = 7.0);
  (* tail-sample rule: p99 needs 10 samples above its rank *)
  check "p99 of 100 samples withheld" (percentile xs 99.0 = None);
  check "p90 of 100 samples reported" (percentile xs 90.0 = Some 90.0);
  check "p91 of 100 samples withheld" (percentile xs 91.0 = None);
  let ys = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1000 samples" (percentile ys 99.0 = Some 990.0);
  check "p50 of 1000 samples" (percentile ys 50.0 = Some 500.0);
  check "empty withheld" (percentile [||] 50.0 = None);
  (* knee finder *)
  let ladder = [ (100., 10.); (200., 12.); (400., 30.); (800., 500.) ] in
  (match knee ~limit:50. ladder with
   | Knee k ->
     (* between 400 and 800: (50-30)/(500-30) of the way in log space *)
     let f = 20. /. 470. in
     check "interpolated knee"
       (close k (Float.exp (Float.log 400. +. (f *. Float.log 2.))));
     check "knee inside rungs" (k > 400. && k < 800.)
   | _ -> check "knee found" false);
  check "all pass is above the ladder"
    (knee ~limit:1000. ladder = Above_ladder);
  check "first rung failing is below the ladder"
    (knee ~limit:5. ladder = Below_ladder);
  check "failed request counts as over the limit"
    (knee ~limit:50. [ (100., 10.); (200., Float.infinity); (400., 1.) ]
     = Knee 100.);
  (match knee ~limit:30. ladder with
   | Knee k -> check "knee on the limit stays at the passing rung" (close k 400.)
   | _ -> check "knee on the limit found" false);
  (* span self time *)
  let sp name start stop parent = { name; start; stop; parent; req = 0 } in
  let spans =
    [| sp "req" 0 100 (-1);
       sp "a" 10 40 0;
       sp "b" 30 60 0 (* overlaps a: union 10..60 *);
       sp "c" 90 120 0 (* clipped to the parent: 90..100 *);
       sp "a.x" 15 20 1 |]
  in
  let st = self_times spans in
  check "root self time subtracts the union of children" (st.(0) = 100 - 60);
  check "child self time subtracts its own child" (st.(1) = 30 - 5);
  check "leaf self time is its duration" (st.(2) = 30 && st.(4) = 5);
  check "self times never negative" (Array.for_all (fun x -> x >= 0) st);
  print_endline "test_pstats: ok"
