(* crash-recover: about 400k keys in a 256 MiB heap, 90% of them 128 B
   (bump-arena tier) and 10% 2 KiB (Ralloc classes). Each cycle runs a
   victim writer and a survivor writer; the victim is killed at a
   seeded sync point, Plib.recover runs and every acked write is
   verified. The run ends with Plib.shutdown (flush), Plib.restart and
   a last verification of every key. *)

open Harness

let nkeys = 400_000

let len_of i = if i mod 10 = 9 then 2048 else 128

let heap = 256 lsl 20

let hashpower = 19

let setups = 3

(* Writes per writer and cycle; the victim dies long before its last. *)
let victim_ops = 4_000

let survivor_ops = 1_500

(* Sync points of the victim before its kill: seeded in this range. *)
let kill_lo = 2_000

let kill_hi = 8_000

(* Single-client get+set pairs after each recovery, timed on the host. *)
let rewrite_ops = 1_500

let min_cycles = 6

let keys = lazy (Array.init nkeys key_of)

(* A writer's set: the in-flight version is noted before the call so a
   kill mid-call leaves a known "old or new" expectation. True when
   acked. *)
let write p model inflight i =
  let keys = Lazy.force keys in
  let v = model.(i) + 1 in
  inflight := Some (i, v);
  incr attempted;
  let r = Plib.set p keys.(i) (value_of ~len:(len_of i) i v) in
  inflight := None;
  match r with
  | Store.Stored ->
    model.(i) <- v;
    true
  | _ ->
    refused ();
    false

let setup ~speed =
  setup_direct ~size:heap ~hashpower ~keys:(Lazy.force keys) ~len_of ~speed

(* An unacked write must read back as its old or its new version, or
   as a miss: a set killed between unlinking the old item and linking
   the new one loses the key, which a cache may do. Never anything
   else; whatever survived becomes the model. *)
let settle p model = function
  | None -> ()
  | Some (i, v) ->
    let keys = Lazy.force keys in
    let r = in_vm (fun _ -> Plib.get p keys.(i)) in
    let is w =
      match r with
      | Some g -> w >= 0 && String.equal g.Store.value (value_of ~len:(len_of i) i w)
      | None -> w < 0
    in
    if is v then model.(i) <- v
    else if is (-1) then model.(i) <- -1
    else
      require (is model.(i))
        (Printf.sprintf "key %d: unacked write v%d torn (acked v%d)" i v model.(i))

(* The kill phase of one cycle, counted exactly. Returns the counts,
   whether the victim died, and the two writers' in-flight writes. *)
let kill_phase p model ~seed ~cycle =
  let lanes =
    Array.init 2 (fun l ->
      gen_ops ~seed:((seed * 7919) + (cycle * 2) + l) ~nkeys
        ~nops:(if l = 0 then victim_ops else survivor_ops)
        ~read_prop:0.0 ~lane:l ())
  in
  let at = kill_lo + Ycsb.Rng.next_int (Ycsb.Rng.create (seed + (104729 * cycle))) (kill_hi - kill_lo) in
  let victim_proc = Process.make ~uid:2001 "perfbench-victim" in
  let surv_proc = Process.make ~uid:2002 "perfbench-survivor" in
  let inflight = [| ref None; ref None |] in
  let acked = ref 0 in
  let c0 = counters () in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let vm = Vm.create () in
  Vm.set_crash_point vm ~filter:(fun n -> n = "victim") ~at
    ~on_crash:(fun _ now -> Process.kill ~now_ns:now victim_proc)
    ();
  let writer l name proc ~stop =
    ignore
      (Vm.spawn vm ~name (fun () ->
         Process.with_process proc (fun () ->
           try
             let j = ref 0 in
             while !j < Array.length lanes.(l) && not (stop ()) do
               if write p model inflight.(l) (op_key lanes.(l).(!j)) then incr acked;
               incr j
             done
           with _ -> ())))
  in
  writer 0 "victim" victim_proc ~stop:(fun () -> false);
  (* the survivor stops once the victim died: at most its one in-flight
     call runs over the torn store *)
  writer 1 "survivor" surv_proc ~stop:(fun () -> Vm.crashed vm <> []);
  Vm.run vm;
  let w1 = Gc.minor_words () and m1 = (Gc.quick_stat ()).Gc.major_collections in
  let c1 = counters () in
  let x =
    { x_ops = !acked; x_words = w1 -. w0; x_major = m1 - m0;
      x_events = Vm.events_processed vm; x_virt_ns = Vm.now vm;
      x_counters = Array.mapi (fun i v -> v - c0.(i)) c1 }
  in
  (x, Vm.crashed vm <> [], lanes, Array.map (fun r -> !r) inflight)

(* One cycle: kill, recover (timed), verify the writers' keys, then a
   timed single-client get and rewrite of the victim's first keys. *)
let cycle p owner client model ~seed ~cycle ~recoveries ?h () =
  let keys = Lazy.force keys in
  let x, crashed, lanes, inflight = kill_phase p model ~seed ~cycle in
  (* each timed phase starts from the same GC state *)
  Gc.full_major ();
  bracketed recoveries (fun () ->
    in_vm (fun _ ->
      Process.with_process owner (fun () ->
        let t0 = now_ns () in
        Plib.recover p;
        now_ns () - t0)));
  check_invariants p;
  Array.iter (settle p model) inflight;
  Gc.full_major ();
  in_vm (fun _ ->
    Process.with_process client (fun () ->
      Array.iter
        (Array.iter (fun op ->
           let i = op_key op in
           incr attempted;
           check_get ~len_of ~may_miss:false model i (Plib.get p keys.(i))))
        lanes;
      (* the timed phase runs on keys the check just read, so its tail
         is not split between cold and warm reads *)
      let none = ref None in
      for j = 0 to rewrite_ops - 1 do
        let i = op_key lanes.(0).(j) in
        incr attempted;
        let t0 = now_ns () in
        let r = Plib.get p keys.(i) in
        let dt = now_ns () - t0 in
        Option.iter (fun h -> record h ~set:false dt) h;
        check_get ~len_of ~may_miss:false model i r;
        let t0 = now_ns () in
        ignore (write p model none i);
        Option.iter (fun h -> record h ~set:true (now_ns () - t0)) h
      done));
  (x, crashed)

(* The knee of the writers' mix: two paced writers on disjoint lanes. *)
let knee p client model ~seed =
  let lanes =
    Array.init 2 (fun l ->
      gen_ops ~seed:(seed + 101 + l) ~nkeys ~nops:2_000 ~read_prop:0.0 ~lane:l ())
  in
  let none = ref None in
  sync_knee ~client ~lanes ~rates_kops:(rungs ~lo:250. ~n:20) ~limit_us:10.0
    (fun op -> ignore (write p model none (op_key op)))

let e2e ~seed ~seconds =
  let setups_ph = phases () and recoveries = phases () in
  let xs = ref [] in
  let final = ref None in
  for k = 1 to setups do
    let speed = samples () in
    let t0 = now_ns () in
    let p, owner, client, model = setup ~speed in
    add_phase setups_ph ~speed (now_ns () - t0);
    let x, crashed = cycle p owner client model ~seed ~cycle:1 ~recoveries () in
    require crashed "crash-recover: the victim outlived its kill point";
    xs := x :: !xs;
    if k < setups then discard p else final := Some (p, owner, client, model, x)
  done;
  check_same ~what:"crash-recover" (List.rev !xs);
  put_phase "setup_s" setups_ph;
  let p, owner, client, model, x = Option.get !final in
  put "virt_ops_per_s" "1/s" (float_of_int x.x_ops /. secs x.x_virt_ns);
  put "space_amp" "ratio" (in_vm (fun _ -> space_amp p));
  knee p client model ~seed;
  let h = host () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let c = ref 2 in
  while !c <= min_cycles || now_ns () < deadline do
    ignore (cycle p owner client model ~seed ~cycle:!c ~recoveries ~h ());
    incr c
  done;
  put_host h;
  put_phase "recover_s" recoveries;
  ignore (flush_restart p ~keys:(Lazy.force keys) ~len_of ~may_miss:false model)

let trace ~seed =
  let p, owner, client, model = setup ~speed:(samples ()) in
  let x, _ = cycle p owner client model ~seed ~cycle:1 ~recoveries:(phases ()) () in
  let ops = gen_ops ~seed ~nkeys ~nops:2_000 ~read_prop:0.0 () in
  ignore @@ Layers.run ~ring:false
    { Layers.name = "crash-recover"; p; owner; x; keys = Lazy.force keys; len_of;
      model; may_miss = false; ops; rtt = None };
  (* no ring server here, so no late ring connect to probe *)
  put "transport.late_connect_failures" "count" 0.0
