(* direct-read: one client calls Plib.get / Plib.set directly, 95/5,
   scrambled-zipfian keys, 128 B values, about 200k keys in a 128 MiB
   heap so nothing is evicted. One Hodor crossing per op; codecs,
   transport and server stay idle. *)

open Harness

let nkeys = 200_000

let vlen = 128

let len_of _ = vlen

let heap = 128 lsl 20

let hashpower = 18

let read_prop = 0.95

(* Ops in the deterministic pass whose counts are the exact figures. *)
let exact_ops = 40_000

let setups = 3

let keys = lazy (Array.init nkeys key_of)

(* One op on the direct path, checked against the model; [h] times the
   call alone. *)
let exec p model ?h op =
  let keys = Lazy.force keys in
  let i = op_key op in
  incr attempted;
  if op_is_set op then begin
    let v = model.(i) + 1 in
    let data = value_of ~len:vlen i v in
    let t0 = now_ns () in
    let r = Plib.set p keys.(i) data in
    let dt = now_ns () - t0 in
    Option.iter (fun h -> record h ~set:true dt) h;
    match r with Store.Stored -> model.(i) <- v | _ -> refused ()
  end
  else begin
    let t0 = now_ns () in
    let r = Plib.get p keys.(i) in
    let dt = now_ns () - t0 in
    Option.iter (fun h -> record h ~set:false dt) h;
    check_get ~len_of ~may_miss:false model i r
  end

let setup ~speed =
  setup_direct ~size:heap ~hashpower ~keys:(Lazy.force keys) ~len_of ~speed

let exact_pass p client model ops =
  exact_phase (fun _ ->
    Process.with_process client (fun () ->
      for j = 0 to exact_ops - 1 do
        exec p model ops.(j)
      done);
    exact_ops)

(* The virtual knee: two clients on disjoint key lanes, paced. *)
let knee p client model ~seed =
  let lanes =
    Array.init 2 (fun l ->
      gen_ops ~seed:(seed + 101 + l) ~nkeys ~nops:2_000 ~read_prop ~lane:l ())
  in
  sync_knee ~client ~lanes ~rates_kops:(rungs ~lo:500. ~n:20) ~limit_us:5.0
    (exec p model)

let e2e ~seed ~seconds =
  let ops = gen_ops ~seed ~nkeys ~nops:exact_ops ~read_prop () in
  let setups_ph = phases () in
  let rec go k xs =
    let speed = samples () in
    let t0 = now_ns () in
    let p, owner, client, model = setup ~speed in
    add_phase setups_ph ~speed (now_ns () - t0);
    let x = exact_pass p client model ops in
    if k < setups then begin
      discard p;
      go (k + 1) (x :: xs)
    end
    else (p, owner, client, model, x, List.rev (x :: xs))
  in
  let p, owner, client, model, x, xs = go 1 [] in
  check_same ~what:"direct-read" xs;
  put_phase "setup_s" setups_ph;
  put "virt_ops_per_s" "1/s" (float_of_int x.x_ops /. secs x.x_virt_ns);
  put "space_amp" "ratio" (in_vm (fun _ -> space_amp p));
  knee p client model ~seed;
  let h = host () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  in_vm (fun _ ->
    Process.with_process client (fun () ->
      let j = ref 0 in
      while now_ns () < deadline do
        exec p model ~h ops.(!j);
        j := (!j + 1) mod exact_ops
      done));
  put_host h;
  recover_passes p owner;
  verify_all p ~keys:(Lazy.force keys) ~len_of ~may_miss:false model

let trace ~seed =
  let ops = gen_ops ~seed ~nkeys ~nops:exact_ops ~read_prop () in
  let p, owner, client, model = setup ~speed:(samples ()) in
  let x = exact_pass p client model ops in
  ignore @@ Layers.run ~ring:false
    { Layers.name = "direct-read"; p; owner; x; keys = Lazy.force keys; len_of;
      model; may_miss = false; ops; rtt = None };
  (* no ring server here, so no late ring connect to probe *)
  put "transport.late_connect_failures" "count" 0.0
