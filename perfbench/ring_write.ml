(* ring-write: Plib.serve_remote ~rings with the default ring config,
   50/50 get/set, 2 KiB values spanning several 256 B slots, key bytes
   about twice the heap so sets evict. Host numbers come from one
   closed-loop connection; the knee from a virtual open-loop ladder on
   two connections. Both connections are opened before the load, as a
   deployment opens them. *)

open Harness
module P = Mc_protocol.Types

let vlen = 2048

let len_of _ = vlen

let heap = 32 lsl 20

(* 2 KiB values over twice the heap's bytes *)
let nkeys = 2 * heap / vlen

let hashpower = 16

let read_prop = 0.5

let exact_ops = 6_000

let setups = 3

let rings = Mc_server.Server.default_ring_config

let keys = lazy (Array.init nkeys key_of)

(* One closed-loop op on a connection; a get may miss (evicted). *)
let exec conn model ?h op =
  let keys = Lazy.force keys in
  let i = op_key op in
  incr attempted;
  if op_is_set op then begin
    let v = model.(i) + 1 in
    let data = value_of ~len:vlen i v in
    let t0 = now_ns () in
    let r = Sock.set conn keys.(i) data in
    let dt = now_ns () - t0 in
    Option.iter (fun h -> record h ~set:true dt) h;
    match r with Store.Stored -> model.(i) <- v | _ -> refused ()
  end
  else begin
    let t0 = now_ns () in
    let r = Sock.get conn keys.(i) in
    let dt = now_ns () - t0 in
    Option.iter (fun h -> record h ~set:false dt) h;
    check_get ~len_of ~may_miss:true model i r
  end

(* The knee: two connections, each with its own submitter (paced by
   the schedule) and collector (awaits completions in order). A
   connection's keys are its own lane, so the model checks strictly. *)
let knee conns model ~seed =
  let per_conn = 1_500 in
  let lanes =
    Array.init 2 (fun l ->
      gen_ops ~seed:(seed + 101 + l) ~nkeys ~nops:per_conn ~read_prop ~lane:l ())
  in
  let keys = Lazy.force keys in
  let next = Array.copy model in
  ladder
    ~rates_kops:(rungs ~lo:50. ~n:16) ~limit_us:25.0
    ~run_rung:(fun ~rate ~lat ~bad ->
      let interval_ns = int_of_float (2e6 /. rate) in
      let conn_run l =
        let st = Sock.stream conns.(l) in
        let inflight = S.chan () in
        let submitter =
          S.spawn ~name:(Printf.sprintf "knee-submit-%d" l) (fun () ->
            paced ~interval_ns ~n:per_conn (fun j ~due ->
              let op = lanes.(l).(j) in
              let i = op_key op in
              incr attempted;
              let cmd, v =
                if op_is_set op then begin
                  next.(i) <- next.(i) + 1;
                  let v = next.(i) in
                  ( P.Set { P.key = keys.(i); flags = 0; exptime = 0;
                            data = value_of ~len:vlen i v; noreply = false },
                    v )
                end
                else (P.Get [ keys.(i) ], -1)
              in
              S.send inflight (due, i, cmd, v);
              try Sock.submit st cmd with e ->
                incr bad;
                Printf.eprintf "knee: submit failed: %s\n%!" (Printexc.to_string e));
            S.close inflight)
        in
        let rec collect () =
          match S.recv inflight with
          | due, i, cmd, v ->
            let r = try Sock.await st cmd with _ -> P.Error in
            add lat (S.now_ns () - due);
            (match (cmd, r) with
             | P.Set _, P.Stored -> model.(i) <- v
             | P.Get _, P.Values { vals = [ x ]; _ } ->
               check_get ~len_of ~may_miss:true model i
                 (Some { Store.value = x.P.v_data; flags = 0; cas = 0L })
             | P.Get _, P.Values { vals = []; _ } -> ()
             | _ ->
               refused ();
               incr bad);
            collect ()
          | exception S.Closed -> ()
        in
        collect ();
        S.join submitter
      in
      let ts = List.init 2 (fun l -> S.spawn (fun () -> conn_run l)) in
      List.iter S.join ts)

(* One set-up: the library, the ring server, two connections, then the
   load through the first. [body] runs in the same simulation, since
   the server's threads live there. *)
let with_setup ~speed k body =
  let keys = Lazy.force keys in
  let t0 = now_ns () in
  let p, owner = create_plib ~size:heap ~hashpower in
  let model = Array.make nkeys (-1) in
  let name = Printf.sprintf "perfbench-ring-%d" k in
  let out =
    in_vm (fun vm ->
      let srv = Plib.serve_remote ~rings p ~name in
      let conns = Array.init 2 (fun _ -> Sock.connect ~name ()) in
      for i = 0 to nkeys - 1 do
        if i land 255 = 0 then probe speed;
        incr attempted;
        match Sock.set conns.(0) keys.(i) (value_of ~len:vlen i 0) with
        | Store.Stored -> model.(i) <- 0
        | _ -> refused ()
      done;
      let r = body vm p conns model ~setup_ns:(now_ns () - t0) in
      Plib.stop_remote srv;
      r)
  in
  (p, owner, model, out)

let exact_pass vm conns model ops =
  exact_within vm (fun () ->
    for j = 0 to exact_ops - 1 do
      exec conns.(0) model ops.(j)
    done;
    exact_ops)

(* The known defect, probed as a deployment meets it: with the heap
   full of cached items, the two deployment connections reconnect and
   a third client connects late. Its ring pair cannot be allocated
   (Ralloc.Out_of_heap in the acceptor), the acceptor dies and the late
   client hangs, which the Vm reports as a deadlock. The probe is not
   one of the workload's operations: its outcome is the traced run's
   transport.late_connect_failures, 1 while the defect stands. *)
let late_connect_probe p model =
  let name = "perfbench-ring-late" in
  let failures =
    match
      in_vm (fun _ ->
        let srv = Plib.serve_remote ~rings p ~name in
        let _deployment = Array.init 2 (fun _ -> Sock.connect ~name ()) in
        let late = Sock.connect ~name () in
        let r = Sock.get late (key_of 0) in
        Plib.stop_remote srv;
        r)
    with
    | r ->
      check_get ~len_of ~may_miss:true model 0 r;
      0
    | exception e ->
      Printf.eprintf "late-connect probe failed: %s\n%!" (Printexc.to_string e);
      1
  in
  put "transport.late_connect_failures" "count" (float_of_int failures)

let e2e ~seed ~seconds =
  let ops = gen_ops ~seed ~nkeys ~nops:exact_ops ~read_prop () in
  let setups_ph = phases () in
  let xs = ref [] in
  let final = ref None in
  for k = 1 to setups do
    let speed = samples () in
    let p, owner, model, () =
      with_setup ~speed k (fun vm p conns model ~setup_ns:dt ->
        add_phase setups_ph ~speed dt;
        let x = exact_pass vm conns model ops in
        xs := x :: !xs;
        if k = setups then begin
          put "virt_ops_per_s" "1/s" (float_of_int x.x_ops /. secs x.x_virt_ns);
          put "space_amp" "ratio" (space_amp p);
          knee conns model ~seed;
          let h = host () in
          let deadline = now_ns () + int_of_float (seconds *. 1e9) in
          let j = ref 0 in
          while now_ns () < deadline do
            exec conns.(0) model ~h ops.(!j);
            j := (!j + 1) mod exact_ops
          done;
          put_host h
        end)
    in
    if k < setups then discard p else final := Some (p, owner, model)
  done;
  check_same ~what:"ring-write" (List.rev !xs);
  put_phase "setup_s" setups_ph;
  let p, owner, model = Option.get !final in
  recover_passes p owner;
  verify_all p ~keys:(Lazy.force keys) ~len_of ~may_miss:true model

let trace ~seed =
  let ops = gen_ops ~seed ~nkeys ~nops:exact_ops ~read_prop () in
  let keys = Lazy.force keys in
  let rtt = samples () in
  let x = ref None in
  let p, owner, model, () =
    with_setup ~speed:(samples ()) 1 (fun vm _ conns model ~setup_ns:_ ->
      x := Some (exact_pass vm conns model ops);
      (* round trips of gets on the closed-loop connection, for
         transport self time = round trip - execute *)
      for j = 0 to 1_999 do
        let i = op_key ops.(j) in
        incr attempted;
        let t0 = now_ns () in
        let r = Sock.get conns.(0) keys.(i) in
        add rtt (now_ns () - t0);
        check_get ~len_of ~may_miss:true model i r
      done)
  in
  late_connect_probe p model;
  ignore @@ Layers.run ~ring:true
    { Layers.name = "ring-write"; p; owner; x = Option.get !x; keys; len_of; model;
      may_miss = true; ops; rtt = Some rtt }
