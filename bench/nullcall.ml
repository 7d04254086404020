(** §2's motivating microbenchmark: an empty protected-library call
    (~40 ns round trip on the paper's machine) versus an empty message
    round trip over Unix-domain sockets (3.3-9.6 us minimum,
    depending on placement). *)

open Scenarios
module T = Transport.Sock.Make (Vm.Sync)

let iters = 2000

let null_phase = Telemetry.Span.phase "null"

let empty_hodor ~protection () =
  let lib =
    Hodor.Library.create ~protection ~name:"null" ~owner_uid:0 ()
  in
  Hodor.Runtime.configure ~advance:S.advance ~now:S.now_ns;
  let r =
    in_vm (fun () ->
      let t0 = S.now_ns () in
      for _ = 1 to iters do
        (* Each call is its own trace root so the CI tracer-overhead
           gate exercises the full mint/attribute path per iteration. *)
        let root = Telemetry.Span.ingress null_phase in
        Hodor.Trampoline.call lib (fun () -> ());
        Telemetry.Span.finish root
      done;
      (S.now_ns () - t0) / iters)
  in
  Hodor.Library.release lib;
  r

(* Ping-pong over a raw pipe: the idle-peer case (context switch both
   ways) and the saturated case (peer already awake). *)
let empty_socket_rt () =
  in_vm (fun () ->
    let p = T.pipe () in
    let server =
      S.spawn ~name:"pong" (fun () ->
        try
          while true do
            let m = T.pipe_recv p.T.a2b in
            ignore m;
            T.pipe_send p.T.b2a "pong"
          done
        with S.Closed -> ())
    in
    let t0 = S.now_ns () in
    for _ = 1 to iters do
      T.pipe_send p.T.a2b "ping";
      ignore (T.pipe_recv p.T.b2a)
    done;
    let dt = (S.now_ns () - t0) / iters in
    S.close p.T.a2b;
    S.close p.T.b2a;
    S.join server;
    dt)

(* ---- vpkey multiplexing sweep ---------------------------------------- *)

(* Per-op cost of a tenant-scoped call as the tenant count crosses the
   hardware-slot capacity (12 by default): each op pays the same
   trampoline crossing plus, when its tenant's vkey was evicted since
   its last burst, the pkey_mprotect re-tags of a slot miss. Tenants
   are picked per 64-op burst with an 80/20 skew (connections serve a
   few hot tenants, a long tail of cold ones), as a cache in front of
   real traffic would see — uniform round-robin over 64 tenants would
   just measure LRU's cyclic worst case. *)
let tenant_burst = 64
let tenant_bursts = 96

let tenant_point ~tenants =
  Pku.Vpkey.reset ();
  let owner = Simos.Process.make ~uid:1000 (fresh_name "memcached-bk") in
  let path = fresh_name "/dev/shm/vpk" in
  let plib =
    Plib.create ~protection:Hodor.Library.Protected
      ~store_cfg:(store_cfg ~hashpower:12) ~path
      ~size:(8 * 1024 * 1024) ~owner ()
  in
  Hodor.Runtime.configure ~advance:S.advance ~now:S.now_ns;
  let res =
    in_vm (fun () ->
      Simos.Process.with_process owner (fun () ->
        let slots =
          Array.init tenants (fun i ->
            Plib.create_tenant plib ~name:(Printf.sprintf "t%02d" i)
              ~uid:1000 ())
        in
        Array.iter (fun s -> ignore (Plib.tenant_set plib s "k" "v")) slots;
        let hot = min tenants 4 in
        let pick r =
          if r mod 5 < 4 then slots.(r mod hot) else slots.(r mod tenants)
        in
        let binds0 = Pku.Vpkey.binds ()
        and misses0 = Pku.Vpkey.slot_misses () in
        let t0 = S.now_ns () in
        for r = 1 to tenant_bursts do
          let s = pick r in
          for _ = 1 to tenant_burst do
            ignore (Plib.tenant_get plib s "k")
          done
        done;
        let per_op =
          (S.now_ns () - t0) / (tenant_bursts * tenant_burst)
        in
        let binds = Pku.Vpkey.binds () - binds0
        and misses = Pku.Vpkey.slot_misses () - misses0 in
        (per_op, float_of_int misses /. float_of_int (max 1 binds))))
  in
  Simos.Sim_fs.unlink path;
  Hodor.Library.release (Plib.library plib);
  Pku.Vpkey.reset ();
  res

let tenant_sweep () =
  pf "\ntenant-scoped get, per-op cost vs tenant count (hw slot cap %d):\n"
    12;
  List.iter
    (fun n ->
      let ns, missrate = tenant_point ~tenants:n in
      pf "  %2d tenant%s: %5d ns/op   slot-miss rate %5.3f per bind\n" n
        (if n = 1 then " " else "s") ns missrate;
      pf "nullcall.vpkey_t%d_ns %d\n" n ns;
      pf "nullcall.vpkey_missrate_t%d %.3f\n" n missrate;
      note_i ~run:"nullcall" ~metric:(Printf.sprintf "vpkey_t%d" n) ns;
      note ~run:"nullcall" ~metric:(Printf.sprintf "vpkey_missrate_t%d" n)
        ~unit_:"miss/bind" missrate)
    [ 1; 4; 16; 64 ]

let run () =
  header "Null-call microbenchmark (paper section 2)";
  let hodor = empty_hodor ~protection:Hodor.Library.Protected () in
  let plain = empty_hodor ~protection:Hodor.Library.Unprotected () in
  let socket = empty_socket_rt () in
  pf "empty Hodor call round trip:        %5d ns   (paper: ~40 ns)\n" hodor;
  pf "empty plain-library call:           %5d ns\n" plain;
  pf "empty Unix-socket round trip:       %5d ns   (paper: 3300-9600 ns)\n"
    socket;
  pf "socket / hodor ratio:               %5.0fx    (paper: ~two orders of magnitude)\n"
    (float_of_int socket /. float_of_int hodor);
  (* Machine-readable lines for the CI overhead gate: virtual-time
     cost per call, greppable as "nullcall.<config>_ns <n>". *)
  pf "nullcall.hodor_ns %d\n" hodor;
  pf "nullcall.plain_ns %d\n" plain;
  pf "nullcall.socket_ns %d\n" socket;
  note_i ~run:"nullcall" ~metric:"hodor" hodor;
  note_i ~run:"nullcall" ~metric:"plain" plain;
  note_i ~run:"nullcall" ~metric:"socket" socket;
  tenant_sweep ()
