(** Real wall-clock microbenchmarks (bechamel) of the actual code
    paths, complementing the virtual-time results: what the substrate
    itself costs on this machine. *)

open Bechamel
open Toolkit

module St =
  Mc_core.Store.Make (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc)
    (Platform.Real_sync)

(* The same store wrapped in the lock-order validator: its overhead is
   the price of running the race-hunting harness in real time. *)
module LSt =
  Mc_core.Store.Make (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc)
    (Platform.Lockdep.Make (Platform.Real_sync))

let bench_cfg ~bump_interval_s =
  { Mc_core.Store.default_config with hashpower = 12; lock_count = 64;
    lru_count = 8; stats_slots = 8; bump_interval_s }

let make_region () =
  let reg =
    Shm.Region.create ~name:"micro-kv" ~size:(32 * 1024 * 1024) ~pkey:0 ()
  in
  (reg, Ralloc.create reg)

let make_store ?(bump_interval_s = 60) () =
  let reg, heap = make_region () in
  let st =
    St.create
      ~mem:(Mc_core.Shared_memory.of_region reg)
      ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
      (bench_cfg ~bump_interval_s)
  in
  ignore (St.set st "bench-key" (String.make 128 'v'));
  (reg, heap, st)

let make_lockdep_store () =
  let reg, heap = make_region () in
  let st =
    LSt.create
      ~mem:(Mc_core.Shared_memory.of_region reg)
      ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
      (bench_cfg ~bump_interval_s:60)
  in
  ignore (LSt.set st "bench-key" (String.make 128 'v'));
  st

module RCl = Core.Client.Make (Platform.Real_sync)
module RPlib = RCl.Plib

(* A protected-library handle: its creation points the counter and
   flight-recorder backends at its shared heap, as in the product. *)
let make_plib () =
  let owner = Simos.Process.make ~uid:1000 "micro-bk" in
  let p =
    RPlib.create ~path:"/shm/micro-plib" ~size:(32 * 1024 * 1024) ~owner ()
  in
  ignore (RPlib.set p "bench-key" (String.make 128 'v'));
  p

(* Per-facility telemetry costs, each with telemetry on: what one
   protected [get] pays per counter bump, flight record, timer record
   and trace, and the whole get with telemetry on and off. *)
let telemetry_tests () =
  let module Tm = Telemetry in
  let p = make_plib () in
  let on () = Tm.Control.set_enabled true in
  let timer = Tm.Timers.handle "hodor_call" in
  let get_ph = Tm.Span.phase "plib.get"
  and crossing = Tm.Span.phase "crossing"
  and alloc = Tm.Span.phase "alloc"
  and free = Tm.Span.phase "free"
  and store = Tm.Span.phase "store" in
  let leaf ph = Tm.Span.finish (Tm.Span.start ph) in
  [ Test.make ~name:"Counters.incr (heap backend)"
      (Staged.stage (fun () ->
         on ();
         Tm.Counters.incr Tm.Counters.Id.hodor_enter));
    Test.make ~name:"Flight.record (state record)"
      (Staged.stage (fun () ->
         on ();
         Tm.Flight.record Tm.Flight.Cross_enter ~a:1 ~b:0 ~c:0));
    Test.make ~name:"Flight.record (info record)"
      (Staged.stage (fun () ->
         on ();
         Tm.Flight.record Tm.Flight.Op_dispatch ~a:1 ~b:(-1) ~c:(-1)));
    Test.make ~name:"Timers.record hodor_call"
      (Staged.stage (fun () ->
         on ();
         Tm.Timers.record timer 40));
    Test.make ~name:"span trace (5 phases)"
      (Staged.stage (fun () ->
         on ();
         let root = Tm.Span.ingress get_ph in
         let c = Tm.Span.start crossing in
         leaf alloc;
         leaf free;
         leaf store;
         Tm.Span.finish c;
         Tm.Span.finish root));
    Test.make ~name:"Plib.get (telemetry on)"
      (Staged.stage (fun () ->
         on ();
         RPlib.get p "bench-key"));
    Test.make ~name:"Plib.get (telemetry off)"
      (Staged.stage (fun () ->
         Tm.Control.set_enabled false;
         let r = RPlib.get p "bench-key" in
         on ();
         r)) ]

let tests () =
  let reg, heap, _ = make_store () in
  let _, _, st = make_store () in
  (* bump_interval_s = 0 restores the historical bump-on-every-hit
     behaviour; the default rate-limits LRU movement memcached-style *)
  let _, _, st_eager = make_store ~bump_interval_s:0 () in
  let lst = make_lockdep_store () in
  let key = Tls.new_key (fun () -> 0) in
  [ Test.make ~name:"murmur3_32(16B key)"
      (Staged.stage (fun () -> Mc_core.Hash.murmur3_32 "someuserkey12345"));
    Test.make ~name:"pkru read+wrpkru"
      (Staged.stage (fun () ->
         let v = Pku.Pkru.read () in
         Pku.Pkru.wrpkru v));
    Test.make ~name:"tls get"
      (Staged.stage (fun () -> Tls.get key));
    Test.make ~name:"region kernel_mode (empty body)"
      (Staged.stage (fun () -> Shm.Region.kernel_mode ignore));
    Test.make ~name:"region read_i64 (checked)"
      (Staged.stage (fun () -> Shm.Region.read_i64 reg 4096));
    Test.make ~name:"ralloc alloc+free 64B"
      (Staged.stage (fun () ->
         let o = Ralloc.alloc heap 64 in
         Ralloc.free heap o));
    Test.make ~name:"store get (rate-limited bump)"
      (Staged.stage (fun () -> St.get st "bench-key"));
    Test.make ~name:"store get (bump every hit)"
      (Staged.stage (fun () -> St.get st_eager "bench-key"));
    Test.make ~name:"store get (lockdep wrapped)"
      (Staged.stage (fun () -> LSt.get lst "bench-key"));
    Test.make ~name:"store set 128B (real time)"
      (Staged.stage (fun () -> St.set st "bench-key" (String.make 128 'w'))) ]
  @ telemetry_tests ()

let run () =
  Scenarios.header "Real wall-clock microbenchmarks (bechamel, this machine)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Printf.printf "%-40s %10.1f ns/op\n" name est;
        Scenarios.note ~run:"micro" ~metric:name ~unit_:"ns/op" est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results

(* Host-time telemetry overhead on the protected get, the figure the
   CI gate bounds: in one simulation, batches of [Plib.get] over 4096
   resident keys alternate telemetry off and on (the product default:
   counters, flight recorder, timers, every trace sampled); the
   fastest batch of each side is kept, so a noisy neighbour inflates
   neither. Prints [telemetry.get_overhead_pct]. *)
let overhead () =
  Scenarios.header "Host-time telemetry overhead on Plib.get (min of k)";
  let nkeys = 4096 and batch = 5_000 and rounds = 9 in
  let p =
    Scenarios.make_plib ~protection:Scenarios.Plib.Protected ~size:(64 lsl 20)
      ~hashpower:14 ()
  in
  let key i = Printf.sprintf "key-%d" i in
  let keys = Array.init nkeys key in
  let ns_per_get () =
    let t0 = Unix.gettimeofday () in
    for j = 0 to batch - 1 do
      ignore (Scenarios.Plib.get p keys.(j * 7919 land (nkeys - 1)))
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch
  in
  let was = Telemetry.Control.on () in
  let off, on =
    Scenarios.in_vm (fun () ->
      Array.iter
        (fun k -> ignore (Scenarios.Plib.set p k (String.make 128 'v')))
        keys;
      let off = ref infinity and on = ref infinity in
      for _ = 1 to rounds do
        Telemetry.Control.set_enabled false;
        off := Float.min !off (ns_per_get ());
        Telemetry.Control.set_enabled true;
        on := Float.min !on (ns_per_get ())
      done;
      (!off, !on))
  in
  Telemetry.Control.set_enabled was;
  Hodor.Library.release (Scenarios.Plib.library p);
  let pct = 100.0 *. (on -. off) /. off in
  Printf.printf "telemetry.get_ns.off %.0f\n" off;
  Printf.printf "telemetry.get_ns.on %.0f\n" on;
  Printf.printf "telemetry.get_overhead_pct %.1f\n" pct;
  Scenarios.note ~run:"overhead" ~metric:"telemetry.get_overhead_pct"
    ~unit_:"%" pct
