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
