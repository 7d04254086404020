(** The protected-library memcached itself: protection boundary,
    crash isolation, restart persistence — the paper's §3 claims. *)

module Cl = Core.Client.Make (Platform.Real_sync)
module Plib = Cl.Plib
module Process = Simos.Process
module Store = Mc_core.Store

let fresh_id = ref 0

(* The heap is sealed outside library calls; inspection runs as the
   "kernel side", like a debugger would. *)
let check_inv p =
  Shm.Region.kernel_mode (fun () -> Plib.Store.check_invariants (Plib.store p))

let with_plib ?protection ?copy_args ?store_cfg f =
  incr fresh_id;
  let owner = Process.make ~uid:1000 "memcached-bk" in
  let cfg =
    match store_cfg with
    | Some c -> c
    | None ->
      { Store.default_config with hashpower = 8; lock_count = 16;
        lru_count = 4; stats_slots = 4 }
  in
  let path = Printf.sprintf "/shm/plib-test-%d" !fresh_id in
  let p =
    Plib.create ?protection ?copy_args ~store_cfg:cfg ~path
      ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p))
    (fun () -> f p ~owner)

let test_basic_ops () =
  with_plib (fun p ~owner:_ ->
    Alcotest.(check bool) "set" true (Plib.set p "k" "v" = Store.Stored);
    (match Plib.get p "k" with
     | Some r -> Alcotest.(check string) "get" "v" r.Store.value
     | None -> Alcotest.fail "hit expected");
    Alcotest.(check bool) "incr path" true
      (Plib.set p "n" "1" = Store.Stored && Plib.incr p "n" 41L = Store.Counter 42L);
    Alcotest.(check bool) "delete" true (Plib.delete p "k");
    Alcotest.(check bool) "stats has curr_items" true
      (List.mem_assoc "curr_items" (Plib.stats p));
    check_inv p)

let test_region_protected_outside_calls () =
  with_plib (fun p ~owner:_ ->
    ignore (Plib.set p "k" "v");
    Pku.Pkru.reset_thread ();
    (* application code outside any library call: the heap is sealed *)
    (match Shm.Region.read_u8 (Plib.region p) 0 with
     | _ -> Alcotest.fail "expected Protection_fault outside the library"
     | exception Pku.Fault.Protection_fault _ -> ());
    (* the very same thread can use the data through the library *)
    Alcotest.(check bool) "library call works" true (Plib.get p "k" <> None))

let test_unprotected_mode_region_open () =
  with_plib ~protection:Plib.Unprotected (fun p ~owner:_ ->
    ignore (Plib.set p "k" "v");
    (* no pkey gating in the no-Hodor configuration *)
    ignore (Shm.Region.read_u8 (Plib.region p) 0))

let test_client_euid_dance () =
  with_plib (fun p ~owner:_ ->
    let client = Process.make ~uid:2000 "client-app" in
    (* direct open with the client's own euid is denied... *)
    (match
       Simos.Sim_fs.open_region ~euid:(Process.uid client) (Plib.path p)
     with
    | _ -> Alcotest.fail "client must not open the store file itself"
    | exception Simos.Sim_fs.Eacces _ -> ());
    (* ...but linking the library performs the owner-euid open *)
    Plib.open_client p ~process:client;
    Process.with_process client (fun () ->
      Alcotest.(check bool) "client operates through the library" true
        (Plib.set p "from-client" "hello" = Store.Stored)))

let test_copy_in_insulates_from_mutation () =
  with_plib (fun p ~owner:_ ->
    let data = Bytes.of_string "original-value" in
    ignore (Plib.set_raw p (Bytes.of_string "k") data);
    (* the client scribbles on its buffer after the call: the store
       must hold the snapshot *)
    Bytes.fill data 0 (Bytes.length data) 'X';
    match Plib.get p "k" with
    | Some r -> Alcotest.(check string) "snapshot" "original-value" r.Store.value
    | None -> Alcotest.fail "hit expected")

let test_kill_mid_call_preserves_store () =
  with_plib (fun p ~owner:_ ->
    ignore (Plib.set p "stable" "yes");
    let victim = Process.make ~uid:2000 "doomed" in
    Process.with_process victim (fun () ->
      match
        Hodor.Trampoline.call (Plib.library p) (fun () ->
          (* SIGKILL lands while this thread holds the store's locks
             conceptually; the call must complete *)
          Process.kill ~now_ns:(Hodor.Runtime.now_ns ()) victim;
          ignore
            (Plib.Store.set (Plib.store p) "from-dying-call" "done"))
      with
      | () -> Alcotest.fail "thread must die after completing the call"
      | exception Process.Process_killed _ -> ());
    (* the library survived: other processes keep working *)
    Alcotest.(check bool) "store intact" true (Plib.get p "stable" <> None);
    (match Plib.get p "from-dying-call" with
     | Some r ->
       Alcotest.(check string) "dying call's write persisted" "done"
         r.Store.value
     | None -> Alcotest.fail "the in-flight operation must have completed");
    check_inv p)

let test_crash_inside_library_poisons_store () =
  with_plib (fun p ~owner:_ ->
    (match
       Hodor.Trampoline.call (Plib.library p) (fun () -> failwith "wild ptr")
     with
    | () -> Alcotest.fail "expected failure"
    | exception Hodor.Trampoline.Library_call_failed _ -> ());
    (match Plib.get p "anything" with
     | _ -> Alcotest.fail "poisoned library must refuse calls"
     | exception Hodor.Library.Library_poisoned _ -> ()))

let test_shutdown_restart_preserves_data () =
  let disk = Filename.temp_file "plib" ".img" in
  incr fresh_id;
  let owner = Process.make ~uid:1000 "bk1" in
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  let path = Printf.sprintf "/shm/plib-restart-%d" !fresh_id in
  let p = Plib.create ~store_cfg:cfg ~path ~size:(16 lsl 20) ~owner () in
  for i = 0 to 199 do
    ignore (Plib.set p ~flags:i (Printf.sprintf "key%d" i) (Printf.sprintf "value%d" i))
  done;
  ignore (Plib.delete p "key7");
  let cas_before = (Option.get (Plib.get p "key8")).Store.cas in
  Plib.shutdown p ~disk_path:disk;
  (* a new bookkeeping process maps the file: everything is found
     through the persistent roots, no rebuild code runs *)
  let owner2 = Process.make ~uid:1000 "bk2" in
  let p2 =
    Plib.restart ~store_cfg:cfg ~disk_path:disk ~path:(path ^ "-2")
      ~owner:owner2 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink (path ^ "-2");
      Hodor.Library.release (Plib.library p2);
      Sys.remove disk)
    (fun () ->
      (match Plib.get p2 "key8" with
       | Some r ->
         Alcotest.(check string) "value survives" "value8" r.Store.value;
         Alcotest.(check int) "flags survive" 8 r.Store.flags
       | None -> Alcotest.fail "key8 must survive restart");
      Alcotest.(check (option string)) "deleted key stays deleted" None
        (Option.map (fun (r : Store.get_result) -> r.Store.value)
           (Plib.get p2 "key7"));
      Alcotest.(check int) "item count survives" 199
        (Shm.Region.kernel_mode (fun () ->
           Plib.Store.curr_items (Plib.store p2)));
      (* CAS continuity: new stores get fresh, larger uniques *)
      ignore (Plib.set p2 "key8" "rewritten");
      let cas_after = (Option.get (Plib.get p2 "key8")).Store.cas in
      Alcotest.(check bool) "cas continues upward" true
        (Int64.compare cas_after cas_before > 0);
      Shm.Region.kernel_mode (fun () ->
        Plib.Store.check_invariants (Plib.store p2)))

let test_maintain_enforces_watermark () =
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  with_plib ~store_cfg:cfg (fun p ~owner:_ ->
    (* fill close to the 16MB heap *)
    let i = ref 0 in
    while
      float_of_int (Ralloc.used_bytes (Plib.heap p))
      < 0.97 *. float_of_int (Ralloc.capacity (Plib.heap p))
      && !i < 100_000
    do
      incr i;
      ignore (Plib.set p (Printf.sprintf "f%d" !i) (String.make 800 'f'))
    done;
    Plib.maintain p;
    let used = float_of_int (Ralloc.used_bytes (Plib.heap p)) in
    let cap = float_of_int (Ralloc.capacity (Plib.heap p)) in
    Alcotest.(check bool) "cleaner brought usage under the low watermark" true
      (used <= 0.91 *. cap);
    check_inv p)

let test_two_processes_share_one_store () =
  with_plib (fun p ~owner:_ ->
    let p1 = Process.make ~uid:2001 "app1" in
    let p2 = Process.make ~uid:2002 "app2" in
    Process.with_process p1 (fun () -> ignore (Plib.set p "shared" "from-app1"));
    Process.with_process p2 (fun () ->
      match Plib.get p "shared" with
      | Some r ->
        Alcotest.(check string) "app2 sees app1's write" "from-app1"
          r.Store.value
      | None -> Alcotest.fail "cross-process sharing broken"))

let test_in_vm_full_stack () =
  (* the same library code driven by simulated threads *)
  let module VCl = Core.Client.Make (Vm.Sync) in
  let owner = Process.make ~uid:1000 "bk-vm" in
  let plib =
    VCl.Plib.create ~path:"/shm/plib-vm-test" ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink "/shm/plib-vm-test";
      Hodor.Library.release (VCl.Plib.library plib))
    (fun () ->
      let vm = Vm.create () in
      let total = Atomic.make 0 in
      for t = 1 to 4 do
        ignore (Vm.spawn vm (fun () ->
          for i = 1 to 50 do
            let k = Printf.sprintf "t%d-%d" t i in
            assert (VCl.Plib.set plib k k = Store.Stored);
            assert (VCl.Plib.get plib k <> None);
            Atomic.incr total
          done))
      done;
      Vm.run vm;
      Alcotest.(check int) "all vm ops succeeded" 200 (Atomic.get total);
      Alcotest.(check bool) "virtual time advanced" true (Vm.now vm > 0);
      Shm.Region.kernel_mode (fun () ->
        VCl.Plib.Store.check_invariants (VCl.Plib.store plib)))

(* The hybrid deployment of §6: remote clients over sockets and local
   clients through trampolines, one shared store. *)
let test_hybrid_socket_and_local_share () =
  let module VCl = Core.Client.Make (Vm.Sync) in
  let owner = Process.make ~uid:1000 "bk-hybrid" in
  let plib =
    VCl.Plib.create ~path:"/shm/plib-hybrid" ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink "/shm/plib-hybrid";
      Hodor.Library.release (VCl.Plib.library plib))
    (fun () ->
      let vm = Vm.create () in
      ignore (Vm.spawn vm ~name:"main" (fun () ->
        let srv = VCl.Plib.serve_remote plib ~name:"hybrid-svc" in
        (* a "remote" client over the socket path *)
        let remote = VCl.Sock.connect ~name:"hybrid-svc" () in
        assert (VCl.Sock.set remote "via-socket" "remote-write"
                = Mc_core.Store.Stored);
        (* a local client through the trampoline sees it instantly *)
        (match VCl.Plib.get plib "via-socket" with
         | Some r -> assert (r.Mc_core.Store.value = "remote-write")
         | None -> assert false);
        (* and vice versa *)
        assert (VCl.Plib.set plib "via-hodor" "local-write"
                = Mc_core.Store.Stored);
        (match VCl.Sock.get remote "via-hodor" with
         | Some r -> assert (r.Mc_core.Store.value = "local-write")
         | None -> assert false);
        VCl.Plib.stop_remote srv));
      Vm.run vm;
      Shm.Region.kernel_mode (fun () ->
        VCl.Plib.Store.check_invariants (VCl.Plib.store plib)))

let test_plib_resize () =
  let cfg =
    { Store.default_config with hashpower = 4; lock_count = 8; lru_count = 2;
      stats_slots = 2 }
  in
  with_plib ~store_cfg:cfg (fun p ~owner:_ ->
    for i = 0 to 299 do
      ignore (Plib.set p (Printf.sprintf "r%d" i) "v")
    done;
    Alcotest.(check bool) "resized" true (Plib.maybe_resize p);
    for i = 0 to 299 do
      if Plib.get p (Printf.sprintf "r%d" i) = None then
        Alcotest.fail "key lost"
    done;
    check_inv p)

(* Deterministic fault injection inside the simulation: four simulated
   tenants hammer the store, one is SIGKILLed mid-run; everyone else
   finishes and the store's invariants hold. The VM makes the
   interleaving bit-reproducible. *)
let test_vm_fault_injection_deterministic () =
  let run () =
    let module VCl = Core.Client.Make (Vm.Sync) in
    incr fresh_id;
    let owner = Process.make ~uid:1000 "bk-fi" in
    let plib =
      VCl.Plib.create
        ~path:(Printf.sprintf "/shm/plib-fi-%d" !fresh_id)
        ~size:(16 lsl 20) ~owner ()
    in
    Fun.protect
      ~finally:(fun () -> Hodor.Library.release (VCl.Plib.library plib))
      (fun () ->
        let vm = Vm.create () in
        let finished = Atomic.make 0 in
        let killed = Atomic.make 0 in
        for i = 0 to 3 do
          ignore (Vm.spawn vm ~name:(Printf.sprintf "tenant%d" i) (fun () ->
            let proc = Process.make ~uid:(2000 + i) (Printf.sprintf "t%d" i) in
            Process.with_process proc (fun () ->
              try
                for j = 0 to 199 do
                  let k = Printf.sprintf "t%d-%d" i (j mod 17) in
                  (match j mod 3 with
                   | 0 -> ignore (VCl.Plib.set plib k k)
                   | 1 -> ignore (VCl.Plib.get plib k)
                   | _ -> ignore (VCl.Plib.delete plib k));
                  if i = 0 && j = 100 then
                    Process.kill ~now_ns:(Vm.Sync.now_ns ()) proc
                done;
                Atomic.incr finished
              with Process.Process_killed _ -> Atomic.incr killed)))
        done;
        Vm.run vm;
        Alcotest.(check int) "three tenants finished" 3 (Atomic.get finished);
        Alcotest.(check int) "one died" 1 (Atomic.get killed);
        Shm.Region.kernel_mode (fun () ->
          VCl.Plib.Store.check_invariants (VCl.Plib.store plib));
        Vm.events_processed vm)
  in
  let e1 = run () and e2 = run () in
  Alcotest.(check int) "fault injection is deterministic" e1 e2

(* Position independence end to end: the same heap image serves two
   mappings at different simulated base addresses, and the restart path
   finds all data regardless. *)
let test_position_independence_across_mappings () =
  let disk = Filename.temp_file "plib-pi" ".img" in
  incr fresh_id;
  let owner = Process.make ~uid:1000 "bk-pi" in
  let path = Printf.sprintf "/shm/plib-pi-%d" !fresh_id in
  let p = Plib.create ~path ~size:(16 lsl 20) ~owner () in
  ignore (Plib.set p "anchor" "still-here");
  Plib.shutdown p ~disk_path:disk;
  (* load the image twice: two independent "processes" with their own
     mappings at different bases *)
  let reg1 = Shm.Region.load ~path:disk in
  let reg2 = Shm.Region.load ~path:disk in
  let m1 = Shm.Mapping.map reg1 and m2 = Shm.Mapping.map reg2 in
  Alcotest.(check bool) "different virtual bases" true
    (Shm.Mapping.base m1 <> Shm.Mapping.base m2);
  List.iter
    (fun reg ->
      (* the image keeps its pkey tags, so inspection is kernel-side *)
      Shm.Region.kernel_mode (fun () ->
        let h = Ralloc.attach reg in
        let cell = Ralloc.get_root h Core.Plib_store.root_primary in
        let ctrl = Ralloc.Pptr.load reg ~at:cell in
        Alcotest.(check bool) "root resolves at any base" true (ctrl > 0)))
    [ reg1; reg2 ];
  (* and a full restart over one of them serves the data *)
  let owner2 = Process.make ~uid:1000 "bk-pi2" in
  let p2 = Plib.restart ~disk_path:disk ~path:(path ^ "-b") ~owner:owner2 () in
  Fun.protect
    ~finally:(fun () ->
      Hodor.Library.release (Plib.library p2);
      Sys.remove disk)
    (fun () ->
      match Plib.get p2 "anchor" with
      | Some r -> Alcotest.(check string) "data" "still-here" r.Store.value
      | None -> Alcotest.fail "anchor lost")

(* ---- Full heap ---------------------------------------------------------- *)

let evictions p = int_of_string (List.assoc "evictions" (Plib.stats p))

(* Fill the heap with cached items until the store has had to evict:
   every superblock then belongs to the items' size class. *)
let fill_until_evicting ~set ~evictions =
  let i = ref 0 in
  while evictions () = 0 do
    incr i;
    ignore (set (Printf.sprintf "fill%d" !i) (String.make 800 'f'))
  done

(* Copy-in allocates outside the store's item path. On a full heap a
   key of a size class nothing else uses finds no free block anywhere:
   the copy must make room by evicting, not raise (which would poison
   the library). *)
let test_copy_in_evicts_on_full_heap () =
  with_plib (fun p ~owner:_ ->
    fill_until_evicting ~set:(Plib.set p) ~evictions:(fun () -> evictions p);
    let key = String.make 200 'k' in
    Alcotest.(check bool) "get of a new key is a miss" true
      (Plib.get p key = None);
    Alcotest.(check bool) "set of a new key stored" true
      (Plib.set p key "v" = Store.Stored);
    (match Plib.get p key with
     | Some r -> Alcotest.(check string) "read back" "v" r.Store.value
     | None -> Alcotest.fail "stored key missing");
    Alcotest.(check bool) "library healthy" true
      (Hodor.Library.health (Plib.library p) = Hodor.Library.Healthy);
    check_inv p)

module VCl = Core.Client.Make (Vm.Sync)

let with_vm_plib name f =
  let owner = Process.make ~uid:1000 ("bk-" ^ name) in
  let path = "/shm/plib-" ^ name in
  let plib = VCl.Plib.create ~path ~size:(16 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (VCl.Plib.library plib))
    (fun () ->
      let vm = Vm.create () in
      ignore (Vm.spawn vm ~name:"main" (fun () -> f plib));
      Vm.run vm;
      Shm.Region.kernel_mode (fun () ->
        VCl.Plib.Store.check_invariants (VCl.Plib.store plib)))

let rings = Mc_server.Server.default_ring_config

let ring_roundtrip conn key =
  assert (VCl.Sock.set conn key "late" = Store.Stored);
  match VCl.Sock.get conn key with
  | Some r ->
    Alcotest.(check string) "late client reads back" "late" r.Store.value
  | None -> Alcotest.fail "late client lost its write"

(* A ring connection arriving once cached items fill the heap: its ring
   pair is placed by evicting, like any other allocation. *)
let test_late_ring_connect_on_full_heap () =
  with_vm_plib "late-ring" (fun plib ->
    let srv = VCl.Plib.serve_remote ~rings plib ~name:"late-ring" in
    let early = Array.init 2 (fun _ -> VCl.Sock.connect ~name:"late-ring" ()) in
    fill_until_evicting ~set:(VCl.Sock.set early.(0))
      ~evictions:(fun () ->
        int_of_string (List.assoc "evictions" (VCl.Plib.stats plib)));
    let late = VCl.Sock.connect ~name:"late-ring" () in
    ring_roundtrip late "late-key";
    ring_roundtrip early.(1) "early-key";
    VCl.Plib.stop_remote srv)

(* With the heap held by allocations the store cannot evict, the ring
   pair cannot be placed: that one connection is refused, the client
   sees the refusal, and the acceptor lives on to serve the next. *)
let test_ring_connect_refused_acceptor_survives () =
  with_vm_plib "refuse-ring" (fun plib ->
    let heap = VCl.Plib.heap plib in
    let srv = VCl.Plib.serve_remote ~rings plib ~name:"refuse-ring" in
    let hog = ref [] in
    Shm.Region.kernel_mode (fun () ->
      try
        while true do
          hog := Ralloc.alloc heap (Ralloc.superblock_size / 2) :: !hog
        done
      with Ralloc.Out_of_heap -> ());
    (match VCl.Sock.connect ~name:"refuse-ring" () with
     | _ -> Alcotest.fail "connect on an exhausted heap should be refused"
     | exception Failure m ->
       Alcotest.(check string) "client sees the refusal"
         "connect: refuse-ring refused the connection" m);
    Shm.Region.kernel_mode (fun () ->
      List.iter (Ralloc.free heap) !hog);
    let next = VCl.Sock.connect ~name:"refuse-ring" () in
    ring_roundtrip next "after-refusal";
    VCl.Plib.stop_remote srv)

(* Releasing a library detaches the process-wide hooks pointing into
   its heap (the counter and flight-recorder backends, the tenant and
   executor hooks, the quota gate): a released heap is collectable at
   once, not only after the next [create] replaces them. *)
let[@inline never] create_and_release_in_vm n ~collected =
  let vm = Vm.create () in
  ignore
    (Vm.spawn vm ~name:"cycles" (fun () ->
       for i = 1 to n do
         let owner = Process.make ~uid:1000 "bk-release" in
         let path = Printf.sprintf "/shm/plib-release-%d" i in
         let plib = VCl.Plib.create ~path ~size:(4 lsl 20) ~owner () in
         Gc.finalise (fun _ -> incr collected) (VCl.Plib.region plib);
         assert (VCl.Plib.set plib "k" "v" = Store.Stored);
         assert (VCl.Plib.get plib "k" <> None);
         Simos.Sim_fs.unlink path;
         Hodor.Library.release (VCl.Plib.library plib)
       done));
  Vm.run vm

let test_release_frees_heap () =
  let collected = ref 0 in
  create_and_release_in_vm 4 ~collected;
  Gc.full_major ();
  Alcotest.(check int) "every released region was collected" 4 !collected

(* Only hooks still pointing at the released handle are detached: a
   handle created since keeps its own. *)
let test_release_keeps_other_handles_hooks () =
  with_plib (fun older ~owner:_ ->
    with_plib (fun newer ~owner:_ ->
      ignore (Plib.set newer "k" "v");
      Hodor.Library.release (Plib.library older);
      Alcotest.(check bool) "counters still read the live heap" true
        (Telemetry.Counters.read Telemetry.Counters.Id.hodor_enter > 0);
      Alcotest.(check bool) "stats heap still served" true
        (!Mc_server.Executor.heap_stats_hook () <> []);
      Alcotest.(check bool) "quota gate still installed" true
        (!Mc_server.Executor.quota_gate <> None)))

let () =
  Alcotest.run "plib"
    [ ( "operation",
        [ Alcotest.test_case "basic ops" `Quick test_basic_ops;
          Alcotest.test_case "two processes share" `Quick
            test_two_processes_share_one_store;
          Alcotest.test_case "vm full stack" `Quick test_in_vm_full_stack ] );
      ( "protection",
        [ Alcotest.test_case "sealed outside calls" `Quick
            test_region_protected_outside_calls;
          Alcotest.test_case "no-hodor leaves region open" `Quick
            test_unprotected_mode_region_open;
          Alcotest.test_case "euid dance" `Quick test_client_euid_dance;
          Alcotest.test_case "copy-in insulation" `Quick
            test_copy_in_insulates_from_mutation ] );
      ( "fault tolerance",
        [ Alcotest.test_case "kill mid-call" `Quick
            test_kill_mid_call_preserves_store;
          Alcotest.test_case "crash poisons" `Quick
            test_crash_inside_library_poisons_store ] );
      ( "lifecycle",
        [ Alcotest.test_case "shutdown/restart" `Quick
            test_shutdown_restart_preserves_data;
          Alcotest.test_case "cleaner watermark" `Quick
            test_maintain_enforces_watermark;
          Alcotest.test_case "release frees the heap" `Quick
            test_release_frees_heap;
          Alcotest.test_case "release keeps another handle's hooks" `Quick
            test_release_keeps_other_handles_hooks ] );
      ( "full heap",
        [ Alcotest.test_case "copy-in evicts" `Quick
            test_copy_in_evicts_on_full_heap;
          Alcotest.test_case "late ring connect" `Quick
            test_late_ring_connect_on_full_heap;
          Alcotest.test_case "ring connect refused, acceptor survives" `Quick
            test_ring_connect_refused_acceptor_survives ] );
      ( "fault injection & PI",
        [ Alcotest.test_case "vm fault injection deterministic" `Quick
            test_vm_fault_injection_deterministic;
          Alcotest.test_case "position independence" `Quick
            test_position_independence_across_mappings ] );
      ( "extensions",
        [ Alcotest.test_case "hybrid socket+local" `Quick
            test_hybrid_socket_and_local_share;
          Alcotest.test_case "resize through plib" `Quick test_plib_resize ] ) ]
