(** Crash-point injection sweep + post-crash recovery (the PR's
    headline test).

    Every visible sync point of a victim thread is an indexed kill
    site; the sweep runs the same deterministic workload once per site,
    SIGKILLs the victim abruptly there (continuation dropped, no
    unwinding — whatever it was mutating stays half-done), then runs
    the recovery protocol and asserts:

    - [Store.check_invariants] and [Ralloc.check_invariants] pass;
    - every write a {e surviving} client had acknowledged is still
      readable with the acknowledged value (and acknowledged deletes
      stay deleted);
    - the allocator's used-byte accounting equals exactly the live
      set handed back by [Store.recover] — a reverted or weakened
      [Ralloc.recover] shows up here as a leak;
    - the store takes fresh traffic afterwards.

    Workload A drives the full protected-library stack (trampolines,
    copy-in, shared heap) with one victim and two surviving client
    processes. Workload B drives the store directly under memory
    pressure (evictions, expiry reaping) with any of three workers as
    the victim. [CRASH_SWEEP_KMAX] caps the number of sites per
    workload (the CI smoke job sets it); unset, the two sweeps
    together cover 200+ kill sites. *)

module VCl = Core.Client.Make (Vm.Sync)
module Plib = VCl.Plib
module Process = Simos.Process
module Store = Mc_core.Store
module SM = Mc_core.Shared_memory
module RA = Mc_core.Ralloc_alloc

let cap () =
  match Sys.getenv_opt "CRASH_SWEEP_KMAX" with
  | Some s -> (try int_of_string s with _ -> max_int)
  | None -> max_int

(* Sites actually killed, accumulated across the sweep tests and
   checked by the final coverage case. *)
let sites_a = ref 0

let sites_b = ref 0

type expect = Val of string | Absent

let assert_conserved heap live =
  let expected =
    List.fold_left (fun acc off -> acc + Ralloc.usable_size heap off) 0 live
  in
  let used = Ralloc.used_bytes heap in
  if used <> expected then
    Alcotest.fail
      (Printf.sprintf
         "allocator leak after recovery: used=%d bytes but the live set \
          accounts for %d"
         used expected)

(* Post-recovery telemetry consistency: the counter block is rooted in
   the shared heap and sifted by recovery, so after a kill + repair it
   must still tell a coherent story. [stats] is the store's own
   key/value reply. *)
let assert_telemetry_consistent stats =
  let v k =
    match List.assoc_opt k stats with
    | Some s -> (try int_of_string s with _ ->
        Alcotest.fail (Printf.sprintf "stats %s=%S is not an integer" k s))
    | None -> 0
  in
  let module C = Telemetry.Counters in
  let enter = C.read C.Id.hodor_enter and exits = C.read C.Id.hodor_exit in
  if exits > enter then
    Alcotest.fail
      (Printf.sprintf "telemetry: hodor_exit %d exceeds hodor_enter %d" exits
         enter);
  let total = v "total_items" in
  if v "curr_items" > total then
    Alcotest.fail
      (Printf.sprintf "telemetry: curr_items %d exceeds total_items %d"
         (v "curr_items") total);
  if v "evictions" + v "expired_unfetched" + v "delete_hits" > total then
    Alcotest.fail
      (Printf.sprintf
         "telemetry: removals (%d+%d+%d) exceed total_items %d after recovery"
         (v "evictions") (v "expired_unfetched") (v "delete_hits") total);
  (* Latency histogram summaries parse and are ordered. *)
  List.iter
    (fun op ->
      match Telemetry.Timers.get op with
      | None -> ()
      | Some h ->
        let module H = Telemetry.Histogram in
        let p50 = H.percentile h 50.0 and p99 = H.percentile h 99.0 in
        if not (p50 <= p99 && p99 <= H.max_value h) then
          Alcotest.fail
            (Printf.sprintf "telemetry: %s percentiles disordered: %d/%d/%d"
               op p50 p99 (H.max_value h)))
    (Telemetry.Timers.ops ())

(* ---- Forensic ground truth ----------------------------------------- *)

(* Captured inside [on_crash], while the dying thread's TLS is still
   current: the same per-thread state the breadcrumbs are written from,
   read directly at the kill instant. The post-recovery forensic
   report must reproduce this classification from the flight ring
   alone, under the classifier's own priority (stripes held > ring
   drain > trampoline crossing > idle). *)
let kill_site_truth () =
  let module F = Telemetry.Forensics in
  if Store.holding_stripes_now () > 0 then F.Holding_stripes
  else if Mc_server.Server.in_ring_drain_now () then F.Mid_ring_drain
  else if Hodor.Trampoline.on_library_stack () then F.Mid_crossing
  else F.Idle

(* Death-classification tallies per workload, printed after each sweep
   (the greppable [forensics.*] lines EXPERIMENTS.md's table quotes). *)
let class_ix = function
  | Telemetry.Forensics.Idle -> 0
  | Telemetry.Forensics.Mid_crossing -> 1
  | Telemetry.Forensics.Holding_stripes -> 2
  | Telemetry.Forensics.Mid_ring_drain -> 3

let print_tally name t =
  Printf.printf
    "forensics.%s idle=%d mid_crossing=%d holding_stripes=%d \
     mid_ring_drain=%d\n%!"
    name t.(0) t.(1) t.(2) t.(3)

(* Post-recovery: the report [Plib.recover] stashed right after
   repairing the heap is structurally sound (no torn records, victim
   named), classifies the death exactly as the ground-truth snapshot,
   and every cross-check it ran against the repaired state agreed. *)
let assert_forensics ?tally ~at ~expect p =
  let module F = Telemetry.Forensics in
  (match tally with
   | Some t -> t.(class_ix expect) <- t.(class_ix expect) + 1
   | None -> ());
  let r = Plib.forensics p in
  if not (F.well_formed r) then
    Alcotest.fail
      (Printf.sprintf "kill at %d: malformed forensic report\n%s" at
         (F.render r));
  if r.F.f_class <> expect then
    Alcotest.fail
      (Printf.sprintf "kill at %d misclassified: truth %s, report %s\n%s" at
         (F.class_name expect) (F.class_name r.F.f_class) (F.render r));
  List.iter
    (fun (c : F.check) ->
      if not c.F.ck_ok then
        Alcotest.fail
          (Printf.sprintf "kill at %d: recovery cross-check %s failed: %s" at
             c.F.ck_name c.F.ck_detail))
    r.F.f_checks

(* ---- Workload A: full Plib stack, one victim + two survivors ------- *)

let cfg_a =
  { Store.default_config with hashpower = 7; lock_count = 8; lru_count = 2;
    stats_slots = 2 }

let fresh_a = ref 0

(* One deterministic run with the crash point armed at [at] (pass
   [max_int] to only count sync points). Returns (crashes, sync-point
   count, events fingerprint). [recover_anyway] additionally runs the
   recovery protocol when no crash fired — recovery over an untorn
   store must be conservative. *)
let run_a ?(recover_anyway = false) ?tally ~at () =
  incr fresh_a;
  let path = Printf.sprintf "/shm/crash-a-%d" !fresh_a in
  let owner = Process.make ~uid:1000 "bk-crash" in
  let p = Plib.create ~store_cfg:cfg_a ~path ~size:(2 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      Telemetry.Span.reset ();
      let vm = Vm.create ~sched_seed:1234 ~preempt_jitter:50 () in
      let victim_proc = Process.make ~uid:2000 "victim-proc" in
      let truth = ref None in
      Vm.set_crash_point vm
        ~filter:(fun n -> n = "victim")
        ~at
        ~on_crash:(fun _name now ->
          truth := Some (kill_site_truth ());
          Process.kill ~now_ns:now victim_proc)
        ();
      (* Host-side model of every acknowledged surviving-client write:
         an entry is recorded only after the library call returned. *)
      let model : (string, expect) Hashtbl.t = Hashtbl.create 64 in
      ignore
        (Vm.spawn vm ~name:"victim" (fun () ->
           Process.with_process victim_proc (fun () ->
             try
               for i = 0 to 63 do
                 let k = Printf.sprintf "v-%d" (i mod 11) in
                 if i = 0 then ignore (Plib.set p "v-ctr" "0");
                 match i mod 6 with
                 | 0 | 1 ->
                   ignore
                     (Plib.set p k (String.make (100 + (i * 37 mod 700)) 'v'))
                 | 2 -> ignore (Plib.get p k)
                 | 3 -> ignore (Plib.delete p k)
                 | 4 -> ignore (Plib.incr p "v-ctr" 1L)
                 | _ -> ignore (Plib.touch p k 1000)
               done
             with Process.Process_killed _ -> ())));
      let survivor idx =
        ignore
          (Vm.spawn vm ~name:(Printf.sprintf "surv%d" idx) (fun () ->
             let proc =
               Process.make ~uid:(3000 + idx) (Printf.sprintf "app%d" idx)
             in
             Process.with_process proc (fun () ->
               let ctr_key = Printf.sprintf "s%d-ctr" idx in
               (match Plib.set p ctr_key "0" with
                | Store.Stored -> Hashtbl.replace model ctr_key (Val "0")
                | _ -> ());
               (* Stop looping once the victim died: at most the one
                  in-flight call runs over the torn store, covered by
                  the robust-mutex handoff. *)
               let i = ref 0 in
               while !i < 20 && Vm.crashed vm = [] do
                 let k = Printf.sprintf "s%d-%d" idx (!i mod 5) in
                 (match !i mod 6 with
                  | 5 ->
                    ignore (Plib.delete p k);
                    Hashtbl.replace model k Absent
                  | 4 -> (
                    match Plib.incr p ctr_key 1L with
                    | Store.Counter v ->
                      Hashtbl.replace model ctr_key (Val (Int64.to_string v))
                    | _ -> ())
                  | _ ->
                    let v =
                      Printf.sprintf "s%d-%d-%s" idx !i
                        (String.make
                           (30 + (!i * 53 mod 400))
                           (Char.chr (Char.code 'a' + idx)))
                    in
                    (match Plib.set p k v with
                     | Store.Stored -> Hashtbl.replace model k (Val v)
                     | _ -> ()));
                 incr i
               done)))
      in
      survivor 0;
      survivor 1;
      Vm.run vm;
      let crashes = Vm.crashed vm in
      let n = Vm.sync_points_seen vm in
      let events = Vm.events_processed vm in
      (* Whatever the kill site, every completed trace — including the
         aborted flush from the dying thread — is a well-shaped tree. *)
      List.iter
        (fun tr ->
          match Telemetry.Span.well_formed tr with
          | Ok () -> ()
          | Error m ->
            Alcotest.fail (Printf.sprintf "span tree after kill at %d: %s" at m))
        (Telemetry.Span.traces ());
      (* Recovery and verification charge virtual time, so they run as
         the bookkeeping process inside a fresh simulation. *)
      let vm2 = Vm.create () in
      ignore
        (Vm.spawn vm2 ~name:"bookkeeper" (fun () ->
           Process.with_process owner (fun () ->
             let crashed = crashes <> [] in
             if crashed || recover_anyway then Plib.recover p;
             Shm.Region.kernel_mode (fun () ->
               Plib.Store.check_invariants (Plib.store p);
               Ralloc.check_invariants (Plib.heap p));
             if crashed || recover_anyway then
               Shm.Region.kernel_mode (fun () ->
                 (* Idempotent second pass, to get our hands on the
                    live set for the conservation check. *)
                 let store = Plib.store p and heap = Plib.heap p in
                 let arena = Plib.arena p in
                 let live = Plib.Store.recover store in
                 (* Arena-resident items recover through the arena's
                    own sweep; the heap sees their whole regions via
                    the chain heads. *)
                 let arena_live, live =
                   List.partition (Mc_core.Bump_arena.owns arena) live
                 in
                 let live =
                   Mc_core.Bump_arena.recovery_roots arena @ live
                 in
                 let cell =
                   Ralloc.get_root heap Core.Plib_store.root_primary
                 in
                 let live = if cell = 0 then live else cell :: live in
                 (* The telemetry counter block is rooted too: it must
                    survive the sweep (SIFT), not be reclaimed. *)
                 let tblock =
                   Ralloc.get_root heap Core.Plib_store.root_telemetry
                 in
                 let live = if tblock = 0 then live else tblock :: live in
                 let acell =
                   Ralloc.get_root heap Core.Plib_store.root_arena
                 in
                 let live = if acell = 0 then live else acell :: live in
                 (* The flight-recorder ring is rooted and must survive
                    the sweep with its breadcrumbs intact — the
                    forensic story below reads them post-repair. *)
                 let fblock =
                   Ralloc.get_root heap Core.Plib_store.root_flight
                 in
                 let live = if fblock = 0 then live else fblock :: live in
                 Ralloc.recover heap ~live;
                 Mc_core.Bump_arena.recover arena ~live:arena_live;
                 assert_conserved heap live);
             (* The flight recorder's post-mortem agrees with the
                ground truth snapshotted at the kill instant. *)
             (match !truth with
              | Some expect -> assert_forensics ?tally ~at ~expect p
              | None -> ());
             (* Every acknowledged surviving write is still served. *)
             Hashtbl.iter
               (fun k e ->
                 match (e, Plib.get p k) with
                 | Val v, Some r when r.Store.value = v -> ()
                 | Val v, Some r ->
                   Alcotest.fail
                     (Printf.sprintf
                        "acked write %s corrupted: wanted %d bytes, got %d" k
                        (String.length v)
                        (String.length r.Store.value))
                 | Val _, None ->
                   Alcotest.fail ("acked write lost after recovery: " ^ k)
                 | Absent, None -> ()
                 | Absent, Some _ ->
                   Alcotest.fail ("acked delete resurrected: " ^ k))
               model;
             (* The surviving telemetry is internally consistent. *)
             assert_telemetry_consistent
               (Shm.Region.kernel_mode (fun () ->
                  Plib.Store.stats (Plib.store p)));
             (* And the store takes fresh traffic. *)
             if Plib.set p "post-crash" "recovered" <> Store.Stored then
               Alcotest.fail "store refuses writes after recovery";
             match Plib.get p "post-crash" with
             | Some r when r.Store.value = "recovered" -> ()
             | _ -> Alcotest.fail "post-recovery write not readable")));
      Vm.run vm2;
      (crashes, n, events))

let check_crashes = Alcotest.(check (list (pair string int)))

let tally_a = Array.make 4 0

let test_sweep_plib () =
  (* Count pass: index the kill sites without firing. *)
  let crashes, n, _ = run_a ~at:max_int () in
  check_crashes "count pass kills nobody" [] crashes;
  Alcotest.(check bool)
    (Printf.sprintf "workload exposes enough kill sites (%d)" n)
    true (n >= 130);
  let m = min 130 (cap ()) in
  for i = 0 to m - 1 do
    let k = i * n / m in
    let crashes, _, _ = run_a ~tally:tally_a ~at:k () in
    check_crashes
      (Printf.sprintf "kill fired at site %d/%d" k n)
      [ ("victim", k) ] crashes;
    incr sites_a
  done;
  print_tally "A" tally_a

let test_sweep_is_deterministic () =
  let c1, n1, e1 = run_a ~at:37 () in
  let c2, n2, e2 = run_a ~at:37 () in
  check_crashes "same kill site" c1 c2;
  Alcotest.(check int) "same sync-point count" n1 n2;
  Alcotest.(check int) "same event fingerprint" e1 e2

let test_crash_point_beyond_workload () =
  (* A crash point past the last sync point never fires; the workload
     and all checks complete untouched. *)
  let _, n, _ = run_a ~at:max_int () in
  let crashes, _, _ = run_a ~at:(n + 11) () in
  check_crashes "no kill fired" [] crashes

let test_recovery_is_conservative () =
  (* Running the full recovery protocol over an untorn store must not
     drop a single acknowledged write. *)
  let crashes, _, _ = run_a ~recover_anyway:true ~at:max_int () in
  check_crashes "no kill fired" [] crashes

(* ---- Workload B: direct store under memory pressure ---------------- *)

module BSt = Store.Make (SM) (RA) (Vm.Sync)

let cfg_b =
  { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
    stats_slots = 2; evict_batch = 2 }

(* Distinct 900-byte values overflow the 384 KiB heap, so sets race
   eviction; expired items race the reaper. Any of the three workers
   dies at site [at]. *)
let run_b ~at =
  let vm = Vm.create ~sched_seed:77 ~preempt_jitter:60 () in
  Vm.set_crash_point vm ~filter:(fun n -> n.[0] = 'w') ~at ();
  let reg = Shm.Region.create ~name:"crash-b" ~size:(384 lsl 10) ~pkey:0 () in
  let heap = Ralloc.create reg in
  let store_ref = ref None in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
       let st =
         BSt.create ~mem:(SM.of_region reg) ~alloc:(RA.of_heap heap) cfg_b
       in
       store_ref := Some st;
       ignore (BSt.set st "ctr" "1");
       let worker t =
         Vm.Sync.spawn ~name:(Printf.sprintf "w%d" t) (fun () ->
           let i = ref 0 in
           while !i < 60 && Vm.crashed vm = [] do
             let k = Printf.sprintf "t%d-%d" t !i in
             let prev = Printf.sprintf "t%d-%d" t (max 0 (!i - 2)) in
             (match !i mod 7 with
              | 0 | 1 | 2 -> ignore (BSt.set st k (String.make 900 'x'))
              | 3 -> ignore (BSt.set st ~exptime:1 k "soon-dead")
              | 4 -> ignore (BSt.get st prev)
              | 5 -> ignore (BSt.delete st prev)
              | _ -> ignore (BSt.incr st "ctr" 1L));
             Vm.Sync.advance 40;
             incr i
           done)
       in
       let ws = List.init 3 worker in
       List.iter Vm.Sync.join ws;
       if Vm.crashed vm = [] then begin
         (* clean runs also exercise the reap + explicit-evict paths *)
         Vm.Sync.advance 1_500_000_000;
         ignore (BSt.reap_expired st);
         ignore (BSt.evict_some st ~hint:4);
         BSt.check_invariants st
       end));
  Vm.run vm;
  let crashes = Vm.crashed vm in
  let n = Vm.sync_points_seen vm in
  let st = Option.get !store_ref in
  let vm2 = Vm.create () in
  ignore
    (Vm.spawn vm2 ~name:"recovery" (fun () ->
       if crashes <> [] then
         Shm.Region.kernel_mode (fun () ->
           let live = BSt.recover st in
           Ralloc.recover heap ~live;
           assert_conserved heap live);
       Shm.Region.kernel_mode (fun () ->
         BSt.check_invariants st;
         Ralloc.check_invariants heap);
       if BSt.set st "post-crash" "ok" <> Store.Stored then
         Alcotest.fail "store refuses writes after recovery";
       match BSt.get st "post-crash" with
       | Some r when r.Store.value = "ok" -> ()
       | _ -> Alcotest.fail "post-recovery write not readable"));
  Vm.run vm2;
  (crashes, n)

let test_sweep_store_pressure () =
  let crashes, n = run_b ~at:max_int in
  check_crashes "count pass kills nobody" [] crashes;
  Alcotest.(check bool)
    (Printf.sprintf "workload exposes enough kill sites (%d)" n)
    true (n >= 90);
  let m = min 90 (cap ()) in
  for i = 0 to m - 1 do
    let k = i * n / m in
    let crashes, _ = run_b ~at:k in
    (match crashes with
     | [ (name, k') ] when k' = k && name.[0] = 'w' -> ()
     | _ ->
       Alcotest.fail
         (Printf.sprintf "expected exactly one worker kill at site %d/%d" k n));
    incr sites_b
  done

(* ---- Workload C: batched protected calls --------------------------- *)

(* The batch plane pushes many operations through one trampoline
   crossing, so a kill mid-batch leaves the library with a committed
   prefix and one possibly-torn op in flight. [Plib.batch]'s [on_op]
   callback is the application-level ack: the sweep records each acked
   (key, value) host-side and, after recovery, demands the acked
   prefix verbatim while unacked ops may be present-or-absent — but
   never torn. *)

let sites_c = ref 0

let fresh_c = ref 0

let batch_val i = Printf.sprintf "c%d-%s" i (String.make (60 + (i * 41 mod 300)) 'b')

let run_c ?tally ~at () =
  incr fresh_c;
  let path = Printf.sprintf "/shm/crash-c-%d" !fresh_c in
  let owner = Process.make ~uid:1000 "bk-crash-c" in
  let p = Plib.create ~store_cfg:cfg_a ~path ~size:(2 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      Telemetry.Span.reset ();
      let vm = Vm.create ~sched_seed:4321 ~preempt_jitter:50 () in
      let victim_proc = Process.make ~uid:2100 "victim-proc-c" in
      let truth = ref None in
      Vm.set_crash_point vm
        ~filter:(fun n -> n = "victim")
        ~at
        ~on_crash:(fun _name now ->
          truth := Some (kill_site_truth ());
          Process.kill ~now_ns:now victim_proc)
        ();
      (* Acked = the batch prefix whose per-op callbacks ran before the
         kill. Issued = everything handed to [batch]; an unacked issued
         key may or may not have landed. Keys are unique per op, so
         present ⇒ exactly the issued value. *)
      let acked : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let issued : (string, string) Hashtbl.t = Hashtbl.create 64 in
      ignore
        (Vm.spawn vm ~name:"victim" (fun () ->
           Process.with_process victim_proc (fun () ->
             try
               for b = 0 to 7 do
                 let keys = List.init 8 (fun j -> Printf.sprintf "c-%d" ((b * 8) + j)) in
                 let ops =
                   List.mapi
                     (fun j k ->
                       let v = batch_val ((b * 8) + j) in
                       Hashtbl.replace issued k v;
                       Plib.B_set
                         { b_key = k; b_data = v; b_flags = 0; b_exptime = 0 })
                     keys
                 in
                 ignore
                   (Plib.batch p ops
                      ~on_op:(fun j _r ->
                        let k = List.nth keys j in
                        Hashtbl.replace acked k (batch_val ((b * 8) + j))));
                 (* Read the batch back through the grouped-stripe path
                    so kill sites land inside [mget]'s stripe group
                    too. *)
                 ignore (Plib.mget p keys)
               done
             with Process.Process_killed _ -> ())));
      Vm.run vm;
      let crashes = Vm.crashed vm in
      let n = Vm.sync_points_seen vm in
      let events = Vm.events_processed vm in
      (* A kill mid-batch must still flush a well-shaped span tree:
         the crossing span with the committed prefix's exec children. *)
      List.iter
        (fun tr ->
          match Telemetry.Span.well_formed tr with
          | Ok () -> ()
          | Error m ->
            Alcotest.fail (Printf.sprintf "span tree after kill at %d: %s" at m))
        (Telemetry.Span.traces ());
      let vm2 = Vm.create () in
      ignore
        (Vm.spawn vm2 ~name:"bookkeeper" (fun () ->
           Process.with_process owner (fun () ->
             if crashes <> [] then Plib.recover p;
             Shm.Region.kernel_mode (fun () ->
               Plib.Store.check_invariants (Plib.store p);
               Ralloc.check_invariants (Plib.heap p));
             if crashes <> [] then
               Shm.Region.kernel_mode (fun () ->
                 let store = Plib.store p and heap = Plib.heap p in
                 let arena = Plib.arena p in
                 let live = Plib.Store.recover store in
                 let arena_live, live =
                   List.partition (Mc_core.Bump_arena.owns arena) live
                 in
                 let live =
                   Mc_core.Bump_arena.recovery_roots arena @ live
                 in
                 let cell =
                   Ralloc.get_root heap Core.Plib_store.root_primary
                 in
                 let live = if cell = 0 then live else cell :: live in
                 let tblock =
                   Ralloc.get_root heap Core.Plib_store.root_telemetry
                 in
                 let live = if tblock = 0 then live else tblock :: live in
                 let acell =
                   Ralloc.get_root heap Core.Plib_store.root_arena
                 in
                 let live = if acell = 0 then live else acell :: live in
                 let fblock =
                   Ralloc.get_root heap Core.Plib_store.root_flight
                 in
                 let live = if fblock = 0 then live else fblock :: live in
                 Ralloc.recover heap ~live;
                 Mc_core.Bump_arena.recover arena ~live:arena_live;
                 assert_conserved heap live);
             (match !truth with
              | Some expect -> assert_forensics ?tally ~at ~expect p
              | None -> ());
             (* The acked prefix survives verbatim. *)
             Hashtbl.iter
               (fun k v ->
                 match Plib.get p k with
                 | Some r when r.Store.value = v -> ()
                 | Some r ->
                   Alcotest.fail
                     (Printf.sprintf
                        "acked batch op %s corrupted: wanted %d bytes, got %d"
                        k (String.length v)
                        (String.length r.Store.value))
                 | None ->
                   Alcotest.fail
                     ("acked batch op lost after recovery: " ^ k))
               acked;
             (* Unacked issued ops: present-or-absent, never torn. *)
             Hashtbl.iter
               (fun k v ->
                 if not (Hashtbl.mem acked k) then
                   match Plib.get p k with
                   | None -> ()
                   | Some r when r.Store.value = v -> ()
                   | Some r ->
                     Alcotest.fail
                       (Printf.sprintf
                          "unacked batch op %s torn: wanted %d bytes, got %d"
                          k (String.length v)
                          (String.length r.Store.value)))
               issued;
             (* The store takes fresh traffic after the batch kill. *)
             if Plib.set p "post-crash" "recovered" <> Store.Stored then
               Alcotest.fail "store refuses writes after recovery";
             match Plib.get p "post-crash" with
             | Some r when r.Store.value = "recovered" -> ()
             | _ -> Alcotest.fail "post-recovery write not readable")));
      Vm.run vm2;
      (crashes, n, events))

let tally_c = Array.make 4 0

let test_sweep_batched () =
  let crashes, n, _ = run_c ~at:max_int () in
  check_crashes "count pass kills nobody" [] crashes;
  Alcotest.(check bool)
    (Printf.sprintf "batched workload exposes enough kill sites (%d)" n)
    true (n >= 40);
  let m = min 40 (cap ()) in
  for i = 0 to m - 1 do
    let k = i * n / m in
    let crashes, _, _ = run_c ~tally:tally_c ~at:k () in
    check_crashes
      (Printf.sprintf "kill fired at site %d/%d" k n)
      [ ("victim", k) ] crashes;
    incr sites_c
  done;
  print_tally "C" tally_c

(* ---- Workload D: multi-tenant stack, tenant-A victim, B/C survive --- *)

(* Three live tenants; the victim dies at every sync point inside its
   tenant-scoped calls. Post-recovery the durable tenant state must be
   whole: registry membership/quotas/vkeys intact, every surviving
   tenant's acked write readable in its own namespace only, usage
   counters equal to a recomputation from the store, the vpkey slot
   table rebuilt from the registry (we wipe it before recovery to
   model the process loss), and quota eviction still tenant-local. *)

let cfg_d =
  { Store.default_config with hashpower = 7; lock_count = 8; lru_count = 8;
    stats_slots = 2 }

let fresh_d = ref 0

let run_d ?tally ~at () =
  incr fresh_d;
  let path = Printf.sprintf "/shm/crash-d-%d" !fresh_d in
  let owner = Process.make ~uid:1000 "bk-crash-d" in
  let p = Plib.create ~store_cfg:cfg_d ~path ~size:(2 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Vpkey.reset ();
      Pku.Pkru.reset_thread ())
    (fun () ->
      Telemetry.Span.reset ();
      (* Library crossings charge virtual time, so tenant setup runs
         inside its own simulation before the kill-armed one. *)
      let sa = ref (-1) and sb = ref (-1) and sc = ref (-1) in
      let vm0 = Vm.create () in
      ignore
        (Vm.spawn vm0 ~name:"setup" (fun () ->
           Process.with_process owner (fun () ->
             sa :=
               Plib.create_tenant p ~name:"ta" ~uid:2001
                 ~byte_quota:(96 * 1024) ();
             sb :=
               Plib.create_tenant p ~name:"tb" ~uid:2002
                 ~byte_quota:(96 * 1024) ();
             sc :=
               Plib.create_tenant p ~name:"tc" ~uid:2003
                 ~byte_quota:(16 * 1024) ())));
      Vm.run vm0;
      let sa = !sa and sb = !sb and sc = !sc in
      let proc_a = Process.make ~uid:2001 "tenant-a" in
      let proc_b = Process.make ~uid:2002 "tenant-b" in
      let proc_c = Process.make ~uid:2003 "tenant-c" in
      let vm = Vm.create ~sched_seed:4321 ~preempt_jitter:50 () in
      let truth = ref None in
      Vm.set_crash_point vm
        ~filter:(fun n -> n = "victim")
        ~at
        ~on_crash:(fun _name now ->
          truth := Some (kill_site_truth ());
          Process.kill ~now_ns:now proc_a)
        ();
      (* Host-side models of the survivors' acked writes, keyed by the
         {e unscoped} tenant key. Key names are disjoint across
         tenants, so a cross-namespace hit can only be migration. *)
      let model_b : (string, expect) Hashtbl.t = Hashtbl.create 16 in
      let model_c : (string, expect) Hashtbl.t = Hashtbl.create 16 in
      ignore
        (Vm.spawn vm ~name:"victim" (fun () ->
           Process.with_process proc_a (fun () ->
             try
               for i = 0 to 47 do
                 let k = Printf.sprintf "a-%d" (i mod 7) in
                 match i mod 8 with
                 | 0 | 1 | 2 ->
                   ignore
                     (Plib.tenant_set p sa k
                        (String.make (60 + (i * 31 mod 300)) 'a'))
                 | 3 -> ignore (Plib.tenant_get p sa k)
                 | 4 -> ignore (Plib.tenant_delete p sa k)
                 | 5 -> ignore (Plib.tenant_touch p sa k 1000)
                 | 6 ->
                   ignore
                     (Plib.tenant_mget p sa [ "a-0"; "a-1"; "a-2" ])
                 | _ -> if i = 47 then ignore (Plib.tenant_flush p sa)
               done
             with Process.Process_killed _ -> ())));
      let survivor name proc slot prefix model =
        ignore
          (Vm.spawn vm ~name (fun () ->
             Process.with_process proc (fun () ->
               let i = ref 0 in
               while !i < 16 && Vm.crashed vm = [] do
                 let k = Printf.sprintf "%s-%d" prefix (!i mod 5) in
                 (match !i mod 5 with
                  | 4 ->
                    if Plib.tenant_delete p slot k then
                      Hashtbl.replace model k Absent
                  | 3 -> ignore (Plib.tenant_get p slot k)
                  | _ ->
                    let v =
                      Printf.sprintf "%s-%d-%s" prefix !i
                        (String.make (40 + (!i * 29 mod 200)) prefix.[0])
                    in
                    if Plib.tenant_set p slot k v = Store.Stored then
                      Hashtbl.replace model k (Val v));
                 incr i
               done)))
      in
      survivor "survB" proc_b sb "b" model_b;
      survivor "survC" proc_c sc "c" model_c;
      Vm.run vm;
      let crashes = Vm.crashed vm in
      let n = Vm.sync_points_seen vm in
      let events = Vm.events_processed vm in
      List.iter
        (fun tr ->
          match Telemetry.Span.well_formed tr with
          | Ok () -> ()
          | Error m ->
            Alcotest.fail
              (Printf.sprintf "span tree after kill at %d: %s" at m))
        (Telemetry.Span.traces ());
      let vm2 = Vm.create () in
      ignore
        (Vm.spawn vm2 ~name:"bookkeeper" (fun () ->
           Process.with_process owner (fun () ->
             if crashes <> [] then begin
               (* The slot table is process-volatile: model the dead
                  process by wiping it, so recovery must rebuild every
                  vkey from the persisted registry. *)
               Pku.Vpkey.reset ();
               Plib.recover p
             end;
             Shm.Region.kernel_mode (fun () ->
               Plib.Store.check_invariants (Plib.store p);
               Ralloc.check_invariants (Plib.heap p));
             (match !truth with
              | Some expect -> assert_forensics ?tally ~at ~expect p
              | None -> ());
             Pku.Vpkey.check_invariants ();
             (* Registry: membership, uids, quotas, vkeys all stand. *)
             let reg = Plib.tenants p in
             Shm.Region.kernel_mode (fun () ->
               List.iter
                 (fun (name, slot, uid, bq) ->
                   (match Mc_core.Tenant.find reg name with
                    | Some s when s = slot -> ()
                    | _ ->
                      Alcotest.fail
                        ("tenant lost from the registry: " ^ name));
                   Alcotest.(check int) (name ^ " uid") uid
                     (Mc_core.Tenant.uid_of reg slot);
                   Alcotest.(check int) (name ^ " byte quota") bq
                     (Mc_core.Tenant.byte_quota reg slot);
                   let vk = Mc_core.Tenant.vkey_of reg slot in
                   Alcotest.(check bool) (name ^ " has a vkey") true (vk > 0);
                   Alcotest.(check int) (name ^ " vkey owner") uid
                     (Pku.Vpkey.owner_of vk))
                 [ ("ta", sa, 2001, 96 * 1024);
                   ("tb", sb, 2002, 96 * 1024);
                   ("tc", sc, 2003, 16 * 1024) ]);
             (* Every surviving acked write readable in its namespace;
                acked deletes stay deleted. *)
             let check_model proc slot model =
               Process.with_process proc (fun () ->
                 Hashtbl.iter
                   (fun k e ->
                     match (e, Plib.tenant_get p slot k) with
                     | Val v, Some r when r.Store.value = v -> ()
                     | Val _, Some _ ->
                       Alcotest.fail ("acked tenant write corrupted: " ^ k)
                     | Val _, None ->
                       Alcotest.fail ("acked tenant write lost: " ^ k)
                     | Absent, None -> ()
                     | Absent, Some _ ->
                       Alcotest.fail ("acked tenant delete resurrected: " ^ k))
                   model)
             in
             check_model proc_b sb model_b;
             check_model proc_c sc model_c;
             (* No cross-namespace migration: B's keys miss through
                C's scope and vice versa, and every store key still
                parses into a registered namespace. *)
             Process.with_process proc_c (fun () ->
               Hashtbl.iter
                 (fun k e ->
                   if e <> Absent && Plib.tenant_get p sc k <> None then
                     Alcotest.fail ("tenant key migrated b->c: " ^ k))
                 model_b);
             Process.with_process proc_b (fun () ->
               Hashtbl.iter
                 (fun k e ->
                   if e <> Absent && Plib.tenant_get p sb k <> None then
                     Alcotest.fail ("tenant key migrated c->b: " ^ k))
                 model_c);
             Shm.Region.kernel_mode (fun () ->
               Plib.Store.fold_keys (Plib.store p)
                 (fun () key ~nbytes:_ ~exptime:_ ->
                   match Mc_core.Tenant.owner_slot_of_key reg key with
                   | Some _ -> ()
                   | None ->
                     Alcotest.fail
                       ("store key outside every tenant namespace: " ^ key))
                 ());
             (* Usage counters equal a recomputation from the store
                (they may have been mid-update at the kill). *)
             let recomputed = Array.make 3 (0, 0) in
             Shm.Region.kernel_mode (fun () ->
               Plib.Store.fold_keys (Plib.store p)
                 (fun () key ~nbytes ~exptime:_ ->
                   match Mc_core.Tenant.owner_slot_of_key reg key with
                   | Some s when s < 3 ->
                     let b, i = recomputed.(s) in
                     recomputed.(s) <- (b + String.length key + nbytes, i + 1)
                   | _ -> ())
                 ());
             List.iteri
               (fun i slot ->
                 let b, it = Plib.tenant_usage p slot in
                 let rb, ri = recomputed.(i) in
                 Alcotest.(check (pair int int))
                   (Printf.sprintf "tenant %d usage = recomputed truth" i)
                   (rb, ri) (b, it))
               [ sa; sb; sc ];
             (* The rebuilt vkeys are bindable and fresh tenant traffic
                flows; a post-recovery quota flood in C evicts only C's
                own items. *)
             Process.with_process proc_b (fun () ->
               if Plib.tenant_set p sb "fresh" "post-crash-b" <> Store.Stored
               then Alcotest.fail "tenant refuses writes after recovery";
               match Plib.tenant_get p sb "fresh" with
               | Some r when r.Store.value = "post-crash-b" -> ()
               | _ -> Alcotest.fail "post-recovery tenant write unreadable");
             Process.with_process proc_c (fun () ->
               let blob = String.make 1000 'z' in
               for i = 0 to 39 do
                 ignore
                   (Plib.tenant_set p sc (Printf.sprintf "flood-%d" i) blob)
               done;
               let cb, _ = Plib.tenant_usage p sc in
               Alcotest.(check bool) "flood capped by C's quota" true
                 (cb <= 16 * 1024));
             check_model proc_b sb model_b)));
      Vm.run vm2;
      (crashes, n, events))

let sites_d = ref 0

let tally_d = Array.make 4 0

let test_sweep_tenants () =
  let crashes, n, _ = run_d ~at:max_int () in
  check_crashes "count pass kills nobody" [] crashes;
  Alcotest.(check bool)
    (Printf.sprintf "tenant workload exposes enough kill sites (%d)" n)
    true (n >= 60);
  let m = min 40 (cap ()) in
  for i = 0 to m - 1 do
    let k = i * n / m in
    let crashes, _, _ = run_d ~tally:tally_d ~at:k () in
    check_crashes
      (Printf.sprintf "kill fired at site %d/%d" k n)
      [ ("victim", k) ] crashes;
    incr sites_d
  done;
  print_tally "D" tally_d

(* ---- Workload E: shared-ring transport, client victim mid-stream --- *)

(* The victim talks to a ring-mode server and dies at every sync point
   of its submit/await path — including mid-[Ring.produce] with only
   some fragments of a multi-slot message published, and mid-await with
   completions it never consumed. The sweep asserts the ring transport's
   crash contract: every write whose reply the client had parsed out of
   its completion ring ("acked") is still readable with the exact value
   after recovery; a submitted-but-unacked write is present-or-absent
   but never torn (the value, when there, is byte-exact — a half-
   published entry is truncated by [Ring.recover], not executed); and a
   fresh ring-mode server serves traffic over the recovered heap. *)

let cfg_e =
  { Store.default_config with hashpower = 7; lock_count = 8; lru_count = 2;
    stats_slots = 2 }

let fresh_e = ref 0

let run_e ?tally ~at () =
  incr fresh_e;
  let path = Printf.sprintf "/shm/crash-e-%d" !fresh_e in
  let owner = Process.make ~uid:1000 "bk-crash-e" in
  let p = Plib.create ~store_cfg:cfg_e ~path ~size:(2 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      Telemetry.Span.reset ();
      let vm = Vm.create ~sched_seed:2718 ~preempt_jitter:50 () in
      let victim_proc = Process.make ~uid:2100 "ring-victim" in
      let truth = ref None in
      Vm.set_crash_point vm
        ~filter:(fun n -> n = "victim")
        ~at
        ~on_crash:(fun _name now ->
          truth := Some (kill_site_truth ());
          Process.kill ~now_ns:now victim_proc)
        ();
      (* [acked k] = the reply was parsed from the completion ring
         before the kill; [submitted k] = the op entered (possibly only
         partially) the submission ring. Every op uses a fresh key, so
         the legal post-recovery states of a key are exactly {its acked
         value} or {its submitted value, absent}. Values span multiple
         ring slots so a mid-publish kill really does leave a torn
         multi-fragment entry behind. *)
      let acked : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let submitted : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let srv_name = Printf.sprintf "crash-e-srv-%d" !fresh_e in
      let victim_done = ref false in
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let srv =
             Plib.serve_remote
               ~cfg:
                 { Mc_server.Server.default_config with
                   workers = 1; store = cfg_e }
               ~rings:Mc_server.Server.default_ring_config p ~name:srv_name
           in
           let victim =
             Vm.Sync.spawn ~name:"victim" (fun () ->
               (try
                  Process.with_process victim_proc (fun () ->
                    try
                      let conn = VCl.Sock.connect ~name:srv_name () in
                      for i = 0 to 39 do
                        let k = Printf.sprintf "e-%d" i in
                        let v = String.make (60 + (i * 97 mod 540)) 'e' in
                        Hashtbl.replace submitted k v;
                        (match VCl.Sock.set conn k v with
                         | Store.Stored -> Hashtbl.replace acked k v
                         | _ -> ());
                        if i mod 7 = 3 then ignore (VCl.Sock.get conn k)
                      done
                    with VCl.Sock.T.Connection_closed -> ())
                with Process.Process_killed _ -> ());
               victim_done := true)
           in
           ignore victim;
           let survivor =
             Vm.Sync.spawn ~name:"surv" (fun () ->
               let proc = Process.make ~uid:3100 "ring-app" in
               Process.with_process proc (fun () ->
                 let conn = VCl.Sock.connect ~name:srv_name () in
                 let i = ref 0 in
                 while !i < 16 && Vm.crashed vm = [] do
                   let k = Printf.sprintf "s-%d" !i in
                   let v =
                     Printf.sprintf "s-%d-%s" !i
                       (String.make (40 + (!i * 53 mod 300)) 's')
                   in
                   (match VCl.Sock.set conn k v with
                    | Store.Stored -> Hashtbl.replace acked k v
                    | _ -> ());
                   incr i
                 done))
           in
           Vm.Sync.join survivor;
           (* Wait for the victim to finish or die — a killed thread's
              continuation is dropped, so it cannot be joined. *)
           while not !victim_done && Vm.crashed vm = [] do
             Vm.Sync.sleep_ns 500
           done;
           (* Let the worker run out any in-flight drain. *)
           Vm.Sync.advance 100_000;
           Plib.stop_remote srv));
      Vm.run vm;
      let crashes = Vm.crashed vm in
      let n = Vm.sync_points_seen vm in
      let events = Vm.events_processed vm in
      List.iter
        (fun tr ->
          match Telemetry.Span.well_formed tr with
          | Ok () -> ()
          | Error m ->
            Alcotest.fail
              (Printf.sprintf "span tree after kill at %d: %s" at m))
        (Telemetry.Span.traces ());
      let vm2 = Vm.create () in
      ignore
        (Vm.spawn vm2 ~name:"bookkeeper" (fun () ->
           Process.with_process owner (fun () ->
             if crashes <> [] then Plib.recover p;
             Shm.Region.kernel_mode (fun () ->
               Plib.Store.check_invariants (Plib.store p);
               Ralloc.check_invariants (Plib.heap p));
             (match !truth with
              | Some expect -> assert_forensics ?tally ~at ~expect p
              | None -> ());
             (* Acked writes are durable and byte-exact. *)
             Hashtbl.iter
               (fun k v ->
                 match Plib.get p k with
                 | Some r when r.Store.value = v -> ()
                 | Some r ->
                   Alcotest.fail
                     (Printf.sprintf
                        "acked ring write %s torn: wanted %d bytes, got %d" k
                        (String.length v)
                        (String.length r.Store.value))
                 | None ->
                   Alcotest.fail ("acked ring write lost after recovery: " ^ k))
               acked;
             (* Submitted-but-unacked: present-or-absent, never torn. *)
             Hashtbl.iter
               (fun k v ->
                 if not (Hashtbl.mem acked k) then
                   match Plib.get p k with
                   | None -> ()
                   | Some r when r.Store.value = v -> ()
                   | Some r ->
                     Alcotest.fail
                       (Printf.sprintf
                          "unacked ring write %s torn: %d bytes of %d" k
                          (String.length r.Store.value)
                          (String.length v)))
               submitted;
             (* A fresh ring-mode server runs over the recovered heap. *)
             let srv2 =
               Plib.serve_remote
                 ~cfg:
                   { Mc_server.Server.default_config with
                     workers = 1; store = cfg_e }
                 ~rings:Mc_server.Server.default_ring_config p
                 ~name:(srv_name ^ "-post")
             in
             let conn = VCl.Sock.connect ~name:(srv_name ^ "-post") () in
             if VCl.Sock.set conn "post-crash" "recovered" <> Store.Stored then
               Alcotest.fail "ring server refuses writes after recovery";
             (match VCl.Sock.get conn "post-crash" with
              | Some r when r.Store.value = "recovered" -> ()
              | _ -> Alcotest.fail "post-recovery ring write not readable");
             Plib.stop_remote srv2)));
      Vm.run vm2;
      (crashes, n, events))

let sites_e = ref 0

let tally_e = Array.make 4 0

let test_sweep_rings () =
  let crashes, n, _ = run_e ~at:max_int () in
  check_crashes "count pass kills nobody" [] crashes;
  Alcotest.(check bool)
    (Printf.sprintf "ring workload exposes enough kill sites (%d)" n)
    true (n >= 40);
  let m = min 40 (cap ()) in
  for i = 0 to m - 1 do
    let k = i * n / m in
    let crashes, _, _ = run_e ~tally:tally_e ~at:k () in
    check_crashes
      (Printf.sprintf "kill fired at site %d/%d" k n)
      [ ("victim", k) ] crashes;
    incr sites_e
  done;
  print_tally "E" tally_e

(* ---- Publish-last protocol is load-bearing (red/green) ------------- *)

(* A tearable info breadcrumb exposes its internal sync point — the
   window between payload write and commit stamp — as a kill site.
   Under the shipping publish-last ordering, no kill site can leave a
   head record that claims publication (sequence word stamped) but
   fails validation; with the ordering reverted, the same sweep finds
   exactly that torn head. The protocol, not luck, keeps the
   post-mortem story readable. *)
let torn_after ~publish_last ~at =
  Telemetry.Flight.reset_backend ();
  Telemetry.Flight.reset ();
  Telemetry.Flight.publish_last_enabled := publish_last;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Flight.publish_last_enabled := true;
      Telemetry.Flight.reset ())
    (fun () ->
      let vm = Vm.create () in
      Vm.set_crash_point vm ~filter:(fun n -> n = "w") ~at ();
      ignore
        (Vm.spawn vm ~name:"w" (fun () ->
           Telemetry.Flight.record Telemetry.Flight.Op_dispatch ~a:3 ~b:1 ~c:7;
           Telemetry.Flight.record Telemetry.Flight.Tenant_scope ~a:2 ~b:0 ~c:0;
           Vm.Sync.advance 10));
      Vm.run vm;
      let n = Vm.sync_points_seen vm in
      (Vm.crashed vm, n, Telemetry.Flight.torn_lanes () <> []))

let test_publish_last_protocol () =
  let _, n, _ = torn_after ~publish_last:true ~at:max_int in
  Alcotest.(check bool)
    (Printf.sprintf "tearable records expose kill sites (%d)" n)
    true (n >= 2);
  (* Green: the shipping ordering never leaves a torn head. *)
  for k = 0 to n - 1 do
    let crashes, _, torn = torn_after ~publish_last:true ~at:k in
    if crashes <> [] && torn then
      Alcotest.fail
        (Printf.sprintf "publish-last left a torn head record at site %d" k)
  done;
  (* Red: the reverted (sequence-first) ordering tears at some site. *)
  let torn_somewhere = ref false in
  for k = 0 to n - 1 do
    let crashes, _, torn = torn_after ~publish_last:false ~at:k in
    if crashes <> [] && torn then torn_somewhere := true
  done;
  Alcotest.(check bool)
    "seq-first ordering leaves a torn head at some kill site" true
    !torn_somewhere

(* ---- Coverage floor (must run after the sweeps) -------------------- *)

let test_coverage () =
  if cap () = max_int then
    Alcotest.(check bool)
      (Printf.sprintf "sweeps killed at %d + %d + %d + %d + %d distinct sites"
         !sites_a !sites_b !sites_c !sites_d !sites_e)
      true
      (!sites_a + !sites_b + !sites_c + !sites_d + !sites_e >= 320)

let () =
  Alcotest.run "crash"
    [ ( "sweep",
        [ Alcotest.test_case "plib stack, victim + survivors" `Quick
            test_sweep_plib;
          Alcotest.test_case "direct store under pressure" `Quick
            test_sweep_store_pressure;
          Alcotest.test_case "batched protected calls" `Quick
            test_sweep_batched;
          Alcotest.test_case "multi-tenant stack, tenant victim" `Quick
            test_sweep_tenants;
          Alcotest.test_case "ring transport, client victim" `Quick
            test_sweep_rings ] );
      ( "edges",
        [ Alcotest.test_case "sweep is deterministic" `Quick
            test_sweep_is_deterministic;
          Alcotest.test_case "crash point beyond workload" `Quick
            test_crash_point_beyond_workload;
          Alcotest.test_case "recovery is conservative" `Quick
            test_recovery_is_conservative;
          Alcotest.test_case "publish-last protocol red/green" `Quick
            test_publish_last_protocol ] );
      ( "coverage",
        [ Alcotest.test_case "site floor" `Quick test_coverage ] ) ]
