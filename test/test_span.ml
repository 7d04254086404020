(** Causal span trees: tree shape, sampling, the slow-op log, phase
    attribution (self times summing exactly to end-to-end latency),
    stripe-contention profiling, and the well-formedness property under
    seeded Vm schedules — including aborted flushes at injected kill
    sites. *)

module Span = Telemetry.Span
module Contention = Telemetry.Contention
module Process = Simos.Process
module Store = Mc_core.Store

let fresh () =
  Telemetry.Control.set_enabled true;
  (* a prior failed test may have left a live trace in this thread's
     TLS; flush it so it cannot swallow our ingresses as children *)
  Telemetry.Span.flush_aborted ();
  Telemetry.Counters.reset_backend ();
  Telemetry.Timers.reset ();
  Telemetry.Trace.clear ();
  Telemetry.Trace.set_level Telemetry.Trace.Info;
  Span.set_sampling 1;
  Span.set_slow_threshold_ns 0;
  Span.reset ();
  Contention.reset ()

(* A hand-cranked clock, for tests that run on the host thread with no
   Vm to install a virtual one. *)
let with_clock f =
  let t = ref 0 in
  let prev = Telemetry.Control.install_now (fun () -> !t) in
  Fun.protect
    ~finally:(fun () -> Telemetry.Control.restore_now prev)
    (fun () -> f t)

let ok_or_fail tr =
  match Span.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let sum_self tr = List.fold_left (fun a (_, s) -> a + s) 0 (Span.self_times tr)

(* ---- Tree building --------------------------------------------------- *)

let test_tree_shape () =
  fresh ();
  with_clock (fun t ->
    let root = Span.ingress (Span.phase "op") in
    Alcotest.(check bool) "trace in flight" true (Span.active ());
    t := 10;
    let a = Span.start (Span.phase "a") in
    t := 20;
    let b = Span.start (Span.phase "b") in
    t := 30;
    Span.finish b;
    t := 45;
    Span.finish a;
    let c = Span.start (Span.phase "c") in
    t := 60;
    Span.finish c;
    t := 100;
    Span.finish root;
    Alcotest.(check bool) "trace completed" false (Span.active ());
    match Span.traces () with
    | [ tr ] ->
      ok_or_fail tr;
      Alcotest.(check (list string))
        "phases in preorder" [ "op"; "a"; "b"; "c" ]
        (List.map (fun s -> s.Span.phase) tr.Span.spans);
      Alcotest.(check (list int))
        "parent links" [ -1; 0; 1; 0 ]
        (List.map (fun s -> s.Span.parent) tr.Span.spans);
      Alcotest.(check int) "duration" 100 (Span.duration tr);
      Alcotest.(check int) "self times sum exactly to e2e" 100 (sum_self tr);
      Alcotest.(check (option int))
        "b's self is its whole window" (Some 10)
        (List.assoc_opt "b" (Span.self_times tr));
      let txt = Span.render_tree tr in
      let contains needle =
        let n = String.length needle and h = String.length txt in
        let rec go i =
          i + n <= h && (String.sub txt i n = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "render mentions %s" needle)
            true (contains needle))
        [ "op"; "a"; "b"; "c"; "100 ns" ]
    | trs -> Alcotest.fail (Printf.sprintf "expected 1 trace, got %d"
                              (List.length trs)))

let test_nested_ingress_degrades () =
  fresh ();
  let outer = Span.ingress (Span.phase "outer") in
  let inner = Span.ingress (Span.phase "inner") in
  Span.finish inner;
  Span.finish outer;
  match Span.traces () with
  | [ tr ] ->
    ok_or_fail tr;
    Alcotest.(check (list string))
      "inner op became a child phase" [ "outer"; "inner" ]
      (List.map (fun s -> s.Span.phase) tr.Span.spans)
  | trs ->
    Alcotest.fail (Printf.sprintf "expected 1 trace, got %d" (List.length trs))

let test_sampling () =
  fresh ();
  Span.set_sampling 2;
  for _ = 1 to 10 do
    Span.finish (Span.ingress (Span.phase "s"))
  done;
  Alcotest.(check int) "1-in-2 keeps half" 5 (List.length (Span.traces ()));
  (* burn the next sampled slot (n=10) so "u" draws an unsampled ticket *)
  Span.finish (Span.ingress (Span.phase "s"));
  (* an unsampled trace still tracks liveness but starts no children *)
  let r = Span.ingress (Span.phase "u") in
  Alcotest.(check bool) "unsampled trace is live" true (Span.active ());
  Alcotest.(check bool) "no child spans under it" true
    (Span.start (Span.phase "x") = Span.null);
  Span.finish r;
  Span.set_sampling 0;
  Alcotest.(check bool) "sampling 0 mints nothing" true
    (Span.ingress (Span.phase "z") = Span.null);
  Alcotest.(check bool) "nothing in flight" false (Span.active ())

let test_slow_log () =
  fresh ();
  with_clock (fun t ->
    Span.set_slow_threshold_ns 50;
    (* trace 0 is always sampled (0 mod n = 0); burn it fast, then let
       the unsampled trace 1 run slow *)
    Span.set_sampling 1_000_000;
    Span.finish (Span.ingress (Span.phase "fast"));
    let r = Span.ingress (Span.phase "slow-op") in
    Alcotest.(check bool) "child start is null while unsampled" true
      (Span.start (Span.phase "x") = Span.null);
    t := !t + 100;
    Span.finish r;
    match Span.slow_traces () with
    | [ tr ] ->
      Alcotest.(check string) "the slow op was kept" "slow-op" tr.Span.root_op;
      Alcotest.(check bool) "kept despite the sampling draw" false
        tr.Span.sampled;
      Alcotest.(check int) "root-only" 1 (List.length tr.Span.spans);
      Alcotest.(check bool) "echoed to the trace ring" true
        (List.exists
           (fun e -> e.Telemetry.Trace.subsys = "span")
           (Telemetry.Trace.dump ()))
    | trs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 slow trace, got %d" (List.length trs)))

let test_drop_semantics () =
  fresh ();
  (* dropped root: the whole trace vanishes *)
  let r = Span.ingress (Span.phase "doomed") in
  Span.drop r;
  Alcotest.(check int) "dropped root buffers nothing" 0
    (List.length (Span.traces ()));
  Alcotest.(check bool) "nothing in flight" false (Span.active ());
  (* dropped child: flagged aborted, trace survives *)
  let r = Span.ingress (Span.phase "kept") in
  let c = Span.start (Span.phase "bad") in
  Span.drop c;
  Span.finish r;
  match Span.traces () with
  | [ tr ] ->
    ok_or_fail tr;
    let bad = List.nth tr.Span.spans 1 in
    Alcotest.(check bool) "child flagged aborted" true bad.Span.s_aborted;
    Alcotest.(check bool) "trace itself not aborted" false tr.Span.t_aborted
  | trs ->
    Alcotest.fail (Printf.sprintf "expected 1 trace, got %d" (List.length trs))

(* ---- Phase attribution ------------------------------------------------ *)

let test_attribution_sums_to_e2e () =
  fresh ();
  with_clock (fun t ->
    for i = 1 to 20 do
      let r = Span.ingress (Span.phase "op") in
      t := !t + i;
      let a = Span.start (Span.phase "a") in
      t := !t + (3 * i);
      Span.finish a;
      t := !t + 7;
      Span.finish r
    done;
    let phases = Span.phase_report () in
    let e2e = Span.e2e_report () in
    let total =
      List.fold_left (fun acc (_, s) -> acc + s.Span.p_self_ns) 0 phases
    in
    Alcotest.(check int) "sigma phase self == e2e total" e2e.Span.p_self_ns
      total;
    Alcotest.(check int) "every trace folded" 20 e2e.Span.p_count;
    (* the kv surface agrees with the report *)
    let kvs = Span.phase_kvs () in
    let kv_total =
      List.fold_left
        (fun acc (k, v) ->
          let is_self =
            String.length k > 8
            && String.sub k 0 6 = "phase:"
            && String.sub k (String.length k - 8) 8 = ":self_ns"
          in
          if is_self then acc + int_of_string v else acc)
        0 kvs
    in
    Alcotest.(check (option string))
      "e2e row matches" (Some (string_of_int kv_total))
      (List.assoc_opt "e2e:total_ns" kvs);
    (* reset_phases clears accumulators but keeps the raw traces *)
    Span.reset_phases ();
    Alcotest.(check int) "accumulators cleared" 0
      (Span.e2e_report ()).Span.p_count;
    Alcotest.(check bool) "trace buffers survive" true (Span.traces () <> []);
    Span.reset ();
    Alcotest.(check int) "full reset clears buffers too" 0
      (List.length (Span.traces ())))

(* ---- The full stack under seeded Vm schedules ------------------------- *)

module VCl = Core.Client.Make (Vm.Sync)
module Plib = VCl.Plib

let cfg =
  { Store.default_config with hashpower = 7; lock_count = 4; lru_count = 2;
    stats_slots = 2 }

let fresh_path = ref 0

(* A contended mixed workload: [threads] clients over one shared store,
   single-ops, mgets and mixed batches, keys chosen to collide on a
   handful of stripes. Returns every completed trace. *)
let run_vm_workload ~seed ~threads () =
  fresh ();
  incr fresh_path;
  let path = Printf.sprintf "/shm/span-%d-%d" seed !fresh_path in
  let owner = Process.make ~uid:1000 "bk-span" in
  let p = Plib.create ~store_cfg:cfg ~path ~size:(2 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      let vm = Vm.create ~sched_seed:seed ~preempt_jitter:40 () in
      for i = 0 to threads - 1 do
        ignore
          (Vm.spawn vm
             ~name:(Printf.sprintf "client%d" i)
             (fun () ->
               let proc = Process.make ~uid:(2000 + i) "app" in
               Process.with_process proc (fun () ->
                 for j = 0 to 11 do
                   let k = Printf.sprintf "k-%d" (j mod 3) in
                   match j mod 4 with
                   | 0 -> ignore (Plib.set p k (String.make 60 'x'))
                   | 1 -> ignore (Plib.get p k)
                   | 2 -> ignore (Plib.mget p [ "k-0"; "k-1"; "k-2" ])
                   | _ ->
                     ignore
                       (Plib.batch p
                          [ Plib.B_get k;
                            Plib.B_set
                              { b_key = k; b_data = "y"; b_flags = 0;
                                b_exptime = 0 };
                            Plib.B_delete "k-9" ])
                 done)))
      done;
      Vm.run vm;
      Span.traces ())

let test_vm_well_formedness_property () =
  List.iter
    (fun seed ->
      let trs = run_vm_workload ~seed ~threads:3 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d produced traces" seed)
        true (trs <> []);
      List.iter
        (fun tr ->
          ok_or_fail tr;
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: no aborted trace without a crash" seed)
            false tr.Span.t_aborted;
          Alcotest.(check int)
            (Printf.sprintf "seed %d trace #%d: self times sum to e2e" seed
               tr.Span.trace_id)
            (Span.duration tr) (sum_self tr))
        trs;
      (* crossings appear, and by construction never below a store span
         (well_formed checked it); batches fan out exec children *)
      Alcotest.(check bool) "some trace crosses the boundary" true
        (List.exists
           (fun tr ->
             List.exists (fun s -> s.Span.phase = "crossing") tr.Span.spans)
           trs);
      Alcotest.(check bool) "some batch fans out exec children" true
        (List.exists
           (fun tr ->
             List.length
               (List.filter (fun s -> s.Span.phase = "exec") tr.Span.spans)
             >= 2)
           trs))
    [ 1; 42; 1234; 9001 ]

let test_vm_determinism () =
  let render trs = String.concat "" (List.map Span.render_tree trs) in
  let a = render (run_vm_workload ~seed:77 ~threads:3 ()) in
  let b = render (run_vm_workload ~seed:77 ~threads:3 ()) in
  Alcotest.(check string) "same seed, same trees" a b

let test_vm_contention_profile () =
  let _ = run_vm_workload ~seed:5 ~threads:4 () in
  let tracked, acqs, wait_total = Contention.totals () in
  Alcotest.(check bool) "stripes tracked" true (tracked > 0);
  Alcotest.(check bool) "acquisitions recorded" true (acqs > 0);
  let report = Contention.report ~k:4 () in
  Alcotest.(check bool) "top-K bounded" true (List.length report <= 4);
  let sorted_desc =
    let rec go = function
      | a :: (b :: _ as tl) ->
        a.Contention.c_wait_total_ns >= b.Contention.c_wait_total_ns && go tl
      | _ -> true
    in
    go report
  in
  Alcotest.(check bool) "sorted by wait, descending" true sorted_desc;
  List.iter
    (fun s ->
      Alcotest.(check bool) "wait total bounded by global total" true
        (s.Contention.c_wait_total_ns <= wait_total))
    report;
  (* the kv surface parses *)
  let kvs = Contention.kvs ~k:4 () in
  Alcotest.(check (option string))
    "acquisitions row" (Some (string_of_int acqs))
    (List.assoc_opt "contention:acquisitions" kvs);
  Contention.reset ();
  let tracked', _, _ = Contention.totals () in
  Alcotest.(check int) "reset clears" 0 tracked'

(* ---- Aborted flush at injected kill sites ----------------------------- *)

(* One run of a tiny victim workload with the crash point at [at];
   returns (crashed, completed traces). *)
let run_crash ~at () =
  fresh ();
  incr fresh_path;
  let path = Printf.sprintf "/shm/span-crash-%d" !fresh_path in
  let owner = Process.make ~uid:1000 "bk-span" in
  let p = Plib.create ~store_cfg:cfg ~path ~size:(2 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      let vm = Vm.create ~sched_seed:4321 () in
      let victim_proc = Process.make ~uid:2000 "victim-proc" in
      Vm.set_crash_point vm
        ~filter:(fun n -> n = "victim")
        ~at
        ~on_crash:(fun _ now -> Process.kill ~now_ns:now victim_proc)
        ();
      ignore
        (Vm.spawn vm ~name:"victim" (fun () ->
           Process.with_process victim_proc (fun () ->
             try
               for i = 0 to 7 do
                 ignore (Plib.set p (Printf.sprintf "c-%d" i) "v")
               done
             with Process.Process_killed _ -> ())));
      Vm.run vm;
      (Vm.crashed vm <> [], (Vm.sync_points_seen vm, Span.traces ())))

let test_aborted_flush_on_crash () =
  let _, (n, _) = run_crash ~at:max_int () in
  Alcotest.(check bool) "workload has kill sites" true (n > 4);
  let aborted_seen = ref 0 in
  (* Sweep a handful of evenly spaced sites: every run's traces must
     stay well-formed, and kills that land mid-trace flush it aborted. *)
  for i = 0 to 7 do
    let at = i * n / 8 in
    let crashed, (_, trs) = run_crash ~at () in
    Alcotest.(check bool)
      (Printf.sprintf "site %d fired" at)
      true crashed;
    List.iter
      (fun tr ->
        ok_or_fail tr;
        if tr.Span.t_aborted then begin
          incr aborted_seen;
          Alcotest.(check bool)
            (Printf.sprintf "site %d: aborted trace has an open-span flag" at)
            true
            (List.exists (fun s -> s.Span.s_aborted) tr.Span.spans)
        end)
      trs
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some kill landed mid-trace (%d aborted flushes)"
       !aborted_seen)
    true (!aborted_seen > 0)

let () =
  Alcotest.run "span"
    [ ( "tree",
        [ Alcotest.test_case "shape and self times" `Quick test_tree_shape;
          Alcotest.test_case "nested ingress degrades" `Quick
            test_nested_ingress_degrades;
          Alcotest.test_case "head sampling" `Quick test_sampling;
          Alcotest.test_case "slow-op log" `Quick test_slow_log;
          Alcotest.test_case "drop semantics" `Quick test_drop_semantics ] );
      ( "attribution",
        [ Alcotest.test_case "phases sum exactly to e2e" `Quick
            test_attribution_sums_to_e2e ] );
      ( "vm",
        [ Alcotest.test_case "well-formed under seeded schedules" `Quick
            test_vm_well_formedness_property;
          Alcotest.test_case "deterministic trees" `Quick test_vm_determinism;
          Alcotest.test_case "stripe-contention profile" `Quick
            test_vm_contention_profile ] );
      ( "crash",
        [ Alcotest.test_case "aborted flush at kill sites" `Quick
            test_aborted_flush_on_crash ] ) ]
