(** The telemetry subsystem: sharded counters (local and shared-heap
    backends), latency histograms, the event-trace ring, and the full
    memcached [stats] surface over both codecs. *)

open Mc_protocol.Types
module Ascii = Mc_protocol.Ascii
module Binary = Mc_protocol.Binary
module C = Telemetry.Counters
module H = Telemetry.Histogram

(* Telemetry state is process-global; every test starts from a clean
   slate so the suite is order-independent. *)
let fresh () =
  Telemetry.Control.set_enabled true;
  C.reset_backend ();
  Telemetry.Timers.reset ();
  Telemetry.Trace.clear ();
  Telemetry.Trace.set_level Telemetry.Trace.Info;
  Telemetry.Span.flush_aborted ();
  Telemetry.Span.set_sampling 1;
  Telemetry.Span.set_slow_threshold_ns 0;
  Telemetry.Span.reset ();
  Telemetry.Contention.reset ()

(* ---- Counters ------------------------------------------------------- *)

let test_counters_basic () =
  fresh ();
  Alcotest.(check int) "starts at zero" 0 (C.read C.Id.get_hits);
  C.incr C.Id.get_hits;
  C.add C.Id.get_hits 41;
  Alcotest.(check int) "accumulates" 42 (C.read C.Id.get_hits);
  Alcotest.(check int) "others untouched" 0 (C.read C.Id.get_misses);
  C.reset ();
  Alcotest.(check int) "reset zeroes" 0 (C.read C.Id.get_hits)

let test_counters_striped_across_vm_threads () =
  fresh ();
  (* Each Vm thread gets its own TLS, hence its own stripe; reads must
     aggregate across all of them. *)
  let vm = Vm.create ~sched_seed:7 () in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
       let worker i =
         Vm.Sync.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
           for _ = 1 to 10 do
             C.incr C.Id.hodor_enter;
             Vm.Sync.advance 10
           done)
       in
       let ws = List.init 6 worker in
       List.iter Vm.Sync.join ws));
  Vm.run vm;
  Alcotest.(check int) "all stripes aggregate" 60 (C.read C.Id.hodor_enter)

let test_counters_toggle_off () =
  fresh ();
  C.add C.Id.pku_faults 5;
  Telemetry.Control.set_enabled false;
  C.add C.Id.pku_faults 100;
  (* reads are not gated: a snapshot after switch-off still sees the
     counts recorded while on *)
  Alcotest.(check int) "off means no bumps, reads survive" 5
    (C.read C.Id.pku_faults);
  Telemetry.Control.set_enabled true;
  C.incr C.Id.pku_faults;
  Alcotest.(check int) "back on" 6 (C.read C.Id.pku_faults)

let test_counters_kvs () =
  fresh ();
  C.incr C.Id.hodor_enter;
  C.pkey_fault 3;
  let b = C.boundary_kvs () in
  Alcotest.(check (option string))
    "boundary has crossings" (Some "1")
    (List.assoc_opt "hodor_enter" b);
  Alcotest.(check (option string))
    "nonzero per-pkey fault shows" (Some "1")
    (List.assoc_opt "pku_fault_pkey:3" b);
  Alcotest.(check (option string))
    "zero per-pkey faults elided" None
    (List.assoc_opt "pku_fault_pkey:7" b);
  Alcotest.(check bool) "boundary excludes store mirrors" false
    (List.mem_assoc "get_hits" b);
  Alcotest.(check bool) "all_kvs includes store mirrors" true
    (List.mem_assoc "get_hits" (C.all_kvs ()))

(* ---- Histograms (one implementation, shared with YCSB) -------------- *)

let test_histogram_shared_with_ycsb () =
  (* Type equality is the point: the YCSB generator's histogram IS the
     telemetry histogram. *)
  let h : H.t = Ycsb.Histogram.create () in
  List.iter (H.record h) [ 100; 200; 300; 400; 10_000 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check int) "max exact" 10_000 (H.max_value h);
  Alcotest.(check int) "min exact" 100 (H.min_value h);
  let p50 = H.percentile h 50.0 and p99 = H.percentile h 99.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %d <= p99 %d <= max" p50 p99)
    true
    (p50 <= p99 && p99 <= H.max_value h);
  (* ~3% bucket resolution around the true median *)
  Alcotest.(check bool) "p50 near 300" true (p50 >= 280 && p50 <= 310);
  let kvs = H.kvs ~prefix:"op" h in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k kvs))
    [ "op:count"; "op:mean_ns"; "op:p50_ns"; "op:p99_ns"; "op:max_ns" ];
  H.reset h;
  Alcotest.(check int) "reset" 0 (H.count h)

let test_histogram_percentile_edges () =
  (* Regression: percentiles on 0/1/2-sample histograms used to report
     bucket floors — a lone sample of 1000 came back as 992, a value
     never recorded. *)
  let h = H.create () in
  Alcotest.(check int) "empty p50 is the sentinel 0" 0 (H.percentile h 50.0);
  Alcotest.(check int) "empty p99 is the sentinel 0" 0 (H.percentile h 99.0);
  H.record h 1000;
  Alcotest.(check int) "lone sample reported exactly (p50)" 1000
    (H.percentile h 50.0);
  Alcotest.(check int) "lone sample reported exactly (p99)" 1000
    (H.percentile h 99.0);
  Alcotest.(check int) "lone sample reported exactly (p0)" 1000
    (H.percentile h 0.0);
  H.record h 3000;
  let p0 = H.percentile h 0.0
  and p50 = H.percentile h 50.0
  and p99 = H.percentile h 99.0 in
  Alcotest.(check bool)
    (Printf.sprintf "two samples clamp into [min,max]: %d %d %d" p0 p50 p99)
    true
    (List.for_all (fun p -> p >= 1000 && p <= 3000) [ p0; p50; p99 ]);
  Alcotest.(check bool) "two-sample p99 reaches the larger sample" true
    (p99 >= 2900);
  (* clamping also holds when every sample lands in one bucket *)
  let h1 = H.create () in
  List.iter (H.record h1) [ 1000; 1000; 1000 ];
  Alcotest.(check int) "identical samples, exact p99" 1000
    (H.percentile h1 99.0)

let test_timers () =
  fresh ();
  let get = Telemetry.Timers.handle "get" in
  List.iter (Telemetry.Timers.record get) [ 50; 60; 70 ];
  Telemetry.Timers.record (Telemetry.Timers.handle "set") 500;
  Alcotest.(check (list string)) "ops sorted" [ "get"; "set" ]
    (Telemetry.Timers.ops ());
  (match Telemetry.Timers.get "get" with
   | Some h -> Alcotest.(check int) "per-op count" 3 (H.count h)
   | None -> Alcotest.fail "get histogram missing");
  Alcotest.(check bool) "kvs carries per-op summaries" true
    (List.mem_assoc "set:count" (Telemetry.Timers.kvs ()));
  Telemetry.Control.set_enabled false;
  Telemetry.Timers.record get 999_999;
  Telemetry.Control.set_enabled true;
  (match Telemetry.Timers.get "get" with
   | Some h -> Alcotest.(check int) "off means no samples" 3 (H.count h)
   | None -> Alcotest.fail "get histogram missing");
  Telemetry.Timers.reset ();
  Alcotest.(check (list string)) "reset clears" [] (Telemetry.Timers.ops ())

(* ---- Trace ring ------------------------------------------------------ *)

let test_trace_ring_wraps () =
  fresh ();
  let module T = Telemetry.Trace in
  let n = T.capacity + 50 in
  for i = 0 to n - 1 do
    T.emit ~at:i ~sev:T.Info ~subsys:"test" (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "emitted counts everything" n (T.emitted ());
  let evs = T.dump () in
  Alcotest.(check int) "ring holds capacity" T.capacity (List.length evs);
  (match evs with
   | first :: _ ->
     Alcotest.(check int) "oldest surviving seq" 50 first.T.seq
   | [] -> Alcotest.fail "empty dump");
  let last = List.nth evs (List.length evs - 1) in
  Alcotest.(check int) "newest seq" (n - 1) last.T.seq;
  Alcotest.(check int) "timestamp carried" (n - 1) last.T.at;
  let tail = T.dump ~n:10 () in
  Alcotest.(check int) "bounded dump" 10 (List.length tail);
  Alcotest.(check int) "bounded dump keeps newest"
    (n - 10)
    (List.hd tail).T.seq;
  Alcotest.(check bool) "render is printable" true
    (String.length (T.render last) > 0);
  T.clear ();
  Alcotest.(check int) "clear" 0 (List.length (T.dump ()))

let test_trace_severity_filter () =
  fresh ();
  let module T = Telemetry.Trace in
  T.set_level T.Warn;
  Alcotest.(check bool) "info filtered" false (T.would_log T.Info);
  Alcotest.(check bool) "error passes" true (T.would_log T.Error);
  T.emit ~sev:T.Info ~subsys:"test" "dropped";
  T.emit ~sev:T.Error ~subsys:"test" "kept";
  let evs = T.dump () in
  Alcotest.(check int) "only the error landed" 1 (List.length evs);
  Alcotest.(check string) "kept message" "kept" (List.hd evs).T.msg;
  Telemetry.Control.set_enabled false;
  Alcotest.(check bool) "off filters everything" false (T.would_log T.Error);
  T.emit ~sev:T.Error ~subsys:"test" "silent";
  Alcotest.(check int) "off means no events" 1 (List.length (T.dump ()))

let test_trace_subsys_filter () =
  fresh ();
  let module T = Telemetry.Trace in
  T.emit ~sev:T.Info ~subsys:"vm" "a";
  T.emit ~sev:T.Warn ~subsys:"hodor" "b";
  T.emit ~sev:T.Error ~subsys:"vm" "c";
  Alcotest.(check int) "subsys filter keeps one tag" 2
    (List.length (T.dump ~subsys:"vm" ()));
  Alcotest.(check int) "severity floor" 2
    (List.length (T.dump ~min_sev:T.Warn ()));
  (match T.dump ~subsys:"vm" ~min_sev:T.Warn () with
   | [ e ] -> Alcotest.(check string) "filters compose" "c" e.T.msg
   | evs ->
     Alcotest.fail (Printf.sprintf "expected 1 event, got %d"
                      (List.length evs)));
  (* filters apply before the n-cut: "the last 1 vm event" is c, not b *)
  (match T.dump ~n:1 ~subsys:"vm" () with
   | [ e ] -> Alcotest.(check string) "n cuts after filtering" "c" e.T.msg
   | _ -> Alcotest.fail "expected 1 event");
  Alcotest.(check (list string)) "subsystems listed sorted" [ "hodor"; "vm" ]
    (T.subsystems ());
  (* the shell's severity parser, including the "warning" alias *)
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) ("severity_of_string " ^ s) true
        (T.severity_of_string s = expect))
    [ ("debug", Some T.Debug); ("warn", Some T.Warn);
      ("warning", Some T.Warn); ("error", Some T.Error); ("bogus", None) ]

(* ---- The stats surface through the executor ------------------------- *)

module E =
  Mc_server.Executor.Make (Mc_core.Private_memory) (Mc_core.Slab)
    (Platform.Real_sync)

let fresh_store () =
  let arena = Mc_core.Private_memory.create ~limit:(64 lsl 20) in
  let slab = Mc_core.Slab.create ~arena ~mem_limit:(32 lsl 20) in
  E.Store.create ~mem:arena ~alloc:slab
    { Mc_core.Store.default_config with hashpower = 8; lock_count = 8;
      lru_count = 2; stats_slots = 2 }

let stats_of = function
  | Stats_reply kvs -> kvs
  | _ -> Alcotest.fail "expected Stats_reply"

let test_executor_stats_surface () =
  fresh ();
  let st = fresh_store () in
  ignore (E.execute st (Set { key = "a"; flags = 0; exptime = 0;
                              data = "1"; noreply = false }));
  ignore (E.execute st (Set { key = "b"; flags = 0; exptime = 0;
                              data = String.make 200 'b'; noreply = false }));
  ignore (E.execute st (Get [ "a" ]));
  ignore (E.execute st (Get [ "nope" ]));
  let kvs = stats_of (E.execute st (Stats None)) in
  let v k =
    match List.assoc_opt k kvs with
    | Some s -> int_of_string s
    | None -> Alcotest.fail ("stats missing key " ^ k)
  in
  Alcotest.(check int) "get_hits" 1 (v "get_hits");
  Alcotest.(check int) "get_misses" 1 (v "get_misses");
  Alcotest.(check int) "cmd_get" 2 (v "cmd_get");
  Alcotest.(check int) "cmd_set" 2 (v "cmd_set");
  Alcotest.(check int) "curr_items" 2 (v "curr_items");
  Alcotest.(check int) "total_items" 2 (v "total_items");
  Alcotest.(check int) "evictions" 0 (v "evictions");
  Alcotest.(check int) "expired_unfetched" 0 (v "expired_unfetched");
  Alcotest.(check int) "cas_badval" 0 (v "cas_badval");
  (* boundary counters ride along in the same reply *)
  Alcotest.(check bool) "hodor counters present" true
    (List.mem_assoc "hodor_enter" kvs);
  Alcotest.(check bool) "pku counters present" true
    (List.mem_assoc "pku_faults" kvs);
  (* stats items: per-LRU item counts *)
  let items = stats_of (E.execute st (Stats (Some "items"))) in
  let total_listed =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 6 && String.sub k (String.length k - 6) 6 = "number"
        then acc + int_of_string v
        else acc)
      0 items
  in
  Alcotest.(check int) "items lists both" 2 total_listed;
  (* stats slabs: per-class allocator occupancy *)
  let slabs = stats_of (E.execute st (Stats (Some "slabs"))) in
  Alcotest.(check bool) "slabs has total_malloced" true
    (List.mem_assoc "total_malloced" slabs);
  Alcotest.(check bool) "slabs has limit_maxbytes" true
    (List.mem_assoc "limit_maxbytes" slabs);
  Alcotest.(check bool) "slabs has a chunk_size row" true
    (List.exists
       (fun (k, _) ->
         String.length k > 10
         && String.sub k (String.length k - 10) 10 = "chunk_size")
       slabs);
  (* stats latency (extension): executor-recorded per-op histograms *)
  let lat = stats_of (E.execute st (Stats (Some "latency"))) in
  Alcotest.(check bool) "latency has get summary" true
    (List.mem_assoc "get:count" lat);
  Alcotest.(check bool) "latency has set summary" true
    (List.mem_assoc "set:count" lat);
  (* unknown argument is a client error *)
  (match E.execute st (Stats (Some "bogus")) with
   | Client_error _ -> ()
   | _ -> Alcotest.fail "expected Client_error");
  (* stats reset zeroes tallies but keeps the item gauges *)
  (match E.execute st (Stats (Some "reset")) with
   | Reset -> ()
   | _ -> Alcotest.fail "expected Reset");
  let kvs = stats_of (E.execute st (Stats None)) in
  let v k = int_of_string (List.assoc k kvs) in
  Alcotest.(check int) "get_hits zeroed" 0 (v "get_hits");
  Alcotest.(check int) "cmd_set zeroed" 0 (v "cmd_set");
  Alcotest.(check int) "hodor_enter zeroed" 0
    (int_of_string (List.assoc "hodor_enter" kvs));
  Alcotest.(check int) "curr_items survives reset" 2 (v "curr_items");
  Alcotest.(check int) "total_items survives reset" 2 (v "total_items");
  Alcotest.(check bool) "latency histograms cleared" true
    (Telemetry.Timers.get "get" = None)

let test_executor_latency_off () =
  fresh ();
  let st = fresh_store () in
  Telemetry.Control.set_enabled false;
  ignore (E.execute st (Get [ "k" ]));
  Telemetry.Control.set_enabled true;
  Alcotest.(check bool) "no histogram recorded while off" true
    (Telemetry.Timers.get "get" = None)

(* ---- Protocol conformance: all four stats forms, both codecs -------- *)

let test_stats_commands_roundtrip_ascii () =
  List.iter
    (fun cmd ->
      let wire = Ascii.encode_command cmd in
      let parsed, consumed = Ascii.parse_command wire in
      Alcotest.(check int) "consumed" (String.length wire) consumed;
      Alcotest.(check bool)
        (Printf.sprintf "ascii roundtrip %s" (Ascii.encode_command cmd))
        true (parsed = cmd))
    [ Stats None; Stats (Some "items"); Stats (Some "slabs");
      Stats (Some "reset") ]

let test_stats_commands_roundtrip_binary () =
  List.iter
    (fun cmd ->
      let wire = Binary.encode_command cmd in
      let parsed, consumed = Binary.parse_command wire in
      Alcotest.(check int) "consumed" (String.length wire) consumed;
      Alcotest.(check bool) "binary roundtrip" true (parsed = cmd))
    [ Stats None; Stats (Some "items"); Stats (Some "slabs");
      Stats (Some "reset") ]

let test_stats_arg_not_dropped_ascii () =
  (* The bug this PR fixes: "stats items" used to parse as plain
     [Stats], silently dropping the argument. *)
  (match Ascii.parse_command "stats items\r\n" with
   | Stats (Some "items"), _ -> ()
   | _ -> Alcotest.fail "stats argument dropped by the ASCII parser");
  match Ascii.parse_command "stats a b\r\n" with
  | _ -> Alcotest.fail "two stats arguments must be rejected"
  | exception Parse_error _ -> ()

let test_stats_replies_roundtrip () =
  let reply = Stats_reply [ ("pid", "1"); ("get_hits", "42") ] in
  (match Ascii.parse_response (Ascii.encode_response reply) with
   | Stats_reply [ ("pid", "1"); ("get_hits", "42") ] -> ()
   | _ -> Alcotest.fail "ascii stats reply");
  (match
     Binary.parse_response ~for_cmd:(Stats (Some "items"))
       (Binary.encode_response ~for_op:Binary.Op.stat reply)
   with
   | Stats_reply [ ("pid", "1"); ("get_hits", "42") ] -> ()
   | _ -> Alcotest.fail "binary stats reply");
  (* RESET, both codecs *)
  (match Ascii.parse_response (Ascii.encode_response Reset) with
   | Reset -> ()
   | _ -> Alcotest.fail "ascii RESET");
  match
    Binary.parse_response ~for_cmd:(Stats (Some "reset"))
      (Binary.encode_response ~for_op:Binary.Op.stat Reset)
  with
  | Reset -> ()
  | _ -> Alcotest.fail "binary RESET"

(* ---- Live wire: the stats family over a running server -------------- *)

module VCl = Core.Client.Make (Vm.Sync)
module VSrv = Mc_server.Server.Make (Vm.Sync)

let in_vm f =
  let vm = Vm.create () in
  ignore (Vm.spawn vm ~name:"main" f);
  Vm.run vm

let fresh_srv = ref 0

let over_the_wire protocol =
  fresh ();
  incr fresh_srv;
  let client_protocol =
    match protocol with
    | Mc_server.Server.Ascii -> VCl.Sock.Ascii
    | Mc_server.Server.Binary -> VCl.Sock.Binary
  in
  let name = Printf.sprintf "telemetry-srv-%d" !fresh_srv in
  in_vm (fun () ->
    let srv =
      VSrv.start
        ~cfg:
          { Mc_server.Server.default_config with workers = 2; protocol;
            store =
              { Mc_core.Store.default_config with hashpower = 8;
                lock_count = 8; lru_count = 2; stats_slots = 2;
                lru_by_size_class = true } }
        ~name ()
    in
    let c = VCl.Sock.connect ~protocol:client_protocol ~name () in
    ignore (VCl.Sock.set c "wire" "1");
    ignore (VCl.Sock.get c "wire");
    ignore (VCl.Sock.get c "miss");
    let kvs = VCl.Sock.stats c in
    let v k =
      match List.assoc_opt k kvs with
      | Some s -> int_of_string s
      | None -> Alcotest.fail ("wire stats missing " ^ k)
    in
    Alcotest.(check int) "wire get_hits" 1 (v "get_hits");
    Alcotest.(check int) "wire get_misses" 1 (v "get_misses");
    Alcotest.(check int) "wire curr_items" 1 (v "curr_items");
    Alcotest.(check bool) "wire boundary counters" true
      (List.mem_assoc "pku_faults" kvs);
    Alcotest.(check bool) "wire stats items" true
      (VCl.Sock.stats ~arg:"items" c <> []);
    Alcotest.(check bool) "wire stats slabs" true
      (List.mem_assoc "total_malloced" (VCl.Sock.stats ~arg:"slabs" c));
    (* the causal-span surface, over the wire: phase self times must
       sum (exactly — integer attribution) to the e2e total *)
    let phase_sum ph =
      List.fold_left
        (fun acc (k, v) ->
          let is_self =
            String.length k > 14
            && String.sub k 0 6 = "phase:"
            && String.sub k (String.length k - 8) 8 = ":self_ns"
          in
          if is_self then acc + int_of_string v else acc)
        0 ph
    in
    let ph = VCl.Sock.stats ~arg:"phases" c in
    let pv k =
      match List.assoc_opt k ph with
      | Some s -> int_of_string s
      | None -> Alcotest.fail ("stats phases missing " ^ k)
    in
    let count_before = pv "e2e:count" in
    Alcotest.(check bool) "wire phases folded traces" true (count_before > 0);
    Alcotest.(check int) "wire phases sum to e2e" (pv "e2e:total_ns")
      (phase_sum ph);
    Alcotest.(check bool) "wire phases include the parse phase" true
      (List.mem_assoc "phase:parse:self_ns" ph);
    let ct = VCl.Sock.stats ~arg:"contention" c in
    Alcotest.(check bool) "wire contention summary" true
      (List.mem_assoc "contention:acquisitions" ct);
    Alcotest.(check bool) "wire stats reset acked" true
      (VCl.Sock.stats_reset c);
    let kvs = VCl.Sock.stats c in
    Alcotest.(check (option string)) "wire get_hits zeroed" (Some "0")
      (List.assoc_opt "get_hits" kvs);
    Alcotest.(check (option string)) "wire curr_items survives" (Some "1")
      (List.assoc_opt "curr_items" kvs);
    (* reset cleared the phase and contention accumulators too; the
       requests since the reset re-mint a few traces, so "cleared"
       means "far fewer than before", with the invariant intact *)
    let ph = VCl.Sock.stats ~arg:"phases" c in
    let pv k = int_of_string (List.assoc k ph) in
    Alcotest.(check bool)
      (Printf.sprintf "wire reset cleared phases (%d -> %d)" count_before
         (pv "e2e:count"))
      true
      (pv "e2e:count" < count_before);
    Alcotest.(check int) "wire phases still sum after reset"
      (pv "e2e:total_ns") (phase_sum ph);
    VCl.Sock.quit c;
    VSrv.stop srv)

let test_stats_over_ascii_server () = over_the_wire Mc_server.Server.Ascii

let test_stats_over_binary_server () = over_the_wire Mc_server.Server.Binary

(* ---- Shared-heap backend: counters live in the store file ----------- *)

module Cl = Core.Client.Make (Platform.Real_sync)
module Plib = Cl.Plib
module Process = Simos.Process

let test_shared_backend_survives_restart () =
  fresh ();
  let disk = Filename.temp_file "telemetry" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove disk)
    (fun () ->
      let owner = Process.make ~uid:1000 "bk-telemetry" in
      let cfg =
        { Mc_core.Store.default_config with hashpower = 7; lock_count = 8;
          lru_count = 2; stats_slots = 2 }
      in
      let p =
        Plib.create ~store_cfg:cfg ~path:"/shm/telemetry-a"
          ~size:(2 lsl 20) ~owner ()
      in
      ignore (Plib.set p "k" "v");
      ignore (Plib.get p "k");
      ignore (Plib.get p "missing");
      let crossings = C.read C.Id.hodor_enter in
      Alcotest.(check bool) "crossings counted in shared heap" true
        (crossings >= 3);
      Alcotest.(check int) "balanced" crossings (C.read C.Id.hodor_exit);
      Alcotest.(check bool) "pkru writes counted" true
        (C.read C.Id.pkru_writes > 0);
      Alcotest.(check bool) "allocator traffic counted" true
        (C.read C.Id.alloc_calls > 0);
      (* the block really is rooted in the heap (root inspection is a
         kernel-side act: the heap is sealed outside library calls) *)
      Alcotest.(check bool) "telemetry root set" true
        (Shm.Region.kernel_mode (fun () ->
           Ralloc.get_root (Plib.heap p) Core.Plib_store.root_telemetry)
         <> 0);
      Plib.shutdown p ~disk_path:disk;
      (* shutdown restored the process-local backend: fresh counts *)
      Alcotest.(check int) "local backend after shutdown" 0
        (C.read C.Id.hodor_enter);
      (* restart maps the flushed heap: the counts come back with it *)
      let p2 =
        Plib.restart ~store_cfg:cfg ~disk_path:disk ~path:"/shm/telemetry-b"
          ~owner ()
      in
      Fun.protect
        ~finally:(fun () ->
          Simos.Sim_fs.unlink "/shm/telemetry-b";
          Hodor.Library.release (Plib.library p2);
          C.reset_backend ())
        (fun () ->
          Alcotest.(check int) "crossings survive restart" crossings
            (C.read C.Id.hodor_enter);
          ignore (Plib.get p2 "k");
          Alcotest.(check bool) "and keep counting" true
            (C.read C.Id.hodor_enter > crossings)))

(* ---- Flight recorder & forensics ------------------------------------ *)

module Fl = Telemetry.Flight
module F = Telemetry.Forensics

let fresh_flight () =
  fresh ();
  Fl.reset_backend ();
  Fl.reset ()

(* Every classifier arm from synthesized breadcrumbs, including
   mid-ring-drain (end-to-end the crash sweep only ever kills ring
   *clients*; the drain state lives in server workers). *)
let test_forensics_classifier_arms () =
  fresh_flight ();
  let r = F.analyze () in
  Alcotest.(check bool) "empty ring classifies idle" true
    (r.F.f_class = F.Idle);
  Fl.record Fl.Cross_enter ~a:1 ~b:0 ~c:0;
  Fl.record Fl.Op_dispatch ~a:2 ~b:(-1) ~c:5;
  Fl.note_death ();
  let r = F.analyze () in
  Alcotest.(check bool) "open crossing -> mid-crossing" true
    (r.F.f_class = F.Mid_crossing);
  Alcotest.(check int) "crossing depth named" 1 r.F.f_depth;
  Alcotest.(check bool) "victim came from the death note" true r.F.f_noted;
  Fl.record Fl.Ring_drain_begin ~a:1 ~b:7 ~c:12;
  let r = F.analyze () in
  Alcotest.(check bool) "drain begun, never ended -> mid-ring-drain" true
    (r.F.f_class = F.Mid_ring_drain);
  Alcotest.(check int) "drain connection named" 7 r.F.f_conn;
  Alcotest.(check int) "drain window named" 12 r.F.f_msgs;
  Fl.record Fl.Stripe_acquire ~a:1 ~b:3 ~c:0;
  let r = F.analyze () in
  Alcotest.(check bool) "held stripe outranks the drain" true
    (r.F.f_class = F.Holding_stripes);
  Alcotest.(check (list int)) "held stripe named" [ 3 ] r.F.f_stripes;
  Alcotest.(check bool) "report is well-formed" true (F.well_formed r);
  (* Balance everything: the lane's story returns to idle. *)
  Fl.record Fl.Stripe_release ~a:0 ~b:3 ~c:0;
  Fl.record Fl.Ring_drain_end ~a:0 ~b:7 ~c:12;
  Fl.record Fl.Cross_exit ~a:0 ~b:0 ~c:0;
  Fl.clear_victim ();
  let r = F.analyze () in
  Alcotest.(check bool) "balanced lane classifies idle" true
    (r.F.f_class = F.Idle);
  Fl.reset ()

(* The breadcrumb window wraps: only the last [depth] records survive,
   and the survivors are the *newest* ones in publication order. *)
let test_flight_window_wraps () =
  fresh_flight ();
  let total = (2 * Fl.depth) + 17 in
  for i = 1 to total do
    Fl.record Fl.Op_dispatch ~a:(i mod 16) ~b:i ~c:0
  done;
  let lane =
    match
      List.filteri (fun _ c -> c > 0) (Fl.lane_counts ()) |> List.length
    with
    | 1 ->
      (* exactly one lane took records; find its index *)
      let rec find i = function
        | c :: _ when c > 0 -> i
        | _ :: rest -> find (i + 1) rest
        | [] -> Alcotest.fail "no lane took records"
      in
      find 0 (Fl.lane_counts ())
    | n -> Alcotest.fail (Printf.sprintf "%d lanes took records" n)
  in
  let entries = Fl.dump_lane lane in
  Alcotest.(check bool)
    (Printf.sprintf "window bounded by depth (%d entries)"
       (List.length entries))
    true
    (List.length entries <= Fl.depth && List.length entries > 0);
  let last = List.nth entries (List.length entries - 1) in
  Alcotest.(check int) "newest record survives" total last.Fl.e_b;
  let rec consecutive = function
    | a :: (b : Fl.entry) :: rest ->
      a.Fl.e_pos + 1 = b.e_pos && consecutive (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "survivors are consecutive in publication order"
    true (consecutive entries);
  Fl.reset ()

(* Severity >= Error trace lines are snapshotted into the shared
   flight block (the host-process trace ring dies with the victim;
   the snapshot is what the post-mortem can still read). *)
let test_flight_trace_snapshot () =
  fresh_flight ();
  Telemetry.Trace.emit ~sev:Telemetry.Trace.Info ~subsys:"t" "routine line";
  Telemetry.Trace.emit ~sev:Telemetry.Trace.Error ~subsys:"t"
    "fatal: boom at site 42";
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let snaps = Fl.dump_traces () in
  Alcotest.(check bool) "error line snapshotted" true
    (List.exists (fun s -> contains s.Fl.t_msg "boom at site 42") snaps);
  Alcotest.(check bool) "info line not snapshotted" true
    (not (List.exists (fun s -> contains s.Fl.t_msg "routine line") snaps));
  (* The forensic report replays the snapshot. *)
  let r = F.analyze () in
  Alcotest.(check bool) "report carries the snapshot" true
    (List.exists (fun s -> contains s.Fl.t_msg "boom") r.F.f_traces);
  Fl.reset ()

(* The recorder's settings surface (depth, lanes, publish protocol)
   is part of [stats settings]. *)
let test_flight_settings_surface () =
  fresh_flight ();
  let kvs = Fl.settings_kvs () in
  Alcotest.(check (option string)) "depth surfaced"
    (Some (string_of_int Fl.depth))
    (List.assoc_opt "flight_depth" kvs);
  Alcotest.(check (option string)) "publish-last surfaced" (Some "1")
    (List.assoc_opt "flight_publish_last" kvs)

let () =
  Alcotest.run "telemetry"
    [ ( "counters",
        [ Alcotest.test_case "basic add/read/reset" `Quick test_counters_basic;
          Alcotest.test_case "striped across vm threads" `Quick
            test_counters_striped_across_vm_threads;
          Alcotest.test_case "toggle off" `Quick test_counters_toggle_off;
          Alcotest.test_case "kv rendering" `Quick test_counters_kvs ] );
      ( "histograms",
        [ Alcotest.test_case "shared with ycsb" `Quick
            test_histogram_shared_with_ycsb;
          Alcotest.test_case "percentile edge cases" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "keyed timers" `Quick test_timers ] );
      ( "trace",
        [ Alcotest.test_case "ring wraps" `Quick test_trace_ring_wraps;
          Alcotest.test_case "severity filter" `Quick
            test_trace_severity_filter;
          Alcotest.test_case "subsystem filter" `Quick
            test_trace_subsys_filter ] );
      ( "stats-surface",
        [ Alcotest.test_case "executor stats forms" `Quick
            test_executor_stats_surface;
          Alcotest.test_case "latency off" `Quick test_executor_latency_off ] );
      ( "protocol",
        [ Alcotest.test_case "ascii command forms" `Quick
            test_stats_commands_roundtrip_ascii;
          Alcotest.test_case "binary command forms" `Quick
            test_stats_commands_roundtrip_binary;
          Alcotest.test_case "ascii arg regression" `Quick
            test_stats_arg_not_dropped_ascii;
          Alcotest.test_case "replies incl. RESET" `Quick
            test_stats_replies_roundtrip;
          Alcotest.test_case "live ascii server" `Quick
            test_stats_over_ascii_server;
          Alcotest.test_case "live binary server" `Quick
            test_stats_over_binary_server ] );
      ( "shared-heap",
        [ Alcotest.test_case "counters survive restart" `Quick
            test_shared_backend_survives_restart ] );
      ( "flight",
        [ Alcotest.test_case "classifier arms" `Quick
            test_forensics_classifier_arms;
          Alcotest.test_case "window wraps" `Quick test_flight_window_wraps;
          Alcotest.test_case "trace snapshot" `Quick
            test_flight_trace_snapshot;
          Alcotest.test_case "settings surface" `Quick
            test_flight_settings_surface ] ) ]
