(** Golden telemetry output: a seeded Vm run of a fixed mix — direct
    [get]/[set], a ring drain, and one thread killed mid-call (its
    trace flushed as aborted) — rendered through the read-side surfaces
    ([render_tree] of every kept trace, [stats phases], the timers and
    the counters) and compared byte for byte with [golden_trace.txt].

    The file pins what the span, timer and counter representations
    report, whatever they look like inside. Regenerate it with
    [dune exec test/test_golden_trace.exe -- --print > test/golden_trace.txt]
    only when the recorded output is meant to change. *)

module VCl = Core.Client.Make (Vm.Sync)
module Plib = VCl.Plib
module Process = Simos.Process
module Store = Mc_core.Store
module Span = Telemetry.Span

let path = "/shm/golden-trace"

let rings = Mc_server.Server.default_ring_config

let key i = Printf.sprintf "key-%03d" i

let value i = String.make (16 + (i mod 5 * 24)) (Char.chr (97 + (i mod 26)))

(* Direct calls, then a ring client whose ops ride server drains. *)
let mix plib =
  for i = 0 to 11 do
    assert (Plib.set plib (key i) (value i) = Store.Stored)
  done;
  (* more direct traces than the head and tail buffers hold *)
  for i = 0 to 39 do
    ignore (Plib.get plib (key (i mod 14)))
  done;
  let srv = Plib.serve_remote ~rings plib ~name:"golden" in
  let conn = VCl.Sock.connect ~name:"golden" () in
  for i = 20 to 23 do
    assert (VCl.Sock.set conn (key i) (value i) = Store.Stored)
  done;
  for i = 18 to 23 do
    ignore (VCl.Sock.get conn (key i))
  done;
  Plib.stop_remote srv

(* A reader killed at its fourth sync point: inside the crossing of
   its first get, so its trace is flushed aborted. *)
let killed_reader plib =
  let vm = Vm.create ~sched_seed:7 () in
  Vm.set_crash_point vm ~filter:(String.equal "victim") ~at:3 ();
  ignore
    (Vm.spawn vm ~name:"victim" (fun () ->
       for i = 0 to 3 do
         ignore (Plib.get plib (key i))
       done));
  Vm.run vm;
  assert (Vm.crashed vm = [ ("victim", 3) ])

let golden () =
  Telemetry.Control.set_enabled true;
  Span.set_sampling 1;
  (* every ring drain is over this, so the slow-op log fills too *)
  Span.set_slow_threshold_ns 5_000;
  Span.reset ();
  Telemetry.Timers.reset ();
  Telemetry.Trace.clear ();
  let owner = Process.make ~uid:1000 "golden-bk" in
  let plib = Plib.create ~path ~size:(16 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Span.set_slow_threshold_ns 0;
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library plib))
    (fun () ->
      let vm = Vm.create ~sched_seed:3 () in
      ignore (Vm.spawn vm ~name:"main" (fun () -> mix plib));
      Vm.run vm;
      killed_reader plib;
      let b = Buffer.create 4096 in
      let section name = Buffer.add_string b ("== " ^ name ^ "\n") in
      let kvs l =
        List.iter (fun (k, v) -> Buffer.add_string b (k ^ " " ^ v ^ "\n")) l
      in
      let trs = Span.traces () in
      section (Printf.sprintf "traces (%d)" (List.length trs));
      List.iter (fun tr -> Buffer.add_string b (Span.render_tree tr)) trs;
      section "slow";
      List.iter
        (fun tr ->
          Buffer.add_string b
            (Printf.sprintf "#%d %s %d\n" tr.Span.trace_id tr.Span.root_op
               (Span.duration tr)))
        (Span.slow_traces ());
      section "phases";
      kvs (Span.phase_kvs ());
      section "timers";
      kvs (Telemetry.Timers.kvs ());
      section "counters";
      kvs (Telemetry.Counters.all_kvs ());
      (trs, Buffer.contents b))

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_matches_golden () =
  let trs, out = golden () in
  Alcotest.(check bool) "the mix kept traces" true (List.length trs > 10);
  Alcotest.(check bool) "the kill left an aborted trace" true
    (List.exists (fun tr -> tr.Span.t_aborted) trs);
  List.iter
    (fun tr ->
      let self = List.fold_left (fun a (_, s) -> a + s) 0 (Span.self_times tr) in
      Alcotest.(check int)
        (Printf.sprintf "trace #%d: self times sum to e2e" tr.Span.trace_id)
        (Span.duration tr) self)
    trs;
  Alcotest.(check string) "telemetry output matches golden_trace.txt"
    (read_file "golden_trace.txt") out

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    print_string (snd (golden ()))
  else
    Alcotest.run "golden trace"
      [ ( "telemetry",
          [ Alcotest.test_case "seeded mix matches golden output" `Quick
              test_matches_golden ] ) ]
