(* Shared machinery of the benchmark: the host clock, simulations, the
   value model that checks every reply, seeded op streams, exact-count
   fingerprints, library lifecycle and the result line.

   Two clocks. Host ns come from the monotonic clock read around calls
   into the program's public functions. Virtual ns come from the Vm,
   which runs every simulated thread on this one OS thread. *)

module Cl = Core.Client.Make (Vm.Sync)
module Plib = Cl.Plib
module Sock = Cl.Sock
module S = Vm.Sync
module C = Telemetry.Counters
module Store = Mc_core.Store
module Process = Simos.Process

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs ns = float_of_int ns /. 1e9

(* Run [f vm] as the main thread of a fresh simulation. *)
let in_vm ?(name = "main") f =
  let vm = Vm.create () in
  let out = ref None in
  ignore (Vm.spawn vm ~name (fun () -> out := Some (f vm)));
  (try Vm.run vm
   with e ->
     List.iter
       (fun (n, x) -> Printf.eprintf "thread %s died: %s\n%!" n (Printexc.to_string x))
       (Vm.failures vm);
     raise e);
  match !out with
  | Some v -> v
  | None -> failwith "in_vm: main thread produced no result"

(* ---- Outcome bookkeeping -------------------------------------------- *)

let attempted = ref 0

let failed = ref 0

let errors : string list ref = ref []

(* A wrong, torn or lost value: the run is incorrect. *)
let wrong msg =
  if List.length !errors < 20 then errors := msg :: !errors

let require cond msg = if not cond then wrong msg

(* A refused or failed operation: counted, not incorrect. *)
let refused () = incr failed

let metrics : (string * float * string) list ref = ref []

let put name unit_ v = metrics := (name, v, unit_) :: !metrics

(* ---- Growable sample buffers ------------------------------------------ *)

type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 4096 0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let floats s = Array.init s.n (fun i -> float_of_int s.a.(i))

(* Median, or [None] when a percentile lacks its tail samples. *)
let pct s p = Pstats.percentile (floats s) p

let median_of s = Pstats.median (floats s)

(* ---- Seeded inputs ------------------------------------------------------- *)

let key_of i = Printf.sprintf "pb:%010d" i

(* Value of key [i] at version [v]: a decimal header naming both, then
   a fill byte derived from them, so a value from another key, an older
   version or a torn write never compares equal. *)
let value_of ~len i v =
  let b = Bytes.make len (Char.chr (97 + ((i + (7 * v)) mod 26))) in
  let h = Printf.sprintf "%d:%d:" i v in
  Bytes.blit_string h 0 b 0 (min len (String.length h));
  Bytes.unsafe_to_string b

(* An op stream: [key * 2 + 1] for a set, [key * 2] for a get. Keys are
   scrambled-zipfian over [nkeys], forced to parity [lane] when the
   stream belongs to one of two clients, so the clients never touch the
   same key and each can check its replies strictly. *)
let gen_ops ~seed ~nkeys ~nops ~read_prop ?lane () =
  let rng = Ycsb.Rng.create seed in
  let z = Ycsb.Zipfian.create nkeys in
  Array.init nops (fun _ ->
    let k = Ycsb.Zipfian.next_scrambled z rng in
    let k =
      match lane with
      | None -> k
      | Some l ->
        let k = k land lnot 1 lor l in
        if k >= nkeys then k - 2 else k
    in
    let set = Ycsb.Rng.next_float rng >= read_prop in
    (2 * k) + Bool.to_int set)

let op_key op = op lsr 1

let op_is_set op = op land 1 = 1

(* ---- Exact counts ------------------------------------------------------------

   What a deterministic phase did, counted rather than timed: Gc minor
   words, Vm scheduler events, virtual ns and every telemetry counter.
   On one seed these repeat bit-for-bit, so the benchmark checks that
   every set-up of a run gives the same fingerprint. *)

type exact = {
  x_ops : int;
  x_words : float;
  x_major : int;
  x_events : int;
  x_virt_ns : int;
  x_counters : int array;
}

let counters () = Array.init C.Id.count C.read

(* Counts of [f ()], which runs inside the simulation [vm] and returns
   the number of operations it issued. *)
let exact_within vm f =
  let c0 = counters () in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let e0 = Vm.events_processed vm and t0 = S.now_ns () in
  let ops = f () in
  let e1 = Vm.events_processed vm and t1 = S.now_ns () in
  let w1 = Gc.minor_words () and m1 = (Gc.quick_stat ()).Gc.major_collections in
  let c1 = counters () in
  { x_ops = ops; x_words = w1 -. w0; x_major = m1 - m0; x_events = e1 - e0;
    x_virt_ns = t1 - t0; x_counters = Array.mapi (fun i v -> v - c0.(i)) c1 }

(* The same, as the only thread of a fresh simulation. *)
let exact_phase f = in_vm ~name:"exact" (fun vm -> exact_within vm (fun () -> f vm))

let delta x id = x.x_counters.(id)

let per x n = if x.x_ops = 0 then 0.0 else float_of_int n /. float_of_int x.x_ops

let fingerprint x =
  Printf.sprintf "ops=%d events=%d virt_ns=%d counters=%s" x.x_ops x.x_events
    x.x_virt_ns
    (String.concat "," (Array.to_list (Array.map string_of_int x.x_counters)))

(* Every set-up of one run must reproduce the first one's counts. The
   first set-up of a process also pays a few words of one-time
   initialisation, so minor words are compared from the second on. *)
let check_same ~what (xs : exact list) =
  let x0 = List.hd xs and x1 = List.nth xs (min 1 (List.length xs - 1)) in
  List.iteri
    (fun i x ->
      require (fingerprint x = fingerprint x0)
        (Printf.sprintf "%s: set-up %d counts differ:\n  %s\n  %s" what (i + 1)
           (fingerprint x0) (fingerprint x));
      require (i = 0 || x.x_words = x1.x_words)
        (Printf.sprintf "%s: set-up %d allocated %.0f minor words, not %.0f" what
           (i + 1) x.x_words x1.x_words))
    xs;
  let x = List.nth xs (List.length xs - 1) in
  Printf.eprintf "fingerprint %s: words=%.0f %s\n%!" what x.x_words (fingerprint x)

(* ---- Library lifecycle ------------------------------------------------------ *)

let fresh = ref 0

let create_plib ~size ~hashpower =
  incr fresh;
  let owner = Process.make ~uid:1000 "perfbench-bk" in
  let path = Printf.sprintf "/dev/shm/perfbench-%d" !fresh in
  let store_cfg = { Store.default_config with hashpower } in
  (Plib.create ~store_cfg ~path ~size ~owner (), owner)

(* A client process links the library (the loader's open on its
   behalf): the "connect" step of the direct path. *)
let connect_plib p =
  let client = Process.make ~uid:2000 "perfbench-client" in
  Plib.open_client p ~process:client;
  client

let release p =
  Simos.Sim_fs.unlink (Plib.path p);
  Hodor.Library.release (Plib.library p);
  Pku.Pkru.reset_thread ()

(* Drop a set-up that will not be measured further. Its heap stays
   reachable from Ralloc's process-wide runtime list, so it still counts
   in [rss_mb]; compacting starts the next set-up from the same GC
   state. *)
let discard p =
  release p;
  Gc.compact ()

let check_invariants p =
  match
    Shm.Region.kernel_mode (fun () ->
      Plib.Store.check_invariants (Plib.store p);
      Ralloc.check_invariants (Plib.heap p))
  with
  | () -> ()
  | exception e -> wrong ("invariants: " ^ Printexc.to_string e)

(* Allocator bytes in use over the key+value bytes the store holds. *)
let space_amp p =
  let live =
    Plib.fold_keys p (fun acc key ~nbytes ~exptime:_ -> acc + String.length key + nbytes) 0
  in
  float_of_int (Ralloc.used_bytes (Plib.heap p)) /. float_of_int live

(* Peak resident set of this process, from /proc. *)
let rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Scratch files (heap images) live under the checkout. *)
let work_dir () =
  let d = Filename.concat ".bench_build" "perfbench" in
  if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

(* ---- Value checks ----------------------------------------------------------- *)

(* A get of key [i] against the model: [model.(i)] is the acked
   version, -1 when the key is known absent. [may_miss] allows an
   eviction. *)
let check_get ~len_of ~may_miss (model : int array) i
    (r : Store.get_result option) =
  match r with
  | Some g ->
    let v = model.(i) in
    require
      (v >= 0 && String.equal g.Store.value (value_of ~len:(len_of i) i v))
      (Printf.sprintf "key %d: wrong or torn value (%d bytes, model v%d)" i
         (String.length g.Store.value) v)
  | None ->
    require (may_miss || model.(i) < 0)
      (Printf.sprintf "key %d: acked write v%d lost" i model.(i))

(* ---- Host speed reference -------------------------------------------------

   On a shared VM the host's speed drifts by 1.3-1.5x over tens of
   seconds to minutes (measured on 2 vCPUs), so two runs of identical
   work can differ by that much. A fixed reference computation, pure stdlib and
   independent of the program, runs interleaved with every timed phase;
   host times are reported at reference speed: multiplied by
   [ref_nominal_ns] over the phase's median reference time. Raw values
   go to stderr. *)

let ref_nominal_ns = 40_000.0

let ref_work () =
  let h = Hashtbl.create 64 in
  for i = 0 to 255 do
    Hashtbl.replace h (string_of_int (i land 63)) (Bytes.make 64 'x')
  done;
  Hashtbl.length h

let probe speed =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (ref_work ()));
  add speed (now_ns () - t0)

(* Several probes in a row, beside a phase too long to interleave. *)
let probes speed =
  for _ = 1 to 15 do
    probe speed
  done

(* Factor that takes a host time of the phase to reference speed. *)
let scale speed = ref_nominal_ns /. median_of speed

(* The direct path's set-up: create the library, load every key at
   version 0 through Plib.set (probing the reference speed as it goes),
   link a client. *)
let setup_direct ~size ~hashpower ~keys ~len_of ~speed =
  let p, owner = create_plib ~size ~hashpower in
  let model = Array.make (Array.length keys) (-1) in
  in_vm (fun _ ->
    Array.iteri
      (fun i k ->
        if i land 1023 = 0 then probe speed;
        incr attempted;
        match Plib.set p k (value_of ~len:(len_of i) i 0) with
        | Store.Stored -> model.(i) <- 0
        | _ -> refused ())
      keys);
  (p, owner, connect_plib p, model)

(* ---- Host-timed loops ----------------------------------------------------------

   Per-op host latency with one op in flight, split by kind, plus
   throughput per 0.5 s window of host time: ops over the time spent
   inside the program's calls. *)

type host = {
  speed : samples;  (** reference times of the whole phase, one per 64 ops *)
  gets : samples;
  sets : samples;
  w_speed : samples;  (** the current window's reference times *)
  rates : samples;  (** ops/s per window, at the window's reference speed *)
  mutable w_ops : int;
  mutable w_busy : int;
  mutable w_end : int;
}

let window_ns = 500_000_000

let host () =
  { speed = samples (); gets = samples (); sets = samples (); w_speed = samples ();
    rates = samples (); w_ops = 0; w_busy = 0; w_end = now_ns () + window_ns }

let close_window h =
  if h.w_speed.n > 0 && h.w_busy > 0 then
    add h.rates
      (int_of_float
         (float_of_int h.w_ops *. 1e9 /. float_of_int h.w_busy /. scale h.w_speed));
  h.w_speed.n <- 0;
  h.w_ops <- 0;
  h.w_busy <- 0

let record h ~set dt =
  if (h.gets.n + h.sets.n) land 63 = 0 then begin
    probe h.w_speed;
    add h.speed h.w_speed.a.(h.w_speed.n - 1)
  end;
  add (if set then h.sets else h.gets) dt;
  h.w_ops <- h.w_ops + 1;
  h.w_busy <- h.w_busy + dt;
  let t = now_ns () in
  if t >= h.w_end then begin
    close_window h;
    h.w_end <- t + window_ns
  end

(* p50s over every sample of the phase, at the phase's reference speed;
   throughput per 0.5 s window, each at its own window's reference
   speed, median over windows. The p99s go to stderr only: on a shared VM
   their spread across runs exceeded any bound the benchmark may set
   (see NOTES.md); the traced run reports per-call tails per layer. *)
let put_host h =
  let sc = scale h.speed in
  let pc name s q =
    match pct s q with
    | Some v -> v /. 1e3 *. sc
    | None ->
      wrong (Printf.sprintf "%s: too few samples" name);
      0.0
  in
  put "get_p50_us" "us" (pc "get_p50_us" h.gets 50.0);
  put "set_p50_us" "us" (pc "set_p50_us" h.sets 50.0);
  Printf.eprintf
    "raw get_p50_us = %.6g us, set_p50_us = %.6g us (reference scale %.4f); \
     ungated get_p99_us = %.6g us, set_p99_us = %.6g us at reference speed\n%!"
    (pc "get_p50_us" h.gets 50.0 /. sc) (pc "set_p50_us" h.sets 50.0 /. sc) sc
    (pc "get_p99_us" h.gets 99.0) (pc "set_p99_us" h.sets 99.0);
  if h.rates.n = 0 then wrong "ops_per_s: no complete window"
  else put "ops_per_s" "1/s" (median_of h.rates);
  Printf.eprintf "host phase: %d windows, %d ops\n%!" h.rates.n (h.gets.n + h.sets.n)

(* ---- Long phases at reference speed -------------------------------------------

   A set-up or a recovery is one sample per phase, scaled by the probes
   taken during it (a load interleaves them) or right around it (a
   single call cannot), and reported as the median over phases. *)

type phases = { raw : samples; scaled : samples }

let phases () = { raw = samples (); scaled = samples () }

let add_phase ph ~speed dt =
  add ph.raw dt;
  add ph.scaled (int_of_float (float_of_int dt *. scale speed))

(* [measure ()] returns the host ns of the call it times. *)
let bracketed ph measure =
  let speed = samples () in
  probes speed;
  let dt = measure () in
  probes speed;
  add_phase ph ~speed dt

let put_phase name ph =
  Printf.eprintf "raw %s = %.6g s (median of %d)\n%!" name (median_of ph.raw /. 1e9)
    ph.raw.n;
  put name "s" (median_of ph.scaled /. 1e9)

(* ---- Virtual open-loop rate ladder ---------------------------------------------

   Two clients, each sending on a fixed schedule; a request's latency
   runs from when it was due, so a stall also charges every request
   queued behind it. [client c ~due ~record] runs client [c]'s share of
   a rung. The knee must lie strictly inside the ladder. *)

let ladder ~rates_kops ~limit_us ~run_rung =
  (* Rungs run upward and stop at the first one over the limit: past
     the knee, overload only bounces connections the later phases
     still need. *)
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
      let lat = samples () and bad = ref 0 in
      run_rung ~rate ~lat ~bad;
      let p99 =
        if !bad > 0 then Float.infinity
        else
          match pct lat 99.0 with
          | Some v -> v /. 1e3
          | None -> failwith "ladder: rung too short for a p99"
      in
      Printf.eprintf "ladder %7.0f kops: p99 %.2f us (%d ops, %d failed)\n%!"
        rate p99 lat.n !bad;
      let acc = (rate, p99) :: acc in
      if p99 > limit_us then List.rev acc else climb acc rest
  in
  match Pstats.knee ~limit:limit_us (climb [] rates_kops) with
  | Pstats.Knee k -> put "virt_knee_kops" "kops" k
  | Pstats.Below_ladder -> wrong "virt_knee_kops: knee below the ladder"
  | Pstats.Above_ladder -> wrong "virt_knee_kops: knee above the ladder"

(* A geometric ladder: [n] rungs from [lo], four per doubling. *)
let rungs ~lo ~n = List.init n (fun j -> lo *. Float.pow 2. (float_of_int j /. 4.))

(* Open-loop pacing for a client whose calls are synchronous (the
   direct path): op [j] is due at [t0 + j * interval]. *)
let paced ~interval_ns ~n f =
  let t0 = S.now_ns () in
  for j = 0 to n - 1 do
    let due = t0 + (j * interval_ns) in
    let now = S.now_ns () in
    if now < due then S.sleep_ns (due - now);
    f j ~due
  done

(* Host time of Plib.recover on a healthy loaded heap, as the
   bookkeeping process: at least nine passes and three host seconds,
   each from a fully collected GC heap, since single passes swing with
   the host's second-scale noise. *)
let recover_passes p owner =
  let ph = phases () in
  let t_end = now_ns () + 3_000_000_000 in
  while ph.raw.n < 9 || now_ns () < t_end do
    Gc.compact ();
    bracketed ph (fun () ->
      in_vm (fun _ ->
        Process.with_process owner (fun () ->
          let t0 = now_ns () in
          Plib.recover p;
          now_ns () - t0)))
  done;
  check_invariants p;
  put_phase "recover_s" ph

(* Every key read back in kernel mode against the model. *)
let verify_all p ~keys ~len_of ~may_miss model =
  in_vm (fun _ ->
    Shm.Region.kernel_mode (fun () ->
      Array.iteri
        (fun i k -> check_get ~len_of ~may_miss model i (Plib.Store.get (Plib.store p) k))
        keys))

(* Flush the heap to an image under the checkout, restart from it and
   read every key back. Returns the restarted library and the host
   seconds of the flush and of the restart. *)
let flush_restart p ~keys ~len_of ~may_miss model =
  let img = Filename.concat (work_dir ()) (Printf.sprintf "heap-%d.img" (Unix.getpid ())) in
  let path = Plib.path p in
  let owner = Process.make ~uid:1000 "perfbench-bk" in
  let t0 = now_ns () in
  Plib.shutdown p ~disk_path:img;
  let t1 = now_ns () in
  let p = Plib.restart ~disk_path:img ~path ~owner () in
  let t2 = now_ns () in
  Sys.remove img;
  check_invariants p;
  verify_all p ~keys ~len_of ~may_miss model;
  (p, secs (t1 - t0), secs (t2 - t1))

(* The knee of a direct-path mix: two clients on disjoint key lanes,
   each calling [exec] on its ops on a paced schedule. A failed op or a
   wrong reply counts as over the limit. *)
let sync_knee ~client ~lanes ~rates_kops ~limit_us exec =
  ladder ~rates_kops ~limit_us ~run_rung:(fun ~rate ~lat ~bad ->
    let interval_ns = int_of_float (2e6 /. rate) in
    in_vm (fun _ ->
      let ts =
        List.init 2 (fun l ->
          S.spawn ~name:(Printf.sprintf "knee-%d" l) (fun () ->
            Process.with_process client (fun () ->
              paced ~interval_ns ~n:(Array.length lanes.(l)) (fun j ~due ->
                let f0 = !failed and e0 = List.length !errors in
                exec lanes.(l).(j);
                if !failed > f0 || List.length !errors > e0 then incr bad;
                add lat (S.now_ns () - due)))))
      in
      List.iter S.join ts))

(* ---- Result line ---------------------------------------------------------------- *)

let json_float v = Printf.sprintf "%.17g" v

let emit () =
  let correct = !errors = [] in
  List.iter (fun e -> Printf.eprintf "ERROR: %s\n" e) (List.rev !errors);
  let ms =
    List.rev !metrics
    |> List.map (fun (n, v, u) ->
         if Float.is_finite v then
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u
         else begin
           Printf.eprintf "ERROR: metric %s is not finite\n" n;
           Printf.sprintf "%S: {\"value\": 0, \"unit\": %S}" n u
         end)
  in
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) !metrics in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " ms);
  correct
