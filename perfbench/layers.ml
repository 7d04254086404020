(* The traced run: per-layer numbers for every lib/ module on the hot
   path, from a workload's own set-up and op stream.

   - Exact counts (counter deltas, Vm events, Gc words) over the
     workload's deterministic pass, as ratios per op.
   - Host microbenches of each layer's call, in batches, median of
     batches; "_words" are Gc minor words per call.
   - A traced replay: a sample of the op stream rebuilt from public
     functions with a span around each layer call, kept in memory and
     written out at exit with counter deltas at the same boundaries.
     Self time is a span's duration minus what its children cover; the
     replay also runs untraced, and the difference is the tracing
     overhead.
   - Recovery components, each an idempotent second pass after a real
     Plib.recover, then flush and restart. *)

open Harness
module P = Mc_protocol.Types
module E = Plib.Remote.E

type wl = {
  name : string;
  p : Plib.t;
  owner : Process.t;
  x : exact;
  keys : string array;
  len_of : int -> int;
  model : int array;
  may_miss : bool;
  ops : int array;
  rtt : samples option;  (** ring round trips of gets, host ns *)
}

(* Host ns and minor words per call of [f], median over batches. *)
let micro ?(batches = 7) ?(n = 2_000) f =
  let ns = ref [] and words = ref [] in
  for _ = 1 to batches do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for j = 0 to n - 1 do
      f j
    done;
    ns := (float_of_int (now_ns () - t0) /. float_of_int n) :: !ns;
    words := ((Gc.minor_words () -. w0) /. float_of_int n) :: !words
  done;
  (Pstats.median (Array.of_list !ns), Pstats.median (Array.of_list !words))

(* A microbench that raises is reported as 0 and its call counted as a
   failed operation: on a heap full of cached items, a call that
   allocates outside the store's eviction path (Plib's copy-in) may
   raise Ralloc.Out_of_heap. *)
let guarded name f =
  match f () with
  | v -> v
  | exception e ->
    incr attempted;
    refused ();
    Printf.eprintf "%s: not measurable: %s\n%!" name (Printexc.to_string e);
    (0.0, 0.0)

(* p99 host ns of single calls of [f]: the tail the batched median
   hides. *)
let tail ~n f =
  let xs = samples () in
  for j = 0 to n - 1 do
    let t0 = now_ns () in
    f j;
    add xs (now_ns () - t0)
  done;
  match pct xs 99.0 with Some v -> v | None -> 0.0

let put_ns name m = put name "ns" (fst (guarded name m))

let put_ns_words name m =
  let ns, w = guarded name m in
  put (name ^ "_ns") "ns" ns;
  put (name ^ "_words") "words" w

(* ---- Ratios from the exact pass --------------------------------------- *)

let exact_ratios (x : exact) =
  let d = delta x in
  let gets = max 1 (d C.Id.cmd_get) and sets = max 1 (d C.Id.cmd_set) in
  put "hodor.crossings_per_op" "count" (per x (d C.Id.hodor_enter));
  put "hodor.pkru_writes_per_op" "count" (per x (d C.Id.pkru_writes));
  put "mc_core.opt_retries_per_get" "count"
    (float_of_int (d C.Id.opt_retries) /. float_of_int gets);
  put "mc_core.opt_fallbacks_per_get" "count"
    (float_of_int (d C.Id.opt_fallbacks) /. float_of_int gets);
  put "mc_core.evictions_per_set" "count"
    (float_of_int (d C.Id.evictions) /. float_of_int sets);
  put "ralloc.allocs_per_op" "count" (per x (d C.Id.alloc_calls));
  put "transport.ops_per_drain" "count"
    (if d C.Id.ring_drains = 0 then 0.0
     else float_of_int (d C.Id.ring_drain_ops) /. float_of_int (d C.Id.ring_drains));
  put "transport.doorbells_per_op" "count" (per x (d C.Id.ring_doorbells));
  put "transport.full_waits" "count" (float_of_int (d C.Id.ring_full_waits));
  put "vm.events_per_op" "count" (per x x.x_events);
  put "gc.minor_words_per_op" "words" (x.x_words /. float_of_int (max 1 x.x_ops));
  put "gc.major_collections" "count" (float_of_int x.x_major)

(* ---- Host microbenches ------------------------------------------------------ *)

let microbenches w =
  let p = w.p in
  let lib = Plib.library p and region = Plib.region p and heap = Plib.heap p in
  let store = Plib.store p in
  let nk = Array.length w.keys in
  (* keys the stream touches, so each call hits a resident item *)
  let pick j = op_key w.ops.(j mod Array.length w.ops) mod nk in
  let value_for i = value_of ~len:(w.len_of i) i (max 0 w.model.(i)) in
  let vlen = w.len_of (pick 0) in
  let off = Shm.Region.kernel_mode (fun () -> Ralloc.get_root heap Core.Plib_store.root_primary) in
  let hm = Shm.Region.kernel_mode (fun () -> Ralloc.heap_map heap) in
  put "ralloc.used_ratio" "ratio"
    (float_of_int (Ralloc.used_bytes heap) /. float_of_int (Ralloc.capacity heap));
  put "ralloc.ext_frag" "ratio" hm.Ralloc.hm_ext_frag;
  in_vm (fun _ ->
    put_ns_words "hodor.null_call" (fun () -> micro (fun _ -> Hodor.Trampoline.call lib ignore));
    let sink = ref 0 in
    put_ns "shm.checked_read_ns" (fun () ->
      Hodor.Trampoline.call lib (fun () ->
         micro ~n:20_000 (fun _ -> sink := !sink + Shm.Region.read_i64 region off)));
    put_ns "shm.kernel_read_ns" (fun () ->
      Shm.Region.kernel_mode (fun () ->
         micro ~n:20_000 (fun _ -> sink := !sink + Shm.Region.read_i64 region off)));
    let key = Tls.new_key (fun () -> 0) in
    put_ns "tls.get_ns" (fun () -> micro ~n:20_000 (fun _ -> sink := !sink + Tls.get key));
    put_ns "pku.pkru_read_ns" (fun () ->
      micro ~n:20_000 (fun _ -> sink := !sink + Pku.Pkru.read ()));
    let core_get j = ignore (Plib.get p w.keys.(pick j)) in
    (* sets rewrite the model's current value, so the model holds *)
    let core_set j =
      let i = pick j in
      if w.model.(i) >= 0 then ignore (Plib.set p w.keys.(i) (value_for i))
    in
    put_ns_words "core.get" (fun () -> micro core_get);
    put_ns_words "core.set" (fun () -> micro ~n:500 core_set);
    put_ns "core.get_p99_ns" (fun () -> (tail ~n:5_000 core_get, 0.0));
    put_ns "core.set_p99_ns" (fun () -> (tail ~n:1_000 core_set, 0.0));
    Shm.Region.kernel_mode (fun () ->
      put_ns "mc_core.store_get_ns" (fun () ->
        micro (fun j -> ignore (Plib.Store.get store w.keys.(pick j))));
      put_ns "mc_core.store_set_ns" (fun () ->
        micro ~n:500 (fun j ->
           let i = pick j in
           if w.model.(i) >= 0 then ignore (Plib.Store.set store w.keys.(i) (value_for i))));
      let get_cmd j = P.Get [ w.keys.(pick j) ] in
      let set_cmd j =
        let i = pick j in
        P.Set { P.key = w.keys.(i); flags = 0; exptime = 0; data = value_for i;
                noreply = false }
      in
      let gets = Array.init 64 (fun j -> Mc_protocol.Binary.encode_command (get_cmd j)) in
      let sets = Array.init 64 (fun j -> Mc_protocol.Binary.encode_command (set_cmd j)) in
      put_ns_words "mc_protocol.parse_get" (fun () ->
        micro (fun j -> ignore (Mc_protocol.Binary.parse_command gets.(j land 63))));
      put_ns_words "mc_protocol.parse_set" (fun () ->
        micro (fun j -> ignore (Mc_protocol.Binary.parse_command sets.(j land 63))));
      let reply =
        P.Values { with_cas = false;
                   vals = [ { P.v_key = w.keys.(0); v_flags = 0; v_cas = 1L;
                              v_data = String.make vlen 'v' } ] }
      in
      put_ns_words "mc_protocol.encode_value" (fun () ->
        micro (fun j -> ignore (Mc_protocol.Binary.encode_reply ~for_cmd:(get_cmd j) reply)));
      let exec_get = micro (fun j -> ignore (E.execute store (get_cmd j))) in
      put "mc_server.execute_get_ns" "ns" (fst exec_get);
      put_ns "mc_server.execute_set_ns" (fun () ->
        micro ~n:500 (fun j ->
           if w.model.(pick j) >= 0 then ignore (E.execute store (set_cmd j))));
      put "transport.self_ns" "ns"
        (match w.rtt with
         | Some s when s.n > 0 -> Float.max 0.0 (median_of s -. fst exec_get)
         | _ -> 0.0);
      put "transport.rtt_p99_ns" "ns"
        (match w.rtt with
         | Some s -> Option.value ~default:0.0 (pct s 99.0)
         | None -> 0.0));
    (* telemetry on vs off, alternating batches in this one process *)
    let on = samples () and off = samples () and won = ref [] and woff = ref [] in
    for b = 0 to 13 do
      let enabled = b land 1 = 0 in
      Telemetry.Control.set_enabled enabled;
      let ns, wd =
        guarded "telemetry.get_overhead_pct" (fun () ->
          micro ~batches:1 (fun j -> ignore (Plib.get p w.keys.(pick j))))
      in
      add (if enabled then on else off) (int_of_float (ns *. 1000.0));
      if enabled then won := wd :: !won else woff := wd :: !woff
    done;
    Telemetry.Control.set_enabled true;
    put "telemetry.get_overhead_pct" "%"
      (if median_of off = 0.0 then 0.0
       else 100.0 *. (median_of on -. median_of off) /. median_of off);
    put "telemetry.words_per_get" "words"
      (Pstats.median (Array.of_list !won) -. Pstats.median (Array.of_list !woff));
    put_ns "vm.yield_ns" (fun () -> micro ~n:20_000 (fun _ -> S.yield ()));
    ignore !sink)

(* Ralloc.alloc does not evict: on a heap full of cached items it
   raises Out_of_heap. Room is made the way the store's set path makes
   it, by evicting from the LRU and retrying, with the freed blocks
   handed back to their superblocks so an emptied one can serve another
   class; the timed alloc+free then reuses that room. On ring-write
   this evicts much of the cache, so it runs after the replay. *)
let ralloc_micro w =
  let heap = Plib.heap w.p and store = Plib.store w.p in
  let rec make_room sz hint =
    match Ralloc.alloc heap sz with
    | b -> Ralloc.free heap b
    | exception Ralloc.Out_of_heap ->
      if Plib.Store.evict_some store ~hint = 0 then raise Ralloc.Out_of_heap;
      Ralloc.flush_thread_cache heap;
      make_room sz (hint + 1)
  in
  in_vm (fun _ ->
    Shm.Region.kernel_mode (fun () ->
      List.iter
        (fun sz ->
          put_ns (Printf.sprintf "ralloc.alloc_free_ns.%d" sz) (fun () ->
            make_room sz 0;
            micro (fun _ -> Ralloc.free heap (Ralloc.alloc heap sz))))
        [ 128; 2048 ]))

(* ---- Traced replay ------------------------------------------------------------ *)

(* A recorded span: name, start, end, parent (-1 for a root), request
   id, and the crossings and allocations counted inside it. *)
type rec_span = {
  name : string;
  parent : int;
  req : int;
  start : int;
  mutable stop : int;
  mutable crossings : int;
  mutable allocs : int;
}

(* Newest first; a span's id is its position from the oldest. *)
let spans : rec_span list ref = ref []

let n_spans = ref 0

let tracing = ref false

let cur_parent = ref (-1)

let cur_req = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !n_spans in
    let c0 = C.read C.Id.hodor_enter and a0 = C.read C.Id.alloc_calls in
    let s =
      { name; parent = !cur_parent; req = !cur_req; start = now_ns (); stop = 0;
        crossings = 0; allocs = 0 }
    in
    spans := s :: !spans;
    incr n_spans;
    cur_parent := id;
    let r = f () in
    s.stop <- now_ns ();
    cur_parent := s.parent;
    s.crossings <- C.read C.Id.hodor_enter - c0;
    s.allocs <- C.read C.Id.alloc_calls - a0;
    r
  end

(* One request of the workload, rebuilt from public functions. The
   direct path is a crossing around the copy-in and the store call;
   the ring path adds the codec on both sides and the executor. *)
let request w ~ring op =
  let p = w.p in
  let i = op_key op mod Array.length w.keys in
  let key = w.keys.(i) in
  let set = op_is_set op && w.model.(i) >= 0 in
  let data = if set then value_of ~len:(w.len_of i) i w.model.(i) else "" in
  let lib = Plib.library p and store = Plib.store p in
  span "request" @@ fun () ->
  if ring then begin
    let cmd =
      if set then P.Set { P.key; flags = 0; exptime = 0; data; noreply = false }
      else P.Get [ key ]
    in
    let bytes = span "mc_protocol.encode" (fun () -> Mc_protocol.Binary.encode_command cmd) in
    let cmd, _ = span "mc_protocol.parse" (fun () -> Mc_protocol.Binary.parse_command bytes) in
    let resp =
      span "hodor.call" (fun () ->
        Hodor.Trampoline.call lib (fun () ->
          span "mc_server.execute" (fun () -> E.execute store cmd)))
    in
    ignore (span "mc_protocol.reply" (fun () -> Mc_protocol.Binary.encode_reply ~for_cmd:cmd resp))
  end
  else
    span "hodor.call" (fun () ->
      Hodor.Trampoline.call lib (fun () ->
        let k = span "core.copy_in" (fun () -> Plib.copy_in p (Bytes.of_string key)) in
        if set then begin
          let d = span "core.copy_in" (fun () -> Plib.copy_in p (Bytes.of_string data)) in
          ignore (span "mc_core.store" (fun () -> Plib.Store.set store k d))
        end
        else ignore (span "mc_core.store" (fun () -> Plib.Store.get store k))))

let span_names =
  [ "request"; "hodor.call"; "core.copy_in"; "mc_core.store"; "mc_protocol.encode";
    "mc_protocol.parse"; "mc_server.execute"; "mc_protocol.reply" ]

let replay w ~ring =
  let sample = Array.sub w.ops 0 (min 2_000 (Array.length w.ops)) in
  let untraced = samples () and traced = samples () in
  in_vm (fun _ ->
    for round = 0 to 5 do
      tracing := round land 1 = 1;
      let t0 = now_ns () in
      Array.iteri
        (fun j op ->
          cur_req := (round * Array.length sample) + j;
          request w ~ring op)
        sample;
      add (if !tracing then traced else untraced) ((now_ns () - t0) / Array.length sample)
    done;
    tracing := false);
  put "trace.overhead_pct" "%"
    (100.0 *. (median_of traced -. median_of untraced) /. median_of untraced);
  let recorded = Array.of_list (List.rev !spans) in
  let all =
    Array.map
      (fun r ->
        { Pstats.name = r.name; start = r.start; stop = r.stop; parent = r.parent;
          req = r.req })
      recorded
  in
  let self = Pstats.self_times all in
  List.iter
    (fun name ->
      let xs = samples () in
      Array.iteri (fun i s -> if s.Pstats.name = name then add xs self.(i)) all;
      put (Printf.sprintf "span.%s.self_ns" name) "ns"
        (if xs.n = 0 then 0.0 else median_of xs))
    span_names;
  (* written out at exit, one JSON object per span *)
  let file = Filename.concat (work_dir ()) (Printf.sprintf "spans-%s.jsonl" w.name) in
  let oc = open_out file in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"name\": %S, \"start\": %d, \"end\": %d, \"parent\": %d, \"req\": %d, \"self_ns\": %d, \"crossings\": %d, \"allocs\": %d}\n"
        s.Pstats.name s.start s.stop s.parent s.req self.(i) recorded.(i).crossings
        recorded.(i).allocs)
    all;
  close_out oc

(* ---- Recovery components, flush and restart ------------------------------------ *)

(* The live set the library's own recovery hands the allocator: store
   items outside the arena, arena chain heads and every rooted block,
   ring pairs of connections still in the directory. *)
let live_set p store_live =
  let heap = Plib.heap p and region = Plib.region p and arena = Plib.arena p in
  let arena_live, live = List.partition (Mc_core.Bump_arena.owns arena) store_live in
  let live = Mc_core.Bump_arena.recovery_roots arena @ live in
  let open Core.Plib_store in
  let live =
    List.fold_left
      (fun acc root -> match Ralloc.get_root heap root with 0 -> acc | b -> b :: acc)
      live
      [ root_primary; root_telemetry; root_arena; root_tenants; root_flight ]
  in
  let live =
    match Ralloc.get_root heap root_rings with
    | 0 -> live
    | dir ->
      let l = ref (dir :: live) in
      for i = 0 to max_ring_conns - 1 do
        let row = dir + (i * ring_dir_row) in
        if Shm.Region.read_i64 region row <> 0 then
          l := Shm.Region.read_i64 region (row + 16) :: !l
      done;
      !l
  in
  (arena_live, live)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs (now_ns () - t0))

let recovery w =
  let p = w.p in
  in_vm (fun _ -> Process.with_process w.owner (fun () -> Plib.recover p));
  in_vm (fun _ ->
    Shm.Region.kernel_mode (fun () ->
      let store_live, dt = timed (fun () -> Plib.Store.recover (Plib.store p)) in
      put "mc_core.recover_s" "s" dt;
      let arena_live, live = live_set p store_live in
      put "ralloc.recover_s" "s" (snd (timed (fun () -> Ralloc.recover (Plib.heap p) ~live)));
      put "mc_core.arena_recover_s" "s"
        (snd (timed (fun () -> Mc_core.Bump_arena.recover (Plib.arena p) ~live:arena_live)));
      put "telemetry.forensics_s" "s"
        (snd (timed (fun () ->
           Telemetry.Forensics.analyze ~heap:(Ralloc.heap_kvs (Plib.heap p)) ())))));
  check_invariants p;
  let p, flush_s, restart_s =
    flush_restart p ~keys:w.keys ~len_of:w.len_of ~may_miss:w.may_miss w.model
  in
  put "shm.flush_s" "s" flush_s;
  put "core.restart_s" "s" restart_s;
  p

(* Returns the restarted library. *)
let run w ~ring =
  exact_ratios w.x;
  microbenches w;
  replay w ~ring;
  ralloc_micro w;
  recovery w
