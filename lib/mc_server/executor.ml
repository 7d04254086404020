(** Mapping from protocol commands to store operations: the request
    execution engine shared by the ASCII and binary paths of the
    baseline server. *)

module P = Mc_protocol.Types

(* ---- Tenant scoping (connection-bound identity) ----------------------

   A connection bound to a tenant never addresses raw store keys: the
   server rewrites every key-carrying command into the tenant's
   [<name>/] namespace {e before} execution, and strips the prefix
   back out of the values on the way back, so the client sees its own
   flat key space. The rewrite happens host-side from the
   connection-bound identity — no byte sequence the client sends can
   escape its prefix. [Tenant.namespace_enforced] is the red-team
   toggle: with it off, keys pass through unscoped (the forged-prefix
   breach) and even [flush_all] reaches the whole store. *)

let scope_key ~prefix k = prefix ^ k

let scope_params ~prefix (p : P.store_params) =
  { p with P.key = scope_key ~prefix p.P.key }

let scope_command ~prefix (cmd : P.command) : P.command =
  if not !Mc_core.Tenant.namespace_enforced then cmd
  else
    match cmd with
    | P.Get keys -> P.Get (List.map (scope_key ~prefix) keys)
    | P.Gets keys -> P.Gets (List.map (scope_key ~prefix) keys)
    | P.Getx { g_key; g_quiet; g_withkey } ->
      P.Getx { g_key = scope_key ~prefix g_key; g_quiet; g_withkey }
    | P.Set p -> P.Set (scope_params ~prefix p)
    | P.Add p -> P.Add (scope_params ~prefix p)
    | P.Replace p -> P.Replace (scope_params ~prefix p)
    | P.Append p -> P.Append (scope_params ~prefix p)
    | P.Prepend p -> P.Prepend (scope_params ~prefix p)
    | P.Cas (p, u) -> P.Cas (scope_params ~prefix p, u)
    | P.Delete (k, n) -> P.Delete (scope_key ~prefix k, n)
    | P.Incr (k, d, n) -> P.Incr (scope_key ~prefix k, d, n)
    | P.Decr (k, d, n) -> P.Decr (scope_key ~prefix k, d, n)
    | P.Touch (k, e, n) -> P.Touch (scope_key ~prefix k, e, n)
    | P.Flush_all ->
      (* a global wipe from inside one namespace is exactly the
         cross-tenant attack; tenants flush through their own API *)
      P.Invalid "flush_all forbidden on tenant connections"
    | (P.Stats _ | P.Version | P.Quit | P.Noop | P.Invalid _) as c -> c

let unscope_response ~prefix (resp : P.response) : P.response =
  if not !Mc_core.Tenant.namespace_enforced then resp
  else
    match resp with
    | P.Values { with_cas; vals } ->
      let pl = String.length prefix in
      let strip v =
        let k = v.P.v_key in
        if String.length k >= pl && String.sub k 0 pl = prefix then
          { v with P.v_key = String.sub k pl (String.length k - pl) }
        else v
      in
      P.Values { with_cas; vals = List.map strip vals }
    | r -> r

(* Per-tenant rollup for the socket path (the in-process path counts
   inside the library). Keyed by name through [Tenant.bump_hook]; a
   no-op until a library owner installs the hook. *)
let account_tenant ~name (cmd : P.command) (resp : P.response) =
  let bump s = !Mc_core.Tenant.bump_hook name s in
  match (cmd, resp) with
  | (P.Get ks | P.Gets ks), P.Values { vals; _ } ->
    List.iter (fun _ -> bump Mc_core.Tenant.Cmd_get) ks;
    List.iter (fun _ -> bump Mc_core.Tenant.Get_hits) vals
  | P.Getx _, P.Values { vals; _ } ->
    bump Mc_core.Tenant.Cmd_get;
    List.iter (fun _ -> bump Mc_core.Tenant.Get_hits) vals
  | (P.Set _ | P.Add _ | P.Replace _ | P.Append _ | P.Prepend _ | P.Cas _), _
    ->
    bump Mc_core.Tenant.Cmd_set
  | _ -> ()

(* ---- Online quota enforcement (socket path) --------------------------

   The in-process API enforces tenant quotas inside the library; the
   socket path executes through this module, so without a gate a
   remote tenant could write past its budget. A library owner installs
   [quota_gate]; the executor then routes every mutating store arm
   through [g_apply], passing the (already scoped) key and what the op
   will do to that key's footprint. The gate — which owns the registry
   and can probe the store — blocks the op (after trying tenant-local
   eviction) or lets it run and recharges usage from the post-state.
   A [None] gate is the zero-cost default for untenanted servers. *)

type quota_op =
  | Q_set of int  (** set/add/replace/cas: final value length *)
  | Q_grow of int (** append/prepend: bytes added on top of the old value *)
  | Q_touch       (** delete/incr/decr: never blocks, recharge after *)

type quota_gate = {
  g_store : Obj.t;
  (** physical identity of the store the gate guards. The hook is
      process-global (like the tenant hooks) but must never tax an
      unrelated store — harnesses build private stores through this
      same executor — so it only engages when the executing store
      {e is} the one it was installed for. *)
  g_apply : key:string -> op:quota_op -> (unit -> P.response) -> P.response;
}

let quota_gate : quota_gate option ref = ref None

let with_quota ~store ~key ~op f =
  match !quota_gate with
  | Some g when g.g_store == Obj.repr store -> g.g_apply ~key ~op f
  | _ -> f ()

(* Live per-connection window/occupancy figures for `stats rings`,
   installed by a ring-mode server. *)
let rings_stats_hook : (unit -> (string * string) list) ref =
  ref (fun () -> [])

(* Deployment-specific settings (ring defaults, tenant count) appended
   to `stats settings` by whoever owns them — a ring server, the
   protected-library layer. *)
let settings_stats_hook : (unit -> (string * string) list) ref =
  ref (fun () -> [])

(* Heap-observatory and post-mortem surfaces. The heap and (for the
   plib build) the flight recorder live with the library owner, so
   `stats heap` / `stats forensics` are served through hooks it
   installs; an untenanted baseline server answers with the
   recorder-local analysis only. *)
let heap_stats_hook : (unit -> (string * string) list) ref =
  ref (fun () -> [])

let forensics_stats_hook : (unit -> (string * string) list) ref =
  ref (fun () ->
    Telemetry.Forensics.kvs (Telemetry.Forensics.analyze ()))

module Make
    (M : Mc_core.Memory_intf.MEMORY)
    (A : Mc_core.Memory_intf.ALLOCATOR)
    (S : Platform.Sync_intf.S) =
struct
  module Store = Mc_core.Store.Make (M) (A) (S)

  let version = "1.6.0-plib-repro"

  let of_store_result : Mc_core.Store.store_result -> P.response = function
    | Mc_core.Store.Stored -> P.Stored
    | Mc_core.Store.Not_stored -> P.Not_stored
    | Mc_core.Store.Exists -> P.Exists
    | Mc_core.Store.Not_found -> P.Not_found
    | Mc_core.Store.No_memory -> P.Server_error "out of memory storing object"

  let retrieve store keys ~with_cas =
    let vals =
      List.filter_map
        (fun key ->
          match Store.get store key with
          | Some r ->
            Some
              { P.v_key = key; v_flags = r.Mc_core.Store.flags;
                v_cas = r.Mc_core.Store.cas; v_data = r.Mc_core.Store.value }
          | None -> None)
        keys
    in
    P.Values { with_cas; vals }

  let execute store (cmd : P.command) : P.response =
    match cmd with
    | P.Get keys -> retrieve store keys ~with_cas:false
    | P.Gets keys -> retrieve store keys ~with_cas:true
    | P.Getx { g_key; _ } -> retrieve store [ g_key ] ~with_cas:true
    | P.Set p ->
      with_quota ~store ~key:p.P.key ~op:(Q_set (String.length p.P.data)) (fun () ->
        of_store_result
          (Store.set store ~flags:p.P.flags ~exptime:p.P.exptime p.P.key
             p.P.data))
    | P.Add p ->
      with_quota ~store ~key:p.P.key ~op:(Q_set (String.length p.P.data)) (fun () ->
        of_store_result
          (Store.add store ~flags:p.P.flags ~exptime:p.P.exptime p.P.key
             p.P.data))
    | P.Replace p ->
      with_quota ~store ~key:p.P.key ~op:(Q_set (String.length p.P.data)) (fun () ->
        of_store_result
          (Store.replace store ~flags:p.P.flags ~exptime:p.P.exptime p.P.key
             p.P.data))
    | P.Append p ->
      with_quota ~store ~key:p.P.key ~op:(Q_grow (String.length p.P.data)) (fun () ->
        of_store_result (Store.append store p.P.key p.P.data))
    | P.Prepend p ->
      with_quota ~store ~key:p.P.key ~op:(Q_grow (String.length p.P.data)) (fun () ->
        of_store_result (Store.prepend store p.P.key p.P.data))
    | P.Cas (p, unique) ->
      with_quota ~store ~key:p.P.key ~op:(Q_set (String.length p.P.data)) (fun () ->
        of_store_result
          (Store.cas store ~flags:p.P.flags ~exptime:p.P.exptime ~cas:unique
             p.P.key p.P.data))
    | P.Delete (key, _) ->
      with_quota ~store ~key ~op:Q_touch (fun () ->
        if Store.delete store key then P.Deleted else P.Not_found)
    | P.Incr (key, delta, _) ->
      with_quota ~store ~key ~op:Q_touch (fun () ->
        match Store.incr store key delta with
        | Mc_core.Store.Counter v -> P.Number v
        | Mc_core.Store.Counter_not_found -> P.Not_found
        | Mc_core.Store.Non_numeric ->
          P.Client_error "cannot increment or decrement non-numeric value")
    | P.Decr (key, delta, _) ->
      with_quota ~store ~key ~op:Q_touch (fun () ->
        match Store.decr store key delta with
        | Mc_core.Store.Counter v -> P.Number v
        | Mc_core.Store.Counter_not_found -> P.Not_found
        | Mc_core.Store.Non_numeric ->
          P.Client_error "cannot increment or decrement non-numeric value")
    | P.Touch (key, exptime, _) ->
      if Store.touch store key exptime then P.Touched else P.Not_found
    | P.Stats None ->
      (* store counters (authoritative, standard names) plus the
         telemetry boundary counters: crossings, pku events, allocator
         traffic *)
      P.Stats_reply (Store.stats store @ Telemetry.Counters.boundary_kvs ())
    | P.Stats (Some "items") -> P.Stats_reply (Store.stats_items store)
    | P.Stats (Some "slabs") -> P.Stats_reply (Store.stats_slabs store)
    | P.Stats (Some "latency") ->
      (* extension: the telemetry latency histograms, one summary
         block per operation *)
      P.Stats_reply (Telemetry.Timers.kvs ())
    | P.Stats (Some "phases") ->
      (* extension: per-phase p50/p99 self-time breakdown folded from
         the sampled span trees *)
      P.Stats_reply (Telemetry.Span.phase_kvs ())
    | P.Stats (Some "contention") ->
      (* extension: the stripe-contention profiler's top-K report,
         plus the seqlock read-path counters that explain a quiet
         profile (hits never queued on a stripe at all) *)
      P.Stats_reply
        (Telemetry.Contention.kvs () @ Telemetry.Counters.optimistic_kvs ())
    | P.Stats (Some "rings") ->
      (* extension: shared-ring transport counters, plus the live
         adaptive-window state the ring server appends *)
      P.Stats_reply
        (Telemetry.Counters.ring_kvs () @ !rings_stats_hook ())
    | P.Stats (Some "tenants") ->
      (* per-tenant rollups; served through the hook because the
         registry lives with the library owner, not the store *)
      P.Stats_reply (!Mc_core.Tenant.stats_hook ())
    | P.Stats (Some "settings") ->
      (* the standard introspection arm: which toggles this build is
         actually running with *)
      let cfg = Store.config store in
      P.Stats_reply
        ([ ("optimistic_reads",
            if cfg.Mc_core.Store.optimistic_reads then "1" else "0");
           ("lock_count", string_of_int cfg.Mc_core.Store.lock_count);
           ("hashpower", string_of_int cfg.Mc_core.Store.hashpower);
           ("lru_count", string_of_int cfg.Mc_core.Store.lru_count);
           ("evict_batch", string_of_int cfg.Mc_core.Store.evict_batch);
           ("trace_level",
            Telemetry.Trace.severity_name (Telemetry.Trace.get_level ()));
           ("trace_sample_every",
            string_of_int (Telemetry.Span.sampling ()));
           ("slow_threshold_ns",
            string_of_int (Telemetry.Span.slow_threshold_ns ()));
           ("telemetry", if Telemetry.Control.on () then "1" else "0") ]
         @ Telemetry.Flight.settings_kvs ()
         @ !settings_stats_hook ())
    | P.Stats (Some "heap") ->
      (* the heap observatory: per-class occupancy, fragmentation,
         largest free extent (hook-installed by the heap's owner) *)
      P.Stats_reply (!heap_stats_hook ())
    | P.Stats (Some "forensics") ->
      (* the post-mortem story: death classification, victim op and
         stripes, recovery cross-checks *)
      P.Stats_reply (!forensics_stats_hook ())
    | P.Stats (Some "reset") ->
      Store.stats_reset store;
      Telemetry.Counters.reset ();
      Telemetry.Timers.reset ();
      Telemetry.Span.reset_phases ();
      Telemetry.Contention.reset ();
      (* tenant op tallies reset too; registry membership, quotas and
         vkeys are durable state, not statistics *)
      !Mc_core.Tenant.reset_hook ();
      P.Reset
    | P.Stats (Some arg) -> P.Client_error ("unknown stats argument " ^ arg)
    | P.Version -> P.Version_reply version
    | P.Flush_all ->
      Store.flush_all store;
      P.Ok
    | P.Quit -> P.Ok
    | P.Noop -> P.Ok
    | P.Invalid m -> P.Client_error m

  (* Per-command telemetry, indexed by [P.command_tag]: the dispatch
     crumb's op code (interned against the forensics table) and the
     latency timer. *)
  let op_codes = Array.map Telemetry.Forensics.op_code P.command_names

  let op_timers = Array.map Telemetry.Timers.handle P.command_names

  let exec_phase = Telemetry.Span.phase "exec"

  let group_phase = Telemetry.Span.phase "group"

  (* Per-protocol-op latency, in virtual time, recorded host-side only
     (no [advance]): with telemetry off this is one ref read. *)
  let execute store (cmd : P.command) : P.response =
    Telemetry.Span.around exec_phase @@ fun () ->
    if not (Telemetry.Control.on ()) then execute store cmd
    else begin
      (* Tenant and conn ride on Tenant_scope / ring-drain records;
         the dispatch crumb names the op (interned against the
         forensics table — one word). An info record: its publish
         crosses a sync point, giving the crash sweep the torn-write
         window the publish-last protocol must absorb. *)
      let tag = P.command_tag cmd in
      Telemetry.Flight.record Telemetry.Flight.Op_dispatch ~a:op_codes.(tag)
        ~b:(-1) ~c:(-1);
      let t0 = S.now_ns () in
      let resp = execute store cmd in
      Telemetry.Timers.record op_timers.(tag) (S.now_ns () - t0);
      resp
    end

  (* ---- Batch execution ------------------------------------------------- *)

  (* Only operations whose store work stays within their own key's
     stripe may run under a stripe group. Storage and counter commands
     allocate, and allocation can evict items living in arbitrary
     other stripes — taking those locks while a group is held would be
     a same-class rank inversion. They execute per-op instead, with
     their usual internal locking, still inside the one crossing. *)
  let groupable = function
    | P.Get _ | P.Gets _ | P.Getx _ | P.Delete _ | P.Touch _ -> true
    | _ -> false

  let cmd_keys = function
    | P.Get keys | P.Gets keys -> keys
    | P.Getx { g_key; _ } -> [ g_key ]
    | P.Delete (k, _) -> [ k ]
    | P.Touch (k, _, _) -> [ k ]
    | _ -> []

  (* Execute a pipelined batch. Groupable runs acquire their distinct
     stripes once, sorted ascending (creation-rank order — the lockdep
     discipline for same-class mutexes), and ops execute in arrival
     order under the group, so two ops on one key keep their relative
     order. Responses align 1:1 with [cmds]. *)
  let execute_batch store (cmds : P.command list) :
      (P.command * P.response) list =
    let rec split_run acc = function
      | c :: rest when groupable c -> split_run (c :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec go acc = function
      | [] -> List.rev acc
      | c :: _ as cmds when groupable c ->
        let run, rest = split_run [] cmds in
        (* With the seqlock read path on, gets need no stripes — they
           validate against the version words and fall back per-op on
           conflict. Only the mutating groupables (delete/touch) still
           pin their stripes; an all-get run holds nothing at all. *)
        let optimistic =
          (Store.config store).Mc_core.Store.optimistic_reads
        in
        let stripes =
          List.sort_uniq compare
            (List.concat_map
               (fun c ->
                 match c with
                 | (P.Get _ | P.Gets _ | P.Getx _) when optimistic -> []
                 | c -> List.map (Store.stripe_of store) (cmd_keys c))
               run)
        in
        let resps =
          (* [group] covers the stripe-amortized run: stripe_wait/
             stripe_hold and the per-op [exec] children nest under it. *)
          Telemetry.Span.around group_phase (fun () ->
            Store.with_stripes store ~stripes (fun () ->
              List.map (fun c -> (c, execute store c)) run))
        in
        go (List.rev_append resps acc) rest
      | c :: rest -> go ((c, execute store c) :: acc) rest
    in
    go [] cmds
end
