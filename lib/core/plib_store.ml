(** memcached as a Hodor protected library — the paper's contribution.

    Lifecycle (§3.2):
    - a {e bookkeeping process} creates the shared heap (a Ralloc heap
      over a region standing in for the memory-mapped file, owned
      uid-and-mode style via the simulated FS), builds the store in
      it, and anchors the control block behind a persistent root with
      one extra level of indirection (Figure 3's [hashtable_storage]
      idiom, so the structure may be reallocated later);
    - client processes "map" the heap by linking against the library:
      the loader opens the store file with the {e owner's} effective
      uid (§3.3), so clients never hold rights to the file itself;
    - every public operation runs through a Hodor trampoline; keys
      arriving from the client are copied into a library-private
      Ralloc buffer {e before} any lock is taken (Figure 4's
      [key_prot] idiom, §3.4);
    - on shutdown the bookkeeping process flushes the heap to its
      backing file; a restart maps the file and finds everything again
      through the roots — position independence makes the reload free.

    The [Protection] choice selects the paper's three measured
    configurations: the baseline server lives in {!Mc_server}; here
    [Protected] is "Plib, w/Hodor" and [Unprotected] is "Plib, No
    Hodor". *)

module CM = Platform.Cost_model
module Region = Shm.Region
module Process = Simos.Process

let root_primary = 0
(** Persistent root id anchoring the double-indirect cell that points
    at the store control block. *)

let root_telemetry = 1
(** Persistent root id anchoring the telemetry counter block: a flat
    array of [Telemetry.Counters.cells] 64-bit words in the shared
    heap. Because it hangs off a root, the block survives client
    crashes and bookkeeper restarts, and recovery {e sifts} it (keeps
    it live) rather than resetting it — the SIFT semantics DESIGN.md
    documents. *)

let root_arena = 2
(** Persistent root id anchoring the bump-arena hot tier: a pptr cell
    pointing at the newest 1 MiB arena region, whose directory chains
    to the older ones. Recovery walks the chain from here, so arena
    regions survive client crashes like everything else in the heap. *)

let root_tenants = 3
(** Persistent root id anchoring the tenant registry block
    ({!Mc_core.Tenant}): membership, quotas, per-tenant stats and
    virtual-pkey ids live in the shared heap, so tenancy survives
    client crashes and bookkeeper restarts. Usage counters inside the
    block may be mid-update at a kill; recovery recomputes them from
    the store itself. *)

let root_rings = 4
(** Persistent root id anchoring the shared-ring directory: a fixed
    table of (cid, block, sub, comp) rows, one per live ring-mode
    connection, with the ring pairs themselves carved out of this same
    heap. Recovery keeps every in-use pair alive through the directory
    and replays each ring's recovery protocol, so acked completions
    survive a crash while in-flight-but-unacked submissions are simply
    discarded with the connection. *)

let root_flight = 5
(** Persistent root id anchoring the flight-recorder block: the
    per-thread breadcrumb rings plus the pre-crash trace snapshot area
    ({!Telemetry.Flight}). Living in the shared heap, the breadcrumbs a
    dying client wrote survive its death — the forensic report
    ({!Telemetry.Forensics}) is reconstructed from this block after
    recovery. Records are published seq-word-last, so a record the
    victim was mid-write is simply invisible, never torn. *)

let max_ring_conns = 64
(** Ring-directory capacity: live ring-mode connections per store. *)

let ring_dir_row = 40
(** Directory row: in_use, cid, block, sub base, comp base — five
    64-bit words. [in_use] is written last on allocation and cleared
    first on teardown, so a kill at any point leaves either a fully
    described pair or an unreferenced block for recovery to reclaim. *)

let max_tenants = 64
(** Registry capacity — also the scale the vpkey layer is sized for:
    64 virtual keys multiplexed onto the 16 hardware slots. *)

module Make (S : Platform.Sync_intf.S) = struct
  module Store =
    Mc_core.Store.Make (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (S)

  module Tenant = Mc_core.Tenant

  type t = {
    lib : Hodor.Library.t;
    region : Region.t;
    heap : Ralloc.t;
    arena : Mc_core.Bump_arena.t;
    store : Store.t;
    tenants : Tenant.t;
    (* Per-tenant "vaults": one vkey-tagged page each, the visible
       proof of the tenant's protection domain. Host-side objects (the
       registry persists the vkey ids; vaults are re-created on
       restart as tenants re-authenticate). *)
    vaults : (int, Region.t) Hashtbl.t;
    path : string;
    owner : Process.t;
    stop_cleaner : bool Atomic.t;
    mutable cleaner : S.thread option;
    (* Report of the last post-crash recovery, reconstructed from the
       flight recorder at the end of [Library.recover]; [None] until a
       recovery has run. Served by [doctor]/[forensics]. *)
    mutable last_forensics : Telemetry.Forensics.report option;
  }

  type protection = Hodor.Library.protection = Protected | Unprotected

  let wire_runtime () =
    (* Hodor charges trampoline costs through these hooks; bind them to
       whichever substrate this instance runs on. *)
    Hodor.Runtime.configure ~advance:S.advance ~now:S.now_ns

  (* Point a process-wide hook at [v] and return its detach: put
     [default] back unless someone has since installed their own. *)
  let hook r v ~default =
    r := v;
    fun () -> if !r == v then r := default

  (* Find (restart) or allocate (first boot) the heap block rooted at
     [root], [bytes] long and zero-filled when new. *)
  let rooted_block ~region ~heap ~root ~bytes =
    Region.kernel_mode (fun () ->
      match Ralloc.get_root heap root with
      | 0 ->
        let block = Ralloc.alloc heap bytes in
        Region.fill region ~off:block ~len:bytes '\000';
        Ralloc.set_root heap root block;
        block
      | block -> block)

  (* Point the process-wide counter store at the shared-heap telemetry
     block. Counter bumps are host-side bookkeeping: they write the
     heap word kernel side (a bump can happen before the trampoline has
     opened the pkru — e.g. the [hodor_enter] count itself) and charge
     no virtual time. The Vm schedules cooperatively at sync points
     only, so the read-modify-write is atomic within a simulation. *)
  let attach_telemetry ~region ~heap =
    let bytes = 8 * Telemetry.Counters.cells in
    let block = rooted_block ~region ~heap ~root:root_telemetry ~bytes in
    let b =
      { Telemetry.Counters.add =
          (fun cell d -> Region.kernel_add_i64 region (block + (8 * cell)) d);
        read = (fun cell -> Region.kernel_read_i64 region (block + (8 * cell)));
        zero =
          (fun () ->
            Region.kernel_mode (fun () ->
              Region.fill region ~off:block ~len:bytes '\000')) }
    in
    Telemetry.Counters.install_backend b;
    fun () -> Telemetry.Counters.detach_backend b

  (* Point the process-wide recorder at the flight-recorder block. Like
     the counter block, breadcrumb writes are kernel-side host
     bookkeeping (a crumb can land inside the trampoline before the
     pkru is open) and charge no virtual time; the publish-last
     stamping inside [Telemetry.Flight] is what makes a mid-write kill
     leave no torn record. On re-attach the existing breadcrumbs are
     preserved — they are exactly the forensic evidence of the previous
     life. *)
  let attach_flight ~region ~heap =
    let block =
      rooted_block ~region ~heap ~root:root_flight
        ~bytes:Telemetry.Flight.bytes
    in
    let b =
      { Telemetry.Flight.read =
          (fun w -> Region.kernel_read_i64 region (block + (8 * w)));
        write = (fun w v -> Region.kernel_write_i64 region (block + (8 * w)) v) }
    in
    Telemetry.Flight.install_backend b;
    fun () -> Telemetry.Flight.detach_backend b

  (* Tenant plumbing installed on every handle:
     - the LRU selector routes each tenant's items onto the LRU list
       matching its registry slot, so per-tenant eviction scans only
       the tenant's own cold end (and recovery rebuilds per-tenant
       LRUs for free — [Store.recover] relinks through the selector);
     - the evict hook credits the owning tenant's usage and bumps its
       eviction stat whenever the store reclaims one of its items;
     - the registry serves `stats tenants` / joins `stats reset`
       through the executor hooks. *)
  let install_tenant_hooks ~store ~tenants =
    Store.set_lru_selector store
      (Some (fun key -> Tenant.owner_slot_of_key tenants key));
    Store.set_evict_hook store
      (Some
         (fun ~key ~bytes ->
           match Tenant.owner_slot_of_key tenants key with
           | Some slot ->
             Tenant.charge tenants slot ~bytes:(-bytes) ~items:(-1);
             Tenant.bump tenants slot Tenant.Evictions
           | None -> ()));
    let stats =
      hook Tenant.stats_hook
        (fun () -> Tenant.stats_kvs tenants)
        ~default:(fun () -> [])
    in
    let reset =
      hook Tenant.reset_hook
        (fun () -> Tenant.reset_stats tenants)
        ~default:(fun () -> ())
    in
    let bump =
      hook Tenant.bump_hook
        (fun name s ->
          match Tenant.find tenants name with
          | Some slot -> Tenant.bump tenants slot s
          | None -> ())
        ~default:(fun _ _ -> ())
    in
    (* Online quota enforcement for the socket path: the executor
       routes every mutating store arm through this gate, inside the
       crossing. Same discipline as [t_set_in] — a full tenant evicts
       only its own items — and usage is recharged from the post-state
       so the account stays exact whatever the op returned. *)
    let gate =
      hook Mc_server.Executor.quota_gate ~default:None
      @@ Some
        { Mc_server.Executor.g_store = Obj.repr store;
          g_apply =
            (fun ~key ~op f ->
              match Tenant.owner_slot_of_key tenants key with
              | None -> f ()
              | Some slot ->
                let probe () =
                  match Store.probe store key with
                  | Some b -> (b, 1)
                  | None -> (0, 0)
                in
                let old_bytes, old_items = probe () in
                let add_bytes, add_items =
                  match op with
                  | Mc_server.Executor.Q_set n ->
                    ( String.length key + n - old_bytes,
                      if old_items = 0 then 1 else 0 )
                  | Mc_server.Executor.Q_grow n -> (n, 0)
                  | Mc_server.Executor.Q_touch -> (0, 0)
                in
                let pred =
                  let p = Tenant.prefix tenants slot in
                  fun k -> String.starts_with ~prefix:p k
                in
                let rec room tries =
                  if
                    not
                      (Tenant.would_exceed tenants slot
                         ~add_bytes:(max 0 add_bytes) ~add_items)
                  then true
                  else if tries = 0 then false
                  else if Store.evict_some_matching store ~lru:slot ~pred > 0
                  then room (tries - 1)
                  else false
                in
                if (add_bytes > 0 || add_items > 0) && not (room 64) then
                  Mc_protocol.Types.Server_error "out of memory storing object"
                else begin
                  let resp = f () in
                  let new_bytes, new_items = probe () in
                  Tenant.charge tenants slot ~bytes:(new_bytes - old_bytes)
                    ~items:(new_items - old_items);
                  resp
                end)
        }
    in
    [ stats; reset; bump; gate ]

  let build_handle ~lib ~region ~heap ~arena ~store ~tenants ~path ~owner =
    let t =
      { lib; region; heap; arena; store; tenants;
        vaults = Hashtbl.create 8; path; owner;
        stop_cleaner = Atomic.make false; cleaner = None;
        last_forensics = None }
    in
    let detach_telemetry = attach_telemetry ~region ~heap in
    let detach_flight = attach_flight ~region ~heap in
    let detach_tenants = install_tenant_hooks ~store ~tenants in
    (* The slot table is process-volatile; the registry is the truth.
       Re-create each persisted vkey so binds work after a restart. *)
    Region.kernel_mode (fun () ->
      Tenant.iter_active tenants (fun slot ->
        let vk = Tenant.vkey_of tenants slot in
        if vk > 0 then
          Pku.Vpkey.restore ~id:vk ~owner:(Tenant.uid_of tenants slot)));
    (* Recovery protocol, run by the bookkeeping process at quiescence
       after a client died mid-call: the store drops half-linked items
       and hands back the reachable set, which the allocator uses to
       rebuild its free lists — anything a dead thread allocated but
       never linked is reclaimed. The Figure-3 indirection cell is live
       too: it is reachable from the root, not from the store. *)
    Hodor.Library.set_recover lib (fun () ->
      Region.kernel_mode (fun () ->
        let live = Store.recover t.store in
        (* Items served by the bump arena live {e inside} its 1 MiB
           regions; the heap's recovery keeps those whole regions alive
           through the chain heads (and would reject interior offsets),
           so arena residents are peeled off and recovered by the
           arena's own sweep afterwards. *)
        let arena_live, live =
          List.partition (Mc_core.Bump_arena.owns t.arena) live
        in
        let live = Mc_core.Bump_arena.recovery_roots t.arena @ live in
        let live =
          match Ralloc.get_root t.heap root_primary with
          | 0 -> live
          | cell -> cell :: live
        in
        (* The telemetry block is sifted, not reset: the counters it
           holds are monotone event counts and survive recovery. *)
        let live =
          match Ralloc.get_root t.heap root_telemetry with
          | 0 -> live
          | block -> block :: live
        in
        let live =
          match Ralloc.get_root t.heap root_arena with
          | 0 -> live
          | cell -> cell :: live
        in
        (* The tenant registry is sifted like the telemetry block:
           membership, quotas and vkey ids are durable. *)
        let live =
          match Ralloc.get_root t.heap root_tenants with
          | 0 -> live
          | block -> block :: live
        in
        (* The flight recorder is the one block that must survive with
           its contents intact: it holds the dying thread's last
           breadcrumbs — the evidence the forensic pass below reads. *)
        let live =
          match Ralloc.get_root t.heap root_flight with
          | 0 -> live
          | block -> block :: live
        in
        (* Ring pairs of live connections stay carved; each ring then
           runs its own recovery protocol — acked completions survive,
           a message the dead client was mid-publish is truncated away
           (its first-slot seq was stamped last), and in-flight-but-
           unacked submissions simply vanish with the window. *)
        let live =
          match Ralloc.get_root t.heap root_rings with
          | 0 -> live
          | dir ->
            let live = ref (dir :: live) in
            for i = 0 to max_ring_conns - 1 do
              let row = dir + (i * ring_dir_row) in
              if Region.read_i64 t.region row <> 0 then begin
                live := Region.read_i64 t.region (row + 16) :: !live;
                Transport.Ring.recover
                  (Transport.Ring.attach t.region
                     ~base:(Region.read_i64 t.region (row + 24)));
                Transport.Ring.recover
                  (Transport.Ring.attach t.region
                     ~base:(Region.read_i64 t.region (row + 32)))
              end
            done;
            !live
        in
        Ralloc.recover t.heap ~live;
        Mc_core.Bump_arena.recover t.arena ~live:arena_live;
        (* Rebuild the volatile tenant state from durable truth:
           re-create each tenant's vkey in the slot table, then
           recompute usage by walking the recovered store — the
           in-block counters may have been mid-update at the kill. *)
        let reg = t.tenants in
        Tenant.iter_active reg (fun slot ->
          let vk = Tenant.vkey_of reg slot in
          if vk > 0 then
            Pku.Vpkey.restore ~id:vk ~owner:(Tenant.uid_of reg slot));
        let bytes = Array.make (Tenant.max_tenants reg) 0 in
        let items = Array.make (Tenant.max_tenants reg) 0 in
        Store.fold_keys t.store
          (fun () key ~nbytes ~exptime:_ ->
            match Tenant.owner_slot_of_key reg key with
            | Some slot ->
              bytes.(slot) <- bytes.(slot) + String.length key + nbytes;
              items.(slot) <- items.(slot) + 1
            | None -> ())
          ();
        Tenant.iter_active reg (fun slot ->
          Tenant.set_usage reg slot ~bytes:bytes.(slot) ~items:items.(slot));
        (* ---- Post-crash forensics --------------------------------------
           Recovery has just repaired the store; now cross-check the
           repaired state against what the flight recorder says the
           victim was doing, reconstruct the per-thread timelines, and
           stash the report for [doctor] / `stats forensics`. *)
        let checks =
          let stripes = Store.stripe_count t.store in
          let odd = ref 0 in
          for s = 0 to stripes - 1 do
            if Store.seq_read t.store s land 1 <> 0 then incr odd
          done;
          let seq_ck =
            { Telemetry.Forensics.ck_name = "stripe_seqs_even";
              ck_ok = !odd = 0;
              ck_detail =
                (if !odd = 0 then
                   Printf.sprintf "all %d stripe seq words even" stripes
                 else Printf.sprintf "%d stripe seq words still odd" !odd) }
          in
          let rings_ck =
            let bad = ref 0 and seen = ref 0 in
            (match Ralloc.get_root t.heap root_rings with
             | 0 -> ()
             | dir ->
               for i = 0 to max_ring_conns - 1 do
                 let row = dir + (i * ring_dir_row) in
                 if Region.read_i64 t.region row <> 0 then begin
                   incr seen;
                   List.iter
                     (fun base ->
                       match
                         Transport.Ring.pending
                           (Transport.Ring.attach t.region ~base)
                       with
                       | Ok _ -> ()
                       | Error _ -> incr bad)
                     [ Region.read_i64 t.region (row + 24);
                       Region.read_i64 t.region (row + 32) ]
                 end
               done);
            { Telemetry.Forensics.ck_name = "rings_valid";
              ck_ok = !bad = 0;
              ck_detail =
                Printf.sprintf "%d live pairs, %d invalid windows" !seen !bad }
          in
          let inv_ck =
            match Ralloc.check_invariants t.heap with
            | () ->
              { Telemetry.Forensics.ck_name = "heap_invariants";
                ck_ok = true; ck_detail = "superblock walk clean" }
            | exception Failure msg ->
              { Telemetry.Forensics.ck_name = "heap_invariants";
                ck_ok = false; ck_detail = msg }
          in
          let recon_ck =
            let hm = Ralloc.heap_map t.heap in
            let used = Ralloc.used_bytes t.heap in
            { Telemetry.Forensics.ck_name = "heap_reconciles";
              ck_ok = hm.Ralloc.hm_live_bytes = used;
              ck_detail =
                Printf.sprintf "map %d bytes vs counter %d bytes"
                  hm.Ralloc.hm_live_bytes used }
          in
          [ seq_ck; rings_ck; inv_ck; recon_ck ]
        in
        let report =
          Telemetry.Forensics.analyze ~heap:(Ralloc.heap_kvs t.heap) ~checks ()
        in
        t.last_forensics <- Some report;
        Telemetry.Trace.emit ~sev:Telemetry.Trace.Info ~subsys:"forensics"
          ("recovery verdict: " ^ Telemetry.Forensics.verdict report);
        (* The death note served its purpose; don't let it finger the
           same victim at the next, unrelated recovery. *)
        Telemetry.Flight.clear_victim ()));
    (* Observability hooks for the socket surface: `stats heap` serves
       the allocator map plus the hot tier's and store slab accounting;
       `stats forensics` serves the stashed post-recovery report (or a
       live recorder analysis when no recovery has run yet). *)
    let live_forensics () =
      Telemetry.Forensics.kvs (Telemetry.Forensics.analyze ())
    in
    let detach_heap_stats =
      hook Mc_server.Executor.heap_stats_hook ~default:(fun () -> [])
        (fun () ->
          Region.kernel_mode (fun () ->
            Ralloc.heap_kvs t.heap
            @ Mc_core.Bump_arena.stats_kvs t.arena
            @ Store.stats_slabs t.store))
    in
    let detach_forensics =
      hook Mc_server.Executor.forensics_stats_hook ~default:live_forensics
        (fun () ->
          match t.last_forensics with
          | Some r -> Telemetry.Forensics.kvs r
          | None -> live_forensics ())
    in
    let detach_settings =
      hook Mc_server.Executor.settings_stats_hook ~default:(fun () -> [])
        (fun () ->
          Region.kernel_mode (fun () ->
            [ ("tenants_active", string_of_int (Tenant.count_active t.tenants));
              ("tenants_max", string_of_int (Tenant.max_tenants t.tenants)) ]))
    in
    (* Releasing the library detaches every process-wide hook that still
       points into this handle's heap — and only those: a handle created
       since keeps its own — so a released heap is not kept reachable
       until the next [create]. *)
    Hodor.Library.set_release lib (fun () ->
      List.iter (fun detach -> detach ())
        (detach_telemetry :: detach_flight :: detach_heap_stats
         :: detach_forensics :: detach_settings :: detach_tenants));
    t

  (* The bookkeeping process creates the store from nothing. *)
  let create ?(protection = Protected) ?(copy_args = false)
      ?(store_cfg = Mc_core.Store.default_config) ~path ~size
      ~(owner : Process.t) () =
    wire_runtime ();
    let lib =
      Hodor.Library.create ~protection ~copy_args ~name:("libmemcached:" ^ path)
        ~owner_uid:(Process.uid owner) ()
    in
    let region =
      Region.create ~name:path ~size ~pkey:(Hodor.Library.pkey lib) ()
    in
    Hodor.Library.protect_region lib region;
    Simos.Sim_fs.create_file ~path ~owner:(Process.uid owner) ~mode:0o600 region;
    let heap = Ralloc.create region in
    let arena, store, tenants =
      Region.kernel_mode (fun () ->
        let anchor = Ralloc.alloc heap 16 in
        Ralloc.Pptr.store region ~at:anchor 0;
        Ralloc.set_root heap root_arena anchor;
        let arena = Mc_core.Bump_arena.create ~heap ~anchor () in
        let store =
          Store.create
            ~mem:(Mc_core.Shared_memory.of_region region)
            ~alloc:(Mc_core.Ralloc_alloc.of_heap_with_arena heap arena)
            store_cfg
        in
        (* Figure 3: root -> cell -> control block, so the block could
           move (e.g. on a future table resize) without re-rooting. *)
        let cell = Ralloc.alloc heap 16 in
        Ralloc.Pptr.store region ~at:cell (Store.ctrl_off store);
        Ralloc.set_root heap root_primary cell;
        let tblock = Ralloc.alloc heap (Tenant.size_for ~max:max_tenants) in
        let tenants = Tenant.format region ~base:tblock ~max:max_tenants in
        Ralloc.set_root heap root_tenants tblock;
        (arena, store, tenants))
    in
    build_handle ~lib ~region ~heap ~arena ~store ~tenants ~path ~owner

  (* Restart: map the flushed heap file and find the store through the
     persistent root. No data-rebuilding code exists — that is the
     paper's point (§6). *)
  let restart ?(protection = Protected) ?(copy_args = false)
      ?(store_cfg = Mc_core.Store.default_config) ~disk_path ~path
      ~(owner : Process.t) () =
    wire_runtime ();
    let region = Region.load ~path:disk_path in
    let lib =
      Hodor.Library.create ~protection ~copy_args ~name:("libmemcached:" ^ path)
        ~owner_uid:(Process.uid owner) ()
    in
    Hodor.Library.protect_region lib region;
    Simos.Sim_fs.create_file ~path ~owner:(Process.uid owner) ~mode:0o600 region;
    let heap = Ralloc.attach region in
    let arena, store, tenants =
      Region.kernel_mode (fun () ->
        let anchor =
          (* Heaps flushed before the hot tier existed have no arena
             root; give them an empty chain to grow from. *)
          match Ralloc.get_root heap root_arena with
          | 0 ->
            let cell = Ralloc.alloc heap 16 in
            Ralloc.Pptr.store region ~at:cell 0;
            Ralloc.set_root heap root_arena cell;
            cell
          | cell -> cell
        in
        let arena = Mc_core.Bump_arena.create ~heap ~anchor () in
        let cell = Ralloc.get_root heap root_primary in
        if cell = 0 then failwith "restart: no store rooted in this heap";
        let ctrl = Ralloc.Pptr.load region ~at:cell in
        let store =
          Store.attach
            ~mem:(Mc_core.Shared_memory.of_region region)
            ~alloc:(Mc_core.Ralloc_alloc.of_heap_with_arena heap arena)
            store_cfg ~ctrl
        in
        let tenants =
          (* Heaps flushed before multi-tenancy have no registry. *)
          match Ralloc.get_root heap root_tenants with
          | 0 ->
            let tblock =
              Ralloc.alloc heap (Tenant.size_for ~max:max_tenants)
            in
            let reg = Tenant.format region ~base:tblock ~max:max_tenants in
            Ralloc.set_root heap root_tenants tblock;
            reg
          | tblock -> Tenant.attach region ~base:tblock
        in
        (arena, store, tenants))
    in
    build_handle ~lib ~region ~heap ~arena ~store ~tenants ~path ~owner

  (* A client process links the library: the loader performs the euid
     dance to open the store file on the client's behalf (§3.3). *)
  let open_client t ~(process : Process.t) =
    Process.with_process process (fun () ->
      let region = Hodor.Loader.init_library t.lib ~store_path:t.path in
      assert (region == t.region))

  let library t = t.lib

  let path t = t.path

  let store t = t.store

  let heap t = t.heap

  let arena t = t.arena

  let region t = t.region

  (* ---- Post-crash forensics surface ----------------------------------

     [forensics] hands back the report stashed by the last recovery —
     or, when no recovery has run, a live analysis of the recorder
     (useful for inspecting a healthy store's recent activity).
     [doctor] renders it for humans, resolving tenant slots to names
     through the registry. *)

  let forensics t =
    match t.last_forensics with
    | Some r -> r
    | None -> Telemetry.Forensics.analyze ()

  let doctor t =
    let tenant_name slot =
      if slot >= 0 && slot < Tenant.max_tenants t.tenants
         && Region.kernel_mode (fun () -> Tenant.active t.tenants slot)
      then
        Printf.sprintf "%s (slot %d)"
          (Region.kernel_mode (fun () -> Tenant.name_of t.tenants slot))
          slot
      else Printf.sprintf "slot %d" slot
    in
    Telemetry.Forensics.render ~tenant_name (forensics t)

  let heap_report t =
    Region.kernel_mode (fun () -> Ralloc.render_heap_map t.heap)

  (* Allocate from the shared heap outside the store's own item path.
     The plain allocation is tried first, so the common case costs
     nothing extra; on a full heap, room is made the way the store's
     set path makes it — evict from the LRU cold ends, handing the
     freed blocks back to their superblocks so an emptied one can serve
     another class or a large block — and the allocation retried.
     Raises [Ralloc.Out_of_heap] once nothing is left to evict. *)
  let alloc_evicting t size =
    match Ralloc.alloc t.heap size with
    | off -> off
    | exception Ralloc.Out_of_heap ->
      let rec retry hint =
        if Store.evict_some t.store ~hint = 0 then raise Ralloc.Out_of_heap;
        Ralloc.flush_thread_cache t.heap;
        match Ralloc.alloc t.heap size with
        | off -> off
        | exception Ralloc.Out_of_heap -> retry (hint + 1)
      in
      retry 0

  (* ---- Figure 4's copy-in idiom ------------------------------------- *)

  (* Copy client-supplied bytes into a library-private Ralloc buffer
     before any shared state is touched; the returned string is the
     library's stable snapshot. *)
  let copy_in t (buf : bytes) : string =
    let len = Bytes.length buf in
    let prot = alloc_evicting t (max len 16) in
    Region.blit_from_bytes t.region ~src:buf ~src_off:0 ~dst_off:prot ~len;
    S.advance (CM.memcpy_cost len);
    let snapshot = Region.read_string t.region ~off:prot ~len in
    Ralloc.free t.heap prot;
    snapshot

  let enter t f = Hodor.Trampoline.call t.lib f

  (* Trace ingress on the client-facing surface: each public op mints a
     trace rooted at [plib.<op>] (or, when already under a server-drain
     trace, degrades to a child span). An exception on the way out
     drops the root — a failed call carries no latency worth
     attributing. *)
  let root_phase name = Telemetry.Span.phase ("plib." ^ name)

  let plib_get = root_phase "get"
  let plib_set = root_phase "set"
  let plib_delete = root_phase "delete"
  let plib_add = root_phase "add"
  let plib_replace = root_phase "replace"
  let plib_append = root_phase "append"
  let plib_prepend = root_phase "prepend"
  let plib_cas = root_phase "cas"
  let plib_incr = root_phase "incr"
  let plib_decr = root_phase "decr"
  let plib_touch = root_phase "touch"
  let plib_mget = root_phase "mget"
  let plib_batch = root_phase "batch"
  let plib_create_tenant = root_phase "create_tenant"
  let plib_tenant_get = root_phase "tenant_get"
  let plib_tenant_set = root_phase "tenant_set"
  let plib_tenant_delete = root_phase "tenant_delete"
  let plib_tenant_touch = root_phase "tenant_touch"
  let plib_tenant_flush = root_phase "tenant_flush"
  let plib_tenant_mget = root_phase "tenant_mget"

  let exec_phase = Telemetry.Span.phase "exec"

  let span_root phase f =
    let r = Telemetry.Span.ingress phase in
    match f () with
    | v ->
      Telemetry.Span.finish r;
      v
    | exception e ->
      Telemetry.Span.drop r;
      raise e

  (* ---- Raw (bytes-keyed) operations: the real protection boundary --- *)

  let get_raw t (key : bytes) =
    span_root plib_get @@ fun () ->
    Hodor.Trampoline.call_with_arg t.lib ~arg:key (fun key ->
      let key_prot = copy_in t key in
      Store.get t.store key_prot)

  let set_raw t ?(flags = 0) ?(exptime = 0) (key : bytes) (data : bytes) =
    span_root plib_set @@ fun () ->
    Hodor.Trampoline.call_with_args t.lib ~args:[ key; data ] (fun args ->
      match args with
      | [ key; data ] ->
        let key_prot = copy_in t key in
        let data_prot = copy_in t data in
        Store.set t.store ~flags ~exptime key_prot data_prot
      | _ -> assert false)

  let delete_raw t (key : bytes) =
    span_root plib_delete @@ fun () ->
    Hodor.Trampoline.call_with_arg t.lib ~arg:key (fun key ->
      let key_prot = copy_in t key in
      Store.delete t.store key_prot)

  (* ---- String-keyed operations (OCaml strings are immutable, so the
     copy is for cost and idiom fidelity) -------------------------------- *)

  let get t key =
    span_root plib_get @@ fun () ->
    enter t (fun () -> Store.get t.store (copy_in t (Bytes.unsafe_of_string key)))

  let set t ?(flags = 0) ?(exptime = 0) key data =
    span_root plib_set @@ fun () ->
    enter t (fun () ->
      let key_prot = copy_in t (Bytes.unsafe_of_string key) in
      Store.set t.store ~flags ~exptime key_prot data)

  let add t ?(flags = 0) ?(exptime = 0) key data =
    span_root plib_add @@ fun () ->
    enter t (fun () ->
      Store.add t.store ~flags ~exptime
        (copy_in t (Bytes.unsafe_of_string key))
        data)

  let replace t ?(flags = 0) ?(exptime = 0) key data =
    span_root plib_replace @@ fun () ->
    enter t (fun () ->
      Store.replace t.store ~flags ~exptime
        (copy_in t (Bytes.unsafe_of_string key))
        data)

  let append t key extra =
    span_root plib_append @@ fun () ->
    enter t (fun () ->
      Store.append t.store (copy_in t (Bytes.unsafe_of_string key)) extra)

  let prepend t key extra =
    span_root plib_prepend @@ fun () ->
    enter t (fun () ->
      Store.prepend t.store (copy_in t (Bytes.unsafe_of_string key)) extra)

  let cas t ?(flags = 0) ?(exptime = 0) ~cas key data =
    span_root plib_cas @@ fun () ->
    enter t (fun () ->
      Store.cas t.store ~flags ~exptime ~cas
        (copy_in t (Bytes.unsafe_of_string key))
        data)

  let delete t key =
    span_root plib_delete @@ fun () ->
    enter t (fun () -> Store.delete t.store (copy_in t (Bytes.unsafe_of_string key)))

  let incr t key delta =
    span_root plib_incr @@ fun () ->
    enter t (fun () ->
      Store.incr t.store (copy_in t (Bytes.unsafe_of_string key)) delta)

  let decr t key delta =
    span_root plib_decr @@ fun () ->
    enter t (fun () ->
      Store.decr t.store (copy_in t (Bytes.unsafe_of_string key)) delta)

  let touch t key exptime =
    span_root plib_touch @@ fun () ->
    enter t (fun () ->
      Store.touch t.store (copy_in t (Bytes.unsafe_of_string key)) exptime)

  (* ---- Batch plane: many operations, one crossing --------------------- *)

  (* Multi-get: the whole key list rides one trampoline crossing (one
     pkru swap pair, one stack note), keys are copied into the library
     domain first (Figure 4 idiom, before any lock), and the distinct
     item-lock stripes the keys hash to are taken once for the group —
     ascending, the creation-rank order lockdep demands. *)
  let mget t keys : (string * Mc_core.Store.get_result) list =
    match keys with
    | [] -> []
    | keys ->
      span_root plib_mget @@ fun () ->
      Hodor.Trampoline.call_batch t.lib ~ops:(List.length keys) (fun () ->
        let prot =
          List.map (fun k -> copy_in t (Bytes.unsafe_of_string k)) keys
        in
        (* With the seqlock read path on, an all-get group needs no
           stripes at all: each lookup validates against the version
           words, and the rare conflict falls back to per-op locking. *)
        let stripes =
          if (Store.config t.store).Mc_core.Store.optimistic_reads then []
          else
            List.sort_uniq compare (List.map (Store.stripe_of t.store) prot)
        in
        Store.with_stripes t.store ~stripes (fun () ->
          List.filter_map
            (fun key ->
              (* The batch fans out one [exec] child per op, so a trace
                 tree shows every key's lookup under one crossing. *)
              Telemetry.Span.around exec_phase (fun () ->
                Option.map (fun r -> (key, r)) (Store.get t.store key)))
            prot))

  (* A mixed batch for pipelining arbitrary operations through one
     crossing. Storage ops allocate (and may evict from arbitrary
     stripes), so a mixed batch keeps the ops' own internal locking;
     the crossing amortization is the win, the stripe-group
     amortization belongs to the uniform [mget]. *)
  type batch_op =
    | B_get of string
    | B_set of { b_key : string; b_data : string; b_flags : int;
                 b_exptime : int }
    | B_delete of string
    | B_touch of string * int

  type batch_result =
    | R_get of Mc_core.Store.get_result option
    | R_store of Mc_core.Store.store_result
    | R_found of bool

  let exec_op t = function
    | B_get k ->
      R_get (Store.get t.store (copy_in t (Bytes.unsafe_of_string k)))
    | B_set { b_key; b_data; b_flags; b_exptime } ->
      let key_prot = copy_in t (Bytes.unsafe_of_string b_key) in
      R_store (Store.set t.store ~flags:b_flags ~exptime:b_exptime key_prot
                 b_data)
    | B_delete k ->
      R_found (Store.delete t.store (copy_in t (Bytes.unsafe_of_string k)))
    | B_touch (k, e) ->
      R_found (Store.touch t.store (copy_in t (Bytes.unsafe_of_string k)) e)

  (* [on_op i r] fires after op [i] fully completed inside the library
     — an application-level ack. The crash sweep leans on it: if the
     calling thread dies mid-batch, every op that acked before the
     kill must still be readable after recovery (the batch's committed
     prefix), while the op in flight may have been torn and dropped. *)
  let batch ?on_op t (ops : batch_op list) : batch_result list =
    match ops with
    | [] -> []
    | ops ->
      span_root plib_batch @@ fun () ->
      Hodor.Trampoline.call_batch t.lib ~ops:(List.length ops) (fun () ->
        List.mapi
          (fun i op ->
            let r =
              Telemetry.Span.around exec_phase (fun () -> exec_op t op)
            in
            (match on_op with Some f -> f i r | None -> ());
            r)
          ops)

  let flush_all t = enter t (fun () -> Store.flush_all t.store)

  let stats t = enter t (fun () -> Store.stats t.store)

  let stats_items t = enter t (fun () -> Store.stats_items t.store)

  let stats_slabs t = enter t (fun () -> Store.stats_slabs t.store)

  let stats_reset t = enter t (fun () -> Store.stats_reset t.store)

  (* ---- Multi-tenant surface ------------------------------------------- *)

  (* A tenant-scoped operation is confined to its namespace {e by
     construction}: the connection- (or caller-)bound tenant slot
     picks the [<name>/] prefix host-side, before the key is even
     copied into the library, so no client-supplied byte sequence can
     address another tenant's items. The tenant's virtual pkey is its
     capability: every scoped op binds it under the caller's euid
     first — the bind is refused (Vpkey.Permission_denied) for anyone
     but the owner or root. *)

  let tenants t = t.tenants

  let vault t slot = Hashtbl.find_opt t.vaults slot

  let bind_capability t slot =
    let uid = Process.euid (Process.current ()) in
    (* The multiplexing (slot grab, re-tag) is kernel-side work, as in
       libmpk's kernel module; the ownership check runs regardless.
       Callers run this {e before} entering the crossing — a refusal
       is a clean Permission_denied at the door, never an in-call
       failure that would poison the shared library. *)
    Region.kernel_mode (fun () ->
      let vk = Tenant.vkey_of t.tenants slot in
      if vk <= 0 then invalid_arg "Plib: tenant has no vkey";
      ignore (Pku.Vpkey.bind ~owner:uid vk))

  let create_tenant t ~name ~uid ?(byte_quota = 0) ?(item_quota = 0) () =
    span_root plib_create_tenant @@ fun () ->
    enter t (fun () ->
      let slot =
        Tenant.register t.tenants ~name ~uid ~byte_quota ~item_quota
      in
      let vk = Pku.Vpkey.alloc ~owner:uid () in
      Tenant.set_vkey t.tenants slot vk;
      (* The tenant's vault: one page tagged through the vkey, proving
         the namespace's protection domain. Readable only under the
         owner's bound key; quarantined whenever the vkey loses its
         hardware slot. *)
      let vault =
        Region.kernel_mode (fun () ->
          Region.create
            ~name:(Printf.sprintf "%s!vault!%s" t.path name)
            ~size:Region.page_size ~pkey:Pku.Pkey.default ())
      in
      Pku.Vpkey.attach_retag vk (fun hw ->
        Region.kernel_mode (fun () ->
          Region.tag_range vault ~off:0 ~len:Region.page_size ~pkey:hw));
      Region.kernel_mode (fun () ->
        Region.write_string vault ~off:8 ("vault:" ^ name));
      Hashtbl.replace t.vaults slot vault;
      slot)

  let find_tenant t name = enter t (fun () -> Tenant.find t.tenants name)

  (* In-library bodies (callers hold the crossing and have bound the
     capability); shared by the scalar wrappers and the batch plane. *)

  let t_scope t slot key = Tenant.scope t.tenants slot key

  let t_prefix_pred t slot =
    let p = Tenant.prefix t.tenants slot in
    fun key -> String.starts_with ~prefix:p key

  (* Breadcrumb bracket for tenant-scoped bodies: a kill inside the op
     leaves [Tenant_scope slot] as the lane's last tenant record, so
     the forensic report names the tenant; on normal completion the
     unscope crumb clears the attribution. (An abrupt kill abandons the
     thread at a sync point — the finally never runs, which is the
     point.) *)
  let t_crumb slot f =
    Telemetry.Flight.record Telemetry.Flight.Tenant_scope ~a:slot ~b:0 ~c:0;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Flight.record Telemetry.Flight.Tenant_unscope ~a:slot ~b:0
          ~c:0)
      f

  let t_get_in t slot key =
    t_crumb slot @@ fun () ->
    let k = copy_in t (Bytes.unsafe_of_string (t_scope t slot key)) in
    Tenant.bump t.tenants slot Tenant.Cmd_get;
    match Store.get t.store k with
    | Some r ->
      Tenant.bump t.tenants slot Tenant.Get_hits;
      Some r
    | None -> None

  let t_set_in t slot ?(flags = 0) ?(exptime = 0) key data =
    t_crumb slot @@ fun () ->
    let reg = t.tenants in
    let k = copy_in t (Bytes.unsafe_of_string (t_scope t slot key)) in
    let new_bytes = String.length k + String.length data in
    (* Quota discipline: a full tenant evicts only its own items —
       the eviction pass walks the tenant's LRU list under its prefix
       predicate, never touching a neighbour's. *)
    let rec room tries =
      let old = Store.probe t.store k in
      let add_bytes = new_bytes - Option.value old ~default:0 in
      let add_items = if old = None then 1 else 0 in
      if not (Tenant.would_exceed reg slot ~add_bytes ~add_items) then
        `Fit old
      else if tries = 0 then `Full
      else if
        Store.evict_some_matching t.store ~lru:slot
          ~pred:(t_prefix_pred t slot)
        > 0
      then room (tries - 1)
      else `Full
    in
    match room 64 with
    | `Full -> Mc_core.Store.No_memory
    | `Fit old ->
      Tenant.bump reg slot Tenant.Cmd_set;
      (match Store.set t.store ~flags ~exptime k data with
       | Mc_core.Store.Stored as r ->
         Tenant.charge reg slot
           ~bytes:(new_bytes - Option.value old ~default:0)
           ~items:(if old = None then 1 else 0);
         r
       | r -> r)

  let t_delete_in t slot key =
    t_crumb slot @@ fun () ->
    let k = copy_in t (Bytes.unsafe_of_string (t_scope t slot key)) in
    let old = Store.probe t.store k in
    let ok = Store.delete t.store k in
    (match old with
     | Some b when ok ->
       Tenant.charge t.tenants slot ~bytes:(-b) ~items:(-1)
     | _ -> ());
    ok

  let t_touch_in t slot key exptime =
    t_crumb slot @@ fun () ->
    Store.touch t.store
      (copy_in t (Bytes.unsafe_of_string (t_scope t slot key)))
      exptime

  (* Tenant-scoped flush: only the tenant's own namespace is swept —
     tenant A's flush storm cannot take tenant B's acked writes. *)
  let t_flush_in t slot =
    t_crumb slot @@ fun () ->
    let reg = t.tenants in
    let pred = t_prefix_pred t slot in
    let keys =
      Store.fold_keys t.store
        (fun acc key ~nbytes:_ ~exptime:_ ->
          if pred key then key :: acc else acc)
        []
    in
    List.iter
      (fun k ->
        let old = Store.probe t.store k in
        if Store.delete t.store k then
          match old with
          | Some b -> Tenant.charge reg slot ~bytes:(-b) ~items:(-1)
          | None -> ())
      keys;
    List.length keys

  let tenant_get t slot key =
    span_root plib_tenant_get @@ fun () ->
    bind_capability t slot;
    enter t (fun () ->
      t_get_in t slot key)

  let tenant_set t slot ?flags ?exptime key data =
    span_root plib_tenant_set @@ fun () ->
    bind_capability t slot;
    enter t (fun () ->
      t_set_in t slot ?flags ?exptime key data)

  let tenant_delete t slot key =
    span_root plib_tenant_delete @@ fun () ->
    bind_capability t slot;
    enter t (fun () ->
      t_delete_in t slot key)

  let tenant_touch t slot key exptime =
    span_root plib_tenant_touch @@ fun () ->
    bind_capability t slot;
    enter t (fun () ->
      t_touch_in t slot key exptime)

  let tenant_flush t slot =
    span_root plib_tenant_flush @@ fun () ->
    bind_capability t slot;
    enter t (fun () ->
      t_flush_in t slot)

  let tenant_usage t slot =
    enter t (fun () ->
      (Tenant.bytes_used t.tenants slot, Tenant.items_used t.tenants slot))

  let stats_tenants t = enter t (fun () -> Tenant.stats_kvs t.tenants)

  (* Tenant-scoped multi-get: same one-crossing, stripe-group (or
     seqlock) plan as {!mget}, over scoped keys — the optimistic read
     path stays inside the namespace because the scoped key {e is} the
     lookup key. *)
  let tenant_mget t slot keys =
    match keys with
    | [] -> []
    | keys ->
      span_root plib_tenant_mget @@ fun () ->
      bind_capability t slot;
      Hodor.Trampoline.call_batch t.lib ~ops:(List.length keys) (fun () ->
        t_crumb slot @@ fun () ->
        let prot =
          List.map
            (fun k ->
              (k, copy_in t (Bytes.unsafe_of_string (t_scope t slot k))))
            keys
        in
        let stripes =
          if (Store.config t.store).Mc_core.Store.optimistic_reads then []
          else
            List.sort_uniq compare
              (List.map (fun (_, k) -> Store.stripe_of t.store k) prot)
        in
        Store.with_stripes t.store ~stripes (fun () ->
          List.filter_map
            (fun (orig, key) ->
              Telemetry.Span.around exec_phase (fun () ->
                Tenant.bump t.tenants slot Tenant.Cmd_get;
                match Store.get t.store key with
                | Some r ->
                  Tenant.bump t.tenants slot Tenant.Get_hits;
                  Some (orig, r)
                | None -> None))
            prot))

  (* ---- Bookkeeping process duties ------------------------------------ *)

  (* Intermittent cleaning (§3.2): run in the bookkeeping process. *)
  let start_cleaner ?(interval_ns = 1_000_000) t =
    match t.cleaner with
    | Some _ -> ()
    | None ->
      Atomic.set t.stop_cleaner false;
      let th =
        S.spawn ~name:"memcached-bk.cleaner" (fun () ->
          Process.with_process t.owner (fun () ->
            while not (Atomic.get t.stop_cleaner) do
              enter t (fun () ->
                Store.maintain t.store;
                ignore (Store.reap_expired t.store);
                ignore (Store.maybe_resize t.store));
              S.sleep_ns interval_ns
            done))
      in
      t.cleaner <- Some th

  let stop_cleaner t =
    match t.cleaner with
    | None -> ()
    | Some th ->
      Atomic.set t.stop_cleaner true;
      S.join th;
      t.cleaner <- None

  let maintain t = enter t (fun () -> Store.maintain t.store)

  (* Post-kill repair (bookkeeping process, at quiescence): releases
     dead threads' locks, drops torn items, reclaims their memory and
     re-admits callers. Safe to run even when no trampoline observed
     the kill (the library is still [Healthy]). *)
  let recover t = Hodor.Library.recover t.lib

  (* Table resize (the paper's background process had this disabled;
     see Store.resize). Run by the bookkeeping process. *)
  let resize t = enter t (fun () -> Store.resize t.store)

  let maybe_resize ?lf t = enter t (fun () -> Store.maybe_resize ?lf t.store)

  let fold_keys t f init = enter t (fun () -> Store.fold_keys t.store f init)

  let reap_expired ?limit t =
    enter t (fun () -> Store.reap_expired ?limit t.store)

  (* ---- The hybrid deployment of §6 -----------------------------------

     "There is no reason ... not to allow the memcached background
     process to provide a socket-based interface for remote clients
     while still permitting local clients to use the Hodor interface."
     The bookkeeping process serves its own shared store over sockets;
     its worker threads enter the store through the same trampolines
     as any local client, so the protection story is unchanged. *)

  module Remote = Mc_server.Server.Make_hybrid (S)

  (* ---- Shared-ring transport (the heap-owner side) -------------------

     Ring mode replaces the per-message socket hand-off with
     per-connection submission/completion rings carved out of this
     same shared heap: the client enqueues into pages sealed under a
     connection-private vkey (it can fill its own rings, never touch
     library state or a neighbour's rings), and the server drains
     whole windows through one batch crossing. The pairs are recorded
     in the [root_rings] directory so the recovery protocol finds
     them. *)

  let ring_dir t =
    Region.kernel_mode (fun () ->
      match Ralloc.get_root t.heap root_rings with
      | 0 ->
        let dir = Ralloc.alloc t.heap (max_ring_conns * ring_dir_row) in
        Region.fill t.region ~off:dir ~len:(max_ring_conns * ring_dir_row)
          '\000';
        Ralloc.set_root t.heap root_rings dir;
        dir
      | dir -> dir)

  let ring_ctx t (rcfg : Mc_server.Server.ring_config) : Remote.ring_ctx =
    let dir = ring_dir t in
    let page = Region.page_size in
    (* page-rounded per ring so the pair's pages can be sealed under
       the connection's vkey without touching heap neighbours; the
       allocation is padded by one page because Ralloc block starts
       are not page-aligned *)
    let span =
      let b =
        Transport.Ring.bytes_for ~slots:rcfg.r_slots
          ~slot_bytes:rcfg.r_slot_bytes
      in
      (b + page - 1) / page * page
    in
    (* A connection whose ring pair finds no room even after eviction
       is refused: the client's connect fails and the acceptor carries
       on with the next one. *)
    let rc_alloc cid =
      Region.kernel_mode (fun () ->
        let block =
          match alloc_evicting t ((2 * span) + page) with
          | block -> block
          | exception Ralloc.Out_of_heap ->
            Telemetry.Trace.emit ~sev:Telemetry.Trace.Warn ~subsys:"transport"
              (Printf.sprintf "ring connection %d refused: heap full" cid);
            raise Remote.T.Refused
        in
        let sub_base = (block + page - 1) / page * page in
        let comp_base = sub_base + span in
        let sub =
          Transport.Ring.init t.region ~base:sub_base ~slots:rcfg.r_slots
            ~slot_bytes:rcfg.r_slot_bytes
        in
        let comp =
          Transport.Ring.init t.region ~base:comp_base ~slots:rcfg.r_slots
            ~slot_bytes:rcfg.r_slot_bytes
        in
        (* owner 0: any process of this simulation may bind — the
           capability is the vkey id held in the connection object,
           private to the two endpoints *)
        let vk = Pku.Vpkey.alloc () in
        Pku.Vpkey.attach_retag vk (fun hw ->
          Region.kernel_mode (fun () ->
            Region.tag_range t.region ~off:sub_base ~len:(2 * span) ~pkey:hw));
        let row =
          let rec scan i =
            if i >= max_ring_conns then
              invalid_arg "Plib: ring directory full"
            else if Region.read_i64 t.region (dir + (i * ring_dir_row)) = 0
            then dir + (i * ring_dir_row)
            else scan (i + 1)
          in
          scan 0
        in
        Region.write_i64 t.region (row + 8) cid;
        Region.write_i64 t.region (row + 16) block;
        Region.write_i64 t.region (row + 24) sub_base;
        Region.write_i64 t.region (row + 32) comp_base;
        Region.write_i64 t.region row 1 (* in_use last *);
        { Remote.T.ra_sub = sub; ra_comp = comp; ra_vkey = vk })
    in
    let rc_free cid (ra : Remote.T.ring_attach) =
      Region.kernel_mode (fun () ->
        let rec scan i =
          if i >= max_ring_conns then ()
          else
            let row = dir + (i * ring_dir_row) in
            if
              Region.read_i64 t.region row <> 0
              && Region.read_i64 t.region (row + 8) = cid
            then begin
              let block = Region.read_i64 t.region (row + 16) in
              let sub_base = Region.read_i64 t.region (row + 24) in
              Region.write_i64 t.region row 0 (* in_use first *);
              (* retire the vkey (quarantines the pages), hand them
                 back to the library's own key, free the block *)
              Pku.Vpkey.free ra.Remote.T.ra_vkey;
              Region.tag_range t.region ~off:sub_base ~len:(2 * span)
                ~pkey:(Hodor.Library.pkey t.lib);
              Ralloc.free t.heap block
            end
            else scan (i + 1)
        in
        scan 0)
    in
    { Remote.rc_cfg = rcfg; rc_alloc; rc_free }

  let serve_remote ?(cfg = Mc_server.Server.default_config) ?assign_tenant
      ?rings t ~name =
    let wrap =
      { Mc_server.Server.wrap =
          (fun ~ops f ->
            Process.with_process t.owner (fun () ->
              Hodor.Trampoline.call_batch t.lib ~ops f)) }
    in
    let ring_ctx = Option.map (ring_ctx t) rings in
    Remote.start_with ~cfg:{ cfg with store = Store.config t.store } ~wrap
      ?assign_tenant ?ring_ctx ~store:t.store ~name ()

  let stop_remote srv = Remote.stop srv

  (* Shutdown (§3.2): flush all updates back to the underlying file so
     a restarted store comes up with its contents intact. *)
  let shutdown t ~disk_path =
    stop_cleaner t;
    Region.kernel_mode (fun () -> Store.detach t.store);
    Ralloc.flush t.heap ~path:disk_path;
    Simos.Sim_fs.unlink t.path;
    (* Releasing detaches the process-wide hooks and backends that
       point into this heap (see [build_handle]); the counter cells and
       the flight-recorder block were flushed with the heap and
       reappear on restart. *)
    Hodor.Library.release t.lib
end
