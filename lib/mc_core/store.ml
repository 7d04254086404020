(** The memcached store: hash table, LRU lists, statistics, eviction.

    One implementation serves both builds of the paper:
    - baseline: [Make (Private_memory) (Slab) (Real_sync or Vm.Sync)] —
      the socket server's private store;
    - protected library: [Make (Shared_memory) (Ralloc_alloc) (...)] —
      items, buckets and LRU links all live in the shared Ralloc heap
      as position-independent pointers, and client threads run these
      functions themselves through Hodor trampolines.

    Concurrency mirrors memcached: a striped array of item locks keyed
    by key hash guards hash chains, item state and refcounts; each LRU
    list has its own lock (the paper's [lru_locks], chosen by key hash
    — §3.2); statistics are scattered over per-thread slots (§3.2).
    Lock order is always item lock, then LRU lock.

    CPU costs are charged through [S.advance] at the points where the
    work happens, so critical-section lengths — and therefore contention
    in the virtual-time benchmarks — reflect the modeled machine. *)

module CM = Platform.Cost_model

module Layout = struct
  (* Item header; key bytes follow at [header_size], value after them. *)
  let it_h_next = 0 (* ptr: hash chain *)
  let it_lru_next = 8 (* ptr *)
  let it_lru_prev = 16 (* ptr *)
  let it_cas = 24 (* i64 *)
  let it_exptime = 32 (* i32, unix seconds; 0 = never *)
  let it_flags = 36 (* i32, client-opaque *)
  let it_nkey = 40 (* i32 *)
  let it_nbytes = 44 (* i32 *)
  let it_refcount = 48 (* i32 *)
  let it_lru_id = 52 (* i32 *)
  let it_state = 56 (* i32: bit 1 linked, bit 2 fetched *)
  let it_hash = 60 (* i32 *)
  let it_time = 64 (* i64, ns timestamp of last store *)
  let header_size = 80

  let state_linked = 1

  let state_fetched = 2

  (* Store control block, anchored by a persistent root in the plib
     build (the paper's Figure 3 idiom lives in Core.Plib_store). *)
  let ctl_hashpower = 0
  let ctl_lru_count = 8
  let ctl_stats_slots = 16
  let ctl_cas = 24 (* persisted high-water CAS, written on detach *)
  let ctl_buckets = 32 (* ptr *)
  let ctl_lru = 40 (* ptr *)
  let ctl_stats = 48 (* ptr *)
  let ctl_oldest_live = 56 (* i64 ns: flush_all watermark *)
  let ctl_lock_count = 64
  (* Stripe count is part of the persistent geometry: the seqlock
     word array below is indexed by stripe, so an attacher must use
     the creator's stripe mapping, not its own config's. *)
  let ctl_seqs = 72 (* ptr: per-stripe seqlock version words *)
  let ctl_size = 80
end

type config = {
  hashpower : int;  (** 2^hashpower buckets *)
  lock_count : int;  (** item-lock stripes (power of two) *)
  lru_count : int;  (** number of LRU lists (ablation abl1 uses 1) *)
  stats_slots : int;  (** scattered statistics slots *)
  single_stats_lock : bool;  (** ablation abl2: one lock, one slot *)
  lru_by_size_class : bool;
  (** baseline behaviour: LRU list per allocation size class; the plib
      build chooses by key hash (§3.2) *)
  evict_batch : int;
  bump_interval_s : int;
  (** a get skips the LRU bump (and its lock) when the item already
      moved within this many seconds — memcached's rate-limiting that
      keeps hot keys off the LRU lock; [0] bumps on every hit *)
  optimistic_reads : bool;
  (** seqlock read path: a get snapshots the item without the stripe
      lock and validates against the stripe's version word, falling
      back to the locked path on conflict or when the hit needs a
      side effect (LRU bump, expiry unlink) *)
  opt_max_retries : int;
  (** snapshot attempts before an optimistic get gives up and takes
      the stripe lock *)
}

let default_config =
  { hashpower = 16; lock_count = 1024; lru_count = 64; stats_slots = 64;
    single_stats_lock = false; lru_by_size_class = false; evict_batch = 8;
    bump_interval_s = 60; optimistic_reads = true; opt_max_retries = 3 }

type store_result = Stored | Not_stored | Exists | Not_found | No_memory

type get_result = { value : string; flags : int; cas : int64 }

type counter_result = Counter of int64 | Counter_not_found | Non_numeric

(* Statistics counter indices within a slot. *)
module C = struct
  let get_hits = 0
  let get_misses = 1
  let cmd_set = 2
  let delete_hits = 3
  let delete_misses = 4
  let incr_hits = 5
  let incr_misses = 6
  let evictions = 7
  let expired = 8
  let curr_items = 9 (* net links - unlinks *)
  let total_items = 10
  let cas_hits = 11
  let cas_badval = 12
  let cas_misses = 13
  let touch_hits = 14
  let touch_misses = 15
  let cmd_get = 16
  let count = 17
end

(* Span phases of the store's op body and its stripe locking. *)
let store_phase = Telemetry.Span.phase "store"

let stripe_wait_phase = Telemetry.Span.phase "stripe_wait"

let stripe_hold_phase = Telemetry.Span.phase "stripe_hold"

(* Mirror of each store counter in the telemetry subsystem, or -1 for
   gauges (curr_items) that only the store tracks. Keeping the two in
   step lets `stats` report boundary and store counters from one place
   and lets the crash sweep cross-check them. *)
let telemetry_id =
  let module T = Telemetry.Counters.Id in
  [| T.get_hits; T.get_misses; T.cmd_set; T.delete_hits; T.delete_misses;
     T.incr_hits; T.incr_misses; T.evictions; T.expired_unfetched; -1;
     T.total_items; T.cas_hits; T.cas_badval; T.cas_misses; T.touch_hits;
     T.touch_misses; T.cmd_get |]

(* Stripes a thread already holds through [with_stripes], and the
   acquisitions it has open for the contention profiler. This state
   lives OUTSIDE the functor: OCaml functors are applicative, so the
   same store handle flows between two instantiations of [Make] (the
   protected-library layer builds one, the server's executor another),
   and stripe reentrancy is a property of the physical handle, not of
   whichever module happens to touch it. A per-instantiation Tls key
   would make [holds_stripe] blind to stripes pinned through the other
   instance — a self-deadlock when, say, the quota gate probes a key
   whose stripe the batch executor already groups. Entries are keyed by
   the handle's physical identity. *)
let held_stripes : (Obj.t * int) list ref Tls.key =
  Tls.new_key (fun () -> ref [])

type hold_entry = {
  he_store : Obj.t;
  he_stripe : int;
  he_wait_ns : int;
  he_since : int;
  he_span : Telemetry.Span.t;
}

let open_holds : hold_entry list ref Tls.key = Tls.new_key (fun () -> ref [])

(* Stripes this thread currently holds, across both acquisition paths
   (per-op [lock_item] and grouped [with_stripes]) and across every
   store handle. This is the ground truth the crash sweep captures at
   the kill instant and checks the flight recorder's story against. *)
let holding_stripes_now () =
  List.length !(Tls.get open_holds) + List.length !(Tls.get held_stripes)

module Make
    (M : Memory_intf.MEMORY)
    (A : Memory_intf.ALLOCATOR)
    (S : Platform.Sync_intf.S) =
struct
  open Layout

  type t = {
    mem : M.t;
    alloc : A.t;
    mutable cfg : config;
    ctrl : int;
    mutable buckets : int;
    lru : int;
    stats : int;
    seqs : int;  (* per-stripe seqlock version words (even = free) *)
    item_locks : S.mutex array;
    lru_locks : S.mutex array;
    mutable stats_mutex : S.mutex;
    cas_src : int64 Atomic.t;
    active : int Atomic.t;  (* threads currently executing a store op *)
    mutable hash_mask : int;
    lock_mask : int;
    (* Host-side policy hooks (not persisted; reinstalled by whoever
       owns the store after attach/recover). [lru_selector key] picks
       the LRU list for a key — the tenant layer routes each tenant's
       items onto its own list(s); [None] falls back to the built-in
       hash/size-class policy. [evict_hook] fires once per item
       reclaimed by eviction or expiry reaping (not by client deletes
       or replacement), so an accounting layer can credit usage. *)
    mutable lru_selector : (string -> int option) option;
    mutable evict_hook : (key:string -> bytes:int -> unit) option;
  }

  let adv = S.advance

  (* Concurrency-dependent cost: every additional thread concurrently
     inside the store adds coherence/contention traffic to this op.
     Saturates at the machine's hardware-context count. *)
  let op_enter t =
    let others = Atomic.fetch_and_add t.active 1 in
    adv (CM.current.coherence_ns * min others 19)

  let op_exit t = Atomic.decr t.active

  let with_op t f =
    op_enter t;
    (* One [store] span per op body. Host-side only, like every span:
       the cost model sees identical latencies with tracing off. *)
    let sp = Telemetry.Span.start store_phase in
    let r =
      try f ()
      with e ->
        Telemetry.Span.finish sp;
        op_exit t;
        raise e
    in
    Telemetry.Span.finish sp;
    op_exit t;
    r

  let rd32 t off = M.read_i32 t.mem off

  let wr32 t off v = M.write_i32 t.mem off v

  let rd64 t off = M.read_i64 t.mem off

  let wr64 t off v = M.write_i64 t.mem off v

  (* Full-width 64-bit accessors: CAS values are unsigned and must not
     round-trip through the native 63-bit int — a CAS with the top
     bits set would otherwise truncate on read and false-match under
     [P_cas]. *)
  let rd64r t off = M.read_i64_raw t.mem off

  let wr64r t off v = M.write_i64_raw t.mem off v

  let ldp t at = M.load_ptr t.mem ~at

  let stp t at v = M.store_ptr t.mem ~at v

  let now_sec () = S.now_ns () / 1_000_000_000

  (* ---- Construction -------------------------------------------------- *)

  let alloc_exn alloc size what =
    let off = A.alloc alloc size in
    if off = 0 then failwith ("Store: no memory for " ^ what);
    off

  let zero_range t off len =
    let words = len / 8 in
    for i = 0 to words - 1 do
      wr64 t (off + (8 * i)) 0
    done

  let runtime ~mem ~alloc (cfg : config) ~ctrl ~buckets ~lru ~stats ~seqs =
    if cfg.lock_count land (cfg.lock_count - 1) <> 0 then
      invalid_arg "Store: lock_count must be a power of two";
    { mem; alloc; cfg; ctrl; buckets; lru; stats; seqs;
      item_locks =
        Array.init cfg.lock_count (fun _ -> S.mutex ~cls:"store.item" ());
      lru_locks =
        Array.init cfg.lru_count (fun _ -> S.mutex ~cls:"store.lru" ());
      stats_mutex = S.mutex ~cls:"store.stats" ();
      cas_src = Atomic.make 1L;
      active = Atomic.make 0;
      hash_mask = (1 lsl cfg.hashpower) - 1;
      lock_mask = cfg.lock_count - 1;
      lru_selector = None;
      evict_hook = None }

  let create ~mem ~alloc (cfg : config) =
    (* Allocate the five shared structures. *)
    let ctrl = alloc_exn alloc ctl_size "control block" in
    let nbuckets = 1 lsl cfg.hashpower in
    let buckets = alloc_exn alloc (8 * nbuckets) "bucket table" in
    let lru = alloc_exn alloc (16 * cfg.lru_count) "lru table" in
    let stats = alloc_exn alloc (8 * C.count * cfg.stats_slots) "stats area" in
    let seqs = alloc_exn alloc (8 * cfg.lock_count) "seqlock words" in
    let t = runtime ~mem ~alloc cfg ~ctrl ~buckets ~lru ~stats ~seqs in
    zero_range t buckets (8 * nbuckets);
    zero_range t lru (16 * cfg.lru_count);
    zero_range t stats (8 * C.count * cfg.stats_slots);
    zero_range t seqs (8 * cfg.lock_count);
    wr64 t (ctrl + ctl_hashpower) cfg.hashpower;
    wr64 t (ctrl + ctl_lru_count) cfg.lru_count;
    wr64 t (ctrl + ctl_stats_slots) cfg.stats_slots;
    wr64r t (ctrl + ctl_cas) 1L;
    stp t (ctrl + ctl_buckets) buckets;
    stp t (ctrl + ctl_lru) lru;
    stp t (ctrl + ctl_stats) stats;
    wr64 t (ctrl + ctl_oldest_live) 0;
    wr64 t (ctrl + ctl_lock_count) cfg.lock_count;
    stp t (ctrl + ctl_seqs) seqs;
    t

  (* Reattach to a store found through a persistent root: geometry is
     read back from the control block (Figure 3's extra indirection is
     handled by the caller, who stores the ctrl offset behind a root). *)
  let attach ~mem ~alloc (cfg : config) ~ctrl =
    let probe =
      runtime ~mem ~alloc cfg ~ctrl ~buckets:0 ~lru:0 ~stats:0 ~seqs:0
    in
    let cfg =
      { cfg with
        hashpower = rd64 probe (ctrl + ctl_hashpower);
        lru_count = rd64 probe (ctrl + ctl_lru_count);
        stats_slots = rd64 probe (ctrl + ctl_stats_slots);
        lock_count = rd64 probe (ctrl + ctl_lock_count) }
    in
    let t =
      runtime ~mem ~alloc cfg ~ctrl
        ~buckets:(ldp probe (ctrl + ctl_buckets))
        ~lru:(ldp probe (ctrl + ctl_lru))
        ~stats:(ldp probe (ctrl + ctl_stats))
        ~seqs:(ldp probe (ctrl + ctl_seqs))
    in
    Atomic.set t.cas_src (rd64r t (ctrl + ctl_cas));
    t

  (* Persist volatile high-water marks (clean shutdown). *)
  let detach t = wr64r t (t.ctrl + ctl_cas) (Atomic.get t.cas_src)

  let ctrl_off t = t.ctrl

  let config t = t.cfg

  (* ---- Statistics ------------------------------------------------------ *)

  let stat_add t ctr v =
    adv CM.current.stats_update;
    (* Telemetry mirror: host-side only, no [adv] — with telemetry off
       this is one ref read, so the cost model is unchanged. *)
    if v > 0 && Telemetry.Control.on () && telemetry_id.(ctr) >= 0 then
      Telemetry.Counters.add telemetry_id.(ctr) v;
    if t.cfg.single_stats_lock then begin
      (* One global lock means one globally hot cache line: every
         acquisition under concurrency pays the line transfer. This is
         the contention that made the paper scatter its statistics. *)
      if Atomic.get t.active > 1 then adv CM.current.lock_handoff;
      S.lock t.stats_mutex;
      let off = t.stats + (8 * ctr) in
      wr64 t off (rd64 t off + v);
      S.unlock t.stats_mutex
    end
    else begin
      let slot = S.self_id () mod t.cfg.stats_slots in
      let off = t.stats + (8 * ((slot * C.count) + ctr)) in
      wr64 t off (rd64 t off + v)
    end

  let stat t ctr = stat_add t ctr 1

  let stat_sum t ctr =
    let sum = ref 0 in
    for slot = 0 to t.cfg.stats_slots - 1 do
      sum := !sum + rd64 t (t.stats + (8 * ((slot * C.count) + ctr)))
    done;
    !sum

  (* ---- Locks ------------------------------------------------------------ *)

  let item_mutex t h = t.item_locks.((h lsr 8) land t.lock_mask)

  let stripe_index t h = (h lsr 8) land t.lock_mask

  let stripe_of t key = stripe_index t (Hash.murmur3_32 key)

  let stripe_count t = t.lock_mask + 1

  (* ---- Seqlock version words --------------------------------------------
     One word per stripe, in shared memory next to the structures it
     versions. Discipline: every stripe acquisition bumps the word to
     odd on acquire and back to even on release, so a word is odd
     exactly while some thread may be mutating the stripe's chains.
     An optimistic reader snapshots item fields with no lock, then
     revalidates: if the word was odd at the start, or changed by the
     end, the snapshot may be torn and is discarded. Writers bump
     under the stripe lock, so the two increments need no atomicity of
     their own. Bumping costs no modeled time: it rides on the cache
     line the lock acquisition already paid for. *)

  let seq_off t s = t.seqs + (8 * s)

  let seq_bump t s = wr64 t (seq_off t s) (rd64 t (seq_off t s) + 1)

  let seq_read t s = rd64 t (seq_off t s)

  (* [held_stripes]/[open_holds] live at module level (above [Make]):
     the per-op [lock_item]/[unlock_item] inside a grouped batch become
     no-ops for stripes the thread pinned through [with_stripes], even
     when the pin went through a different instantiation of this
     functor. Handles are compared physically — two stores may coexist
     in one process (tests attach twice), and their stripe indices must
     not alias. *)
  let holds_stripe t s =
    let t = Obj.repr t in
    List.exists (fun (t', s') -> t' == t && s' = s) !(Tls.get held_stripes)

  let lock_item t h =
    if not (holds_stripe t (stripe_index t h)) then begin
      adv CM.current.lock_uncontended;
      (* [stripe_wait] covers only the blocking acquire: under the Vm
         it is nonzero exactly when another thread held the stripe. *)
      let wsp = Telemetry.Span.start stripe_wait_phase in
      let t0 = S.now_ns () in
      S.lock (item_mutex t h);
      seq_bump t (stripe_index t h);
      let t1 = S.now_ns () in
      Telemetry.Span.finish wsp;
      let holds = Tls.get open_holds in
      holds :=
        { he_store = Obj.repr t; he_stripe = stripe_index t h;
          he_wait_ns = t1 - t0; he_since = t1;
          he_span = Telemetry.Span.start stripe_hold_phase }
        :: !holds;
      (* Same sync-free region as the hold registration: the recorder
         and [holding_stripes_now] move atomically past a kill. *)
      Telemetry.Flight.record Telemetry.Flight.Stripe_acquire
        ~a:(holding_stripes_now ()) ~b:(stripe_index t h) ~c:0
    end

  let unlock_item t h =
    if not (holds_stripe t (stripe_index t h)) then begin
      let s = stripe_index t h in
      let holds = Tls.get open_holds in
      (let rec pop acc = function
         | [] -> ()
         | e :: tl when e.he_store == Obj.repr t && e.he_stripe = s ->
           holds := List.rev_append acc tl;
           Telemetry.Span.finish e.he_span;
           Telemetry.Contention.record ~stripe:s ~wait_ns:e.he_wait_ns
             ~hold_ns:(S.now_ns () - e.he_since)
         | e :: tl -> pop (e :: acc) tl
       in
       pop [] !holds);
      Telemetry.Flight.record Telemetry.Flight.Stripe_release
        ~a:(holding_stripes_now ()) ~b:s ~c:0;
      seq_bump t s;
      S.unlock (item_mutex t h)
    end

  (* Acquire a group of item-lock stripes for the duration of [f],
     in exactly the order given. Stripe mutexes share the lockdep
     class "store.item", whose rank is creation order — ascending
     stripe index. The caller must therefore pass [stripes] sorted
     ascending and duplicate-free; an inverted order is a lockdep
     violation (and the batch-plane test asserts it goes red).
     Released in reverse order between groups, exception-safe. *)
  let with_stripes t ~stripes f =
    let held = Tls.get held_stripes in
    let acquired = ref [] in
    (* Per-stripe waits collected under one group [stripe_wait] span;
       the hold side is one [stripe_hold] span for the whole group,
       and each stripe is charged the group's hold duration in the
       contention profiler (it was pinned that long). *)
    let waits = ref [] in
    let hold_span = ref Telemetry.Span.null in
    let hold_since = ref 0 in
    let release () =
      Telemetry.Span.finish !hold_span;
      hold_span := Telemetry.Span.null;
      let hold_ns = S.now_ns () - !hold_since in
      List.iter
        (fun s ->
          held :=
            (let rec rm = function
               | [] -> []
               | (t', s') :: tl when t' == Obj.repr t && s' = s -> tl
               | p :: tl -> p :: rm tl
             in
             rm !held);
          let wait_ns =
            match List.assoc_opt s !waits with Some w -> w | None -> 0
          in
          Telemetry.Contention.record ~stripe:s ~wait_ns ~hold_ns;
          Telemetry.Flight.record Telemetry.Flight.Stripe_release
            ~a:(holding_stripes_now ()) ~b:s ~c:0;
          seq_bump t s;
          S.unlock t.item_locks.(s))
        !acquired
    in
    let wsp = Telemetry.Span.start stripe_wait_phase in
    (try
       List.iter
         (fun s ->
           if holds_stripe t s then
             invalid_arg "Store.with_stripes: stripe already held";
           adv CM.current.lock_uncontended;
           let t0 = S.now_ns () in
           S.lock t.item_locks.(s);
           seq_bump t s;
           waits := (s, S.now_ns () - t0) :: !waits;
           acquired := s :: !acquired;
           held := (Obj.repr t, s) :: !held;
           (* Per stripe, not once per group: a kill between two of
              the group's acquisitions must still find the stripes
              already pinned on the record. *)
           Telemetry.Flight.record Telemetry.Flight.Stripe_acquire
             ~a:(holding_stripes_now ()) ~b:s ~c:0)
         stripes
     with e ->
       Telemetry.Span.finish wsp;
       release ();
       raise e);
    Telemetry.Span.finish wsp;
    hold_span := Telemetry.Span.start stripe_hold_phase;
    hold_since := S.now_ns ();
    match f () with
    | v ->
      release ();
      v
    | exception e ->
      release ();
      raise e

  let lock_lru t l =
    adv CM.current.lock_uncontended;
    S.lock t.lru_locks.(l)

  let unlock_lru t l = S.unlock t.lru_locks.(l)

  (* Stop-the-world (resize, fold_keys): every stripe, in index order,
     with the seq words bumped like any other acquisition so
     optimistic readers cannot snapshot mid-migration. *)
  let lock_all_stripes t =
    Array.iteri
      (fun s m ->
        S.lock m;
        seq_bump t s)
      t.item_locks

  let unlock_all_stripes t =
    Array.iteri
      (fun s m ->
        seq_bump t s;
        S.unlock m)
      t.item_locks

  (* ---- Item helpers (caller holds the item lock) ------------------------- *)

  let bucket_of t h = t.buckets + (8 * (h land t.hash_mask))

  let lru_head t l = t.lru + (16 * l)

  let lru_tail t l = t.lru + (16 * l) + 8

  let lru_of t ~h ~key ~size =
    match t.lru_selector with
    | Some f ->
      (match f key with
       | Some l -> l mod t.cfg.lru_count
       | None ->
         if t.cfg.lru_by_size_class then
           Slab.class_of_size size mod t.cfg.lru_count
         else h mod t.cfg.lru_count)
    | None ->
      if t.cfg.lru_by_size_class then
        Slab.class_of_size size mod t.cfg.lru_count
      else h mod t.cfg.lru_count

  let set_lru_selector t f = t.lru_selector <- f

  let set_evict_hook t f = t.evict_hook <- f

  let notify_evict t ~key ~bytes =
    match t.evict_hook with
    | Some f -> f ~key ~bytes
    | None -> ()

  let item_nkey t it = rd32 t (it + it_nkey)

  let item_nbytes t it = rd32 t (it + it_nbytes)

  let item_data_off t it = it + header_size + item_nkey t it

  let item_key t it =
    M.read_string t.mem ~off:(it + header_size) ~len:(item_nkey t it)

  let is_linked t it = rd32 t (it + it_state) land state_linked <> 0

  (* Expiry from already-snapshotted fields — shared by the locked
     check below and the optimistic read path, so both apply the same
     rule to one consistent view of the item. A negative exptime is
     the [real_exptime] sentinel for "born dead" (memcached expires
     negative TTLs immediately, whatever the clock says — under the
     virtual clock [now] starts at 0, so a past-absolute encoding
     could not represent it). *)
  let expired_fields ~exptime ~now = exptime < 0 || (exptime > 0 && exptime <= now)

  let expired t it ~now =
    expired_fields ~exptime:(rd32 t (it + it_exptime)) ~now
    ||
    let ol = rd64 t (t.ctrl + ctl_oldest_live) in
    ol > 0 && rd64 t (it + it_time) <= ol

  (* Walk the chain for [key]; probing costs are charged per node. *)
  let find t h key =
    let len = String.length key in
    let rec go it =
      if it = 0 then 0
      else begin
        adv CM.current.bucket_probe;
        if
          rd32 t (it + it_nkey) = len
          && (adv (CM.key_cmp_cost len);
              M.equal_string t.mem ~off:(it + header_size) ~len key)
        then it
        else go (ldp t (it + it_h_next))
      end
    in
    go (ldp t (bucket_of t h))

  (* Is the block at [it] currently linked on the bucket chain for
     hash [h]? Caller holds the stripe lock for [h]. Membership proves
     the block is a live item (and not freed storage), which is what
     eviction/reaping re-verify after having dropped the LRU lock. *)
  let on_chain t h it =
    let rec go cur =
      cur <> 0
      && (cur = it
          || begin
               adv CM.current.bucket_probe;
               go (ldp t (cur + it_h_next))
             end)
    in
    go (ldp t (bucket_of t h))

  let hash_insert t h it =
    let b = bucket_of t h in
    stp t (it + it_h_next) (ldp t b);
    stp t b it;
    wr32 t (it + it_state) (rd32 t (it + it_state) lor state_linked)

  let hash_unlink t h it =
    let b = bucket_of t h in
    let rec go at =
      let cur = ldp t at in
      if cur = 0 then ()
      else if cur = it then stp t at (ldp t (it + it_h_next))
      else begin
        adv CM.current.bucket_probe;
        go (cur + it_h_next)
      end
    in
    go b;
    wr32 t (it + it_state) (rd32 t (it + it_state) land lnot state_linked)

  (* LRU splicing; caller holds the matching lru lock. *)
  let lru_link t it l =
    adv CM.current.lru_update;
    let head = lru_head t l and tail = lru_tail t l in
    let old = ldp t head in
    stp t (it + it_lru_next) old;
    stp t (it + it_lru_prev) 0;
    if old <> 0 then stp t (old + it_lru_prev) it;
    stp t head it;
    if ldp t tail = 0 then stp t tail it;
    wr32 t (it + it_lru_id) l

  let lru_unlink t it l =
    adv CM.current.lru_update;
    let head = lru_head t l and tail = lru_tail t l in
    let nx = ldp t (it + it_lru_next) and pv = ldp t (it + it_lru_prev) in
    if pv <> 0 then stp t (pv + it_lru_next) nx else stp t head nx;
    if nx <> 0 then stp t (nx + it_lru_prev) pv else stp t tail pv;
    stp t (it + it_lru_next) 0;
    stp t (it + it_lru_prev) 0

  let lru_bump t it =
    let l = rd32 t (it + it_lru_id) in
    lock_lru t l;
    lru_unlink t it l;
    lru_link t it l;
    unlock_lru t l

  let free_item t it =
    adv CM.current.free_cost;
    A.free t.alloc it

  (* Remove a linked item from hash chain and LRU; frees it unless a
     reader still holds a reference. Caller holds the item lock. *)
  let unlink_item t h it =
    hash_unlink t h it;
    let l = rd32 t (it + it_lru_id) in
    lock_lru t l;
    lru_unlink t it l;
    unlock_lru t l;
    stat_add t C.curr_items (-1);
    if rd32 t (it + it_refcount) = 0 then free_item t it

  (* Drop a reader's reference; caller holds the item lock. *)
  let release t it =
    let r = rd32 t (it + it_refcount) - 1 in
    wr32 t (it + it_refcount) r;
    if r = 0 && not (is_linked t it) then free_item t it

  (* ---- Eviction ----------------------------------------------------------- *)

  (* Collect victims from one LRU's cold end, then take them item lock
     first, re-verify, and unlink. Returns how many were reclaimed.

     While the LRU lock is held, every item reachable through this
     list is guaranteed unfreed — [unlink_item] frees only after
     [lru_unlink] under the same lock — so reading [it_hash]/[it_cas]
     during the collect is safe. Once the lock is dropped those
     guarantees end: a concurrent delete may free the block and a
     concurrent set may reuse it. Each victim is therefore recorded as
     an (offset, hash, cas) triple and re-verified under its item
     stripe lock: bucket-chain membership proves the offset is still a
     live item, and the cas value (unique per stored item) defeats
     ABA reuse of the block by a different store. *)
  let evict_from ?pred t l =
    lock_lru t l;
    let rec collect it n acc =
      if it = 0 || n = 0 then acc
      else begin
        adv CM.current.bucket_probe;
        let acc =
          if
            rd32 t (it + it_refcount) = 0
            && (match pred with
                | None -> true
                | Some p -> p (item_key t it))
          then
            (it, rd32 t (it + it_hash) land 0xFFFFFFFF, rd64r t (it + it_cas))
            :: acc
          else acc
        in
        collect (ldp t (it + it_lru_prev)) (n - 1) acc
      end
    in
    let victims = collect (ldp t (lru_tail t l)) t.cfg.evict_batch [] in
    unlock_lru t l;
    let reclaimed = ref 0 in
    List.iter
      (fun (it, h, cas) ->
        lock_item t h;
        (* The world may have moved: only evict the same still-linked,
           idle item that still belongs to this LRU. *)
        if
          on_chain t h it
          && Int64.equal (rd64r t (it + it_cas)) cas
          && rd32 t (it + it_refcount) = 0
          && rd32 t (it + it_lru_id) = l
        then begin
          let key = item_key t it and nbytes = item_nbytes t it in
          unlink_item t h it;
          stat t C.evictions;
          notify_evict t ~key ~bytes:(String.length key + nbytes);
          incr reclaimed
        end;
        unlock_item t h)
      victims;
    !reclaimed

  (* Tenant-scoped eviction: reclaim only items whose key satisfies
     [pred], scanning the cold end of LRU list [lru]. The tenant layer
     points [lru] at the tenant's own list, so a full tenant evicts
     only its own items. *)
  let evict_some_matching t ~lru ~pred = evict_from ~pred t (lru mod t.cfg.lru_count)

  let evict_some t ~hint =
    let n = t.cfg.lru_count in
    let rec go i =
      if i >= n then 0
      else
        let got = evict_from t ((hint + i) mod n) in
        if got > 0 then got else go (i + 1)
    in
    go 0

  (* The background "cleaner" entry point (bookkeeping process):
     push usage back under the low watermark. Rotates over the LRU
     lists until the target is met or a full rotation reclaims
     nothing (everything left is referenced). *)
  let maintain ?(hi = 0.95) ?(lo = 0.90) t =
    let cap = float_of_int (A.capacity t.alloc) in
    if float_of_int (A.used_bytes t.alloc) > hi *. cap then begin
      let target = lo *. cap in
      let n = t.cfg.lru_count in
      let rec go l rotation_got =
        if float_of_int (A.used_bytes t.alloc) > target then begin
          let got = evict_from t (l mod n) in
          if (l + 1) mod n = 0 then begin
            if rotation_got + got > 0 then go (l + 1) 0
          end
          else go (l + 1) (rotation_got + got)
        end
      in
      go 0 0
    end

  (* ---- Table resize ----------------------------------------------------

     The feature the paper's authors had to disable ("our resizing code
     in the background process is not yet working correctly", §4) —
     implemented here as a stop-the-world migration run by the
     bookkeeping process: take every item-lock stripe (in index order,
     so concurrent resizes cannot deadlock each other), allocate the
     doubled table, relink every chain using the hash stored in each
     item header, swap the control block's bucket pointer (this is why
     Figure 3 kept an extra level of indirection), and release. Regular
     operations read the table pointer only while holding their stripe
     lock, so they always see a consistent table. *)

  let resize t =
    lock_all_stripes t;
    Fun.protect
      ~finally:(fun () -> unlock_all_stripes t)
      (fun () ->
        let old_hp = t.cfg.hashpower in
        let new_hp = old_hp + 1 in
        let nbuckets = 1 lsl new_hp in
        let nb = A.alloc t.alloc (8 * nbuckets) in
        if nb = 0 then false
        else begin
          adv (CM.alloc_cost (8 * nbuckets));
          zero_range t nb (8 * nbuckets);
          let new_mask = nbuckets - 1 in
          for b = 0 to (1 lsl old_hp) - 1 do
            let rec move it =
              if it <> 0 then begin
                adv CM.current.bucket_probe;
                let next = ldp t (it + it_h_next) in
                let h = rd32 t (it + it_hash) land 0xFFFFFFFF in
                let cell = nb + (8 * (h land new_mask)) in
                stp t (it + it_h_next) (ldp t cell);
                stp t cell it;
                move next
              end
            in
            move (ldp t (t.buckets + (8 * b)))
          done;
          let old_buckets = t.buckets in
          t.buckets <- nb;
          t.hash_mask <- new_mask;
          t.cfg <- { t.cfg with hashpower = new_hp };
          wr64 t (t.ctrl + ctl_hashpower) new_hp;
          stp t (t.ctrl + ctl_buckets) nb;
          A.free t.alloc old_buckets;
          true
        end)

  (* Grow when the load factor passes [lf]; the bookkeeping process
     calls this from its cleaning loop. *)
  let maybe_resize ?(lf = 1.5) t =
    let items = stat_sum t C.curr_items in
    if float_of_int items
       > lf *. float_of_int (1 lsl t.cfg.hashpower)
    then resize t
    else false

  let load_factor t =
    float_of_int (stat_sum t C.curr_items)
    /. float_of_int (1 lsl t.cfg.hashpower)

  let alloc_item t total ~h =
    let rec go attempts =
      let off = A.alloc t.alloc total in
      (* Allocator-priced: the bump-arena hot tier makes small-item
         allocation a pointer increment, and the set path should see
         that in virtual time too. *)
      adv (A.alloc_ns t.alloc total);
      if off <> 0 then off
      else if attempts = 0 then 0
      else if evict_some t ~hint:(h mod t.cfg.lru_count) = 0 then 0
      else go (attempts - 1)
    in
    go 10

  (* ---- Item construction --------------------------------------------------- *)

  (* CAS values are unsigned 64-bit end-to-end ([Atomic] has no 64-bit
     fetch-and-add, hence the CAS loop). *)
  let next_cas t =
    let rec go () =
      let c = Atomic.get t.cas_src in
      if Atomic.compare_and_set t.cas_src c (Int64.add c 1L) then c else go ()
    in
    go ()

  let real_exptime exptime ~now =
    if exptime = 0 then 0
    else if exptime < 0 then -1 (* expire immediately, memcached-style *)
    else if exptime <= 60 * 60 * 24 * 30 then now + exptime
    else exptime

  let write_item t it ~h ~key ~data ~flags ~exptime ~now =
    let nkey = String.length key and nbytes = String.length data in
    stp t (it + it_h_next) 0;
    stp t (it + it_lru_next) 0;
    stp t (it + it_lru_prev) 0;
    wr64r t (it + it_cas) (next_cas t);
    wr32 t (it + it_exptime) (real_exptime exptime ~now);
    wr32 t (it + it_flags) flags;
    wr32 t (it + it_nkey) nkey;
    wr32 t (it + it_nbytes) nbytes;
    wr32 t (it + it_refcount) 0;
    wr32 t (it + it_lru_id) 0;
    wr32 t (it + it_state) 0;
    wr32 t (it + it_hash) h;
    wr64 t (it + it_time) (S.now_ns ());
    M.write_string t.mem ~off:(it + header_size) key;
    M.write_string t.mem ~off:(it + header_size + nkey) data;
    adv (CM.memcpy_cost (nkey + nbytes))

  (* ---- Retrieval -------------------------------------------------------------- *)

  let locked_get t ~h ~now key =
    lock_item t h;
    let it = find t h key in
    if it = 0 then begin
      unlock_item t h;
      stat t C.get_misses;
      None
    end
    else if expired t it ~now then begin
      unlink_item t h it;
      unlock_item t h;
      stat t C.expired;
      stat t C.get_misses;
      None
    end
    else begin
      (* Figure 4's discipline: take a reference under the lock, copy
         the payload into a library-private buffer without the lock,
         then drop the reference. *)
      wr32 t (it + it_refcount) (rd32 t (it + it_refcount) + 1);
      wr32 t (it + it_state) (rd32 t (it + it_state) lor state_fetched);
      let flags = rd32 t (it + it_flags) in
      let cas = rd64r t (it + it_cas) in
      let nbytes = item_nbytes t it in
      let data_off = item_data_off t it in
      (* Rate-limited bump: a hot key that already moved within the
         last [bump_interval_s] skips the LRU lock entirely, so hot-key
         gets do not serialize on it. Refreshing [it_time] here is
         flush_all-safe because the expiry check above already ran. *)
      let bump_ns = t.cfg.bump_interval_s * 1_000_000_000 in
      if bump_ns = 0 || S.now_ns () - rd64 t (it + it_time) >= bump_ns
      then begin
        wr64 t (it + it_time) (S.now_ns ());
        lru_bump t it
      end;
      unlock_item t h;
      adv (CM.memcpy_cost nbytes);
      let value = M.read_string t.mem ~off:data_off ~len:nbytes in
      lock_item t h;
      release t it;
      unlock_item t h;
      (* Copy out to the caller's buffer (the paper's second memcpy,
         into ordinary malloc'd memory). *)
      adv CM.current.malloc_out;
      adv (CM.memcpy_cost nbytes);
      stat t C.get_hits;
      Some { value; flags; cas }
    end

  (* ---- Optimistic (seqlock) retrieval ------------------------------------
     Snapshot–validate–retry against the stripe's version word, with
     no lock and no refcount. Anything read mid-mutation can be torn:
     chain links may cycle, lengths may be garbage, and with heap
     poisoning armed a concurrently freed block raises — all of it is
     caught (bounded probes, [Invalid_argument] from the range checks,
     {!Ralloc.Use_after_free}) and classified as a conflict. A
     snapshot only counts if the version word is even before and
     unchanged after; what it then *means* is decided from the
     validated fields alone:
     - expired (or killed by the flush_all watermark) → fall back, the
       locked path owns the unlink side effect;
     - LRU bump due → fall back, the bump needs the stripe;
     - otherwise → a hit that never touched a lock.
     The watermark is re-read *after* validation: it is monotonic, so
     the check covers any flush_all that completed before the snapshot
     was validated — an optimistic get can never return an item a
     completed flush_all logically killed. *)

  exception Conflict

  (* Probe budget for the lock-free chain walk: a torn chain may
     cycle, so unlike [find] the walk must be bounded. *)
  let opt_probe_budget = 128

  let opt_find t h key =
    let len = String.length key in
    let rec go it n =
      if it = 0 then 0
      else if n = 0 then raise Conflict
      else begin
        adv CM.current.bucket_probe;
        if
          rd32 t (it + it_nkey) = len
          && (adv (CM.key_cmp_cost len);
              M.equal_string t.mem ~off:(it + header_size) ~len key)
        then it
        else go (ldp t (it + it_h_next)) (n - 1)
      end
    in
    go (ldp t (bucket_of t h)) opt_probe_budget

  let opt_attempt t ~h ~now key =
    let s = stripe_index t h in
    let v0 = seq_read t s in
    if v0 land 1 <> 0 then raise Conflict;
    let it = opt_find t h key in
    let outcome =
      if it = 0 then `Miss
      else begin
        let state = rd32 t (it + it_state) in
        let flags = rd32 t (it + it_flags) in
        let cas = rd64r t (it + it_cas) in
        let exptime = rd32 t (it + it_exptime) in
        let itime = rd64 t (it + it_time) in
        let nkey = rd32 t (it + it_nkey) in
        let nbytes = rd32 t (it + it_nbytes) in
        (* Bound before charging copy cost: a torn length would
           otherwise advance the virtual clock absurdly before the
           range check faults. *)
        if nbytes < 0 || nkey < 0 || nbytes > A.capacity t.alloc then
          raise Conflict;
        adv (CM.memcpy_cost nbytes);
        let value =
          M.read_string t.mem ~off:(it + header_size + nkey) ~len:nbytes
        in
        if state land state_linked = 0 then raise Conflict;
        `Snap (value, flags, cas, exptime, itime)
      end
    in
    if seq_read t s <> v0 then raise Conflict;
    (* The snapshot is consistent as of [v0]; interpret it. *)
    match outcome with
    | `Miss -> `Miss
    | `Snap (value, flags, cas, exptime, itime) ->
      if expired_fields ~exptime ~now then `Fallback
      else begin
        let ol = rd64 t (t.ctrl + ctl_oldest_live) in
        if ol > 0 && itime <= ol then `Fallback
        else begin
          let bump_ns = t.cfg.bump_interval_s * 1_000_000_000 in
          if bump_ns = 0 || S.now_ns () - itime >= bump_ns then `Fallback
          else begin
            adv CM.current.malloc_out;
            adv (CM.memcpy_cost (String.length value));
            `Hit { value; flags; cas }
          end
        end
      end

  let optimistic_get t ~h ~now key =
    let module TC = Telemetry.Counters in
    let rec go tries =
      if tries <= 0 then begin
        TC.incr TC.Id.opt_fallbacks;
        `Fallback
      end
      else
        match opt_attempt t ~h ~now key with
        | `Hit r ->
          TC.incr TC.Id.opt_hits;
          `Hit r
        | `Miss ->
          TC.incr TC.Id.opt_hits;
          `Miss
        | `Fallback ->
          TC.incr TC.Id.opt_fallbacks;
          `Fallback
        | exception (Conflict | Ralloc.Use_after_free _ | Invalid_argument _)
          ->
          TC.incr TC.Id.opt_retries;
          go (tries - 1)
    in
    go (t.cfg.opt_max_retries + 1)

  let get t key =
    with_op t @@ fun () ->
    stat t C.cmd_get;
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    let now = now_sec () in
    if (not t.cfg.optimistic_reads) || holds_stripe t (stripe_index t h) then
      locked_get t ~h ~now key
    else
      match optimistic_get t ~h ~now key with
      | `Hit r ->
        stat t C.get_hits;
        Some r
      | `Miss ->
        stat t C.get_misses;
        None
      | `Fallback -> locked_get t ~h ~now key

  (* ---- Storage ------------------------------------------------------------------ *)

  type policy = P_set | P_add | P_replace | P_cas of int64

  (* [abs_exptime], when [Some], overrides [exptime] with an absolute
     expiry already in unix seconds (no [real_exptime] conversion) —
     used by paths that must carry an existing item's TTL forward. *)
  let store_with t policy ~abs_exptime ~key ~data ~flags ~exptime =
    with_op t @@ fun () ->
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    let now = now_sec () in
    let total = header_size + String.length key + String.length data in
    let it = alloc_item t total ~h in
    if it = 0 then No_memory
    else begin
      write_item t it ~h ~key ~data ~flags ~exptime ~now;
      (match abs_exptime with
       | Some e -> wr32 t (it + it_exptime) e
       | None -> ());
      lock_item t h;
      let old = find t h key in
      let old = if old <> 0 && expired t old ~now then begin
          unlink_item t h old;
          0
        end
        else old
      in
      let decide =
        match policy, old with
        | P_set, _ -> `Store
        | P_add, 0 -> `Store
        | P_add, _ -> `Fail Not_stored
        | P_replace, 0 -> `Fail Not_stored
        | P_replace, _ -> `Store
        | P_cas _, 0 -> `Fail Not_found
        | P_cas c, o ->
          if Int64.equal (rd64r t (o + it_cas)) c then `Store
          else `Fail Exists
      in
      let result =
        match decide with
        | `Fail r ->
          unlock_item t h;
          free_item t it;
          r
        | `Store ->
          if old <> 0 then unlink_item t h old;
          hash_insert t h it;
          let l = lru_of t ~h ~key ~size:total in
          lock_lru t l;
          lru_link t it l;
          unlock_lru t l;
          stat_add t C.curr_items 1;
          stat t C.total_items;
          unlock_item t h;
          Stored
      in
      stat t C.cmd_set;
      (match policy, result with
       | P_cas _, Stored -> stat t C.cas_hits
       | P_cas _, Exists -> stat t C.cas_badval
       | P_cas _, Not_found -> stat t C.cas_misses
       | _ -> ());
      result
    end

  let set t ?(flags = 0) ?(exptime = 0) key data =
    store_with t P_set ~abs_exptime:None ~key ~data ~flags ~exptime

  let add t ?(flags = 0) ?(exptime = 0) key data =
    store_with t P_add ~abs_exptime:None ~key ~data ~flags ~exptime

  let replace t ?(flags = 0) ?(exptime = 0) key data =
    store_with t P_replace ~abs_exptime:None ~key ~data ~flags ~exptime

  let cas t ?(flags = 0) ?(exptime = 0) ~cas key data =
    store_with t (P_cas cas) ~abs_exptime:None ~key ~data ~flags ~exptime

  (* Append/prepend: size the new item from a racy read, then verify
     under the lock and retry on interference. *)
  let concat_op t ~prepend key extra =
    with_op t @@ fun () ->
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    let now = now_sec () in
    let rec attempt tries =
      if tries = 0 then Not_stored
      else begin
        lock_item t h;
        let old = find t h key in
        if old = 0 || expired t old ~now then begin
          unlock_item t h;
          Not_stored
        end
        else begin
          let old_n = item_nbytes t old
          and old_cas = rd64r t (old + it_cas) in
          let flags = rd32 t (old + it_flags) in
          let exp = rd32 t (old + it_exptime) in
          let old_data =
            M.read_string t.mem ~off:(item_data_off t old) ~len:old_n
          in
          unlock_item t h;
          adv (CM.memcpy_cost old_n);
          let data = if prepend then extra ^ old_data else old_data ^ extra in
          let total = header_size + String.length key + String.length data in
          let it = alloc_item t total ~h in
          if it = 0 then No_memory
          else begin
            write_item t it ~h ~key ~data ~flags ~exptime:0 ~now;
            wr32 t (it + it_exptime) exp;
            lock_item t h;
            let cur = find t h key in
            if cur = 0 || not (Int64.equal (rd64r t (cur + it_cas)) old_cas)
            then begin
              unlock_item t h;
              free_item t it;
              attempt (tries - 1)
            end
            else begin
              unlink_item t h cur;
              hash_insert t h it;
              let l = lru_of t ~h ~key ~size:total in
              lock_lru t l;
              lru_link t it l;
              unlock_lru t l;
              stat_add t C.curr_items 1;
              stat t C.total_items;
              unlock_item t h;
              stat t C.cmd_set;
              Stored
            end
          end
        end
      end
    in
    attempt 5

  let append t key extra = concat_op t ~prepend:false key extra

  let prepend t key extra = concat_op t ~prepend:true key extra

  (* ---- Delete / touch ------------------------------------------------------------- *)

  let delete t key =
    with_op t @@ fun () ->
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    lock_item t h;
    let it = find t h key in
    if it = 0 || expired t it ~now:(now_sec ()) then begin
      if it <> 0 then unlink_item t h it;
      unlock_item t h;
      stat t C.delete_misses;
      false
    end
    else begin
      unlink_item t h it;
      unlock_item t h;
      stat t C.delete_hits;
      true
    end

  (* Accounting probe: the live item's key+value byte count, with no
     stat bumps, no LRU bump and no expiry side effects — the tenant
     layer sizes replacements and deletes with it without polluting
     cmd_get/get_misses. *)
  let probe t key =
    with_op t @@ fun () ->
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    let now = now_sec () in
    lock_item t h;
    let it = find t h key in
    let r =
      if it = 0 || expired t it ~now then None
      else Some (item_nkey t it + item_nbytes t it)
    in
    unlock_item t h;
    r

  let touch t key exptime =
    with_op t @@ fun () ->
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    let now = now_sec () in
    lock_item t h;
    let it = find t h key in
    if it = 0 || expired t it ~now then begin
      unlock_item t h;
      stat t C.touch_misses;
      false
    end
    else begin
      wr32 t (it + it_exptime) (real_exptime exptime ~now);
      lru_bump t it;
      unlock_item t h;
      stat t C.touch_hits;
      true
    end

  (* ---- Counters ----------------------------------------------------------------------- *)

  (* Strict unsigned-64 decimal: values above 2^64-1 are rejected, not
     wrapped — memcached answers CLIENT_ERROR for an oversized stored
     counter rather than applying a silently wrapped delta. *)
  let max_u64_div10 = 1844674407370955161L (* (2^64 - 1) / 10 *)

  let parse_u64 s =
    let n = String.length s in
    if n = 0 || n > 20 then None
    else begin
      let rec go i (acc : int64) =
        if i >= n then Some acc
        else
          let c = s.[i] in
          if c < '0' || c > '9' then None
          else
            let d = Char.code c - Char.code '0' in
            if
              Int64.unsigned_compare acc max_u64_div10 > 0
              || (Int64.equal acc max_u64_div10 && d > 5)
            then None
            else go (i + 1) (Int64.add (Int64.mul acc 10L) (Int64.of_int d))
      in
      go 0 0L
    end

  let counter_op t ~decr key (delta : int64) =
    with_op t @@ fun () ->
    adv CM.current.hash_op;
    let h = Hash.murmur3_32 key in
    let now = now_sec () in
    lock_item t h;
    let it = find t h key in
    if it = 0 || expired t it ~now then begin
      if it <> 0 then unlink_item t h it;
      unlock_item t h;
      stat t C.incr_misses;
      Counter_not_found
    end
    else begin
      let nbytes = item_nbytes t it in
      adv CM.current.numeric_parse;
      let sval = M.read_string t.mem ~off:(item_data_off t it) ~len:nbytes in
      match parse_u64 sval with
      | None ->
        unlock_item t h;
        Non_numeric
      | Some v ->
        let nv =
          if decr then
            if Int64.unsigned_compare v delta < 0 then 0L
            else Int64.sub v delta
          else Int64.add v delta
        in
        let s = Printf.sprintf "%Lu" nv in
        let cap = A.usable_size t.alloc it - header_size - item_nkey t it in
        if String.length s <= cap then begin
          (* The common, in-place path: memcached overwrites the value
             under the item lock. *)
          M.write_string t.mem ~off:(item_data_off t it) s;
          wr32 t (it + it_nbytes) (String.length s);
          wr64r t (it + it_cas) (next_cas t);
          wr64 t (it + it_time) (S.now_ns ());
          adv (CM.memcpy_cost (String.length s));
          unlock_item t h;
          stat t C.incr_hits;
          Counter nv
        end
        else begin
          (* Rare: the textual value outgrew its block. Re-store with
             the counter's original flags and (absolute) expiry —
             an incr must not silently reset either. *)
          let flags = rd32 t (it + it_flags) in
          let exp = rd32 t (it + it_exptime) in
          unlock_item t h;
          match
            store_with t P_set ~abs_exptime:(Some exp) ~key ~data:s ~flags
              ~exptime:0
          with
          | Stored ->
            stat t C.incr_hits;
            Counter nv
          | No_memory | Not_stored | Exists | Not_found -> Counter_not_found
        end
    end

  let incr t key delta = counter_op t ~decr:false key delta

  let decr t key delta = counter_op t ~decr:true key delta

  (* ---- flush_all / stats ----------------------------------------------------------------- *)

  let flush_all t = wr64 t (t.ctrl + ctl_oldest_live) (S.now_ns ())

  let curr_items t = stat_sum t C.curr_items

  (* Standard memcached key names, so loadgen tooling written against
     real memcached output works unchanged. *)
  let stats t =
    adv (CM.current.stats_update * t.cfg.stats_slots);
    [ ("curr_items", string_of_int (stat_sum t C.curr_items));
      ("total_items", string_of_int (stat_sum t C.total_items));
      ("cmd_get", string_of_int (stat_sum t C.cmd_get));
      ("cmd_set", string_of_int (stat_sum t C.cmd_set));
      ("get_hits", string_of_int (stat_sum t C.get_hits));
      ("get_misses", string_of_int (stat_sum t C.get_misses));
      ("delete_hits", string_of_int (stat_sum t C.delete_hits));
      ("delete_misses", string_of_int (stat_sum t C.delete_misses));
      ("incr_hits", string_of_int (stat_sum t C.incr_hits));
      ("incr_misses", string_of_int (stat_sum t C.incr_misses));
      ("cas_hits", string_of_int (stat_sum t C.cas_hits));
      ("cas_badval", string_of_int (stat_sum t C.cas_badval));
      ("cas_misses", string_of_int (stat_sum t C.cas_misses));
      ("touch_hits", string_of_int (stat_sum t C.touch_hits));
      ("touch_misses", string_of_int (stat_sum t C.touch_misses));
      ("evictions", string_of_int (stat_sum t C.evictions));
      ("expired_unfetched", string_of_int (stat_sum t C.expired));
      ("bytes", string_of_int (A.used_bytes t.alloc));
      ("limit_maxbytes", string_of_int (A.capacity t.alloc));
      ("hash_power_level", string_of_int t.cfg.hashpower) ]

  (* `stats reset` zeroes the operation tallies. [curr_items] is a live
     gauge and [total_items] anchors the recovery invariant
     curr_items <= total_items, so both survive a reset. *)
  let stats_reset t =
    adv (CM.current.stats_update * t.cfg.stats_slots);
    for slot = 0 to t.cfg.stats_slots - 1 do
      for ctr = 0 to C.count - 1 do
        if ctr <> C.curr_items && ctr <> C.total_items then
          wr64 t (t.stats + (8 * ((slot * C.count) + ctr))) 0
      done
    done

  (* `stats items`: per-LRU-list occupancy and cold-end age, each list
     walked under its own lock (no stop-the-world). *)
  let stats_items t =
    let now = S.now_ns () in
    let acc = ref [] in
    for l = t.cfg.lru_count - 1 downto 0 do
      lock_lru t l;
      let rec count it n =
        if it = 0 then n
        else begin
          adv CM.current.bucket_probe;
          count (ldp t (it + it_lru_next)) (n + 1)
        end
      in
      let n = count (ldp t (lru_head t l)) 0 in
      let tail = ldp t (lru_tail t l) in
      let age_s =
        if tail = 0 then 0
        else max 0 ((now - rd64 t (tail + it_time)) / 1_000_000_000)
      in
      unlock_lru t l;
      if n > 0 then
        acc :=
          (Printf.sprintf "items:%d:number" l, string_of_int n)
          :: (Printf.sprintf "items:%d:age" l, string_of_int age_s)
          :: !acc
    done;
    !acc

  (* `stats slabs`: the allocator's per-size-class view plus totals. *)
  let stats_slabs t =
    A.class_kvs t.alloc
    @ [ ("total_malloced", string_of_int (A.used_bytes t.alloc));
        ("limit_maxbytes", string_of_int (A.capacity t.alloc)) ]

  (* ---- Iteration and proactive expiry ---------------------------------- *)

  (* Fold over every live item — an administrative walk (stats items /
     cachedump flavour). Items of one bucket can hash to any lock
     stripe, so a per-bucket lock cannot serialize a chain; like
     {!resize}, take every stripe for a consistent snapshot. [f]
     receives key, value length and the absolute expiry time. *)
  let fold_keys t f init =
    lock_all_stripes t;
    Fun.protect
      ~finally:(fun () -> unlock_all_stripes t)
      (fun () ->
        let acc = ref init in
        for b = 0 to t.hash_mask do
          let rec walk it =
            if it <> 0 then begin
              adv CM.current.bucket_probe;
              acc :=
                f !acc (item_key t it) ~nbytes:(item_nbytes t it)
                  ~exptime:(rd32 t (it + it_exptime));
              walk (ldp t (it + it_h_next))
            end
          in
          walk (ldp t (t.buckets + (8 * b)))
        done;
        !acc)

  (* The LRU crawler: walk the cold ends of the LRU lists and unlink
     items that have already expired, without waiting for a get to
     stumble on them. Returns how many were reaped. *)
  let reap_expired ?(limit = 1_000) t =
    let now = now_sec () in
    let reaped = ref 0 in
    for l = 0 to t.cfg.lru_count - 1 do
      (* Same re-verification discipline as [evict_from]: candidates
         are (offset, hash, cas) triples read while the LRU lock pins
         them unfreed, then re-checked under the item stripe lock. *)
      let rec candidates it n acc =
        if it = 0 || n = 0 then acc
        else begin
          adv CM.current.bucket_probe;
          let acc =
            if expired t it ~now then
              ( it,
                rd32 t (it + it_hash) land 0xFFFFFFFF,
                rd64r t (it + it_cas) )
              :: acc
            else acc
          in
          candidates (ldp t (it + it_lru_prev)) (n - 1) acc
        end
      in
      lock_lru t l;
      let victims =
        candidates (ldp t (lru_tail t l)) (limit / t.cfg.lru_count) []
      in
      unlock_lru t l;
      List.iter
        (fun (it, h, cas) ->
          lock_item t h;
          if on_chain t h it
             && Int64.equal (rd64r t (it + it_cas)) cas
             && expired t it ~now
             && rd32 t (it + it_refcount) = 0
          then begin
            let key = item_key t it and nbytes = item_nbytes t it in
            unlink_item t h it;
            stat t C.expired;
            notify_evict t ~key ~bytes:(String.length key + nbytes);
            Stdlib.incr reaped
          end;
          unlock_item t h)
        victims
    done;
    !reaped

  (* ---- Integrity check (tests; call only at quiescence) ------------------------------------ *)

  let check_invariants t =
    let next_cas = Atomic.get t.cas_src in
    let linked = ref 0 in
    for b = 0 to t.hash_mask do
      let rec walk it =
        if it <> 0 then begin
          if not (is_linked t it) then
            failwith "unlinked item on a hash chain";
          (* Accounting vs. the allocator's view: every linked item must
             be backed by a live allocation big enough for its header,
             key and value. *)
          (match A.usable_size t.alloc it with
           | exception _ ->
             failwith "linked item not backed by a live allocation"
           | us ->
             if us < header_size + item_nkey t it + item_nbytes t it then
               failwith "linked item larger than its block");
          let h = rd32 t (it + it_hash) land 0xFFFFFFFF in
          if h land t.hash_mask <> b then
            failwith "item chained into the wrong bucket";
          let key = item_key t it in
          if Hash.murmur3_32 key <> h then
            failwith "stored hash does not match key";
          if rd32 t (it + it_refcount) <> 0 then
            failwith "dangling refcount at quiescence";
          if Int64.unsigned_compare (rd64r t (it + it_cas)) next_cas >= 0 then
            failwith "item cas from the future (cas source not monotonic)";
          Stdlib.incr linked;
          walk (ldp t (it + it_h_next))
        end
      in
      walk (ldp t (t.buckets + (8 * b)))
    done;
    let in_lru = ref 0 in
    for l = 0 to t.cfg.lru_count - 1 do
      let rec walk it prev =
        if it <> 0 then begin
          if not (is_linked t it) then failwith "unlinked item on an LRU";
          if ldp t (it + it_lru_prev) <> prev then
            failwith "broken lru prev link";
          if rd32 t (it + it_lru_id) <> l then
            failwith "item on the wrong lru list";
          Stdlib.incr in_lru;
          walk (ldp t (it + it_lru_next)) it
        end
        else if ldp t (lru_tail t l) <> prev then failwith "lru tail mismatch"
      in
      walk (ldp t (lru_head t l)) 0
    done;
    if !linked <> !in_lru then
      failwith
        (Printf.sprintf "hash table has %d items but LRUs have %d" !linked
           !in_lru);
    if !linked <> curr_items t then
      failwith
        (Printf.sprintf "curr_items %d but %d items linked" (curr_items t)
           !linked)

  (* ---- Post-crash recovery (call only at quiescence) ------------------

     A process killed abruptly inside a call leaves three kinds of
     store-level damage, all bounded by the sync points inside an op:
     locks owned by its dead threads, items visible from only one of
     the two index structures (hash chain vs. LRU list), and counters
     it updated on only one side. Recovery takes the hash table as the
     source of truth: an item is the store's iff it sits on the correct
     bucket chain with intact geometry. Everything else is rebuilt. *)

  let recover t =
    (* Dead threads may own any stripe/LRU/stats lock: replace them
       all (the robust-ownership handoff a real OS gives futexes). *)
    for i = 0 to Array.length t.item_locks - 1 do
      t.item_locks.(i) <- S.mutex ~cls:"store.item" ()
    done;
    for l = 0 to Array.length t.lru_locks - 1 do
      t.lru_locks.(l) <- S.mutex ~cls:"store.lru" ()
    done;
    t.stats_mutex <- S.mutex ~cls:"store.stats" ();
    Atomic.set t.active 0;
    (* Sift every hash chain: keep exactly the items whose backing
       block is live, big enough, and whose stored hash matches both
       the key bytes and the bucket — anything torn mid-link drops. *)
    let live_items = ref [] in
    let kept_count = ref 0 in
    let max_cas = ref 0L in
    for b = 0 to t.hash_mask do
      let bucket = t.buckets + (8 * b) in
      let rec sift it acc =
        if it = 0 then List.rev acc
        else begin
          adv CM.current.bucket_probe;
          let next = ldp t (it + it_h_next) in
          let sane =
            match A.usable_size t.alloc it with
            | exception _ -> false
            | us ->
              let nkey = rd32 t (it + it_nkey) in
              let nbytes = rd32 t (it + it_nbytes) in
              nkey > 0
              && nbytes >= 0
              && us >= header_size + nkey + nbytes
              &&
              let h = rd32 t (it + it_hash) land 0xFFFFFFFF in
              h land t.hash_mask = b && Hash.murmur3_32 (item_key t it) = h
          in
          sift next (if sane then it :: acc else acc)
        end
      in
      let kept = sift (ldp t bucket) [] in
      let rec relink at = function
        | [] -> stp t at 0
        | it :: rest ->
          stp t at it;
          relink (it + it_h_next) rest
      in
      relink bucket kept;
      List.iter
        (fun it ->
          (* References held by dead readers die with them. *)
          wr32 t (it + it_refcount) 0;
          wr32 t (it + it_state) (rd32 t (it + it_state) lor state_linked);
          let c = rd64r t (it + it_cas) in
          if Int64.unsigned_compare c !max_cas > 0 then max_cas := c;
          live_items := it :: !live_items;
          Stdlib.incr kept_count)
        kept
    done;
    (* Rebuild every LRU list from the sifted hash table; half-deleted
       items still spliced into an LRU simply never reappear. Recency
       order is sacrificed — the paper's store persists no LRU age
       either. *)
    for l = 0 to t.cfg.lru_count - 1 do
      stp t (lru_head t l) 0;
      stp t (lru_tail t l) 0
    done;
    List.iter
      (fun it ->
        let h = rd32 t (it + it_hash) land 0xFFFFFFFF in
        let size = header_size + item_nkey t it + item_nbytes t it in
        lru_link t it (lru_of t ~h ~key:(item_key t it) ~size))
      !live_items;
    (* Item count from the ground truth; per-thread scatter collapses
       into slot 0. Hit/miss tallies are best-effort monitoring and are
       left as found (telemetry's recovery semantics are *sift*, not
       reset — see DESIGN.md). *)
    for slot = 0 to t.cfg.stats_slots - 1 do
      wr64 t (t.stats + (8 * ((slot * C.count) + C.curr_items))) 0
    done;
    wr64 t (t.stats + (8 * C.curr_items)) !kept_count;
    (* A crash between the curr_items and total_items updates of one
       store (or an eviction of an item whose total_items bump never
       landed) can leave total_items short of what the other counters
       prove happened. Clamp it so the monitoring invariant
       curr_items + removals <= total_items holds again. *)
    let removals =
      stat_sum t C.evictions + stat_sum t C.expired + stat_sum t C.delete_hits
    in
    let total = max (stat_sum t C.total_items) (!kept_count + removals) in
    for slot = 0 to t.cfg.stats_slots - 1 do
      wr64 t (t.stats + (8 * ((slot * C.count) + C.total_items))) 0
    done;
    wr64 t (t.stats + (8 * C.total_items)) total;
    Telemetry.Trace.emit ~sev:Telemetry.Trace.Info ~subsys:"store"
      (Printf.sprintf "recovery kept %d items, total_items=%d" !kept_count
         total);
    (* CAS monotonicity across the crash: restart above every CAS any
       client was ever acknowledged. *)
    let cur = Atomic.get t.cas_src in
    let above = Int64.add !max_cas 1L in
    let nc = if Int64.unsigned_compare cur above > 0 then cur else above in
    Atomic.set t.cas_src nc;
    wr64r t (t.ctrl + ctl_cas) nc;
    (* A kill inside a stripe acquisition leaves its seq word odd;
       every lock is being replaced above, so normalize the words back
       to even or optimistic readers would spin forever on the stripe. *)
    for s = 0 to t.lock_mask do
      let v = rd64 t (seq_off t s) in
      if v land 1 <> 0 then wr64 t (seq_off t s) (v + 1)
    done;
    (* The allocator's recovery scan needs every offset the store still
       reaches: control block, tables, seq words, and each live item. *)
    t.ctrl :: t.buckets :: t.lru :: t.stats :: t.seqs :: !live_items
end
