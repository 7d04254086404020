(** The baseline: memcached as a socket server.

    The process owns a private slab-backed store; an acceptor thread
    hands incoming connections to worker threads round-robin (as
    memcached's dispatcher does); each worker runs an event loop over
    its own queue, parsing requests, executing them against the store,
    and writing replies. Every request crosses the kernel twice in
    each direction — the overhead the paper eliminates. *)

module P = Mc_protocol.Types
module CM = Platform.Cost_model

type protocol = Ascii | Binary

type config = {
  workers : int;
  protocol : protocol;
  mem_limit : int;
  store : Mc_core.Store.config;
}

let default_config =
  { workers = 4; protocol = Binary; mem_limit = 64 * 1024 * 1024;
    store =
      { Mc_core.Store.default_config with
        lru_by_size_class = true (* original memcached: LRU per slab class *) } }

(** Shared-ring mode: geometry of the per-connection ring pair plus
    the adaptive batch window's knobs. The window starts at 1
    (immediate dispatch), doubles toward the rate-matched target — as
    many arrivals as fit in [r_t_max_ns] at the EWMA arrival gap,
    capped at [r_b_max] — halves when a nagle deadline fires under the
    window or the arrival rate falls, and snaps back to 1 whenever the
    worker goes fully idle — so an unloaded server keeps the B=1
    latency point and a loaded one converges to the hand-batched
    B=32 crossing amortization with no caller cooperation. *)
type ring_config = {
  r_slots : int;  (** slots per ring *)
  r_slot_bytes : int;  (** bytes per slot (24 of them header) *)
  r_b_max : int;  (** window ceiling *)
  r_t_max_ns : int;  (** nagle deadline cap: max added latency *)
}

let default_ring_config =
  { r_slots = 64; r_slot_bytes = 256; r_b_max = 32; r_t_max_ns = 30_000 }

(* Per-connection adaptive-window state, owned by the connection's
   worker; the scalar fields feed `stats rings` without locking. *)
type wstate = {
  mutable w_window : int;
  mutable w_ewma_gap : int;  (** EWMA of request arrival gaps, ns *)
  mutable w_last_stamp : int;  (** newest slot stamp folded into the EWMA *)
  mutable w_occ : int;  (** occupancy at the last peek, messages *)
  mutable w_drains : int;
  mutable w_ops : int;
}

let fresh_wstate () =
  { w_window = 1; w_ewma_gap = 0; w_last_stamp = 0; w_occ = 0; w_drains = 0;
    w_ops = 0 }

type wrapper = { wrap : 'a. ops:int -> (unit -> 'a) -> 'a }
(** Runs each batch execution; [ops] is the number of operations the
    thunk will execute. The hybrid server passes the Hodor batch
    trampoline here, so one crossing covers the whole batch. The
    record makes the field polymorphic: the same wrapper must serve
    whatever result type the executor thunk produces. *)

let default_wrapper = { wrap = (fun ~ops:_ f -> f ()) }

(* Whether this thread is inside a ring-window drain — the ground
   truth the crash sweep compares against the flight recorder's
   Ring_drain_begin/end breadcrumbs. Module-level for the same reason
   as the store's held-stripe list: the drain spans functor
   boundaries (server -> executor -> store) and is a property of the
   thread, not of any one instantiation. *)
let in_ring_drain : bool ref Tls.key = Tls.new_key (fun () -> ref false)

let in_ring_drain_now () = !(Tls.get in_ring_drain)

(* Span phases of a server drain. *)
let batch_phase = Telemetry.Span.phase "srv.batch"

let ring_phase = Telemetry.Span.phase "srv.ring"

let queue_phase = Telemetry.Span.phase "queue"

let parse_phase = Telemetry.Span.phase "parse"

let reply_phase = Telemetry.Span.phase "reply"

(* Generic over the store's memory/allocator so the same server can
   front a private slab store (the classic baseline) or a shared Ralloc
   heap (the hybrid deployment of the paper's §6: remote clients over
   sockets, local clients through Hodor, one store). *)
module Make_generic
    (M : Mc_core.Memory_intf.MEMORY)
    (A : Mc_core.Memory_intf.ALLOCATOR)
    (S : Platform.Sync_intf.S) =
struct
  module T = Transport.Sock.Make (S)
  module E = Executor.Make (M) (A) (S)
  module Store = E.Store

  (** Ring mode's tie to the heap owner: the library (Plib) carves ring
      pairs out of its shared heap, seals them under per-connection
      vkeys, and records them in the ring directory for recovery; the
      server just calls these at accept/teardown. *)
  type ring_ctx = {
    rc_cfg : ring_config;
    rc_alloc : int -> T.ring_attach;  (** cid -> sealed ring pair *)
    rc_free : int -> T.ring_attach -> unit;
  }

  type t = {
    cfg : config;
    store : Store.t;
    listener : T.listener;
    inboxes : T.message S.chan array;
    conns : (int, T.conn) Hashtbl.t;
    conns_lock : Mutex.t;
    tenant_of : (int, string) Hashtbl.t;
    (** connection-bound tenant identity (cid → tenant name), assigned
        once at accept time; also guarded by [conns_lock] *)
    assign_tenant : int -> string option;
    wrap : wrapper;
    (** runs each batch execution; the hybrid server passes the Hodor
        batch trampoline here so worker threads gain access rights to
        the shared heap the way any other client of the library does —
        one crossing per drained batch, not per request *)
    ring_ctx : ring_ctx option;
    ring_conns : (int, T.conn) Hashtbl.t array;
    (** per-worker ring connections (guarded by [conns_lock]) *)
    ring_states : (int, wstate) Hashtbl.t;
    (** cid -> adaptive-window state (created/removed under
        [conns_lock]; the scalar fields are the owning worker's) *)
    mutable threads : S.thread list;
  }

  let parse_batch cfg payload =
    match cfg.protocol with
    | Ascii -> Mc_protocol.Ascii.parse_batch payload
    | Binary -> Mc_protocol.Binary.parse_batch payload

  let encode_reply cfg (cmd : P.command) (resp : P.response) =
    match cfg.protocol with
    | Ascii -> Mc_protocol.Ascii.encode_response resp
    | Binary -> Mc_protocol.Binary.encode_reply ~for_cmd:cmd resp

  let find_conn t cid =
    Mutex.lock t.conns_lock;
    let c = Hashtbl.find_opt t.conns cid in
    Mutex.unlock t.conns_lock;
    match c with
    | Some c -> c
    | None -> failwith "worker: message from unregistered connection"

  let drop_conn t cid =
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns cid;
    Hashtbl.remove t.tenant_of cid;
    Mutex.unlock t.conns_lock

  let tenant_of t cid =
    Mutex.lock t.conns_lock;
    let r = Hashtbl.find_opt t.tenant_of cid in
    Mutex.unlock t.conns_lock;
    r

  (* Each worker owns an event loop over its queue. A read from a
     socket delivers an arbitrary byte chunk — possibly a fragment of
     one request, possibly several pipelined requests — so the worker
     keeps a per-connection reassembly buffer. The batch plane drains
     {e every} complete request out of it at once: one parse pass, one
     wrapped (= one protection crossing) batch execution with grouped
     stripe locking, one reply buffer, one send. *)
  let worker_loop t inbox =
    let buffers : (int, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
    let buffer_of cid =
      match Hashtbl.find_opt buffers cid with
      | Some b -> b
      | None ->
        let b = Buffer.create 256 in
        Hashtbl.add buffers cid b;
        b
    in
    (* [enq_at] is the socket enqueue stamp of the oldest chunk this
       drain is serving: the trace is backdated to it, so the time a
       request sat in the worker's event queue appears as its own
       [queue] phase. Re-entries (leftover pipelined bytes) pass no
       stamp — those bytes were just produced, nothing queued. *)
    let rec drain ?enq_at conn cid buf =
      let data = Buffer.contents buf in
      if String.length data = 0 then ()
      else begin
        let root = Telemetry.Span.ingress ?t_start:enq_at batch_phase in
        (match enq_at with
         | Some at ->
           (* opened backdated, closed immediately: [at, now] is
              exactly the queueing window *)
           Telemetry.Span.finish
             (Telemetry.Span.start ~t_start:at queue_phase)
         | None -> ());
        let psp = Telemetry.Span.start parse_phase in
        match parse_batch t.cfg data with
        | [], _ ->
          (* an incomplete prefix: wait for the next chunk *)
          Telemetry.Span.finish psp;
          Telemetry.Span.drop root
        | cmds, consumed ->
          Buffer.clear buf;
          Buffer.add_substring buf data consumed (String.length data - consumed);
          S.advance (List.length cmds * CM.current.proto_parse);
          Telemetry.Span.finish psp;
          (* Quit closes the connection; everything before it still
             executes, anything after it is discarded with the
             connection (what a socket close does to pipelined bytes). *)
          let before_quit, quit =
            let rec split acc = function
              | [] -> (List.rev acc, false)
              | P.Quit :: _ -> (List.rev acc, true)
              | c :: tl -> split (c :: acc) tl
            in
            split [] cmds
          in
          (* Tenant-bound connection: rewrite every command into the
             tenant's namespace before execution, then strip the
             prefix back out of the replies and roll the per-tenant
             stats. The whole scoped batch still runs under one wrap
             (= one protection crossing in the hybrid server), so the
             batch plane — stripe groups, optimistic reads — stays
             tenant-scoped for free: the scoped key is the only key
             the store ever sees. *)
          let tenant = tenant_of t cid in
          let before_quit =
            match tenant with
            | None -> before_quit
            | Some name ->
              List.map
                (Executor.scope_command ~prefix:(name ^ "/"))
                before_quit
          in
          let pairs =
            match before_quit with
            | [] -> []
            | cmds ->
              t.wrap.wrap ~ops:(List.length cmds) (fun () ->
                let pairs = E.execute_batch t.store cmds in
                (* Accounting touches the tenant registry, which lives
                   in the protected heap — it must happen inside the
                   crossing, while this thread still holds access. *)
                (match tenant with
                 | None -> ()
                 | Some name ->
                   List.iter
                     (fun (c, r) -> Executor.account_tenant ~name c r)
                     pairs);
                pairs)
          in
          let pairs =
            match tenant with
            | None -> pairs
            | Some name ->
              let prefix = name ^ "/" in
              List.map
                (fun (c, r) -> (c, Executor.unscope_response ~prefix r))
                pairs
          in
          (* One output buffer for the whole batch, one send. *)
          Telemetry.Span.around reply_phase (fun () ->
            let out = Buffer.create 256 in
            List.iter
              (fun (cmd, resp) ->
                if not (P.suppress_reply cmd resp) then begin
                  S.advance CM.current.proto_pack;
                  Buffer.add_string out (encode_reply t.cfg cmd resp)
                end)
              pairs;
            if Buffer.length out > 0 then
              T.server_send conn (Buffer.contents out));
          Telemetry.Span.finish root;
          if quit then begin
            T.close_conn conn;
            drop_conn t cid;
            Hashtbl.remove buffers cid
          end
          else
            (* Whatever stayed buffered is an incomplete prefix — or
               garbage, which the re-entry reports and drops. *)
            drain conn cid buf
        | exception P.Need_more_data ->
          (* wait for the next chunk *)
          Telemetry.Span.finish psp;
          Telemetry.Span.drop root
        | exception P.Parse_error m ->
          (* resync by dropping the buffered garbage *)
          Telemetry.Span.finish psp;
          Buffer.clear buf;
          S.advance CM.current.proto_pack;
          T.server_send conn (encode_reply t.cfg (P.Invalid m) (P.Client_error m));
          Telemetry.Span.drop root
      end
    in
    let rec loop () =
      match T.worker_drain inbox with
      | exception S.Closed -> ()
      | msgs ->
        (* Append every drained chunk to its connection's buffer first,
           so pipelined requests split across chunks reassemble before
           the batch runs; then drain each touched connection once. *)
        let touched : (int * int) list ref = ref [] in
        List.iter
          (fun { T.m_cid = cid; m_payload = payload; m_at = at } ->
            Buffer.add_string (buffer_of cid) payload;
            (* first chunk per cid carries the earliest enqueue stamp
               (the inbox is FIFO) — that is the trace's backdate *)
            if not (List.mem_assoc cid !touched) then
              touched := (cid, at) :: !touched)
          msgs;
        List.iter
          (fun (cid, at) ->
            drain ~enq_at:at (find_conn t cid) cid (buffer_of cid))
          (List.rev !touched);
        loop ()
    in
    loop ()

  (* ---- shared-ring mode ---------------------------------------------- *)

  let ring_state t cid =
    Mutex.lock t.conns_lock;
    let st =
      match Hashtbl.find_opt t.ring_states cid with
      | Some st -> st
      | None ->
        let st = fresh_wstate () in
        Hashtbl.replace t.ring_states cid st;
        st
    in
    Mutex.unlock t.conns_lock;
    st

  let release_ring_conn t wi conn =
    let cid = conn.T.cid in
    (match (t.ring_ctx, T.rings_of conn) with
     | Some rc, Some ra -> rc.rc_free cid ra
     | _ -> ());
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.ring_conns.(wi) cid;
    Hashtbl.remove t.ring_states cid;
    Mutex.unlock t.conns_lock;
    drop_conn t cid

  (* Validation caught forged slot headers: kill this connection only.
     Its rings were private to its vkey, so nothing it stomped can have
     reached another connection or the library's own state. *)
  let bounce_ring_conn t wi conn =
    T.ring_bounce conn;
    release_ring_conn t wi conn

  (* One adaptive-window drain = one wrapped execution = one protection
     crossing. The ring consume (copy-in) runs *inside* the crossing,
     like the paper's copy_in idiom — the bytes leave the
     client-writable pages before the parser trusts them — and the
     whole window's parse + grouped execution rides the same crossing,
     so crossings/op is 1/window with no caller-side batching. *)
  let ring_drain t conn cid buf ~msgs ~first_stamp =
    let st = ring_state t cid in
    let root = Telemetry.Span.ingress ~t_start:first_stamp ring_phase in
    Telemetry.Span.finish
      (Telemetry.Span.start ~t_start:first_stamp queue_phase);
    let tenant = tenant_of t cid in
    let outcome =
      t.wrap.wrap ~ops:(max 1 msgs) (fun () ->
        (* Flag and breadcrumb move together in one sync-free region
           (and again on the way out): an abrupt kill leaves both
           saying mid-drain; a clean or exceptional exit clears both. *)
        let draining = Tls.get in_ring_drain in
        draining := true;
        Telemetry.Flight.record Telemetry.Flight.Ring_drain_begin ~a:1 ~b:cid
          ~c:msgs;
        Fun.protect
          ~finally:(fun () ->
            draining := false;
            Telemetry.Flight.record Telemetry.Flight.Ring_drain_end ~a:0
              ~b:cid ~c:msgs)
        @@ fun () ->
        match T.ring_consume conn with
        | Error e -> `Forged e
        | Ok chunks ->
            List.iter (fun (m, _stamp) -> Buffer.add_string buf m) chunks;
          let data = Buffer.contents buf in
          if String.length data = 0 then `Pairs ([], false)
          else begin
            let psp = Telemetry.Span.start parse_phase in
            match parse_batch t.cfg data with
            | [], _ ->
              (* an incomplete prefix: wait for the next chunks *)
              Telemetry.Span.finish psp;
              `Pairs ([], false)
            | cmds, consumed ->
              Buffer.clear buf;
              Buffer.add_substring buf data consumed
                (String.length data - consumed);
              S.advance (List.length cmds * CM.current.proto_parse);
              Telemetry.Span.finish psp;
              let before_quit, quit =
                let rec split acc = function
                  | [] -> (List.rev acc, false)
                  | P.Quit :: _ -> (List.rev acc, true)
                  | c :: tl -> split (c :: acc) tl
                in
                split [] cmds
              in
              let before_quit =
                match tenant with
                | None -> before_quit
                | Some name ->
                  List.map
                    (Executor.scope_command ~prefix:(name ^ "/"))
                    before_quit
              in
              let pairs =
                match before_quit with
                | [] -> []
                | cmds ->
                  let pairs = E.execute_batch t.store cmds in
                  (match tenant with
                   | None -> ()
                   | Some name ->
                     List.iter
                       (fun (c, r) -> Executor.account_tenant ~name c r)
                       pairs);
                  pairs
              in
              `Pairs (pairs, quit)
            | exception P.Need_more_data ->
              Telemetry.Span.finish psp;
              `Pairs ([], false)
            | exception P.Parse_error m ->
              Telemetry.Span.finish psp;
              `Garbage m
          end)
    in
    match outcome with
    | `Forged _reason ->
      Telemetry.Span.drop root;
      `Bounce
    | `Garbage m ->
      (* resync by dropping the buffered garbage *)
      Buffer.clear buf;
      S.advance CM.current.proto_pack;
      T.server_send conn (encode_reply t.cfg (P.Invalid m) (P.Client_error m));
      Telemetry.Span.drop root;
      `Ok
    | `Pairs (pairs, quit) ->
      st.w_drains <- st.w_drains + 1;
      st.w_ops <- st.w_ops + max 1 msgs;
      let pairs =
        match tenant with
        | None -> pairs
        | Some name ->
          let prefix = name ^ "/" in
          List.map
            (fun (c, r) -> (c, Executor.unscope_response ~prefix r))
            pairs
      in
      Telemetry.Span.around reply_phase (fun () ->
        let out = Buffer.create 256 in
        List.iter
          (fun (cmd, resp) ->
            if not (P.suppress_reply cmd resp) then begin
              S.advance CM.current.proto_pack;
              Buffer.add_string out (encode_reply t.cfg cmd resp)
            end)
          pairs;
        if Buffer.length out > 0 then T.server_send conn (Buffer.contents out));
        Telemetry.Span.finish root;
      if quit then `Quit else `Ok

  (* The ring worker's event loop. Instead of blocking on the socket
     queue it polls its connections' submission rings (shared-memory
     header reads, no syscall), fires a drain when a window is due —
     occupancy reached the adaptive window, or the nagle deadline
     expired — and only parks (arming every ring for a doorbell) when
     every ring is empty. Parking resets the windows to 1: the first
     op after an idle period is dispatched immediately, which is what
     keeps the unloaded latency at the B=1 point. *)
  let ring_worker_loop t wi inbox =
    let rcfg =
      match t.ring_ctx with Some rc -> rc.rc_cfg | None -> assert false
    in
    let buffers : (int, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
    let buffer_of cid =
      match Hashtbl.find_opt buffers cid with
      | Some b -> b
      | None ->
        let b = Buffer.create 256 in
        Hashtbl.add buffers cid b;
        b
    in
    let my_conns () =
      Mutex.lock t.conns_lock;
      let l = Hashtbl.fold (fun _ c acc -> c :: acc) t.ring_conns.(wi) [] in
      Mutex.unlock t.conns_lock;
      List.sort (fun a b -> compare a.T.cid b.T.cid) l
    in
    (* When the window is due by time rather than occupancy: the
       expected arrival of the Wth message — [w-1] gaps after the
       first, plus half a gap of jitter slack so a window that fills
       exactly on schedule counts as full rather than short — capped
       at [r_t_max_ns] of added latency. Anchoring at the *first*
       pending stamp keeps the bound per-op: however the window
       grows, no request waits past the cap. *)
    let deadline st (p : Transport.Ring.pending) =
      if st.w_ewma_gap <= 0 then p.Transport.Ring.p_first_stamp
      else
        p.Transport.Ring.p_first_stamp
        + min rcfg.r_t_max_ns
            ((st.w_ewma_gap * (2 * (st.w_window - 1) + 1)) / 2)
    in
    let update_ewma st (p : Transport.Ring.pending) =
      let open Transport.Ring in
      if p.p_last_stamp > st.w_last_stamp then begin
        let gap =
          if p.p_msgs >= 2 then
            (p.p_last_stamp - p.p_first_stamp) / (p.p_msgs - 1)
          else if st.w_last_stamp > 0 then p.p_last_stamp - st.w_last_stamp
          else 0
        in
        if gap > 0 then
          st.w_ewma_gap <-
            (if st.w_ewma_gap = 0 then gap
             else ((7 * st.w_ewma_gap) + gap) / 8);
        st.w_last_stamp <- p.p_last_stamp
      end
    in
    (* Adapt toward the rate-matched target: the largest window that
       fills within [r_t_max_ns] at the EWMA arrival rate. A fast
       stream (small gap) earns a big window — up to B_max — because
       each op's share of the nagle residue is tiny next to the
       crossings it saves; a slow stream's target degenerates to 1, so
       sporadic requests keep immediate dispatch. The drained count
       alone can't drive growth: at W=1 a drain fires on the first
       message, so every drain collects exactly one. Growth doubles
       toward the target; a drain that came in under the window halves
       it — which is also how a falling rate deflates the window,
       since the capped deadline then fires before the window fills. *)
    let adapt st ~drained =
      let target =
        if st.w_ewma_gap <= 0 then 1
        else max 1 (min rcfg.r_b_max (rcfg.r_t_max_ns / st.w_ewma_gap))
      in
      (* Overload raises the target past the rate-matched one: a drain
         that collected more than the window means the worker is
         behind, and then a bigger batch is free latency-wise — the
         queue is already longer than the window. *)
      let target = max target (min rcfg.r_b_max drained) in
      if drained >= st.w_window && st.w_window < target then
        st.w_window <- min (st.w_window * 2) target
      else if drained < st.w_window then
        st.w_window <- max (st.w_window / 2) 1
    in
    let rec loop () =
      let now = S.now_ns () in
      let acted = ref false in
      let next_deadline = ref max_int in
      List.iter
        (fun conn ->
          let cid = conn.T.cid in
          match T.ring_pending conn with
          | Error _ ->
            bounce_ring_conn t wi conn;
            Hashtbl.remove buffers cid;
            acted := true
          | Ok None ->
            (ring_state t cid).w_occ <- 0
          | Ok (Some p) ->
            let st = ring_state t cid in
            st.w_occ <- p.Transport.Ring.p_msgs;
            update_ewma st p;
            let dl = deadline st p in
            if p.Transport.Ring.p_msgs >= st.w_window || now >= dl then begin
              acted := true;
              T.ring_arm conn false;
              match
                ring_drain t conn cid (buffer_of cid)
                  ~msgs:p.Transport.Ring.p_msgs
                  ~first_stamp:p.Transport.Ring.p_first_stamp
              with
              | `Ok -> adapt st ~drained:p.Transport.Ring.p_msgs
              | `Quit ->
                T.close_conn conn;
                release_ring_conn t wi conn;
                Hashtbl.remove buffers cid
              | `Bounce ->
                bounce_ring_conn t wi conn;
                Hashtbl.remove buffers cid
            end
            else next_deadline := min !next_deadline dl)
        (my_conns ());
      if !acted then loop ()
      else if !next_deadline < max_int then begin
        (* a window is filling: sleep out the nagle residue *)
        S.sleep_ns (max 200 (!next_deadline - now));
        loop ()
      end
      else begin
        (* idle: arm every ring, re-check (the produce-then-check-armed
           protocol makes this race-free), then park on the doorbell *)
        let conns = my_conns () in
        List.iter (fun c -> T.ring_arm c true) conns;
        let ready =
          List.exists
            (fun c ->
              match T.ring_pending c with
              | Ok None -> false
              | Ok (Some _) | Error _ -> true)
            conns
        in
        if ready then begin
          List.iter (fun c -> T.ring_arm c false) conns;
          loop ()
        end
        else begin
          S.advance CM.current.syscall_select;
          match S.recv inbox with
          | exception S.Closed -> ()
          | _doorbell ->
            T.ctx_switch_penalty ();
            let rec clear () =
              match S.try_recv inbox with
              | Some _ -> clear ()
              | None -> ()
              | exception S.Closed -> ()
            in
            clear ();
            List.iter (fun c -> T.ring_arm c false) conns;
            (* waking from true idle: snap back to immediate dispatch *)
            List.iter (fun c -> (ring_state t c.T.cid).w_window <- 1) conns;
            loop ()
        end
      end
    in
    loop ()

  let acceptor_loop t =
    let next = ref 0 in
    let register conn =
      (match t.ring_ctx with
       | Some rc ->
         let ra = rc.rc_alloc conn.T.cid in
         T.attach_rings conn ra;
         (* the worker may already be parked: the first send must find
            the doorbell armed *)
         T.ring_arm conn true
       | None -> ());
      Mutex.lock t.conns_lock;
      Hashtbl.replace t.conns conn.T.cid conn;
      (match t.ring_ctx with
       | Some _ ->
         Hashtbl.replace t.ring_conns.(!next mod t.cfg.workers) conn.T.cid conn;
         Hashtbl.replace t.ring_states conn.T.cid (fresh_wstate ())
       | None -> ());
      (* bind the tenant identity before the client is released, so no
         request can race ahead of its own scoping *)
      (match t.assign_tenant conn.T.cid with
       | Some name -> Hashtbl.replace t.tenant_of conn.T.cid name
       | None -> ());
      Mutex.unlock t.conns_lock
    in
    let rec loop () =
      match
        T.accept ~register t.listener
          ~inbox:t.inboxes.(!next mod t.cfg.workers)
      with
      | _conn ->
        incr next;
        loop ()
      | exception S.Closed -> ()
    in
    loop ()

  (* [prebuilt] lets benchmark sweeps reuse one loaded store across
     many server incarnations (the dataset outlives the threads), and
     is how the hybrid deployment hands the shared store in. *)
  let start_with ?(cfg = default_config) ?(wrap = default_wrapper)
      ?(assign_tenant = fun _ -> None) ?ring_ctx ~store ~name () =
    let listener = T.listen ~name in
    let inboxes = Array.init cfg.workers (fun _ -> S.chan ()) in
    let t =
      { cfg; store; listener; inboxes; conns = Hashtbl.create 64;
        conns_lock = Mutex.create (); tenant_of = Hashtbl.create 8;
        assign_tenant; wrap; ring_ctx;
        ring_conns = Array.init cfg.workers (fun _ -> Hashtbl.create 8);
        ring_states = Hashtbl.create 16; threads = [] }
    in
    (match ring_ctx with
     | None -> ()
     | Some rc ->
       (* ring geometry and window knobs appended to `stats settings` *)
       let prev_settings = !Executor.settings_stats_hook in
       Executor.settings_stats_hook :=
         (fun () ->
           prev_settings ()
           @ [ ("ring_slots", string_of_int rc.rc_cfg.r_slots);
               ("ring_slot_bytes", string_of_int rc.rc_cfg.r_slot_bytes);
               ("ring_b_max", string_of_int rc.rc_cfg.r_b_max);
               ("ring_t_max_ns", string_of_int rc.rc_cfg.r_t_max_ns) ]);
       (* live window/occupancy figures appended to `stats rings` *)
       Executor.rings_stats_hook :=
         (fun () ->
           Mutex.lock t.conns_lock;
           let sts =
             Hashtbl.fold (fun cid st acc -> (cid, st) :: acc) t.ring_states []
           in
           Mutex.unlock t.conns_lock;
           List.concat_map
             (fun (cid, st) ->
               let tag k = Printf.sprintf "rings:conn%d:%s" cid k in
               [ (tag "window", string_of_int st.w_window);
                 (tag "occupancy", string_of_int st.w_occ);
                 (tag "drains", string_of_int st.w_drains);
                 (tag "ops", string_of_int st.w_ops) ])
             (List.sort compare sts)));
    let acceptor = S.spawn ~name:(name ^ ".acceptor") (fun () -> acceptor_loop t) in
    let workers =
      List.init cfg.workers (fun i ->
        S.spawn
          ~name:(Printf.sprintf "%s.worker%d" name i)
          (fun () ->
            match ring_ctx with
            | Some _ -> ring_worker_loop t i inboxes.(i)
            | None -> worker_loop t inboxes.(i)))
    in
    t.threads <- acceptor :: workers;
    t

  (* Shut down: refuse new connections, drain workers, close replies. *)
  let stop t =
    T.close_listener t.listener;
    Array.iter S.close t.inboxes;
    List.iter S.join t.threads;
    Mutex.lock t.conns_lock;
    Hashtbl.iter (fun _ c -> T.close_conn c) t.conns;
    Hashtbl.reset t.conns;
    Mutex.unlock t.conns_lock;
    match t.ring_ctx with
    | None -> ()
    | Some rc ->
      Array.iter
        (fun tbl ->
          Hashtbl.iter
            (fun cid c ->
              match T.rings_of c with
              | Some ra -> rc.rc_free cid ra
              | None -> ())
            tbl;
          Hashtbl.reset tbl)
        t.ring_conns;
      Hashtbl.reset t.ring_states;
      Executor.rings_stats_hook := (fun () -> []);
      Executor.settings_stats_hook := (fun () -> [])

  let store t = t.store
end

(* The classic baseline: a private slab-backed store behind sockets. *)
module Make (S : Platform.Sync_intf.S) = struct
  include Make_generic (Mc_core.Private_memory) (Mc_core.Slab) (S)

  let start ?(cfg = default_config) ?prebuilt ~name () =
    let store =
      match prebuilt with
      | Some store -> store
      | None ->
        let arena = Mc_core.Private_memory.create ~limit:(2 * cfg.mem_limit) in
        let slab = Mc_core.Slab.create ~arena ~mem_limit:cfg.mem_limit in
        Store.create ~mem:arena ~alloc:slab cfg.store
    in
    start_with ~cfg ~store ~name ()
end

(* The hybrid deployment (§6): the bookkeeping process exposes its
   shared, Hodor-protected store over sockets for remote clients while
   local clients keep calling through trampolines. *)
module Make_hybrid (S : Platform.Sync_intf.S) =
  Make_generic (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (S)
