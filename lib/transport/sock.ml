(** Unix-domain-socket model with memcached's event-dispatch shape.

    Architecture mirrors memcached + libevent:
    - a listener accepts connections and the server assigns each to a
      worker thread;
    - a worker owns one event queue; readiness of any of its
      connections lands there (client sends are tagged with the
      connection id), which is what a libevent loop over many sockets
      amounts to;
    - replies flow through a per-connection channel back to the client.

    Costs are charged per syscall from {!Platform.Cost_model}, plus a
    context-switch penalty when a receive actually has to block — the
    dynamics the paper uses to explain the baseline's scaling (§4.1):
    with enough clients, a worker's queue is never empty and the
    select returns without a context switch.

    The same code runs on real threads or on the virtual-time machine
    (functor over {!Platform.Sync_intf.S}). *)

module CM = Platform.Cost_model
module C = Telemetry.Counters

(* The listener namespace is process-global, like the filesystem
   namespace Unix-domain sockets live in: every instantiation of
   {!Make} over the same substrate shares it. Entries are segregated
   by [S.name], so a real-thread listener can never be dialed from
   inside the VM or vice versa; within one substrate the stored
   listener always has that substrate's type, making the [Obj]
   round-trip safe. *)
let global_listeners : (string, Obj.t) Hashtbl.t = Hashtbl.create 8

let global_lock = Mutex.create ()

module Make (S : Platform.Sync_intf.S) = struct
  type message = {
    m_cid : int;
    m_payload : string;
    m_at : int;
        (** enqueue stamp ({!S.now_ns} at [client_send]) — lets the
            server backdate a request's trace to when the bytes hit the
            socket, so queueing shows up as its own phase *)
  }

  (** Shared-ring attachment: when a ring-mode server accepts a
      connection it carves a submission/completion ring pair out of the
      shared heap, seals the pages under a per-connection vkey, and
      hangs the pair here. The data path below then dispatches on it —
      sends become ring produces (no syscall unless the consumer is
      parked and wants a doorbell), receives become ring consumes — and
      both {!Core.Socket_client} and the server's drain loop work
      unchanged on either kind of connection. *)
  type ring_attach = {
    ra_sub : Ring.t;  (** client -> server (requests) *)
    ra_comp : Ring.t;  (** server -> client (replies) *)
    ra_vkey : int;  (** seals both rings' pages; conn-private *)
  }

  type conn = {
    cid : int;
    inbox : message S.chan;  (** the owning worker's event queue *)
    reply : string S.chan;
    mutable rings : ring_attach option;
  }

  type listener = {
    l_name : string;
    backlog : (conn option -> unit) S.chan;
    (** connect() parks a resolver here; accept() completes it *)
  }

  exception Connection_closed

  exception Refused
  (** Raised by an {!accept} [register] hook to turn one connection
      away: the client's {!connect} fails, the listener stays open. *)

  (* --- listener registry (a simulated abstract-socket namespace) --- *)

  let scoped name = S.name ^ ":" ^ name

  let reset () =
    Mutex.lock global_lock;
    Hashtbl.reset global_listeners;
    Mutex.unlock global_lock

  let listen ~name =
    let l = { l_name = name; backlog = S.chan () } in
    Mutex.lock global_lock;
    Hashtbl.replace global_listeners (scoped name) (Obj.repr l);
    Mutex.unlock global_lock;
    l

  let close_listener l =
    Mutex.lock global_lock;
    Hashtbl.remove global_listeners (scoped l.l_name);
    Mutex.unlock global_lock;
    S.close l.backlog

  let next_cid = Atomic.make 1

  (* Client side: block until the server accepts and assigns a worker. *)
  let connect ~name =
    let l =
      Mutex.lock global_lock;
      let r = Hashtbl.find_opt global_listeners (scoped name) in
      Mutex.unlock global_lock;
      match r with
      | Some l -> (Obj.obj l : listener)
      | None -> failwith ("connect: no listener on " ^ name)
    in
    S.advance (2 * CM.current.syscall_send) (* socket() + connect() *);
    let cell = S.chan ~cap:1 () in
    (try S.send l.backlog (fun c -> S.send cell c)
     with S.Closed -> failwith ("connect: " ^ name ^ " is shut down"));
    match S.recv cell with
    | Some conn -> conn
    | None -> failwith ("connect: " ^ name ^ " refused the connection")

  (* Server side: accept the oldest pending connect and bind it to
     [inbox] (the chosen worker's event queue). [register] runs before
     the client is released, so server-side connection tables are
     populated before the first request can arrive. A connection
     [register] refuses is closed on the client and the next pending
     connect is accepted instead. *)
  let rec accept ?(register = fun (_ : conn) -> ()) l ~inbox =
    let resolve = S.recv l.backlog in
    S.advance CM.current.syscall_recv (* accept() *);
    let conn =
      { cid = Atomic.fetch_and_add next_cid 1; inbox; reply = S.chan ();
        rings = None }
    in
    match register conn with
    | () ->
      resolve (Some conn);
      conn
    | exception Refused ->
      resolve None;
      accept ~register l ~inbox

  (* --- ring attachment ------------------------------------------------ *)

  let attach_rings conn ra = conn.rings <- Some ra

  let rings_of conn = conn.rings

  (* Grant this thread the connection's vkey: ring pages open, the rest
     of the heap (and every other connection's rings) still sealed. *)
  let ring_grant ra = ignore (Pku.Vpkey.enable ra.ra_vkey)

  (* A receive that actually blocked pays a context switch: a little
     CPU, and scheduling latency during which the thread is off-CPU. *)
  let ctx_switch_penalty () =
    S.advance CM.current.ctx_switch_cpu;
    S.sleep_ns (CM.current.ctx_switch - CM.current.ctx_switch_cpu)

  (* Bounce a ring connection: the consumer refuses the rings (forged
     slot headers, or a peer that stopped draining); both sides'
     producers raise from now on, and a parked client wakes with
     [Connection_closed]. Only this connection dies — its ring pages
     are private to its vkey, so nothing it wrote can have desynced
     anyone else. *)
  let ring_bounce conn =
    match conn.rings with
    | None -> ()
    | Some ra ->
      ring_grant ra;
      Ring.mark_dead ra.ra_sub;
      Ring.mark_dead ra.ra_comp;
      C.incr C.Id.ring_kills;
      S.close conn.reply

  (* Producer-side flow control: spin-sleep until the ring has room.
     [bounded] callers (the server publishing completions) give up
     after a while — the client stopped consuming, dead or hostile —
     and bounce. *)
  let ring_wait_room ?(max_tries = max_int) ring ~len =
    let rec go tries =
      if Ring.is_dead ring then raise Connection_closed;
      if Ring.has_room ring ~len then true
      else if tries >= max_tries then false
      else begin
        C.incr C.Id.ring_full_waits;
        S.sleep_ns 2_000;
        go (tries + 1)
      end
    in
    go 0

  (* --- data path --- *)

  let legacy_client_send conn payload =
    S.advance CM.current.syscall_send;
    try
      S.send conn.inbox
        { m_cid = conn.cid; m_payload = payload; m_at = S.now_ns () }
    with S.Closed -> raise Connection_closed

  (* Submission-ring send: payload copied into sequence-stamped slots —
     no syscall at all unless the worker parked itself and asked for a
     doorbell. Messages larger than the ring carry as several chunks
     (the byte stream is what matters, framing is the parser's). *)
  let ring_client_send conn ra payload =
    let sub = ra.ra_sub in
    ring_grant ra;
    if Ring.is_dead sub then raise Connection_closed;
    let maxm = Ring.max_msg sub in
    let n = String.length payload in
    let at = ref 0 in
    while !at < n do
      let len = min maxm (n - !at) in
      let chunk = String.sub payload !at len in
      if not (ring_wait_room sub ~len) then raise Connection_closed;
      Ring.produce sub ~stamp:(S.now_ns ()) chunk;
      S.advance (CM.current.ring_slot + CM.memcpy_cost len);
      C.incr C.Id.ring_submits;
      at := !at + len
    done;
    if Ring.consumer_armed sub then begin
      (* the worker is parked: one syscall to ring its doorbell *)
      S.advance CM.current.syscall_send;
      C.incr C.Id.ring_doorbells;
      try
        S.send conn.inbox { m_cid = conn.cid; m_payload = ""; m_at = S.now_ns () }
      with S.Closed -> raise Connection_closed
    end

  let client_send conn payload =
    match conn.rings with
    | None -> legacy_client_send conn payload
    | Some ra -> ring_client_send conn ra payload

  let legacy_client_recv conn =
    (* If the reply is already there, the read returns straight from
       the kernel; otherwise the client blocks and pays a context
       switch on wake-up. *)
    match S.try_recv conn.reply with
    | Some m ->
      S.advance CM.current.syscall_recv;
      m
    | None ->
      S.advance CM.current.syscall_recv;
      let m =
        try S.recv conn.reply with S.Closed -> raise Connection_closed
      in
      ctx_switch_penalty ();
      m
    | exception S.Closed -> raise Connection_closed

  (* Completion-ring receive. Fast path: a completion is already
     published — consume it with zero kernel involvement. Slow path:
     arm the ring, re-check (the publish-then-check-armed producer
     protocol makes the wakeup race-free), then park on the reply
     channel, which stands in for a futex wait. *)
  let ring_client_recv conn ra =
    let comp = ra.ra_comp in
    ring_grant ra;
    let take msg =
      S.advance (CM.current.ring_slot + CM.memcpy_cost (String.length msg));
      msg
    in
    let rec await () =
      if Ring.is_dead comp then raise Connection_closed;
      match Ring.consume_one comp with
      | Some msg -> take msg
      | None ->
        Ring.set_armed comp true;
        (match Ring.consume_one comp with
         | Some msg ->
           Ring.set_armed comp false;
           take msg
         | None ->
           S.advance CM.current.syscall_recv (* futex-style wait *);
           (match S.recv conn.reply with
            | _token ->
              ctx_switch_penalty ();
              Ring.set_armed comp false;
              await ()
            | exception S.Closed -> raise Connection_closed))
    in
    await ()

  let client_recv conn =
    match conn.rings with
    | None -> legacy_client_recv conn
    | Some ra -> ring_client_recv conn ra

  (* Worker side: pull the next event off the queue. The
     immediate-vs-blocking distinction is the paper's select()
     behaviour. *)
  let worker_recv (inbox : message S.chan) =
    (* The kernel copies the payload out on read(2): charge the wire
       cost here, serialized into the server's critical path. *)
    match S.try_recv inbox with
    | Some m ->
      S.advance
        (CM.current.syscall_select + CM.current.syscall_recv
         + CM.wire_cost (String.length m.m_payload));
      m
    | None ->
      S.advance (CM.current.syscall_select + CM.current.syscall_recv);
      let m = S.recv inbox in
      ctx_switch_penalty ();
      S.advance (CM.wire_cost (String.length m.m_payload));
      m

  (* Batch plane: drain everything the event queue already holds in one
     go — one select() covering all ready connections, then one read(2)
     per connection that had pending bytes, the wire cost covering every
     byte copied out of that connection's kernel buffer. Blocks (with
     the context-switch penalty) only when nothing is pending at all.
     For a single pending message the total charge equals
     [worker_recv]'s; the amortization appears exactly when a
     connection pipelined multiple requests into the queue. *)
  let worker_drain (inbox : message S.chan) : message list =
    let first =
      match S.try_recv inbox with
      | Some m ->
        S.advance CM.current.syscall_select;
        m
      | None ->
        S.advance CM.current.syscall_select;
        let m = S.recv inbox in
        ctx_switch_penalty ();
        m
    in
    let rec drain acc =
      match S.try_recv inbox with
      | Some m -> drain (m :: acc)
      | None | (exception S.Closed) -> List.rev acc
    in
    let msgs = first :: drain [] in
    let cids = List.sort_uniq compare (List.map (fun m -> m.m_cid) msgs) in
    S.advance (List.length cids * CM.current.syscall_recv);
    List.iter
      (fun m -> S.advance (CM.wire_cost (String.length m.m_payload)))
      msgs;
    msgs

  let legacy_server_send conn payload =
    S.advance (CM.current.syscall_send + CM.current.wakeup);
    try S.send conn.reply payload with S.Closed -> ()

  (* Publish a coalesced reply into the completion ring. The syscall
     only happens when the client is parked; a pipelining client that
     keeps ahead of its completions never costs the server a wakeup. A
     client that stopped consuming (killed, or hostile) bounces after a
     bounded stall so one connection can never wedge its worker. *)
  let ring_server_send conn ra payload =
    let comp = ra.ra_comp in
    ring_grant ra;
    let maxm = Ring.max_msg comp in
    let n = String.length payload in
    (try
       let at = ref 0 in
       while !at < n do
         let len = min maxm (n - !at) in
         let chunk = String.sub payload !at len in
         if not (ring_wait_room ~max_tries:64 comp ~len) then begin
           ring_bounce conn;
           raise Connection_closed
         end;
         Ring.produce comp ~stamp:(S.now_ns ()) chunk;
         S.advance (CM.current.ring_slot + CM.memcpy_cost len);
         C.incr C.Id.ring_completions;
         at := !at + len
       done;
       if Ring.consumer_armed comp then begin
         S.advance (CM.current.syscall_send + CM.current.wakeup);
         try S.send conn.reply "" with S.Closed -> ()
       end
     with Connection_closed -> ())

  let server_send conn payload =
    match conn.rings with
    | None -> legacy_server_send conn payload
    | Some ra -> ring_server_send conn ra payload

  (* Worker-side ring primitives, used by the server's adaptive drain
     loop (lib/mc_server/server.ml). *)

  (* Validated peek at the published submission window — slot headers
     only, read outside the crossing under the connection's vkey. *)
  let ring_pending conn =
    match conn.rings with
    | None -> Ok None
    | Some ra ->
      ring_grant ra;
      S.advance CM.current.ring_slot;
      Ring.pending ra.ra_sub

  (* Copy the whole published window in — run *inside* the library
     crossing, like the paper's copy_in: the bytes leave the
     client-writable pages before anything parses them. An [Error]
     means the validation walk caught forged headers; the caller
     bounces the connection without entering the parser. *)
  let ring_consume conn =
    match conn.rings with
    | None -> Ok []
    | Some ra ->
      ring_grant ra;
      (match Ring.consume_all ra.ra_sub with
       | Ok msgs ->
         List.iter
           (fun (m, _) ->
             S.advance
               (CM.current.ring_slot + CM.memcpy_cost (String.length m)))
           msgs;
         if msgs <> [] then begin
           C.incr C.Id.ring_drains;
           C.add C.Id.ring_drain_ops (List.length msgs)
         end;
         Ok msgs
       | Error _ as e -> e)

  let ring_arm conn v =
    match conn.rings with
    | None -> ()
    | Some ra ->
      ring_grant ra;
      Ring.set_armed ra.ra_sub v

  let close_conn conn =
    (match conn.rings with
     | Some ra ->
       ring_grant ra;
       Ring.mark_dead ra.ra_sub;
       Ring.mark_dead ra.ra_comp
     | None -> ());
    S.close conn.reply

  (* --- a raw bidirectional pipe, for the null-call benchmark --- *)

  type pipe = { a2b : string S.chan; b2a : string S.chan }

  let pipe () = { a2b = S.chan (); b2a = S.chan () }

  let pipe_send ch payload =
    S.advance CM.current.syscall_send;
    S.send ch payload

  let pipe_recv ch =
    match S.try_recv ch with
    | Some m ->
      S.advance CM.current.syscall_recv;
      m
    | None ->
      S.advance CM.current.syscall_recv;
      let m = S.recv ch in
      ctx_switch_penalty ();
      m
end
