(** Crash-surviving flight recorder.

    A fixed-size per-lane breadcrumb ring written with the same
    publish-last stamping discipline as the transport rings: a
    record's payload words and checksum land first, its sequence word
    (position + 1) last, and the lane's position counter advances only
    after that. A kill anywhere inside the protocol leaves a record
    whose sequence or checksum does not validate — the record is
    simply absent from the post-mortem dump, never torn.

    The recorder writes through a pluggable word backend. The default
    is a host array (always live, so the write path is exercised even
    without a shared heap); the protected-library layer installs
    closures over its Ralloc heap block (root [root_flight]) so the
    breadcrumbs survive the process and feed {!Forensics} after
    recovery.

    Two record families with different atomicity:

    {b State records} (crossing enter/exit, stripe acquire/release,
    ring-drain begin/end) mark protocol-state transitions the
    post-mortem classifier keys on. They are written without any
    scheduler sync point, adjacent to the in-memory truth they mirror
    (the trampoline's depth counter, the store's held-stripe list),
    so under the simulator's cooperative scheduler the record and the
    state it describes move atomically — the classifier can never
    disagree with ground truth at a kill site. Each carries the
    post-transition state (depth, held count, drain flag) so a reader
    needs only the latest record of a family, not a balanced count.

    {b Info records} (op dispatch, tenant scope, large alloc/free)
    are annotations. Their publish deliberately crosses a scheduler
    sync point ({!Control.sync_point}, zero virtual cost) between the
    payload and the commit stamp, so the crash sweep exercises the
    torn-write window at every such site — the publish-last protocol
    is what keeps those kills invisible, and reverting it
    ({!publish_last_enabled}) makes the torn-record test go red.

    A small side area snapshots severity >= Error trace events
    ({!snapshot_trace}, called by {!Trace.emit}) so pre-crash
    warnings survive into the post-mortem even though the main trace
    ring is process-local.

    Cost (host time): a record is nine word accesses (the lane counter
    read, six payload words, the sequence stamp, the counter advance),
    each one direct call into the backend. The heap backend makes each
    a bounds-checked kernel-side heap access, with no closure, no mode
    switch and no pkey check (the [Flight.record] rows of
    [bench/main.exe micro]). *)

type kind =
  | Cross_enter  (** a = trampoline depth after entry *)
  | Cross_exit  (** a = depth after exit *)
  | Op_dispatch  (** a = op code ({!Forensics} table), b = tenant, c = conn *)
  | Stripe_acquire  (** a = stripes held after, b = stripe index *)
  | Stripe_release  (** a = stripes held after, b = stripe index *)
  | Group_acquire  (** a = stripes held after, b = first stripe, c = count *)
  | Group_release  (** a = stripes held after, b = count released *)
  | Ring_drain_begin  (** a = 1, b = conn id, c = messages in window *)
  | Ring_drain_end  (** a = 0, b = conn id, c = messages drained *)
  | Tenant_scope  (** a = tenant slot *)
  | Tenant_unscope  (** a = tenant slot *)
  | Alloc_large  (** a = bytes, b = heap offset *)
  | Free_large  (** a = bytes, b = heap offset *)

val kind_name : kind -> string

val lanes : int
(** Breadcrumb lanes; each thread writes to one, assigned round-robin. *)

val depth : int
(** Records per lane ring. *)

val bytes : int
(** Bytes a backing store must provide (8 bytes per word). *)

(** {2 Backend} *)

type backend = { read : int -> int; write : int -> int -> unit }
(** Word store over [bytes / 8] 64-bit words. [write] runs nine times
    per record: implementations should not allocate. *)

val install_backend : backend -> unit
(** Point the recorder at [b], formatting it unless it already carries
    this layout's header (re-attaching after a crash must preserve the
    breadcrumbs). *)

val reset_backend : unit -> unit
(** Back to the process-local host array. *)

val detach_backend : backend -> unit
(** {!reset_backend} if [b] is still the installed backend; otherwise
    nothing (another store installed its own since). *)

val ensure_formatted : unit -> unit
(** Format the installed backend unless its header matches. *)

val reset : unit -> unit
(** Zero the installed backend (tests and bench harness isolation). *)

(** {2 Publishing} *)

val publish_last_enabled : bool ref
(** Red-team toggle (shipping default [true]): with it off the
    sequence word is stamped before the payload, so a kill at an info
    record's sync point leaves a record that claims publication but
    fails its checksum — the torn-record test flips red. *)

val record : kind -> a:int -> b:int -> c:int -> unit
(** Publish one record on the calling thread's lane (fields per
    {!kind}; pass 0 for unused ones). A no-op with telemetry off. *)

(** {2 Post-mortem reads} *)

type entry = {
  e_pos : int;
  e_kind : kind;
  e_a : int;
  e_b : int;
  e_c : int;
  e_stamp : int;
}

val dump_lane : int -> entry list
(** Published records of one lane, oldest first. Walks back from the
    lane's position counter, including the salvage probe at the
    counter itself (a record fully stamped whose counter advance the
    kill pre-empted), truncating at the first record that fails
    validation — which absorbs the oldest slot when the kill landed
    mid-overwrite. *)

val torn_lanes : unit -> int list
(** Lanes whose head record claims publication (sequence word stamped)
    but fails validation — impossible under the shipping publish-last
    protocol, reachable with {!publish_last_enabled} off. *)

val lane_counts : unit -> int list
(** Total records ever published per lane (the position counters). *)

(** {2 Death note} *)

val note_death : unit -> unit
(** Stamp the calling thread's lane as the victim's (one word write,
    atomic under any schedule): the post-mortem's pointer to the
    victim timeline. *)

val victim_lane : unit -> int
(** The noted victim's lane, or -1 when no death is recorded. *)

val clear_victim : unit -> unit

(** {2 Trace snapshots} *)

type trace_snap = { t_seq : int; t_at : int; t_sev : int; t_msg : string }

val snapshot_trace : seq:int -> at:int -> sev:int -> string -> unit
(** Keep a severity >= Error trace event (first 128 bytes of its
    text) in the side area, publish-last on its sequence word. *)

val dump_traces : unit -> trace_snap list
(** The snapshots still in the side area, oldest first. *)

val settings_kvs : unit -> (string * string) list
