(** Causal span trees: where inside one request the time goes.

    A {e trace} is minted at op ingress (a protected-library call, a
    socket-server batch drain) and follows the request through every
    layer — trampoline crossing, stripe-lock wait/hold, store body,
    allocator — as a tree of {e spans}, one per phase. Completed traces
    land in bounded per-thread buffers (head + tail + always-keep-slow
    sampling) and are folded into a per-phase latency breakdown whose
    {e self} times sum exactly to end-to-end latency, in integer
    virtual nanoseconds.

    Determinism contract: timestamps come from {!Control.now_ns} (the
    Vm installs its virtual clock there), trace ids from a global
    counter bumped in scheduling order — a seeded [Vm] run yields the
    same traces every time. Nothing here advances virtual time, so the
    simulated latencies are identical with tracing on, off, or at any
    sampling rate.

    Sampling rules: the 1-in-[n] head-sampling decision is taken once
    at ingress ([TRACE_SAMPLE], default 1 = every trace); an unsampled
    trace still carries a root span, so a slow op is detected and kept
    (root-only) regardless of the sampling draw. *)

(** Cost (host time): a span start/finish pair on a sampled trace is
    a per-thread state read, two clock reads and a few int-array
    stores, and allocates nothing; completing a trace takes the module
    lock once, records one histogram per phase it touched plus the
    end-to-end one, and copies the span words into a preallocated
    buffer slot. A 5-span trace costs 500–650 ns on a 2-vCPU VM (the
    [span trace (5 phases)] row of [bench/main.exe micro]; it was
    2.1–3.4 µs with a record per span, lists and a hash table per
    trace). Operations on {!null} — unsampled children, trace-less
    paths, telemetry off — cost a per-thread state read and a
    compare. *)

type t = private int
(** A span handle: an unboxed int naming one span of this thread's
    trace in flight. A handle that outlives its trace is inert. *)

val null : t

type phase = private int
(** An interned phase (or root op) name. *)

val phase : string -> phase
(** Intern a phase name. Takes a lock: call it once, at the call
    site's module initialisation, not per span. *)

(* ---- Configuration -------------------------------------------------- *)

val set_sampling : int -> unit
(** Head-sample one trace in [n]. [1] samples everything, [0] disables
    minting entirely. Initialised from [TRACE_SAMPLE]. *)

val sampling : unit -> int

val set_slow_threshold_ns : int -> unit
(** Traces with end-to-end duration >= the threshold are always kept
    (the slow-op log) and echoed into the trace ring. [0] disables.
    Initialised from [TRACE_SLOW_NS]. *)

val slow_threshold_ns : unit -> int

(* ---- Building trees -------------------------------------------------- *)

val ingress : ?t_start:int -> phase -> t
(** [ingress op]: mint a trace rooted at phase [op] on this thread and
    return the root span. If a trace is already active here (a nested ingress —
    e.g. a library call under a server drain), degrades to {!start}.
    [t_start] backdates the root (a server uses the socket enqueue
    stamp so queueing is inside the trace). *)

val start : ?t_start:int -> phase -> t
(** [start phase]: open a child of the innermost open span of this
    thread's active trace; {!null} when no sampled trace is active. *)

val finish : t -> unit
(** Close the span. Closing the root completes the trace: attribution
    runs and the trace lands in this thread's completed buffer. *)

val drop : t -> unit
(** Abandon: a dropped root discards its trace without attribution or
    buffering (parse garbage, error paths); a dropped child is closed
    but flagged aborted. *)

val around : phase -> (unit -> 'a) -> 'a
(** [around phase f] = start, run [f], finish (exception-safe). The
    closure [f] is an allocation: hot paths use {!start}/{!finish}. *)

val flush_aborted : unit -> unit
(** Kill-site hook (the Vm crash injector calls this in the dying
    thread's context): every open span of the thread's in-flight trace
    is closed as [aborted] and the trace is flushed into the buffers
    and echoed to the trace ring, so a post-mortem sees what the dead
    thread was inside. *)

val active : unit -> bool
(** Whether a trace is in flight on the calling thread. *)

(* ---- Completed traces ------------------------------------------------ *)

type span = {
  sid : int;  (** ids are preorder: a parent opens before its children *)
  parent : int;  (** parent sid; -1 for the root *)
  phase : string;
  s_start : int;
  s_end : int;
  s_aborted : bool;
}

type trace = {
  trace_id : int;
  root_op : string;
  sampled : bool;
  t_aborted : bool;
  spans : span list;  (** in sid order; [spans.(0)] is the root *)
  done_seq : int;  (** completion order among kept traces, for dump sorting *)
}

val traces : ?n:int -> unit -> trace list
(** Completed traces across all thread buffers, oldest first,
    deduplicated; [n] keeps the newest n. The records are built from
    the buffers on each call. *)

val slow_traces : unit -> trace list
(** The slow-op log: every kept over-threshold trace, oldest first. *)

val duration : trace -> int

val self_times : trace -> (string * int) list
(** Per-phase self time of one trace: each span's duration minus its
    direct children's, summed by phase. The values sum exactly to
    {!duration}. *)

val well_formed : trace -> (unit, string) result
(** Structural invariants: parent opens before child and ids are
    preorder; every span closed or flagged aborted; children nest
    within their parent's window (aborted spans exempt); a [crossing]
    span never sits below a [store] span. *)

val render_tree : trace -> string
(** Multi-line pretty-printed tree (the [kv_shell trace-tree] view). *)

(* ---- Phase attribution ----------------------------------------------- *)

type phase_stats = {
  p_count : int;  (** spans folded in *)
  p_self_ns : int;  (** total self time *)
  p_p50_ns : int;
  p_p99_ns : int;
}

val phase_report : unit -> (string * phase_stats) list
(** Per-phase breakdown over every completed, non-aborted trace since
    the last reset, sorted by phase name. The [p_self_ns] columns sum
    exactly to the end-to-end total of {!e2e_report}. *)

val e2e_report : unit -> phase_stats
(** End-to-end (root duration) distribution over the same traces. *)

val phase_kvs : unit -> (string * string) list
(** The [stats phases] payload: one [phase:<name>:*] row group per
    phase plus the [e2e:*] rows. *)

val phases_json : unit -> string
(** The same breakdown as one line of JSON, for workflow artifacts. *)

val reset_phases : unit -> unit
(** Clear the phase/e2e accumulators (the [stats reset] contract);
    completed-trace buffers and ids survive. *)

val reset : unit -> unit
(** Full reset: accumulators, buffers, slow log, trace ids, sampling
    draw position. Tests call this for order independence. *)
