(** Sharded event counters with a pluggable cell store.

    Counts are striped across {!stripes} cells per counter: each
    simulated (or OS) thread is assigned a stripe round-robin on first
    use, so concurrent bumps from different threads land in different
    cells and reads aggregate across stripes. This is the same
    scattered-statistics idea the store uses for its own counters
    (paper §4.2): writes stay contention-free, reads pay the loop.

    The cell store is pluggable because where the cells live depends
    on the deployment: the default backend is a process-local atomic
    array (benchmarks, unit tests, the socket baseline); the protected
    -library store installs a backend whose cells are 64-bit words in
    the shared Ralloc heap, anchored under a persistent root, so
    counters survive client crashes and bookkeeper restarts and are
    {e sifted} — not reset — by recovery (see DESIGN.md
    "Telemetry").

    Cost (host time): a bump is a per-thread stripe lookup and one
    call into the backend. The heap backend does one bounds-checked
    add on the heap word, with no closure, no mode switch and no pkey
    check (the [Counters.incr (heap backend)] row of
    [bench/main.exe micro]: 107–123 ns on a 2-vCPU VM's OS-thread
    path, most of it the per-thread lookup). *)

val stripes : int

(** Counter identifiers: fixed small ints, so a backend can be a flat
    [stripes * count] array of 64-bit cells. *)
module Id : sig
  (** Store-operation mirrors (bumped from [Store.stat_add]). *)

  val get_hits : int
  val get_misses : int
  val cmd_get : int
  val cmd_set : int
  val delete_hits : int
  val delete_misses : int
  val incr_hits : int
  val incr_misses : int
  val evictions : int
  val expired_unfetched : int
  val cas_hits : int
  val cas_badval : int
  val cas_misses : int
  val touch_hits : int
  val touch_misses : int
  val total_items : int

  (** Protection-domain crossings (Hodor trampoline). *)

  val hodor_enter : int
  val hodor_exit : int
  val hodor_grace_hits : int
  val hodor_kill_in_call : int
  val hodor_poisoned : int

  (** PKU events. *)

  val pkru_writes : int
  val pku_faults : int

  (** Allocator traffic (Ralloc). *)

  val alloc_calls : int
  val alloc_bytes : int
  val free_calls : int

  val recoveries : int

  (** Batch plane: protected calls that carried a batch, and the ops
      they carried. *)

  val hodor_batch_calls : int
  val hodor_batch_ops : int

  (** Optimistic (seqlock) read path. *)

  val opt_hits : int
  val opt_retries : int
  val opt_fallbacks : int

  (** Boundary hardening: gate-check violations, syscall-filter
      denials, loader admission refusals. *)

  val gate_violations : int
  val seccomp_denials : int
  val loader_rejects : int

  (** Virtual pkeys. *)

  val vpkey_binds : int
  val vpkey_slot_misses : int
  val vpkey_evictions : int

  (** Shared-ring transport. *)

  val ring_submits : int
  val ring_doorbells : int
  val ring_drains : int
  val ring_drain_ops : int
  val ring_completions : int
  val ring_full_waits : int
  val ring_kills : int

  val pku_fault_pkey : int
  (** Per-pkey fault counts: [pku_fault_pkey + k] for pkey [k] in
      [\[0, pkeys)]. *)

  val pkeys : int

  val count : int
end

val cells : int
(** [stripes * Id.count]: the 64-bit cells a backend provides. *)

(** A cell store: [add cell delta] / [read cell] / [zero ()] over
    {!cells} 64-bit slots. Implementations must be safe to call from
    any thread and should not allocate: [add] runs on every bump. *)
type backend = {
  add : int -> int -> unit;
  read : int -> int;
  zero : unit -> unit;
}

val install_backend : backend -> unit

val reset_backend : unit -> unit
(** Back to a fresh process-local backend. *)

val detach_backend : backend -> unit
(** {!reset_backend} if [b] is still the installed backend; otherwise
    nothing (another store installed its own since). *)

val add : int -> int -> unit
(** [add id n] adds [n] to counter [id] on the calling thread's
    stripe. A no-op with telemetry off. *)

val incr : int -> unit
(** [incr id] = [add id 1]. *)

val read : int -> int
(** Sum over stripes. Reads do not gate on telemetry being on: a
    snapshot taken after switching it off still sees the counts
    recorded while on. *)

val reset : unit -> unit
(** Zero every cell of the installed backend. *)

val pkey_fault : int -> unit
(** Count a protection fault on pkey [k] (and ignore keys out of
    range). *)

(** {2 Stats payloads} *)

val boundary_kvs : unit -> (string * string) list
(** Boundary/allocator counters, merged into the plain [stats] reply;
    per-pkey fault rows only where nonzero. *)

val optimistic_kvs : unit -> (string * string) list
(** Seqlock read-path counters ([stats contention]). *)

val ring_kvs : unit -> (string * string) list
(** Shared-ring transport counters ([stats rings]). *)

val all_kvs : unit -> (string * string) list
(** Every counter by name, per-pkey fault rows only where nonzero. *)
