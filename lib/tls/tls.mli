(** Per-thread state, reached through one pointer.

    Every thread — a real OS thread or a {e simulated} thread of the
    virtual-time machine ({!Vm}), many of which share one OS thread —
    owns a context record. A single mutable pointer names the current
    context; reading per-thread state is one load of that pointer plus
    a field or slot read, with no table lookup, lock or closure.

    - The state the protection check reads on every shared-memory
      access, the pkru register and the kernel-mode flag, are typed
      fields of the context ({!pkru}, {!kernel}), so one {!current}
      answers both.
    - Everything else lives behind typed {!key}s, one slot each in a
      per-context array.

    Who sets the pointer: a scheduler that multiplexes threads onto one
    OS thread swaps it with {!switch} on every context switch ({!Vm}
    does, and restores the outer context when its run ends). Outside
    any scheduler, each OS thread gets its own context, found by
    [Thread.id] when the pointer names another thread's; the pointer
    then caches it until the next OS-thread switch. *)

type ctx
(** One (real or simulated) thread's state. *)

type 'a key
(** A typed slot name, usable across all threads. *)

val new_key : (unit -> 'a) -> 'a key
(** [new_key init] allocates a fresh slot; [init] runs lazily the first
    time a thread reads the slot. *)

val get : 'a key -> 'a
(** Current thread's value for the key, initialising it if absent. *)

val set : 'a key -> 'a -> unit
(** Set the current thread's value for the key. *)

val clear : 'a key -> unit
(** Drop the current thread's value; a later {!get} re-initialises. *)

(** {2 Contexts} *)

val fresh : unit -> ctx
(** A new context, not bound to any OS thread: it is current exactly
    while a scheduler has {!switch}ed it in. Its pkru starts at
    {!init_pkru} and its kernel flag off. *)

val current : unit -> ctx
(** The running thread's context. *)

val switch : ctx -> ctx
(** [switch c] makes [c] current and returns the context that was
    current before, so the caller can switch back to it. *)

(** {2 Hot fields} *)

val init_pkru : int
(** The pkru value every context starts with (Linux's initial pkru:
    all keys but key 0 access-disabled). *)

val pkru : ctx -> int

val set_pkru : ctx -> int -> unit

val kernel : ctx -> bool
(** The kernel-mode flag: set while bookkeeping code runs as the
    "kernel side" and bypasses pkru checks (see [Shm.Region]). *)

val set_kernel : ctx -> bool -> unit
