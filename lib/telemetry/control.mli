(** Global telemetry switch and clock hook.

    Telemetry must be near-free when off: every emitter guards on
    {!on}, which is a single ref read, and records host-side only —
    no telemetry path ever charges virtual time, so the cost model
    (and the nullcall overhead gate) see the same simulated latencies
    with telemetry on or off.

    The clock hook exists because telemetry sits below every other
    library (it may depend only on [tls], so that pku/shm/ralloc/vm
    can all depend on it). Whoever owns a clock — the Vm while a
    simulation runs, a bench harness otherwise — installs it here;
    the default clock reads 0, which keeps emitters total outside any
    simulation. *)

val on : unit -> bool
(** Whether telemetry records. Initialised from [TELEMETRY] (on unless
    it reads 0/off/false/no). *)

val set_enabled : bool -> unit

val now_ns : unit -> int
(** Current virtual time in ns, per the installed provider (0 when
    none is installed). *)

val install_now : (unit -> int) -> (unit -> int)
(** Install a clock; returns the previous hook so the caller can
    restore it (the Vm does this when its run ends). *)

val restore_now : (unit -> int) -> unit

val sync_point : unit -> unit
(** A scheduler sync point that charges no virtual time (a no-op when
    no scheduler is installed). Tearable flight records cross one
    between payload and stamp, exposing a kill window there. *)

val install_sync : (unit -> unit) -> (unit -> unit)
(** Install a sync thunk; returns the previous one. *)

val restore_sync : (unit -> unit) -> unit
