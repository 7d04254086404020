(** A Hodor protected library: code granted amplified access rights to
    a set of protected regions while (and only while) a thread executes
    inside it (paper §2). *)

type protection =
  | Protected  (** full Hodor: pkru gating + trampoline cost *)
  | Unprotected
  (** the paper's "Plib, No Hodor" configuration: same code, direct
      calls, no pkru switching — slightly faster, not safe *)

type t

(** Health ladder. [Killed_in_call]: a caller was killed and its call
    outlived the grace window, so it was terminated mid-call — shared
    state is torn in bounded ways and {!recover} can repair it.
    [Poisoned]: the library code itself crashed; terminal. *)
type health =
  | Healthy
  | Killed_in_call of string
  | Poisoned of string

exception Library_poisoned of string
(** Raised on calls into a library that crashed during an earlier call;
    as in the paper, such a crash is unrecoverable for the store. *)

exception Library_needs_recovery of string
(** Raised on calls into a library whose state is [Killed_in_call]:
    a caller must run {!recover} (normally via the bookkeeping
    process) before the store takes traffic again. *)

exception Region_already_protected of string
(** Raised by {!protect_region} when another live library already
    claimed the region — admitting the claim would retag the victim's
    pages under the claimant's key. *)

val default_grace_ns : int

val create :
  ?protection:protection ->
  ?grace_ns:int ->
  ?copy_args:bool ->
  name:string ->
  owner_uid:int ->
  unit ->
  t
(** Allocates a protection key for [Protected] libraries. [grace_ns]
    bounds how long an in-library call of a killed process may keep
    running; [copy_args] enables trampoline-level argument copying
    (off by default, as in the paper — see ablation abl3). *)

val name : t -> string

val pkey : t -> Pku.Pkey.t

val protection : t -> protection

val owner_uid : t -> int

val grace_ns : t -> int

val copy_args : t -> bool

val protect_region : t -> Shm.Region.t -> unit
(** Tag every page of the region with the library's key: from now on
    only threads inside the library can touch it.
    @raise Region_already_protected if another live library claimed
    the region first (double-admission defense). *)

val regions : t -> Shm.Region.t list

val set_init : t -> (unit -> unit) -> unit
(** Initialisation routine the loader runs before main, under the
    owner's effective uid. *)

val init_fn : t -> (unit -> unit) option

val poison : t -> string -> unit
(** Terminal: dominates any [Killed_in_call] state. *)

val mark_killed : t -> string -> unit
(** Record a kill-past-grace termination; recoverable. A later kill
    keeps the first report; an earlier {!poison} wins. *)

val health : t -> health

val poisoned : t -> string option
(** [Some reason] iff terminally poisoned. *)

val killed : t -> string option
(** [Some reason] iff awaiting recovery. *)

val check_poisoned : t -> unit
(** @raise Library_poisoned if the library has crashed.
    @raise Library_needs_recovery if it awaits post-kill recovery. *)

val set_recover : t -> (unit -> unit) -> unit
(** Register the recovery routine (the owner wires in
    [Store.recover] + [Ralloc.recover]). *)

val recover : t -> unit
(** Run the registered recovery routine and return the library to
    [Healthy]. Idempotent at quiescence; also callable while [Healthy]
    (a kill so abrupt no trampoline observed it still leaves torn
    state behind).
    @raise Library_poisoned when terminally poisoned. *)

val export : t -> entry:string -> (unit -> unit) -> unit
(** Register a named entry point for the loader's binary interpreter. *)

val find_export : t -> string -> (unit -> unit) option

val release : t -> unit
(** Return the protection key and drop (and unclaim) the protected
    regions. Idempotent: a second release is a no-op rather than a
    double [Pkey.free] that could yank a since-recycled key from
    another library. Runs the routine registered with {!set_release} first. *)

val set_release : t -> (unit -> unit) -> unit
(** Register what the owner detaches on {!release} (process-wide hooks
    pointing into the library's state), so a released library's state
    is not kept reachable through them. *)
