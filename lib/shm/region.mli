(** A shared memory region: the simulated equivalent of the
    memory-mapped file that Ralloc builds its shared heap on.

    Every load and store is checked against the calling thread's pkru
    register and the region's per-page protection keys — the PKU
    hardware semantics, enforced in software. A thread whose pkru does
    not open the page's key gets {!Pku.Fault.Protection_fault}, like
    the SEGV_PKUERR a stray access takes on real hardware.

    Offsets, not addresses, index the region: each simulated process
    maps it at its own base ({!Mapping}), which is what makes
    position-independent pptrs necessary — as in the paper. *)

type t

val page_size : int
(** 4096, as on the paper's hardware. *)

val create :
  ?atomic_slots:int -> name:string -> size:int -> pkey:Pku.Pkey.t -> unit -> t
(** A zero-filled region of [size] bytes (rounded up to whole pages),
    every page tagged with [pkey]. *)

val name : t -> string

val size : t -> int

val pages : t -> int

(** {1 Protection} *)

val pkey_of_page : t -> int -> Pku.Pkey.t

val set_page_pkey : t -> int -> Pku.Pkey.t -> unit

val tag_range : t -> off:int -> len:int -> pkey:Pku.Pkey.t -> unit
(** Retag pages (pkey_mprotect(2) in miniature). Outside
    {!kernel_mode}, the seccomp-style gate installed with
    {!set_mprotect_gate} is consulted first — Linux lets any process
    pkey_mprotect pages mapped in its own address space, so the only
    thing standing between an attacker and retagging the shared heap
    to key 0 is the syscall filter. *)

val set_mprotect_gate : (unit -> unit) -> unit
(** Install the gate consulted by non-kernel-mode retagging (wired up
    by [Simos.Process]; no-op by default). *)

val claim : t -> owner:string -> unit
(** Tag the region as owned by a named protected library (runtime
    bookkeeping, not persisted). *)

val unclaim : t -> unit

val claimant : t -> string option

val kernel_mode : (unit -> 'a) -> 'a
(** Run [f] with protection checks suspended, as ring-0 code (the
    loader, the bookkeeping process's setup, persistence) does.
    Restores the previous mode on exit, exceptions included. *)

val in_kernel_mode : unit -> bool

(** {1 Checked accessors}

    All raise [Invalid_argument] outside the region's bounds and
    {!Pku.Fault.Protection_fault} when the calling thread's pkru does
    not permit the access. Multi-byte accesses check every page they
    touch. *)

val read_u8 : t -> int -> int

val write_u8 : t -> int -> int -> unit

val read_i32 : t -> int -> int

val write_i32 : t -> int -> int -> unit

val read_i64 : t -> int -> int

val write_i64 : t -> int -> int -> unit

val kernel_read_i64 : t -> int -> int
(** [read_i64] as kernel-side code does it: bounds-checked, with no
    pkey check and no mode switch. Equivalent to [read_i64] inside
    {!kernel_mode}, without entering it. *)

val kernel_write_i64 : t -> int -> int -> unit
(** [write_i64] as kernel-side code does it (see {!kernel_read_i64}). *)

val kernel_add_i64 : t -> int -> int -> unit
(** [kernel_add_i64 t off d]: add [d] to the word at [off], kernel
    side (see {!kernel_read_i64}). Not atomic: callers serialise, as
    the Vm's cooperative scheduler does between sync points. *)

val read_i64_raw : t -> int -> int64
(** Full 64-bit read, without the native-int truncation of
    {!read_i64}. Used for unsigned quantities such as CAS values. *)

val write_i64_raw : t -> int -> int64 -> unit

val blit_from_bytes : t -> src:bytes -> src_off:int -> dst_off:int -> len:int -> unit

val blit_to_bytes : t -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val blit_within : t -> src_off:int -> dst_off:int -> len:int -> unit

val fill : t -> off:int -> len:int -> char -> unit

val read_string : t -> off:int -> len:int -> string

val write_string : t -> off:int -> string -> unit

val equal_string : t -> off:int -> len:int -> string -> bool
(** Compare a range to a string without copying (the store's key
    comparisons). *)

(** {1 Atomic slots}

    Words supporting compare-and-swap, standing in for the words Ralloc
    CASes in shared memory (OCaml [Bytes] has no atomics); persisted
    with the region. *)

val alloc_atomic : t -> int

val atomic : t -> int -> int Atomic.t

(** {1 Persistence} *)

val flush : t -> path:string -> unit
(** Write bytes, page keys and atomic slots to [path]. *)

val load : path:string -> t
(** Reconstruct a region from a {!flush}ed file. *)

val backing : t -> string option
