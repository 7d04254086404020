(** Keyed latency histograms: virtual-time cost per protected call and
    per protocol operation, one histogram per operation name.

    Recording is host-side only and charges no virtual time; values
    are virtual nanoseconds measured by the caller (trampoline entry
    to exit, executor dispatch to reply). A caller resolves its
    timer's name to a handle once, at module initialisation, and
    records through the handle: no lookup, no closure, one
    uncontended mutex and one histogram record (the [Timers.record
    hodor_call] row of [bench/main.exe micro]). *)

type t
(** A resolved timer. *)

val handle : string -> t
(** The timer named [name], created on first use; every call with the
    same name returns the same handle. *)

val record : t -> int -> unit
(** Record one value (clamped at 0). A no-op with telemetry off. *)

val get : string -> Histogram.t option
(** A copy of one operation's histogram, if it has been recorded
    since the last {!reset}. *)

val ops : unit -> string list
(** Names recorded since the last {!reset}, sorted. *)

val kvs : unit -> (string * string) list
(** Stats-style dump: for each recorded operation, in name order,
    count/mean/p50/p99/max. *)

val reset : unit -> unit
(** Forget every recorded value; handles stay valid. *)
