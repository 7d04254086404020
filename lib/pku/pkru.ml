(** The per-thread pkru register.

    32 bits, two per key: bit [2k] is access-disable (AD), bit [2k+1]
    is write-disable (WD), exactly as on Intel hardware. The register
    is thread-local; under the virtual-time machine each {e simulated}
    thread has its own copy: the register is a field of the thread's
    {!Tls} context.

    This module is the raw register. The *policy* of who may execute
    [wrpkru] (only Hodor trampolines) is enforced one level up, by the
    loader's binary scan and breakpoints ({!Debug_regs}) and by
    {!Hodor}'s trampoline discipline. *)

type perm = Enable | Write_disable | Access_disable

type t = int

(* Linux's initial pkru: everything but key 0 access-disabled. *)
let init_value : t =
  let v = ref 0 in
  for k = 1 to Pkey.count - 1 do
    v := !v lor (1 lsl (2 * k))
  done;
  !v

let () = assert (init_value = Tls.init_pkru)

let all_enabled : t = 0

let read () : t = Tls.pkru (Tls.current ())

let wrpkru (v : t) =
  Telemetry.Counters.incr Telemetry.Counters.Id.pkru_writes;
  Tls.set_pkru (Tls.current ()) (v land 0xFFFFFFFF)

let reset_thread () = Tls.set_pkru (Tls.current ()) init_value

let set_perm (v : t) (k : Pkey.t) (p : perm) : t =
  if not (Pkey.is_valid k) then invalid_arg "Pkru.set_perm";
  let cleared = v land lnot (0b11 lsl (2 * k)) in
  match p with
  | Enable -> cleared
  | Write_disable -> cleared lor (0b10 lsl (2 * k))
  | Access_disable -> cleared lor (0b01 lsl (2 * k))

let perm_of (v : t) (k : Pkey.t) : perm =
  match (v lsr (2 * k)) land 0b11 with
  | 0b00 -> Enable
  | 0b10 -> Write_disable
  | _ -> Access_disable

let allows_read (v : t) (k : Pkey.t) = (v lsr (2 * k)) land 0b01 = 0

let allows_write (v : t) (k : Pkey.t) = (v lsr (2 * k)) land 0b11 = 0

let pp fmt (v : t) = Format.fprintf fmt "pkru:%08x" v
