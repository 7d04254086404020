(** A shared memory region: the simulated equivalent of the
    memory-mapped file that Ralloc builds its shared heap on.

    Every load and store goes through a protection check against the
    calling thread's pkru register and the region's per-page protection
    keys — this is where the PKU hardware semantics are enforced.
    A thread whose pkru does not open the page's key gets a
    {!Pku.Fault.Protection_fault}, exactly like the SEGV_PKUERR a real
    stray access would take.

    The region also carries a small array of atomic slots (allocated
    via {!alloc_atomic}) standing in for words on which the real Ralloc
    performs compare-and-swap; OCaml [Bytes] offers no atomics, so the
    slots live beside the byte array and are persisted with it.

    Offsets, not addresses, index the region: each simulated process
    maps the region at its own base address ({!Mapping}), which is what
    makes position-independent [pptr]s necessary — as in the paper. *)

let page_size = 4096

type t = {
  name : string;
  data : Bytes.t;
  page_pkeys : int array;
  atomics : int Atomic.t array;
  next_atomic : int Atomic.t;
  mutable backing : string option;
  mutable claimed_by : string option;
  (** the protected library currently owning this region's pages, if
      any — runtime-only bookkeeping (not persisted) that lets
      [Hodor.Library] refuse to protect a region some other live
      library already claimed (the double-admission attack) *)
}

(* Bookkeeping code (the loader, the background process's setup, the
   persistence paths) runs as the "kernel side" and bypasses pkru
   checks, as ring-0 code does on real hardware.

   The flag is a field of the thread's {!Tls} context; [kernel_mode]
   restores it with a plain handler rather than [Fun.protect]'s
   closures. A sync point inside [f] may switch threads: the flag
   stays with this thread's context. *)
let kernel_mode f =
  let c = Tls.current () in
  if Tls.kernel c then f ()
  else begin
    Tls.set_kernel c true;
    match f () with
    | v ->
      Tls.set_kernel c false;
      v
    | exception e ->
      Tls.set_kernel c false;
      raise e
  end

let in_kernel_mode () = Tls.kernel (Tls.current ())

let create ?(atomic_slots = 8192) ~name ~size ~pkey () =
  if size <= 0 then invalid_arg "Region.create: size";
  let pages = (size + page_size - 1) / page_size in
  { name;
    data = Bytes.make (pages * page_size) '\000';
    page_pkeys = Array.make pages pkey;
    atomics = Array.init atomic_slots (fun _ -> Atomic.make 0);
    next_atomic = Atomic.make 0;
    backing = None;
    claimed_by = None }

let name t = t.name

let size t = Bytes.length t.data

let pages t = Array.length t.page_pkeys

let pkey_of_page t page = t.page_pkeys.(page)

(* Retagging pages is pkey_mprotect(2): Linux allows it on any page
   mapped in the caller's address space — including a shared region —
   which is exactly why PKU sandboxes must seccomp-filter it (ERIM,
   Garmr). The gate hook is installed by [Simos.Process]; kernel-mode
   (ring-0) paths like the loader's protect_region are exempt. *)
let mprotect_gate : (unit -> unit) ref = ref (fun () -> ())

let set_mprotect_gate f = mprotect_gate := f

let set_page_pkey t page pkey =
  if not (Pku.Pkey.is_valid pkey) then invalid_arg "Region.set_page_pkey";
  if not (in_kernel_mode ()) then !mprotect_gate ();
  t.page_pkeys.(page) <- pkey

let tag_range t ~off ~len ~pkey =
  let first = off / page_size and last = (off + len - 1) / page_size in
  for p = first to last do
    set_page_pkey t p pkey
  done

let claim t ~owner = t.claimed_by <- Some owner

let unclaim t = t.claimed_by <- None

let claimant t = t.claimed_by

(* ---- Protection check ---------------------------------------------- *)

let fault t ~off ~write ~key =
  Telemetry.Counters.pkey_fault key;
  Pku.Fault.protection_fault
    "pkey fault: %s of %s+%d (page %d, %a) denied under %a"
    (if write then "store" else "load")
    t.name off (off / page_size)
    (fun () k -> Format.asprintf "%a" Pku.Pkey.pp k) key
    (fun () v -> Format.asprintf "%a" Pku.Pkru.pp v) (Pku.Pkru.read ())

let[@inline never] out_of_bounds t ~off ~len =
  invalid_arg
    (Printf.sprintf "Region %s: access [%d,+%d) out of bounds" t.name off len)

(* Small enough to inline into every accessor; the error path is not. *)
let[@inline] bounds t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.data then
    out_of_bounds t ~off ~len

let check t ~off ~len ~write =
  bounds t ~off ~len;
  let c = Tls.current () in
  if not (Tls.kernel c) then begin
    let pkru = Tls.pkru c in
    let first = off / page_size and last = (off + len - 1) / page_size in
    if first = last then begin
      let key = t.page_pkeys.(first) in
      let ok =
        if write then Pku.Pkru.allows_write pkru key
        else Pku.Pkru.allows_read pkru key
      in
      if not ok then fault t ~off ~write ~key
    end
    else
      for p = first to last do
        let key = t.page_pkeys.(p) in
        let ok =
          if write then Pku.Pkru.allows_write pkru key
          else Pku.Pkru.allows_read pkru key
        in
        if not ok then fault t ~off:(p * page_size) ~write ~key
      done
  end

(* ---- Checked accessors --------------------------------------------- *)

let read_u8 t off =
  check t ~off ~len:1 ~write:false;
  Char.code (Bytes.unsafe_get t.data off)

let write_u8 t off v =
  check t ~off ~len:1 ~write:true;
  Bytes.unsafe_set t.data off (Char.unsafe_chr (v land 0xff))

let read_i32 t off =
  check t ~off ~len:4 ~write:false;
  Int32.to_int (Bytes.get_int32_le t.data off)

let write_i32 t off v =
  check t ~off ~len:4 ~write:true;
  Bytes.set_int32_le t.data off (Int32.of_int v)

let read_i64 t off =
  check t ~off ~len:8 ~write:false;
  Int64.to_int (Bytes.get_int64_le t.data off)

let write_i64 t off v =
  check t ~off ~len:8 ~write:true;
  Bytes.set_int64_le t.data off (Int64.of_int v)

(* Kernel-side words: what a [kernel_mode] read/write of one word
   reduces to — the bounds check, no pkey check, no mode switch and no
   closure. The telemetry backends (counter cells, flight-recorder
   words in the shared heap) make one such access per word. *)
let kernel_read_i64 t off =
  bounds t ~off ~len:8;
  Int64.to_int (Bytes.get_int64_le t.data off)

let kernel_write_i64 t off v =
  bounds t ~off ~len:8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

let kernel_add_i64 t off d =
  bounds t ~off ~len:8;
  Bytes.set_int64_le t.data off
    (Int64.of_int (Int64.to_int (Bytes.get_int64_le t.data off) + d))

(* Full-width variants: the store's CAS counter is an unsigned 64-bit
   quantity, which [read_i64]'s native-int round trip would truncate
   (OCaml ints are 63-bit). *)
let read_i64_raw t off =
  check t ~off ~len:8 ~write:false;
  Bytes.get_int64_le t.data off

let write_i64_raw t off v =
  check t ~off ~len:8 ~write:true;
  Bytes.set_int64_le t.data off v

let blit_from_bytes t ~src ~src_off ~dst_off ~len =
  check t ~off:dst_off ~len ~write:true;
  Bytes.blit src src_off t.data dst_off len

let blit_to_bytes t ~src_off ~dst ~dst_off ~len =
  check t ~off:src_off ~len ~write:false;
  Bytes.blit t.data src_off dst dst_off len

let blit_within t ~src_off ~dst_off ~len =
  check t ~off:src_off ~len ~write:false;
  check t ~off:dst_off ~len ~write:true;
  Bytes.blit t.data src_off t.data dst_off len

let fill t ~off ~len c =
  check t ~off ~len ~write:true;
  Bytes.fill t.data off len c

let read_string t ~off ~len =
  check t ~off ~len ~write:false;
  Bytes.sub_string t.data off len

let write_string t ~off s =
  let len = String.length s in
  check t ~off ~len ~write:true;
  Bytes.blit_string s 0 t.data off len

(* Equality of a region range and a string, without copying: the
   store's key comparisons use this. *)
let equal_string t ~off ~len s =
  check t ~off ~len ~write:false;
  len = String.length s
  &&
  let rec go i =
    i >= len
    || (Bytes.unsafe_get t.data (off + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

(* ---- Atomic slots --------------------------------------------------- *)

let alloc_atomic t =
  let slot = Atomic.fetch_and_add t.next_atomic 1 in
  if slot >= Array.length t.atomics then
    failwith (Printf.sprintf "Region %s: out of atomic slots" t.name);
  slot

let atomic t slot = t.atomics.(slot)

(* ---- Persistence ----------------------------------------------------- *)

type header = {
  h_name : string;
  h_size : int;
  h_pkeys : int array;
  h_atomics : int array;
  h_next_atomic : int;
}

let magic = "SHMREGN1"

let flush t ~path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
    output_string oc magic;
    let hdr =
      { h_name = t.name; h_size = Bytes.length t.data;
        h_pkeys = t.page_pkeys;
        h_atomics = Array.map Atomic.get t.atomics;
        h_next_atomic = Atomic.get t.next_atomic }
    in
    Marshal.to_channel oc hdr [];
    output_bytes oc t.data);
  t.backing <- Some path

let load ~path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
    let m = really_input_string ic (String.length magic) in
    if m <> magic then failwith (path ^ ": not a region file");
    let hdr : header = Marshal.from_channel ic in
    let data = Bytes.create hdr.h_size in
    really_input ic data 0 hdr.h_size;
    { name = hdr.h_name; data; page_pkeys = hdr.h_pkeys;
      atomics = Array.map Atomic.make hdr.h_atomics;
      next_atomic = Atomic.make hdr.h_next_atomic;
      backing = Some path;
      claimed_by = None })

let backing t = t.backing
