(* Crash-surviving flight recorder — see flight.mli. *)

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

let kind_code = function
  | Cross_enter -> 1
  | Cross_exit -> 2
  | Op_dispatch -> 3
  | Stripe_acquire -> 4
  | Stripe_release -> 5
  | Group_acquire -> 6
  | Group_release -> 7
  | Ring_drain_begin -> 8
  | Ring_drain_end -> 9
  | Tenant_scope -> 10
  | Tenant_unscope -> 11
  | Alloc_large -> 12
  | Free_large -> 13

let kind_of_code = function
  | 1 -> Some Cross_enter
  | 2 -> Some Cross_exit
  | 3 -> Some Op_dispatch
  | 4 -> Some Stripe_acquire
  | 5 -> Some Stripe_release
  | 6 -> Some Group_acquire
  | 7 -> Some Group_release
  | 8 -> Some Ring_drain_begin
  | 9 -> Some Ring_drain_end
  | 10 -> Some Tenant_scope
  | 11 -> Some Tenant_unscope
  | 12 -> Some Alloc_large
  | 13 -> Some Free_large
  | _ -> None

let kind_name = function
  | Cross_enter -> "cross_enter"
  | Cross_exit -> "cross_exit"
  | Op_dispatch -> "op_dispatch"
  | Stripe_acquire -> "stripe_acquire"
  | Stripe_release -> "stripe_release"
  | Group_acquire -> "group_acquire"
  | Group_release -> "group_release"
  | Ring_drain_begin -> "ring_drain_begin"
  | Ring_drain_end -> "ring_drain_end"
  | Tenant_scope -> "tenant_scope"
  | Tenant_unscope -> "tenant_unscope"
  | Alloc_large -> "alloc_large"
  | Free_large -> "free_large"

(* Info records cross a sync point mid-publish; state records must
   not (their atomicity with the state they mirror is what makes the
   post-mortem classification exact). *)
let tearable = function
  | Op_dispatch | Tenant_scope | Tenant_unscope | Alloc_large | Free_large ->
    true
  | Cross_enter | Cross_exit | Stripe_acquire | Stripe_release | Group_acquire
  | Group_release | Ring_drain_begin | Ring_drain_end ->
    false

(* ---- geometry --------------------------------------------------------- *)

let lanes = 16

let depth = 64

(* Record: [seq][kind][a][b][c][stamp][cksum]. [seq] is position + 1
   when published (0 = never written at this wrap). *)
let rec_words = 7

let magic = 0x464C5431 (* "FLT1" *)

(* Word layout: 0 magic, 1 lanes, 2 depth, 3 trace-snapshot cursor,
   4..7 reserved, 8..8+lanes-1 per-lane position counters, then lane
   records, then the trace-snapshot area. *)
let w_magic = 0

let w_lanes = 1

let w_depth = 2

let w_trace_next = 3

(* Death note: the crash path stamps the dying thread's lane + 1 here
   (a single word write, atomic under any schedule) — the post-mortem
   analyzer's pointer to the victim timeline, like a black box's last
   entry. 0 = no recorded death. *)
let w_victim = 4

let w_lane_pos lane = 8 + lane

let rec_base = 8 + lanes

let rec_off lane slot = rec_base + (((lane * depth) + slot) * rec_words)

(* Trace snapshots: [seq+1][at][sev][len] + 16 words (128 bytes) of
   rendered message text, publish-last on the seq word. *)
let trace_slots = 8

let trace_text_words = 16

let trace_entry_words = 4 + trace_text_words

let trace_base = rec_base + (lanes * depth * rec_words)

let trace_off slot = trace_base + (slot * trace_entry_words)

let total_words = trace_base + (trace_slots * trace_entry_words)

(** Bytes a backing store must provide (8 bytes per word). *)
let bytes = total_words * 8

(* ---- backend ----------------------------------------------------------- *)

type backend = { read : int -> int; write : int -> int -> unit }

let host_words = Array.make total_words 0

let host_backend =
  { read = (fun i -> host_words.(i)); write = (fun i v -> host_words.(i) <- v) }

let () =
  host_words.(w_magic) <- magic;
  host_words.(w_lanes) <- lanes;
  host_words.(w_depth) <- depth

let backend = ref host_backend

let format () =
  let be = !backend in
  for i = 0 to total_words - 1 do
    be.write i 0
  done;
  be.write w_magic magic;
  be.write w_lanes lanes;
  be.write w_depth depth

(** Format unless the block already carries this layout's header —
    re-attaching after a crash must preserve the breadcrumbs. *)
let ensure_formatted () =
  let be = !backend in
  if
    be.read w_magic <> magic
    || be.read w_lanes <> lanes
    || be.read w_depth <> depth
  then format ()

let install_backend b =
  backend := b;
  ensure_formatted ()

let reset_backend () = backend := host_backend

let detach_backend b = if !backend == b then reset_backend ()

(** Zero the current backend (tests and bench harness isolation). *)
let reset () = format ()

(* ---- lane assignment --------------------------------------------------- *)

let lane_rr = Atomic.make 0

let my_lane_key : int Tls.key =
  Tls.new_key (fun () -> Atomic.fetch_and_add lane_rr 1 mod lanes)

let my_lane () = Tls.get my_lane_key

(* ---- publish ----------------------------------------------------------- *)

(* Red-team toggle (shipping default true): with it off the sequence
   word is stamped before the payload, so a kill at the info-record
   sync point leaves a record that claims to be published but whose
   checksum disagrees — the torn-record test flips red. *)
let publish_last_enabled = ref true

let cksum ~seq ~kind ~a ~b ~c ~stamp =
  let mix h w = ((h * 0x1000193) + w + 0x9E3779B9) land max_int in
  mix (mix (mix (mix (mix (mix 0x811C9DC5 seq) kind) a) b) c) stamp

(* Write order, shipping protocol: payload words and checksum, the
   sync point of a tearable record, the sequence word, then the lane
   counter. With [publish_last_enabled] off the sequence word and sync
   point come first. One backend write per word, no closure. *)
let record kind ~a ~b ~c =
  if Control.on () then begin
    let be = !backend in
    let lane = my_lane () in
    let pos = be.read (w_lane_pos lane) in
    let base = rec_off lane (pos mod depth) in
    let k = kind_code kind in
    let stamp = Control.now_ns () in
    let seq = pos + 1 in
    let ck = cksum ~seq ~kind:k ~a ~b ~c ~stamp in
    let last = !publish_last_enabled in
    if not last then begin
      be.write base seq;
      if tearable kind then Control.sync_point ()
    end;
    be.write (base + 1) k;
    be.write (base + 2) a;
    be.write (base + 3) b;
    be.write (base + 4) c;
    be.write (base + 5) stamp;
    be.write (base + 6) ck;
    if last then begin
      if tearable kind then Control.sync_point ();
      be.write base seq
    end;
    be.write (w_lane_pos lane) (pos + 1)
  end

(* ---- dump -------------------------------------------------------------- *)

type entry = {
  e_pos : int;
  e_kind : kind;
  e_a : int;
  e_b : int;
  e_c : int;
  e_stamp : int;
}

let read_entry be lane pos =
  let base = rec_off lane (pos mod depth) in
  let seq = be.read base in
  if seq <> pos + 1 then None
  else begin
    let k = be.read (base + 1) in
    let a = be.read (base + 2) in
    let b = be.read (base + 3) in
    let c = be.read (base + 4) in
    let stamp = be.read (base + 5) in
    let ck = be.read (base + 6) in
    if ck <> cksum ~seq ~kind:k ~a ~b ~c ~stamp then None
    else
      match kind_of_code k with
      | None -> None
      | Some kind ->
        Some { e_pos = pos; e_kind = kind; e_a = a; e_b = b; e_c = c;
               e_stamp = stamp }
  end

(** Published records of one lane, oldest first. Walks back from the
    lane's position counter, including the salvage probe at the
    counter itself (a record fully stamped whose counter advance the
    kill pre-empted), truncating at the first record that fails
    validation — which absorbs the oldest slot when the kill landed
    mid-overwrite. *)
let dump_lane lane =
  let be = !backend in
  let hdr = be.read (w_lane_pos lane) in
  let top = match read_entry be lane hdr with Some _ -> hdr | None -> hdr - 1 in
  let lo = max 0 (hdr - depth + 1) in
  let rec collect pos acc =
    if pos < lo then acc
    else
      match read_entry be lane pos with
      | Some e -> collect (pos - 1) (e :: acc)
      | None -> acc
  in
  collect top []

(** A record at the lane head that claims publication (sequence word
    stamped) but fails validation — impossible under the shipping
    publish-last protocol, reachable with {!publish_last_enabled}
    off. *)
let torn_at_head lane =
  let be = !backend in
  let hdr = be.read (w_lane_pos lane) in
  let base = rec_off lane (hdr mod depth) in
  be.read base = hdr + 1 && read_entry be lane hdr = None

let torn_lanes () =
  List.filter torn_at_head (List.init lanes Fun.id)

let lane_counts () =
  let be = !backend in
  List.init lanes (fun l -> be.read (w_lane_pos l))

(* ---- death note -------------------------------------------------------- *)

let note_death () =
  if Control.on () then !backend.write w_victim (my_lane () + 1)

let victim_lane () = !backend.read w_victim - 1

let clear_victim () = !backend.write w_victim 0

(* ---- trace snapshots --------------------------------------------------- *)

type trace_snap = { t_seq : int; t_at : int; t_sev : int; t_msg : string }

let snapshot_trace ~seq ~at ~sev msg =
  if Control.on () then begin
    let be = !backend in
    let nxt = be.read w_trace_next in
    let base = trace_off (nxt mod trace_slots) in
    let len = min (String.length msg) (trace_text_words * 8) in
    be.write (base + 1) at;
    be.write (base + 2) sev;
    be.write (base + 3) len;
    for w = 0 to trace_text_words - 1 do
      let v = ref 0 in
      for j = 0 to 7 do
        let i = (w * 8) + j in
        if i < len then v := !v lor (Char.code msg.[i] lsl (8 * j))
      done;
      be.write (base + 4 + w) !v
    done;
    be.write base (seq + 1);
    be.write w_trace_next (nxt + 1)
  end

let dump_traces () =
  let be = !backend in
  let decode slot =
    let base = trace_off slot in
    let seq1 = be.read base in
    if seq1 = 0 then None
    else begin
      let len = max 0 (min (be.read (base + 3)) (trace_text_words * 8)) in
      let buf = Bytes.create len in
      for i = 0 to len - 1 do
        let v = be.read (base + 4 + (i / 8)) in
        Bytes.set buf i (Char.chr ((v lsr (8 * (i mod 8))) land 0xff))
      done;
      Some
        { t_seq = seq1 - 1; t_at = be.read (base + 1);
          t_sev = be.read (base + 2); t_msg = Bytes.to_string buf }
    end
  in
  List.init trace_slots decode
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.t_seq b.t_seq)

(* ---- introspection ----------------------------------------------------- *)

let settings_kvs () =
  [ ("flight_lanes", string_of_int lanes);
    ("flight_depth", string_of_int depth);
    ("flight_trace_slots", string_of_int trace_slots);
    ("flight_publish_last", if !publish_last_enabled then "1" else "0") ]
