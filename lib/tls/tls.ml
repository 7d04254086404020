(* Linux's initial pkru: every key but key 0 access-disabled (AD bit
   2k set for k = 1..15). {!Pku.Pkru} owns the register's meaning and
   checks at start-up that this constant matches its own. *)
let init_pkru = 0x55555554

type ctx = {
  mutable pkru : int;
  mutable kernel : bool;
  mutable slots : Obj.t array;
  host : int;
  (* [Thread.id] of the OS thread owning this context, or -1 for a
     context some scheduler switches in ({!fresh}) *)
}

type 'a key = { id : int; init : unit -> 'a }

let next_key_id = Atomic.make 0

let new_key init = { id = Atomic.fetch_and_add next_key_id 1; init }

(* Marks a slot no [get] has initialised yet (or that was cleared). *)
let unset : Obj.t = Obj.repr (ref ())

let make ~host =
  { pkru = init_pkru; kernel = false;
    slots = Array.make (max 8 (Atomic.get next_key_id)) unset; host }

let fresh () = make ~host:(-1)

(* ---- Real OS threads --------------------------------------------------

   One context per OS thread, keyed by [Thread.id]. OCaml never reuses a
   thread id, so a context is never inherited; a dead thread's context
   simply stays in the table, as small as the keys it touched. The
   table is consulted only when the current pointer belongs to another
   OS thread, i.e. on a thread switch outside any scheduler. *)
let host_ctxs : (int, ctx) Hashtbl.t = Hashtbl.create 16

let host_lock = Mutex.create ()

let self_id () = Thread.id (Thread.self ())

let cur = ref (make ~host:(self_id ()))

let () = Hashtbl.replace host_ctxs !cur.host !cur

let host_ctx tid =
  Mutex.lock host_lock;
  let c =
    match Hashtbl.find_opt host_ctxs tid with
    | Some c -> c
    | None ->
      let c = make ~host:tid in
      Hashtbl.replace host_ctxs tid c;
      c
  in
  Mutex.unlock host_lock;
  cur := c;
  c

let[@inline] current () =
  let c = !cur in
  if c.host < 0 then c
  else
    let tid = self_id () in
    if c.host = tid then c else host_ctx tid

let switch c =
  let prev = current () in
  if prev != c then cur := c;
  prev

(* ---- Hot fields --------------------------------------------------------- *)

let pkru c = c.pkru

let set_pkru c v = c.pkru <- v

let kernel c = c.kernel

let set_kernel c b = c.kernel <- b

(* ---- Typed slots -------------------------------------------------------- *)

let store c k v =
  let s = c.slots in
  let s =
    if k.id < Array.length s then s
    else begin
      let s' = Array.make (max (k.id + 1) (2 * Array.length s)) unset in
      Array.blit s 0 s' 0 (Array.length s);
      c.slots <- s';
      s'
    end
  in
  Array.unsafe_set s k.id (Obj.repr v)

let get (k : 'a key) : 'a =
  let c = current () in
  let s = c.slots in
  let v = if k.id < Array.length s then Array.unsafe_get s k.id else unset in
  if v != unset then (Obj.obj v : 'a)
  else begin
    (* [init] may itself touch other keys (growing [c.slots]) or reach
       a sync point; the value belongs to [c] either way *)
    let v = k.init () in
    store c k v;
    v
  end

let set k v = store (current ()) k v

let clear k =
  let s = (current ()).slots in
  if k.id < Array.length s then Array.unsafe_set s k.id unset
