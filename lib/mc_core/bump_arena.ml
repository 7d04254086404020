(** Per-thread bump-allocation hot tier over the shared Ralloc heap.

    Small, hot values dominate memcached's set path; serving them from
    Ralloc means size-class traffic (class locks, freelists, caches)
    on every store. This tier follows the lambdachine block/region
    idiom instead: 1 MiB {e regions} are carved out of the Ralloc heap
    as ordinary large blocks, each region is split into 32 KiB
    {e blocks}, and every block has at most one writer — the thread
    currently bumping it — so the allocation fast path is a pointer
    increment with no shared state.

    Because regions are plain Ralloc large blocks chained from a
    persistent root, crash recovery can sweep the tier: the store's
    recovery hands back the arena-resident live objects, the region
    heads keep the large blocks alive through {!Ralloc.recover}, and
    {!recover} rebuilds each block's bump offset and live count from
    the survivors (re-poisoning the dead spans, which Ralloc's own
    recovery unpoisoned wholesale as part of the live large block).

    Region layout (offsets relative to the region head):
    - block 0 is the directory: magic word, a pptr to the next region
      in the chain, then per-block records [(bump_off, live_count)];
    - blocks 1..31 hold objects, each prefixed by an 8-byte header
      carrying its usable size.

    Shared-memory writes happen only while the calling thread owns the
    block (bump path) or under the handle's host mutex (live counts,
    block recycling), so the tier adds no virtual-time lock traffic —
    that is the point. *)

module Region = Shm.Region

let region_size = 1 lsl 20

let block_size = 32 lsl 10

let blocks_per_region = region_size / block_size (* 32, incl. directory *)

let hot_max = 512
(** Largest request served by the tier (whole item: header+key+value). *)

let obj_header = 8 (* usable size of the object, read back by free *)

let magic = 0x41524E41 (* "ARNA" *)

(* Directory cells, relative to the region head. *)
let dir_magic = 0

let dir_next = 8 (* pptr: next region in the chain *)

let dir_block k = 16 + (16 * k) (* (bump_off i64, live i64) for block k *)

type t = {
  id : int;  (** names this handle in per-thread cursor lists *)
  heap : Ralloc.t;
  reg : Region.t;
  anchor : int option;
  (** Offset of a pptr cell anchoring the region chain (a Ralloc
      persistent root in the plib build); [None] keeps the chain only
      in this handle — no crash recovery. *)
  lock : Mutex.t;
  (* Host-side mirrors of persistent state, rebuilt by [recover]. *)
  mutable regions : int list;  (** region heads, newest first *)
  mutable free_blocks : int list;  (** empty block heads, recyclable *)
  mutable frontier : (int * int) option;  (** (region, next uncarved k) *)
  owned : (int, unit) Hashtbl.t;  (** block heads currently cursored *)
  mutable gen : int;  (** bumped by recover: invalidates cursors *)
}

(* Effect-free host mutex: safe under the Vm (fibers never block inside). *)
let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rd64 t off = Int64.to_int (Region.read_i64_raw t.reg off)

let wr64 t off v = Region.write_i64_raw t.reg off (Int64.of_int v)

(* Walk the persistent chain (attach/recover): region heads, validated
   by magic, bounded by the heap size. *)
let walk_chain t =
  match t.anchor with
  | None -> []
  | Some at ->
    let max_regions = Ralloc.capacity t.heap / region_size in
    let rec go r n acc =
      if r = 0 || n > max_regions then List.rev acc
      else if rd64 t (r + dir_magic) <> magic then List.rev acc
      else go (Ralloc.Pptr.load t.reg ~at:(r + dir_next)) (n + 1) (r :: acc)
    in
    go (Ralloc.Pptr.load t.reg ~at) 0 []

let next_id = Atomic.make 0

let create ~heap ?anchor () =
  let t =
    { id = Atomic.fetch_and_add next_id 1; heap; reg = Ralloc.region heap;
      anchor; lock = Mutex.create (); regions = []; free_blocks = [];
      frontier = None;
      owned = Hashtbl.create 8; gen = 0 }
  in
  t.regions <- walk_chain t;
  (* Reattaching (bookkeeper restart, no crash): block state in the
     directories is intact; trust it. Cursors of the previous process
     are gone, so every partially-bumped block is simply not resumed —
     its slack returns when its live count drains to zero. *)
  List.iter
    (fun r ->
      for k = 1 to blocks_per_region - 1 do
        let rec_off = r + dir_block k in
        if rd64 t rec_off = 0 && rd64 t (rec_off + 8) = 0 then
          t.free_blocks <- (r + (k * block_size)) :: t.free_blocks
      done)
    t.regions;
  t

let owns t off =
  List.exists (fun r -> off > r && off < r + region_size) t.regions

let region_of t off =
  List.find (fun r -> off > r && off < r + region_size) t.regions

let block_index ~region off = (off - region) / block_size

(* ---- Region growth ------------------------------------------------------ *)

let add_region t =
  match Ralloc.alloc t.heap region_size with
  | exception Ralloc.Out_of_heap -> false
  | r ->
    wr64 t (r + dir_magic) magic;
    for k = 1 to blocks_per_region - 1 do
      wr64 t (r + dir_block k) 0;
      wr64 t (r + dir_block k + 8) 0
    done;
    (* Link: new region points at the old chain head, then the anchor
       (when present) moves — a crash between the two leaks nothing
       (the unanchored region is reclaimed by Ralloc.recover). *)
    let old_head = match t.regions with [] -> 0 | r0 :: _ -> r0 in
    Ralloc.Pptr.store t.reg ~at:(r + dir_next) old_head;
    (match t.anchor with
     | Some at -> Ralloc.Pptr.store t.reg ~at r
     | None -> ());
    t.regions <- r :: t.regions;
    t.frontier <- Some (r, 1);
    true

(* Take the next available block, lock held. 0 when the heap is out. *)
let take_block t =
  match t.free_blocks with
  | b :: rest ->
    t.free_blocks <- rest;
    b
  | [] ->
    let carve () =
      match t.frontier with
      | Some (r, k) when k < blocks_per_region ->
        t.frontier <- (if k + 1 < blocks_per_region then Some (r, k + 1)
                       else None);
        r + (k * block_size)
      | _ -> 0
    in
    (match carve () with
     | 0 -> if add_region t then carve () else 0
     | b -> b)

(* ---- Per-thread cursor --------------------------------------------------- *)

type cursor = { mutable cur_block : int; mutable cur_gen : int }

(* Keyed per heap handle: two arenas in one process must not share
   cursors. Keyed by the handle's id, not the handle, so a thread that
   once allocated from an arena does not keep a discarded heap alive.
   Generation-stamped so recovery orphans every cursor. *)
let cursors : (int * cursor) list ref Tls.key = Tls.new_key (fun () -> ref [])

let my_cursor t =
  let l = Tls.get cursors in
  match List.assq_opt t.id !l with
  | Some c ->
    if c.cur_gen <> t.gen then begin
      c.cur_block <- 0;
      c.cur_gen <- t.gen
    end;
    c
  | None ->
    let c = { cur_block = 0; cur_gen = t.gen } in
    l := (t.id, c) :: !l;
    c

(* Release the cursor's block back to the pool bookkeeping; recycles
   it immediately if its contents already died. Lock held. *)
let release_block t b =
  Hashtbl.remove t.owned b;
  let r = region_of t b in
  let rec_off = r + dir_block (block_index ~region:r b) in
  if rd64 t (rec_off + 8) = 0 then begin
    wr64 t rec_off 0;
    t.free_blocks <- b :: t.free_blocks
  end

(* ---- alloc / free -------------------------------------------------------- *)

let alloc t size =
  if size <= 0 || size > hot_max then 0
  else begin
    let need = obj_header + ((size + 7) land lnot 7) in
    let c = my_cursor t in
    with_lock t (fun () ->
      let fits b =
        b <> 0
        &&
        let r = region_of t b in
        rd64 t (r + dir_block (block_index ~region:r b)) + need <= block_size
      in
      if not (fits c.cur_block) then begin
        if c.cur_block <> 0 then release_block t c.cur_block;
        let b = take_block t in
        c.cur_block <- b;
        if b <> 0 then Hashtbl.replace t.owned b ()
      end;
      if c.cur_block = 0 then 0
      else begin
        let b = c.cur_block in
        let r = region_of t b in
        let rec_off = r + dir_block (block_index ~region:r b) in
        let bump = rd64 t rec_off in
        let obj = b + bump + obj_header in
        wr64 t rec_off (bump + need);
        wr64 t (rec_off + 8) (rd64 t (rec_off + 8) + 1);
        Ralloc.poison_clear t.heap ~off:(obj - obj_header) ~len:need;
        wr64 t (obj - obj_header) size;
        obj
      end)
  end

let usable_size t off =
  if not (owns t off) then invalid_arg "Bump_arena.usable_size: not an arena object";
  let s = rd64 t (off - obj_header) in
  if s <= 0 || s > hot_max then
    invalid_arg "Bump_arena.usable_size: clobbered object header";
  s

let free t off =
  let size = usable_size t off in
  let need = obj_header + ((size + 7) land lnot 7) in
  with_lock t (fun () ->
    Ralloc.poison_mark t.heap ~off:(off - obj_header) ~len:need;
    let r = region_of t off in
    let b = r + (block_index ~region:r off * block_size) in
    let rec_off = r + dir_block (block_index ~region:r b) in
    let live = rd64 t (rec_off + 8) - 1 in
    if live < 0 then invalid_arg "Bump_arena.free: double free";
    wr64 t (rec_off + 8) live;
    (* An emptied block rewinds to zero — unless a cursor is mid-bump
       in it, in which case the owner keeps going and the rewind
       happens when it releases the block. *)
    if live = 0 && not (Hashtbl.mem t.owned b) then begin
      wr64 t rec_off 0;
      t.free_blocks <- b :: t.free_blocks
    end)

(* ---- Recovery ------------------------------------------------------------ *)

(* Region heads for Ralloc's live set: recovery of the underlying heap
   must keep the chain's large blocks. Walks the persistent chain, not
   the (possibly stale) host mirror. *)
let recovery_roots t = walk_chain t

let recover t ~live =
  with_lock t (fun () ->
    t.regions <- walk_chain t;
    t.free_blocks <- [];
    t.frontier <- None;
    Hashtbl.reset t.owned;
    t.gen <- t.gen + 1;
    (* Bucket survivors by block; everything else in the regions is
       dead, whatever the directories claim (a kill mid-bump can leave
       a header written but the object unreachable). *)
    let by_block = Hashtbl.create 64 in
    List.iter
      (fun off ->
        let r = region_of t off in
        let k = block_index ~region:r off in
        if k = 0 then invalid_arg "Bump_arena.recover: object in directory block";
        Hashtbl.replace by_block (r + (k * block_size))
          (off :: Option.value ~default:[]
                    (Hashtbl.find_opt by_block (r + (k * block_size)))))
      live;
    List.iter
      (fun r ->
        for k = 1 to blocks_per_region - 1 do
          let b = r + (k * block_size) in
          let objs = Option.value ~default:[] (Hashtbl.find_opt by_block b) in
          (* Ralloc.recover unpoisoned the whole region; re-poison the
             block, then carve the survivors back out. *)
          Ralloc.poison_mark t.heap ~off:b ~len:block_size;
          let bump = ref 0 in
          List.iter
            (fun off ->
              let size = rd64 t (off - obj_header) in
              if size <= 0 || size > hot_max then
                invalid_arg "Bump_arena.recover: live object with torn header";
              let need = obj_header + ((size + 7) land lnot 7) in
              Ralloc.poison_clear t.heap ~off:(off - obj_header) ~len:need;
              bump := max !bump (off - obj_header + need - b))
            objs;
          wr64 t (r + dir_block k) !bump;
          wr64 t (r + dir_block k + 8) (List.length objs);
          if objs = [] then t.free_blocks <- b :: t.free_blocks
        done)
      t.regions)

(* ---- Introspection ------------------------------------------------------- *)

let stats_kvs t =
  with_lock t (fun () ->
    let blocks_live = ref 0 and objs = ref 0 and bumped = ref 0 in
    List.iter
      (fun r ->
        for k = 1 to blocks_per_region - 1 do
          let live = rd64 t (r + dir_block k + 8) in
          if live > 0 then begin
            incr blocks_live;
            objs := !objs + live;
            bumped := !bumped + rd64 t (r + dir_block k)
          end
        done)
      t.regions;
    [ ("arena:regions", string_of_int (List.length t.regions));
      ("arena:blocks_live", string_of_int !blocks_live);
      ("arena:free_blocks", string_of_int (List.length t.free_blocks));
      ("arena:objects", string_of_int !objs);
      ("arena:bumped_bytes", string_of_int !bumped) ])
