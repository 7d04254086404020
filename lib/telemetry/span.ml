(** Causal span trees — see span.mli for the contract.

    Everything here is host-side bookkeeping: no call advances virtual
    time, so the cost model (and the tracer-overhead CI gate) see the
    same simulated latencies with tracing on or off. Mutex-guarded
    critical sections never perform effects, so the module is safe
    under OS threads and the effects-based Vm alike.

    Hot-path representation: a thread's trace in flight lives in
    preallocated int arrays of its per-thread state, a span handle is
    an unboxed int, phases are small interned ids, and a completed
    trace is copied into a preallocated buffer slot. The public
    [trace]/[span] records are built only when a reader asks. *)

type span = {
  sid : int;
  parent : int;
  phase : string;
  s_start : int;
  s_end : int;
  s_aborted : bool;
}

type trace = {
  trace_id : int;
  root_op : string;
  sampled : bool;
  t_aborted : bool;
  spans : span list;
  done_seq : int;
}

(* ---- Configuration --------------------------------------------------- *)

let int_env name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

let sample_every = ref (max 0 (int_env "TRACE_SAMPLE" 1))

let set_sampling n = sample_every := max 0 n

let sampling () = !sample_every

let slow_ns = ref (max 0 (int_env "TRACE_SLOW_NS" 0))

let set_slow_threshold_ns n = slow_ns := max 0 n

let slow_threshold_ns () = !slow_ns

(* One real mutex guards the phase table, the buffers, the registry
   and the accumulators; its critical sections are effect-free and
   never raise. *)
let lock = Mutex.create ()

(* ---- Phases ------------------------------------------------------------ *)

type phase = int

let phase_ids : (string, int) Hashtbl.t = Hashtbl.create 32

let phase_names = ref [||]

(* Per-phase self-time histograms, indexed by phase id and created on
   first record; [no_hist] marks a phase never recorded. *)
let no_hist = Histogram.create ()

let phase_hists = ref [||]

let phase name =
  Mutex.lock lock;
  let id =
    match Hashtbl.find_opt phase_ids name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length phase_ids in
      Hashtbl.add phase_ids name id;
      phase_names := Array.append !phase_names [| name |];
      phase_hists := Array.append !phase_hists [| no_hist |];
      id
  in
  Mutex.unlock lock;
  id

let name_of ph = !phase_names.(ph)

(* ---- Span words --------------------------------------------------------- *)

(* A span is [words] consecutive ints of a thread's span array:
   phase id, parent sid (-1 for the root), start, end (-1 while
   open), aborted flag, and the summed duration of its direct
   children (filled in at attribution). Span [sid] starts at word
   [sid * words]. *)
let words = 6

let f_phase = 0

let f_parent = 1

let f_start = 2

let f_end = 3

let f_aborted = 4

let f_child = 5

(* A handle is (trace generation lsl [sid_bits]) lor sid, so a handle
   outliving its trace matches nothing. *)
let sid_bits = 24

let sid_mask = (1 lsl sid_bits) - 1

type t = int

let null = -1

(* ---- Per-thread state --------------------------------------------------- *)

(* A completed trace as kept in a buffer: the span words copied out of
   the live arrays. Slots are reused in place; [r_sp] only grows. *)
type raw = {
  mutable r_id : int;
  mutable r_sampled : bool;
  mutable r_aborted : bool;
  mutable r_seq : int;
  mutable r_n : int;
  mutable r_sp : int array;
}

(* Completed traces: the first [head_cap] traces, a ring of the last
   [tail_cap], and a ring of the last [slow_cap] over-threshold traces
   (the slow-op log). A global registry keeps a thread's buffers
   reachable after it exits, so post-run dumps see everything. *)
let head_cap = 8

let tail_cap = 32

let slow_cap = 64

let empty_raw () =
  { r_id = -1; r_sampled = false; r_aborted = false; r_seq = -1; r_n = 0;
    r_sp = [||] }

type state = {
  (* the trace in flight: its id, or -1 when none *)
  mutable id : int;
  (* bumped at every trace this thread mints: names the trace in
     handles and attribution marks, and unlike ids survives {!reset} *)
  mutable gen : int;
  mutable sampled : bool;
  mutable n : int;  (* spans opened *)
  mutable sp : int array;
  mutable stack : int array;  (* open sids, innermost last *)
  mutable depth : int;
  (* attribution scratch, indexed by phase id: the self time summed in
     the current trace, and the [gen] of the trace that last touched it *)
  mutable acc : int array;
  mutable seen : int array;
  mutable touched : int array;
  (* buffers, slots allocated at first use *)
  mutable head : raw array;
  mutable head_n : int;
  mutable tail : raw array;
  mutable tail_at : int;
  mutable slow : raw array;
  mutable slow_at : int;
}

let registry : state list ref = ref []

let state_key : state Tls.key =
  Tls.new_key (fun () ->
    { id = -1; gen = 0; sampled = false; n = 0; sp = Array.make (8 * words) 0;
      stack = Array.make 8 0; depth = 0; acc = [||]; seen = [||];
      touched = [||]; head = [||]; head_n = 0;
      tail = [||]; tail_at = 0; slow = [||]; slow_at = 0 })

(* ---- Counters and accumulators ------------------------------------------ *)

let mint_counter = Atomic.make 0

(* Completion order of kept traces; under [lock]. *)
let done_counter = ref 0

let e2e_hist = Histogram.create ()

(* ---- Building trees ------------------------------------------------------ *)

(* An adopted [t_start] (a ring message's enqueue stamp, a batch's
   arrival time) was read off another thread's clock and can sit in
   this thread's future under the simulator's relaxed per-thread
   clocks; a span can never open later than the instant the owning
   thread opened it, so clamp — the common past-stamp case (queue-wait
   attribution) is unaffected. *)
let adopt_start t_start =
  let now = Control.now_ns () in
  match t_start with Some a -> Int.min a now | None -> now

let grow a need =
  let b = Array.make (max need (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let open_span st ?t_start ph =
  let sid = st.n in
  let w = sid * words in
  if w + words > Array.length st.sp then st.sp <- grow st.sp (w + words);
  if st.depth = Array.length st.stack then
    st.stack <- grow st.stack (st.depth + 1);
  let sp = st.sp in
  sp.(w + f_phase) <- ph;
  sp.(w + f_parent) <- (if st.depth = 0 then -1 else st.stack.(st.depth - 1));
  sp.(w + f_start) <- adopt_start t_start;
  sp.(w + f_end) <- -1;
  sp.(w + f_aborted) <- 0;
  sp.(w + f_child) <- 0;
  st.stack.(st.depth) <- sid;
  st.depth <- st.depth + 1;
  st.n <- sid + 1;
  (st.gen lsl sid_bits) lor sid

let start ?t_start ph =
  let st = Tls.get state_key in
  if st.id >= 0 && st.sampled then open_span st ?t_start ph else null

let ingress ?t_start op =
  if not (Control.on ()) || !sample_every = 0 then null
  else
    let st = Tls.get state_key in
    if st.id >= 0 then
      (* nested ingress: the inner op is a child phase of the outer
         trace (a library call under a server drain, say) *)
      if st.sampled then open_span st ?t_start op else null
    else begin
      let n = Atomic.fetch_and_add mint_counter 1 in
      st.id <- n;
      st.gen <- st.gen + 1;
      st.sampled <- !sample_every = 1 || n mod !sample_every = 0;
      st.n <- 0;
      st.depth <- 0;
      open_span st ?t_start op
    end

(* Self time per phase in one pass: sids are preorder, so walking them
   downwards meets every child before its parent, and each span's
   [f_child] sum is complete when the walk reaches it. The phases the
   trace touched are listed in [touched]; returns how many. Integer
   arithmetic, so the per-phase values sum exactly to the root's
   duration. *)
let attribute_scratch st =
  let nph = Array.length !phase_names in
  if Array.length st.seen < nph then begin
    (* marks start over: every phase is unseen in the current trace *)
    let cap = max nph (2 * Array.length st.seen) in
    st.acc <- Array.make cap 0;
    st.seen <- Array.make cap (-1);
    st.touched <- Array.make cap 0
  end;
  let sp = st.sp and touched = ref 0 in
  for sid = st.n - 1 downto 0 do
    let w = sid * words in
    let dur = sp.(w + f_end) - sp.(w + f_start) in
    let ph = sp.(w + f_phase) in
    if st.seen.(ph) <> st.gen then begin
      st.seen.(ph) <- st.gen;
      st.acc.(ph) <- 0;
      st.touched.(!touched) <- ph;
      incr touched
    end;
    st.acc.(ph) <- st.acc.(ph) + dur - sp.(w + f_child);
    let p = sp.(w + f_parent) in
    if p >= 0 then begin
      let pw = (p * words) + f_child in
      sp.(pw) <- sp.(pw) + dur
    end
  done;
  !touched

(* Under [lock]. *)
let record_phases st touched ~dur =
  for i = 0 to touched - 1 do
    let ph = st.touched.(i) in
    let h =
      let h = !phase_hists.(ph) in
      if h != no_hist then h
      else begin
        let h = Histogram.create () in
        !phase_hists.(ph) <- h;
        h
      end
    in
    Histogram.record h (Int.max st.acc.(ph) 0)
  done;
  Histogram.record e2e_hist (Int.max dur 0)

let copy_into r st ~aborted ~seq =
  let len = st.n * words in
  if Array.length r.r_sp < len then r.r_sp <- Array.make len 0;
  (* a typed loop, not [Array.blit]: a blit into a major-heap array
     pays the write barrier on every word, ints or not *)
  let src = st.sp and dst = r.r_sp in
  for i = 0 to len - 1 do
    dst.(i) <- src.(i)
  done;
  r.r_id <- st.id;
  r.r_sampled <- st.sampled;
  r.r_aborted <- aborted;
  r.r_seq <- seq;
  r.r_n <- st.n

(* Under [lock]. The buffer arrays are empty until a thread first keeps
   a trace, which is also when it joins the registry. *)
let keep st ~aborted ~slow =
  let seq = !done_counter in
  done_counter := seq + 1;
  if Array.length st.head = 0 then begin
    st.head <- Array.init head_cap (fun _ -> empty_raw ());
    st.tail <- Array.init tail_cap (fun _ -> empty_raw ());
    st.slow <- Array.init slow_cap (fun _ -> empty_raw ());
    registry := st :: !registry
  end;
  if st.head_n < head_cap then begin
    copy_into st.head.(st.head_n) st ~aborted ~seq;
    st.head_n <- st.head_n + 1
  end
  else begin
    copy_into st.tail.(st.tail_at mod tail_cap) st ~aborted ~seq;
    st.tail_at <- st.tail_at + 1
  end;
  if slow then begin
    copy_into st.slow.(st.slow_at mod slow_cap) st ~aborted ~seq;
    st.slow_at <- st.slow_at + 1
  end

let complete st ~aborted =
  let id = st.id in
  let dur = st.sp.(f_end) - st.sp.(f_start) in
  let attribute = (not aborted) && st.sampled in
  let slow = !slow_ns > 0 && dur >= !slow_ns in
  (* Unsampled traces exist only to detect slowness: buffer them when
     over threshold (or flushed aborted), drop them otherwise. Every
     attributed trace is kept. *)
  let kept = st.sampled || slow || aborted in
  let touched = if attribute then attribute_scratch st else 0 in
  if kept then begin
    Mutex.lock lock;
    if attribute then record_phases st touched ~dur;
    keep st ~aborted ~slow;
    Mutex.unlock lock
  end;
  let n = st.n in
  st.id <- -1;
  st.depth <- 0;
  if slow && Trace.would_log Trace.Warn then
    Trace.emit ~sev:Trace.Warn ~subsys:"span"
      (Printf.sprintf "slow trace #%d %s: %d ns (threshold %d)" id
         (name_of st.sp.(f_phase)) dur !slow_ns);
  if aborted && Trace.would_log Trace.Warn then
    Trace.emit ~sev:Trace.Warn ~subsys:"span"
      (Printf.sprintf "trace #%d %s aborted: %d span(s) flushed" id
         (name_of st.sp.(f_phase)) n)

(* The live state's slot for handle [h], or -1 when [h] is null, stale,
   another thread's, or already closed. *)
let open_word st h =
  if h < 0 || st.id < 0 || h lsr sid_bits <> st.gen then -1
  else
    let sid = h land sid_mask in
    let w = sid * words in
    if sid < st.n && st.sp.(w + f_end) < 0 then w else -1

let pop st sid =
  let d = st.depth in
  let i = ref (d - 1) in
  while !i >= 0 && st.stack.(!i) <> sid do
    decr i
  done;
  if !i >= 0 then begin
    (* usually the innermost: nothing to shift *)
    for j = !i to d - 2 do
      st.stack.(j) <- st.stack.(j + 1)
    done;
    st.depth <- d - 1
  end

let close_at st w at =
  st.sp.(w + f_end) <- Int.max at st.sp.(w + f_start)

let close_open st at =
  for sid = 0 to st.n - 1 do
    let w = sid * words in
    if st.sp.(w + f_end) < 0 then begin
      close_at st w at;
      st.sp.(w + f_aborted) <- 1
    end
  done;
  st.depth <- 0

let finish h =
  if h >= 0 then begin
    let st = Tls.get state_key in
    let w = open_word st h in
    if w >= 0 then begin
      close_at st w (Control.now_ns ());
      pop st (h land sid_mask);
      if w = 0 then begin
        (* robustness: a child left open under a finishing root is a
           bug in the instrumentation — flag it rather than hang *)
        close_open st st.sp.(f_end);
        complete st ~aborted:false
      end
    end
  end

let drop h =
  if h >= 0 then begin
    let st = Tls.get state_key in
    let w = open_word st h in
    if w >= 0 then begin
      close_at st w (Control.now_ns ());
      st.sp.(w + f_aborted) <- 1;
      pop st (h land sid_mask);
      (* a dropped root discards the whole trace: no attribution, no
         buffers *)
      if w = 0 then begin
        st.id <- -1;
        st.depth <- 0
      end
    end
  end

let around ph f =
  let sp = start ph in
  match f () with
  | v ->
    finish sp;
    v
  | exception e ->
    finish sp;
    raise e

let flush_aborted () =
  let st = Tls.get state_key in
  if st.id >= 0 then begin
    close_open st (Control.now_ns ());
    complete st ~aborted:true
  end

let active () = (Tls.get state_key).id >= 0

(* ---- Completed traces --------------------------------------------------- *)

let to_trace r =
  let spans =
    List.init r.r_n (fun sid ->
      let w = sid * words in
      { sid; parent = r.r_sp.(w + f_parent);
        phase = name_of r.r_sp.(w + f_phase); s_start = r.r_sp.(w + f_start);
        s_end = r.r_sp.(w + f_end); s_aborted = r.r_sp.(w + f_aborted) = 1 })
  in
  { trace_id = r.r_id; root_op = name_of r.r_sp.(f_phase);
    sampled = r.r_sampled; t_aborted = r.r_aborted; spans; done_seq = r.r_seq }

(* Under [lock]: the first [n] slots of [a], as public traces. *)
let slots a n = List.init (min n (Array.length a)) (fun i -> to_trace a.(i))

let by_seq a b = compare a.done_seq b.done_seq

let traces ?n () =
  let all =
    Mutex.lock lock;
    let l =
      List.concat_map
        (fun st ->
          slots st.head st.head_n @ slots st.tail st.tail_at
          @ slots st.slow st.slow_at)
        !registry
    in
    Mutex.unlock lock;
    List.sort_uniq by_seq l
  in
  match n with
  | None -> all
  | Some n when n >= List.length all -> all
  | Some n ->
    let drop = List.length all - n in
    List.filteri (fun i _ -> i >= drop) all

let slow_traces () =
  Mutex.lock lock;
  let l = List.concat_map (fun st -> slots st.slow st.slow_at) !registry in
  Mutex.unlock lock;
  List.sort by_seq l

let duration tr =
  match tr.spans with [] -> 0 | root :: _ -> root.s_end - root.s_start

(* Each span's self time (its duration minus its direct children's),
   by sid: the read-side twin of [attribute_scratch]. *)
let span_selves tr =
  let n = List.length tr.spans in
  let self = Array.make (max n 1) 0 in
  List.iter
    (fun sp ->
      let dur = sp.s_end - sp.s_start in
      self.(sp.sid) <- self.(sp.sid) + dur;
      if sp.parent >= 0 && sp.parent < n then
        self.(sp.parent) <- self.(sp.parent) - dur)
    tr.spans;
  self

let self_times tr =
  let self = span_selves tr in
  let per_phase : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_phase sp.phase) in
      Hashtbl.replace per_phase sp.phase (prev + self.(sp.sid)))
    tr.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_phase [])

(* ---- Well-formedness ---------------------------------------------------- *)

let well_formed tr =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let arr = Array.of_list tr.spans in
  let n = Array.length arr in
  if n = 0 then err "trace #%d has no spans" tr.trace_id
  else if arr.(0).sid <> 0 || arr.(0).parent <> -1 then
    err "trace #%d: span 0 is not a root" tr.trace_id
  else begin
    let bad = ref None in
    let check c msg = if !bad = None && not c then bad := Some msg in
    Array.iteri
      (fun i sp ->
        check (sp.sid = i) (Printf.sprintf "span ids not dense at %d" i);
        if i > 0 then begin
          check
            (sp.parent >= 0 && sp.parent < i)
            (Printf.sprintf "span %d: parent %d does not precede it" i
               sp.parent);
          if sp.parent >= 0 && sp.parent < i then begin
            let p = arr.(sp.parent) in
            check (p.s_start <= sp.s_start)
              (Printf.sprintf "span %d opens before its parent" i);
            check
              (sp.s_aborted || p.s_aborted || sp.s_end <= p.s_end)
              (Printf.sprintf "span %d outlives its parent" i)
          end
        end;
        check
          (sp.s_aborted || sp.s_end >= sp.s_start)
          (Printf.sprintf "span %d never finished" i);
        (* a crossing is a gate into the library: it can contain store
           work but never hang below it *)
        if sp.phase = "crossing" then begin
          let rec ancestor_store p =
            p >= 0
            && (arr.(p).phase = "store" || ancestor_store arr.(p).parent)
          in
          check
            (not (ancestor_store sp.parent))
            (Printf.sprintf "span %d: crossing nested inside store" i)
        end)
      arr;
    match !bad with
    | Some m -> err "trace #%d: %s" tr.trace_id m
    | None -> Ok ()
  end

(* ---- Rendering ---------------------------------------------------------- *)

let render_tree tr =
  let b = Buffer.create 256 in
  let n = List.length tr.spans in
  let self = span_selves tr in
  let depth = Array.make (max n 1) 0 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 && sp.parent < n then
        depth.(sp.sid) <- depth.(sp.parent) + 1)
    tr.spans;
  Buffer.add_string b
    (Printf.sprintf "trace #%d %s: %d ns%s%s\n" tr.trace_id tr.root_op
       (duration tr)
       (if tr.sampled then "" else " [unsampled]")
       (if tr.t_aborted then " [ABORTED]" else ""));
  List.iter
    (fun sp ->
      let dur = sp.s_end - sp.s_start in
      Buffer.add_string b
        (Printf.sprintf "%s%s @%d +%d ns (self %d ns)%s\n"
           (String.make (2 * (depth.(sp.sid) + 1)) ' ')
           sp.phase sp.s_start dur
           self.(sp.sid)
           (if sp.s_aborted then " [aborted]" else "")))
    tr.spans;
  Buffer.contents b

(* ---- Phase attribution -------------------------------------------------- *)

type phase_stats = {
  p_count : int;
  p_self_ns : int;
  p_p50_ns : int;
  p_p99_ns : int;
}

let stats_of h =
  { p_count = Histogram.count h; p_self_ns = Histogram.sum h;
    p_p50_ns = Histogram.percentile h 50.0;
    p_p99_ns = Histogram.percentile h 99.0 }

let phase_report () =
  Mutex.lock lock;
  let hists = !phase_hists in
  let l = ref [] in
  Array.iteri
    (fun ph h ->
      if Histogram.count h > 0 then l := (name_of ph, stats_of h) :: !l)
    hists;
  Mutex.unlock lock;
  List.sort compare !l

let e2e_report () =
  Mutex.lock lock;
  let s = stats_of e2e_hist in
  Mutex.unlock lock;
  s

let phase_kvs () =
  let rows (name, s) =
    [ (Printf.sprintf "phase:%s:count" name, string_of_int s.p_count);
      (Printf.sprintf "phase:%s:self_ns" name, string_of_int s.p_self_ns);
      (Printf.sprintf "phase:%s:p50_ns" name, string_of_int s.p_p50_ns);
      (Printf.sprintf "phase:%s:p99_ns" name, string_of_int s.p_p99_ns) ]
  in
  let e = e2e_report () in
  List.concat_map rows (phase_report ())
  @ [ ("e2e:count", string_of_int e.p_count);
      ("e2e:total_ns", string_of_int e.p_self_ns);
      ("e2e:p50_ns", string_of_int e.p_p50_ns);
      ("e2e:p99_ns", string_of_int e.p_p99_ns) ]

let phases_json () =
  let field (name, s) =
    Printf.sprintf
      "\"%s\":{\"count\":%d,\"self_ns\":%d,\"p50_ns\":%d,\"p99_ns\":%d}" name
      s.p_count s.p_self_ns s.p_p50_ns s.p_p99_ns
  in
  let e = e2e_report () in
  Printf.sprintf
    "{\"e2e\":{\"count\":%d,\"total_ns\":%d,\"p50_ns\":%d,\"p99_ns\":%d},\"phases\":{%s}}"
    e.p_count e.p_self_ns e.p_p50_ns e.p_p99_ns
    (String.concat "," (List.map field (phase_report ())))

let reset_phases () =
  Mutex.lock lock;
  Array.iter (fun h -> if h != no_hist then Histogram.reset h) !phase_hists;
  Histogram.reset e2e_hist;
  Mutex.unlock lock

let reset () =
  reset_phases ();
  (* clear buffers in place: live threads keep their state *)
  Mutex.lock lock;
  List.iter
    (fun st ->
      st.head_n <- 0;
      st.tail_at <- 0;
      st.slow_at <- 0)
    !registry;
  done_counter := 0;
  Mutex.unlock lock;
  Atomic.set mint_counter 0
