(** Per-stripe lock-contention profiler.

    The store reports, for every item-lock stripe acquisition, how
    long the thread {e waited} for the stripe and how long it then
    {e held} it (virtual nanoseconds, measured by the caller around
    the substrate lock). Waits land in per-stripe histograms; the
    report ranks stripes by total wait — the top-K contended stripes
    are where lock splitting or batching would pay.

    Host-side only: recording charges no virtual time, and the mutex
    guards effect-free critical sections (safe under the Vm). *)

type cell = { wait_h : Histogram.t; hold_h : Histogram.t }

let lock = Mutex.create ()

let tbl : (int, cell) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Runs on every stripe release: one lock, no closure, no option. *)
let record ~stripe ~wait_ns ~hold_ns =
  if Control.on () then begin
    Mutex.lock lock;
    let c =
      match Hashtbl.find tbl stripe with
      | c -> c
      | exception Not_found ->
        let c = { wait_h = Histogram.create (); hold_h = Histogram.create () } in
        Hashtbl.add tbl stripe c;
        c
    in
    Histogram.record c.wait_h (Int.max wait_ns 0);
    Histogram.record c.hold_h (Int.max hold_ns 0);
    Mutex.unlock lock
  end

type stripe_stats = {
  c_stripe : int;
  c_acquisitions : int;
  c_wait_total_ns : int;
  c_wait_p99_ns : int;
  c_hold_p99_ns : int;
}

(* Stripes by total wait, descending; ties broken by stripe index so
   the report is deterministic under seeded runs. *)
let report ?(k = 8) () =
  with_lock (fun () ->
    Hashtbl.fold
      (fun stripe c acc ->
        { c_stripe = stripe; c_acquisitions = Histogram.count c.wait_h;
          c_wait_total_ns = Histogram.sum c.wait_h;
          c_wait_p99_ns = Histogram.percentile c.wait_h 99.0;
          c_hold_p99_ns = Histogram.percentile c.hold_h 99.0 }
        :: acc)
      tbl [])
  |> List.sort (fun a b ->
       match compare b.c_wait_total_ns a.c_wait_total_ns with
       | 0 -> compare a.c_stripe b.c_stripe
       | c -> c)
  |> List.filteri (fun i _ -> i < k)

(** (stripes tracked, total acquisitions, total wait ns). *)
let totals () =
  with_lock (fun () ->
    Hashtbl.fold
      (fun _ c (t, n, w) ->
        (t + 1, n + Histogram.count c.wait_h, w + Histogram.sum c.wait_h))
      tbl (0, 0, 0))

(** The [stats contention] payload: a summary plus the top-K rows. *)
let kvs ?k () =
  let tracked, n, wait = totals () in
  let top = report ?k () in
  [ ("contention:stripes_tracked", string_of_int tracked);
    ("contention:acquisitions", string_of_int n);
    ("contention:wait_total_ns", string_of_int wait) ]
  @ List.concat
      (List.mapi
         (fun i s ->
           let p = Printf.sprintf "contention:top%d" i in
           [ (p ^ ":stripe", string_of_int s.c_stripe);
             (p ^ ":acquisitions", string_of_int s.c_acquisitions);
             (p ^ ":wait_total_ns", string_of_int s.c_wait_total_ns);
             (p ^ ":wait_p99_ns", string_of_int s.c_wait_p99_ns);
             (p ^ ":hold_p99_ns", string_of_int s.c_hold_p99_ns) ])
         top)

let reset () = with_lock (fun () -> Hashtbl.reset tbl)
