(** Keyed latency histograms — see timers.mli.

    A timer is resolved to its handle once, at the call site's module
    initialisation; recording is then a lock and one histogram record,
    with no lookup and no closure. The histogram itself is created on
    the first record, so [ops] lists exactly the timers recorded since
    the last {!reset}. The lock is a real mutex whose critical sections
    never perform effects, so recording is safe under both OS threads
    and the effects-based Vm. *)

type t = { name : string; mutable hist : Histogram.t option }

let lock = Mutex.create ()

(* Every handle ever resolved, by name. *)
let tbl : (string, t) Hashtbl.t = Hashtbl.create 32

let handle name =
  Mutex.lock lock;
  let h =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
      let h = { name; hist = None } in
      Hashtbl.add tbl name h;
      h
  in
  Mutex.unlock lock;
  h

let record h v =
  if Control.on () then begin
    Mutex.lock lock;
    (match h.hist with
     | Some hist -> Histogram.record hist (Int.max v 0)
     | None ->
       let hist = Histogram.create () in
       Histogram.record hist (Int.max v 0);
       h.hist <- Some hist);
    Mutex.unlock lock
  end

let recorded () =
  Mutex.lock lock;
  let l =
    Hashtbl.fold
      (fun name h acc ->
        match h.hist with
        | Some hist when Histogram.count hist > 0 ->
          let c = Histogram.create () in
          Histogram.merge ~into:c hist;
          (name, c) :: acc
        | Some _ | None -> acc)
      tbl []
  in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let get name = List.assoc_opt name (recorded ())

let ops () = List.map fst (recorded ())

let kvs () =
  List.concat_map (fun (name, h) -> Histogram.kvs ~prefix:name h) (recorded ())

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ h -> Option.iter Histogram.reset h.hist)
    tbl;
  Mutex.unlock lock
