(** The loader-installed trampoline: the only legitimate site of a
    [wrpkru]. On the way in it switches to a library-private stack and
    opens the library's protection key; on the way out it restores both.

    Fault-tolerance contract (paper §3.4):
    - if the calling process is killed by outside action while a thread
      is inside the library, the call runs to completion (up to the
      library's grace timeout) before the thread dies;
    - if the call outlives the grace, the thread was terminated
      mid-call: the library enters the recoverable [Killed_in_call]
      state and refuses callers until [Library.recover] has repaired
      the store (beyond the paper, which stopped at the grace);
    - if the call itself crashes (any escaping exception — a stray
      pointer dereference, a protection fault), the library is poisoned
      and every subsequent call fails, since invariants may be broken. *)

module Process = Simos.Process

exception Library_call_failed of string * exn
(** Wraps the exception that poisoned the library, for the caller that
    triggered it. *)

exception Gate_violation of string
(** The call-site gate checks caught a forged or tampered pkru (see
    below); the offending process has been terminated. *)

(* Red-team toggle: with the gate checks off, a caller arriving with a
   forged pkru that already opens the library's key sails through, and
   a wrpkru executed inside the call goes unnoticed — both exploited
   by lib/redteam. *)
let gate_checks_enabled = ref true

(* Depth of nested library calls on this thread, standing in for
   "which stack am I on". Tests observe it via [on_library_stack]. *)
let depth_key = Tls.new_key (fun () -> ref 0)

let on_library_stack () = !(Tls.get depth_key) > 0

let cost (lib : Library.t) =
  match Library.protection lib with
  | Library.Protected -> Platform.Cost_model.current.trampoline_hodor
  | Library.Unprotected -> Platform.Cost_model.current.trampoline_plain

(* A gate violation terminates the offender, as Hodor's monitor would
   on a SIGSYS: count it, kill the process (as the kernel — the
   attacker's own filter must not be able to veto its execution), and
   refuse the caller. *)
let gate_violation (lib : Library.t) (p : Process.t) msg =
  Telemetry.Counters.incr Telemetry.Counters.Id.gate_violations;
  Telemetry.Trace.emit ~sev:Telemetry.Trace.Error ~subsys:"hodor"
    (Printf.sprintf "%s: gate violation by %s: %s" (Library.name lib)
       (Process.name p) msg);
  if Process.alive p then
    Shm.Region.kernel_mode (fun () ->
      Process.kill ~signal:"SIGSYS" ~now_ns:(Runtime.now_ns ()) p);
  raise (Gate_violation (Printf.sprintf "%s: %s" (Library.name lib) msg))

(* Telemetry handles, resolved once. *)
let crossing_phase = Telemetry.Span.phase "crossing"

let call_timer = Telemetry.Timers.handle "hodor_call"

let batch_timer = Telemetry.Timers.handle "batch_size"

(* No protected entry pkru: an [Unprotected] crossing writes none. *)
let no_pkru = -1

(* The way out of a crossing; returns the pkru found drifted inside the
   call, or [no_pkru]. A top-level function, not a closure, so a
   crossing allocates nothing for it. *)
let leave (lib : Library.t) p ~depth ~saved_pkru ~entered ~span ~entry_ns =
  (* Exit gate check, before the restore erases the evidence: the
     register must still hold exactly the value the trampoline wrote
     on entry — any drift means a wrpkru executed inside the call. *)
  let tampered =
    if entered <> no_pkru && !gate_checks_enabled then
      let cur = Pku.Pkru.read () in
      if cur <> entered then cur else no_pkru
    else no_pkru
  in
  (* Way out: restore pkru, switch stacks back, leave the library. *)
  (match Library.protection lib with
   | Library.Protected -> Pku.Pkru.wrpkru saved_pkru
   | Library.Unprotected -> ());
  decr depth;
  Telemetry.Flight.record Telemetry.Flight.Cross_exit ~a:!depth ~b:0 ~c:0;
  Process.leave_library p;
  Telemetry.Counters.incr Telemetry.Counters.Id.hodor_exit;
  Telemetry.Span.finish span;
  if Telemetry.Control.on () then
    Telemetry.Timers.record call_timer (Runtime.now_ns () - entry_ns);
  tampered

let call (lib : Library.t) (f : unit -> 'a) : 'a =
  Library.check_poisoned lib;
  (* A thread of a dead process cannot start a new call; kills that
     land mid-call are handled on the way out. *)
  Process.check_alive ();
  (* Reconcile this thread's virtual-pkey grants with the slot table
     before reading pkru: a vkey evicted since our last crossing must
     not leave standing rights on a slot that now backs someone else.
     O(1) when the thread holds no vkey grants. *)
  Pku.Vpkey.sync_thread ();
  let p = Process.current () in
  let depth = Tls.get depth_key in
  let saved_pkru = Pku.Pkru.read () in
  (* Entry gate check: an outermost caller must NOT already hold the
     library's key — a pkru forged through a gadget would otherwise be
     laundered by the exit-path restore of [saved_pkru], leaving the
     attacker with standing access after the call returns. (At nested
     depth the key is legitimately open: the outer crossing opened
     it.) *)
  (match Library.protection lib with
   | Library.Protected
     when !gate_checks_enabled && !depth = 0
          && Pku.Pkru.allows_read saved_pkru (Library.pkey lib) ->
     (* sanitise the forged register before refusing the call *)
     Pku.Pkru.wrpkru
       (Pku.Pkru.set_perm saved_pkru (Library.pkey lib)
          Pku.Pkru.Access_disable);
     gate_violation lib p "caller arrived already holding the library key"
   | Library.Protected | Library.Unprotected -> ());
  Process.enter_library p;
  Telemetry.Counters.incr Telemetry.Counters.Id.hodor_enter;
  let entry_ns = Runtime.now_ns () in
  (* The crossing is its own trace phase: it covers wrpkru-in to
     wrpkru-out, so its self time (minus store/alloc children) is the
     per-call gate cost the paper's section 2 argues about. *)
  let span = Telemetry.Span.start crossing_phase in
  (* Way in: stack switch + wrpkru opening the library's key. The
     breadcrumb lands in the same sync-free region as the depth
     increment (its publish has no sync point — Cross_enter is a state
     record), so the recorder and the stack state can never disagree
     at a kill site. *)
  incr depth;
  Telemetry.Flight.record Telemetry.Flight.Cross_enter ~a:!depth ~b:0 ~c:0;
  let entered =
    match Library.protection lib with
    | Library.Protected ->
      let v = Pku.Pkru.set_perm saved_pkru (Library.pkey lib) Pku.Pkru.Enable in
      Pku.Pkru.wrpkru v;
      v
    | Library.Unprotected -> no_pkru
  in
  Runtime.advance (cost lib);
  let result =
    try f ()
    with
    | (Process.Seccomp_violation _ | Gate_violation _) as e ->
      (* The kernel killed the offending process before the filtered
         syscall (or forged wrpkru) touched anything: shared state is
         intact, so the library is NOT poisoned — grace-window and
         recovery semantics take over for everyone else. *)
      if Process.alive p then
        Shm.Region.kernel_mode (fun () ->
          Process.kill ~signal:"SIGSYS" ~now_ns:(Runtime.now_ns ()) p);
      ignore (leave lib p ~depth ~saved_pkru ~entered ~span ~entry_ns);
      raise e
    | e ->
      (* A crash inside library code is unrecoverable (paper §2): the
         library may hold locks or half-updated structures. *)
      Library.poison lib (Printexc.to_string e);
      Telemetry.Counters.incr Telemetry.Counters.Id.hodor_poisoned;
      Telemetry.Trace.emit ~sev:Telemetry.Trace.Error ~subsys:"hodor"
        (Printf.sprintf "%s poisoned: %s" (Library.name lib)
           (Printexc.to_string e));
      ignore (leave lib p ~depth ~saved_pkru ~entered ~span ~entry_ns);
      raise (Library_call_failed (Library.name lib, e))
  in
  (match leave lib p ~depth ~saved_pkru ~entered ~span ~entry_ns with
   | cur when cur <> no_pkru ->
     gate_violation lib p
       (Printf.sprintf "pkru tampered inside the call (now %08x)" cur)
   | _ -> ());
  (* Completion guarantee: the call finished even if the process was
     killed mid-call — but only within the grace window. Boundary
     semantics, pinned by test/test_hodor.ml: with the kill at
     [kill_ns] and the call back at [end_ns], the call is covered iff
     [end_ns - kill_ns <= grace_ns] — exactly at the boundary the OS
     still waits; one ns past it the thread was terminated mid-call.
     Termination mid-call tears shared state in bounded ways (a sync
     point inside an op), so the library transitions to the
     recoverable [Killed_in_call] state: callers are refused until the
     bookkeeping process runs [Library.recover]. *)
  (match Process.killed_at p with
   | Some kill_ns ->
     let end_ns = max (Runtime.now_ns ()) entry_ns in
     if end_ns - kill_ns > Library.grace_ns lib then begin
       Telemetry.Counters.incr Telemetry.Counters.Id.hodor_kill_in_call;
       Telemetry.Trace.emit ~sev:Telemetry.Trace.Warn ~subsys:"hodor"
         (Printf.sprintf "%s: call outlived grace after %s was killed"
            (Library.name lib) (Process.name p));
       Library.mark_killed lib
         (Printf.sprintf
            "call outlived the %dns grace after %s was killed"
            (Library.grace_ns lib) (Process.name p))
     end
     else begin
       (* The grace window covered the rest of this call. *)
       Telemetry.Counters.incr Telemetry.Counters.Id.hodor_grace_hits;
       if Telemetry.Trace.would_log Telemetry.Trace.Info then
         Telemetry.Trace.emit ~sev:Telemetry.Trace.Info ~subsys:"hodor"
           (Printf.sprintf "%s: grace window covered a call of dead %s"
              (Library.name lib) (Process.name p))
     end;
     (* The thread itself now observes its death. *)
     Process.check_alive ()
   | None -> ());
  result

(* Batch entry: one crossing — one stack note, one pkru swap pair —
   carrying [ops] operations. The body is the same [call]; what the
   batch plane adds is the accounting that lets crossings/op and mean
   batch size fall out of the counters: every protected call that goes
   through here bumps [hodor_batch_calls] once and [hodor_batch_ops]
   by the batch size, and the batch-size distribution is recorded as a
   histogram under op "batch_size" (value in ops, not ns — the
   histogram machinery is unit-agnostic). *)
let call_batch (lib : Library.t) ~(ops : int) (f : unit -> 'a) : 'a =
  if ops < 1 then invalid_arg "Trampoline.call_batch: ops < 1";
  Telemetry.Counters.incr Telemetry.Counters.Id.hodor_batch_calls;
  Telemetry.Counters.add Telemetry.Counters.Id.hodor_batch_ops ops;
  Telemetry.Timers.record batch_timer ops;
  call lib f

(* Trampoline-level argument copying (optional in Hodor; ablation
   abl3): snapshot the caller's buffer into the library domain before
   the body runs, so concurrent application threads cannot retarget
   it mid-call. *)
let call_with_arg (lib : Library.t) ~(arg : bytes) (f : bytes -> 'a) : 'a =
  if Library.copy_args lib then begin
    let snapshot = Bytes.copy arg in
    Runtime.advance (Platform.Cost_model.memcpy_cost (Bytes.length arg));
    call lib (fun () -> f snapshot)
  end
  else call lib (fun () -> f arg)

(* Multi-argument variant: snapshot every buffer when the library asks
   for trampoline-level copying. *)
let call_with_args (lib : Library.t) ~(args : bytes list) (f : bytes list -> 'a)
  : 'a =
  if Library.copy_args lib then begin
    let snapshots = List.map Bytes.copy args in
    List.iter
      (fun b -> Runtime.advance (Platform.Cost_model.memcpy_cost (Bytes.length b)))
      args;
    call lib (fun () -> f snapshots)
  end
  else call lib (fun () -> f args)
