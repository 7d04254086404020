(** A Hodor protected library: code granted amplified access rights to
    a set of protected regions while (and only while) a thread executes
    inside it. *)

type protection =
  | Protected  (** full Hodor: pkru gating + trampoline cost *)
  | Unprotected
  (** the paper's "Plib, No Hodor" configuration: same code and direct
      calls, no pkru switching — faster by ~5% and not safe *)

(* Health ladder. [Killed_in_call] is the recoverable middle rung: a
   caller was killed and its in-flight call ran past the grace window,
   so the OS terminated it mid-call — shared state may be torn, but in
   bounded, enumerable ways the recovery protocol repairs. [Poisoned]
   stays terminal: the library {e code} itself crashed, so no
   structural repair can vouch for its logic. *)
type health =
  | Healthy
  | Killed_in_call of string
  | Poisoned of string

type t = {
  lib_name : string;
  pkey : Pku.Pkey.t;
  protection : protection;
  owner_uid : int;
  grace_ns : int;
  (** how long the OS lets an in-library call of a killed process keep
      running before terminating it anyway *)
  copy_args : bool;
  (** trampoline-level copying of arguments into the library domain
      (the paper leaves this off and copies manually; ablation abl3) *)
  exports : (string, Obj.t) Hashtbl.t;
  mutable regions : Shm.Region.t list;
  mutable health : health;
  mutable init_fn : (unit -> unit) option;
  mutable recover_fn : (unit -> unit) option;
  mutable release_fn : unit -> unit;
  mutable released : bool;
}

exception Library_poisoned of string
(** The library crashed during a call (e.g. a fault while holding
    locks); as in the paper, this is unrecoverable for the store. *)

exception Library_needs_recovery of string
(** A caller died mid-call past the grace window; the store must be
    recovered (see {!recover}) before further calls are admitted. *)

exception Region_already_protected of string
(** An attempt to {!protect_region} a region some other live library
    already claimed: admitting it would retag the victim's pages under
    the attacker's key (the double-admission attack). *)

let default_grace_ns = 50_000_000 (* a "generous timeout": 50 ms *)

let create ?(protection = Protected) ?(grace_ns = default_grace_ns)
    ?(copy_args = false) ~name ~owner_uid () =
  let pkey =
    match protection with
    | Protected -> Pku.Pkey.alloc ()
    | Unprotected -> Pku.Pkey.default
  in
  { lib_name = name; pkey; protection; owner_uid; grace_ns; copy_args;
    exports = Hashtbl.create 8; regions = []; health = Healthy;
    init_fn = None; recover_fn = None; release_fn = ignore; released = false }

let name t = t.lib_name

let pkey t = t.pkey

let protection t = t.protection

let owner_uid t = t.owner_uid

let grace_ns t = t.grace_ns

let copy_args t = t.copy_args

(* Claim a region as a protected resource: every page gets the
   library's key, so only threads inside the library can touch it.
   A region another live library already claimed is refused — retag
   would silently move the victim's pages into the claimant's
   protection domain. *)
let protect_region t region =
  (match Shm.Region.claimant region with
   | Some owner when owner <> t.lib_name ->
     raise
       (Region_already_protected
          (Printf.sprintf "%s: region %s is protected by %s" t.lib_name
             (Shm.Region.name region) owner))
   | Some _ | None -> ());
  Shm.Region.kernel_mode (fun () ->
    Shm.Region.tag_range region ~off:0
      ~len:(Shm.Region.size region)
      ~pkey:t.pkey);
  Shm.Region.claim region ~owner:t.lib_name;
  t.regions <- region :: t.regions

let regions t = t.regions

let set_init t f = t.init_fn <- Some f

let init_fn t = t.init_fn

(* Poison dominates: a code crash is terminal even if a kill was
   noticed first. *)
let poison t reason =
  match t.health with
  | Poisoned _ -> ()
  | Healthy | Killed_in_call _ -> t.health <- Poisoned reason

(* A second kill while already awaiting recovery keeps the first
   report (mirrors Process.kill: the first death timestamp wins). *)
let mark_killed t reason =
  match t.health with
  | Healthy -> t.health <- Killed_in_call reason
  | Killed_in_call _ | Poisoned _ -> ()

let health t = t.health

let poisoned t =
  match t.health with Poisoned r -> Some r | Healthy | Killed_in_call _ -> None

let killed t =
  match t.health with Killed_in_call r -> Some r | Healthy | Poisoned _ -> None

let check_poisoned t =
  match t.health with
  | Poisoned r -> raise (Library_poisoned (t.lib_name ^ ": " ^ r))
  | Killed_in_call r -> raise (Library_needs_recovery (t.lib_name ^ ": " ^ r))
  | Healthy -> ()

let set_recover t f = t.recover_fn <- Some f

(* Run the registered recovery routine and re-admit callers. Also
   callable on a [Healthy] library (e.g. after a kill so abrupt no
   trampoline ever observed it): recovery is idempotent at quiescence.
   A [Poisoned] library stays dead. *)
let recover t =
  (match t.health with
   | Poisoned r -> raise (Library_poisoned (t.lib_name ^ ": " ^ r))
   | Healthy | Killed_in_call _ -> ());
  (match t.recover_fn with Some f -> f () | None -> ());
  t.health <- Healthy;
  Telemetry.Counters.incr Telemetry.Counters.Id.recoveries;
  Telemetry.Trace.emit ~sev:Telemetry.Trace.Info ~subsys:"hodor"
    (t.lib_name ^ ": recovered, callers re-admitted")

(* Typed export registry, used by the loader's pseudo-binary
   interpreter. The Obj.t is always a [unit -> unit]. *)
let export t ~entry (f : unit -> unit) =
  Hashtbl.replace t.exports entry (Obj.repr f)

let find_export t entry : (unit -> unit) option =
  Option.map (fun o -> (Obj.obj o : unit -> unit)) (Hashtbl.find_opt t.exports entry)

(* Idempotent: the old unconditional [Pkey.free] let a double release
   free a key that had since been recycled to another library. *)
let set_release t f = t.release_fn <- f

let release t =
  if not t.released then begin
    t.released <- true;
    t.release_fn ();
    t.release_fn <- ignore;
    (match t.protection with
     | Protected -> Pku.Pkey.free t.pkey
     | Unprotected -> ());
    List.iter Shm.Region.unclaim t.regions;
    t.regions <- []
  end
