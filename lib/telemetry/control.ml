(* Global telemetry switch and clock hook — see control.mli. *)

let enabled =
  ref
    (match Sys.getenv_opt "TELEMETRY" with
     | Some ("0" | "off" | "false" | "no") -> false
     | _ -> true)

let on () = !enabled

let set_enabled b = enabled := b

let default_now () = 0

let now_hook : (unit -> int) ref = ref default_now

let now_ns () = !now_hook ()

let install_now now =
  let prev = !now_hook in
  now_hook := now;
  prev

let restore_now prev = now_hook := prev

(* The sync hook mirrors the clock hook: whoever owns a scheduler (the
   Vm) installs a thunk that performs a zero-cost sync point, so that
   deliberately tearable multi-word publishes (the flight recorder's
   info breadcrumbs) expose a kill window between their payload write
   and their commit stamp. The default is a no-op — outside a
   simulation there is nothing to yield to, and the publish is atomic
   with respect to any in-process observer anyway. *)

let default_sync () = ()

let sync_hook : (unit -> unit) ref = ref default_sync

let sync_point () = !sync_hook ()

let install_sync sync =
  let prev = !sync_hook in
  sync_hook := sync;
  prev

let restore_sync prev = sync_hook := prev
