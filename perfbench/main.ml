(* The benchmark's one command:

     main.exe --workload <direct-read|ring-write|crash-recover>
              --seed <n> --seconds <s> --trace <0|1>

   [--trace 0] measures the end-to-end metrics with tracing off;
   [--trace 1] is the separate traced run that reports per-layer
   metrics. The last line of standard output is the JSON result; the
   exit code is 0 only when every reply checked out. *)

open Harness

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "direct-read|ring-write|crash-recover");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "host seconds to measure");
      ("--trace", Arg.Set_int trace, "1: traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  (* the product default, whatever the environment says *)
  Telemetry.Control.set_enabled true;
  let seed = !seed and seconds = !seconds in
  (match (!workload, !trace) with
   | "direct-read", 0 -> Direct_read.e2e ~seed ~seconds
   | "ring-write", 0 -> Ring_write.e2e ~seed ~seconds
   | "crash-recover", 0 -> Crash_recover.e2e ~seed ~seconds
   | "direct-read", 1 -> Direct_read.trace ~seed
   | "ring-write", 1 -> Ring_write.trace ~seed
   | "crash-recover", 1 -> Crash_recover.trace ~seed
   | w, _ ->
     Printf.eprintf "unknown workload %S\n" w;
     exit 2);
  if !trace = 0 then begin
    put "ok_ratio" "ratio"
      (1.0 -. (float_of_int !failed /. float_of_int (max 1 !attempted)));
    put "rss_mb" "MB" (rss_mb ())
  end;
  if not (emit ()) then exit 1
