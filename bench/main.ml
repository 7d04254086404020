(** Benchmark driver: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md's experiment index).

    Usage:
      dune exec bench/main.exe                    # everything, quick scale
      dune exec bench/main.exe -- fig5            # one experiment
      dune exec bench/main.exe -- fig6 fig9
      dune exec bench/main.exe -- --full          # paper-scale op counts
      dune exec bench/main.exe -- --json out.json # machine-readable results

    Experiments: fig5 fig6 fig7 fig8 fig9 nullcall ablations complexity
    micro overhead stats rings.

    Every experiment also reports its headline numbers to the shared
    recorder; [--json PATH] (or BENCH_JSON=PATH) flushes them as a JSON
    array of {run, metric, value, unit} rows on exit — the bench.json
    artifact CI uploads. *)

let all = [ "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "nullcall"; "ablations";
            "complexity"; "micro"; "overhead"; "stats"; "rings" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let json_path, args =
    let rec pick acc = function
      | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> pick (a :: acc) rest
      | [] -> (Sys.getenv_opt "BENCH_JSON", List.rev acc)
    in
    pick [] args
  in
  let chosen = List.filter (fun a -> a <> "--full") args in
  let chosen = if chosen = [] then all else chosen in
  let unknown = List.filter (fun c -> not (List.mem c all)) chosen in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\nknown: %s\n"
      (String.concat " " unknown) (String.concat " " all);
    exit 2
  end;
  let ops = if full then 200_000 else 40_000 in
  let want x = List.mem x chosen in
  if want "fig5" then Fig5.run ();
  let figs =
    List.filter_map
      (fun f ->
        match f with
        | "fig6" -> Some 6
        | "fig7" -> Some 7
        | "fig8" -> Some 8
        | "fig9" -> Some 9
        | _ -> None)
      chosen
  in
  if figs <> [] then ignore (Throughput.run ~ops ~only:figs ());
  if want "nullcall" then Nullcall.run ();
  if want "ablations" then Ablations.run ();
  if want "complexity" then Complexity.run ();
  if want "micro" then Micro.run ();
  if want "overhead" then Micro.overhead ();
  if want "stats" then Stats.run ~ops:(ops / 4) ();
  if want "rings" then Rings.run ~ops:(ops / 2) ();
  match json_path with
  | Some path -> Scenarios.write_json path
  | None -> ()
