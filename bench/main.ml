(* Benchmark harness: regenerates every experiment table (E1-E11, see
   DESIGN.md section 3 and EXPERIMENTS.md) and, with --micro, runs the
   Bechamel microbenchmarks.

   Usage:
     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe e2 e3      # selected experiments
     dune exec bench/main.exe -- --micro # microbenchmarks only
     dune exec bench/main.exe -- --campaign        # campaign throughput
     dune exec bench/main.exe -- --campaign --json # + BENCH_campaign.json
     dune exec bench/main.exe -- --engine --json   # + BENCH_engine.json
     dune exec bench/main.exe -- --engine --engine-max-depth 100000  # CI smoke
     dune exec bench/main.exe -- --planner --json  # + BENCH_planner.json
     dune exec bench/main.exe -- --planner --planner-max 1000  # CI smoke

   The demo deployment's JSONL trace and metrics come from the CLI:
     dune exec bin/btr_cli.exe -- --trace t.jsonl --metrics m.json  *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let micro = ref false in
  let campaign = ref false in
  let engine = ref false in
  let planner = ref false in
  let planner_max = ref None in
  let engine_max_depth = ref None in
  let json = ref false in
  let rec collect acc = function
    | [] -> List.rev acc
    | "--micro" :: rest ->
      micro := true;
      collect acc rest
    | "--campaign" :: rest ->
      campaign := true;
      collect acc rest
    | "--engine" :: rest ->
      engine := true;
      collect acc rest
    | "--planner" :: rest ->
      planner := true;
      collect acc rest
    | "--planner-max" :: n :: rest ->
      planner_max := int_of_string_opt n;
      collect acc rest
    | "--engine-max-depth" :: n :: rest ->
      engine_max_depth := int_of_string_opt n;
      collect acc rest
    | "--json" :: rest ->
      json := true;
      collect acc rest
    | a :: rest -> collect (a :: acc) rest
  in
  let wanted = collect [] args in
  if !micro then begin
    print_endline "== microbenchmarks ==";
    Micro.run ()
  end;
  if !campaign then
    Campaign_bench.run
      ?json_file:(if !json then Some "BENCH_campaign.json" else None)
      ();
  if !engine then
    Engine_bench.run
      ?json_file:(if !json then Some "BENCH_engine.json" else None)
      ?max_depth:!engine_max_depth ();
  if !planner then
    Planner_bench.run
      ?json_file:(if !json then Some "BENCH_planner.json" else None)
      ?max_nodes:!planner_max ();
  let selected =
    match wanted with
    | [] -> if !micro || !campaign || !engine || !planner then [] else Experiments.all
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt (String.lowercase_ascii n) Experiments.all with
          | Some fn -> Some (n, fn)
          | None ->
            Printf.eprintf "unknown experiment %S (have: %s)\n" n
              (String.concat ", " (List.map fst Experiments.all));
            None)
        names
  in
  List.iter
    (fun (name, fn) ->
      Printf.printf "running %s...\n%!" name;
      fn ())
    selected
