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
     dune exec bench/main.exe -- --trace t.jsonl --metrics m.json
       # trace the demo deployment instead of running experiments  *)

(* Run the standard avionics demo with recording sinks attached, so the
   E-series numbers can be recomputed offline from the JSONL trace
   (DESIGN.md "Observability"). *)
let trace_demo ~trace ~metrics =
  let oc = Option.map open_out trace in
  let obs =
    match oc with
    | Some oc -> Btr_obs.Obs.with_jsonl oc
    | None -> Btr_obs.Obs.create ()
  in
  (match Btr.Scenario.run (Btr.Scenario.avionics_demo ~obs ()) with
  | Error e -> Format.eprintf "error: %a@." Btr_planner.Planner.pp_error e
  | Ok _ -> ());
  Btr_obs.Obs.flush obs;
  Option.iter close_out oc;
  Option.iter
    (fun file ->
      let mc = open_out file in
      output_string mc (Btr_obs.Obs.metrics_json obs);
      output_char mc '\n';
      close_out mc)
    metrics

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let micro = ref false in
  let campaign = ref false in
  let engine = ref false in
  let planner = ref false in
  let planner_max = ref None in
  let engine_max_depth = ref None in
  let json = ref false in
  let trace = ref None in
  let metrics = ref None in
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
    | "--trace" :: file :: rest ->
      trace := Some file;
      collect acc rest
    | "--metrics" :: file :: rest ->
      metrics := Some file;
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
  if !trace <> None || !metrics <> None then
    trace_demo ~trace:!trace ~metrics:!metrics
  else begin
    let selected =
      match wanted with
      | [] ->
        if !micro || !campaign || !engine || !planner then [] else Experiments.all
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
  end
