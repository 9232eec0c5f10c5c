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

let flags =
  "--micro, --campaign, --engine [--engine-max-depth N], \
   --planner [--planner-max N], --json"

(* Bad arguments exit 2 before anything runs: a mistyped flag or
   experiment must not pass silently or run a different sweep. *)
let bad fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "bench: %s\nexperiments: %s\nflags: %s\n" m
        (String.concat ", " (List.map fst Experiments.all))
        flags;
      exit 2)
    fmt

let int_arg flag = function
  | n :: rest -> (
    match int_of_string_opt n with
    | Some v -> (v, rest)
    | None -> bad "%s takes an integer, not %S" flag n)
  | [] -> bad "%s takes an integer" flag

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
    | "--planner-max" :: rest ->
      let n, rest = int_arg "--planner-max" rest in
      planner_max := Some n;
      collect acc rest
    | "--engine-max-depth" :: rest ->
      let n, rest = int_arg "--engine-max-depth" rest in
      engine_max_depth := Some n;
      collect acc rest
    | "--json" :: rest ->
      json := true;
      collect acc rest
    | a :: rest -> (
      match List.assoc_opt (String.lowercase_ascii a) Experiments.all with
      | Some fn -> collect ((a, fn) :: acc) rest
      | None when String.starts_with ~prefix:"-" a -> bad "unknown flag %S" a
      | None -> bad "unknown experiment %S" a)
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
    | named -> named
  in
  List.iter
    (fun (name, fn) ->
      Printf.printf "running %s...\n%!" name;
      fn ())
    selected
