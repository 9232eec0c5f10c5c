(* Mixed-criticality degradation (the paper's flight-deck example, §1):
   the same computer park runs safety-critical flight control and
   best-effort in-flight entertainment. As Byzantine faults accumulate,
   BTR sheds the entertainment and keeps the airplane flying.

     dune exec examples/avionics.exe *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Fault = Btr_fault.Fault
module Planner = Btr_planner.Planner
module Augment = Btr_planner.Augment
module Schedule = Btr_sched.Schedule

let () =
  let workload = Btr_workload.Generators.avionics ~n_nodes:5 in
  (* Double the compute demand so degraded modes are genuinely tight. *)
  let workload =
    Graph.create ~period:(Graph.period workload)
      ~tasks:
        (List.map
           (fun (x : Task.t) ->
             if x.kind = Task.Compute then { x with Task.wcet = Time.mul x.wcet 2 }
             else x)
           (Graph.tasks workload))
      ~flows:(Graph.flows workload)
  in
  let topology =
    Btr_net.Topology.fully_connected ~n:5 ~bandwidth_bps:10_000_000
      ~latency:(Time.us 50)
  in
  (* Aim the attacks at nodes hosting replicated primaries (a corrupt
     node that only runs unprotected best-effort work is invisible to
     the checkers — by design, nothing replicates it). *)
  let scenario_for script =
    Btr.Scenario.spec ~workload ~topology ~f:2 ~recovery_bound:(Time.ms 300)
      ~script ~horizon:(Time.ms 1500)
      ~tune:(fun c -> { c with Planner.degree = 2 })
      ()
  in
  let targets =
    match Btr.Scenario.plan (scenario_for []) with
    | Error _ -> [ 3; 4 ]
    | Ok strategy ->
      let p = Planner.initial_plan strategy in
      (* Candidate primaries: 2 = state-estimator, 3 = control-law,
         6 = engine-monitor, 9 = nav-fusion. Avoid node 2, which hosts
         the pinned elevator actuator and engine alarm: compromising the
         physical actuator node loses those outputs unrecoverably. *)
      let node_of tid = Option.value ~default:0 (Schedule.node_of p.Planner.schedule tid) in
      let hosts = List.sort_uniq Int.compare (List.map node_of [ 2; 3; 6; 9 ]) in
      (match List.filter (fun n -> n <> 2) hosts with
      | a :: b :: _ -> [ a; b ]
      | [ a ] -> [ a; (a + 1) mod 5 ]
      | [] -> [ 3; 4 ])
  in
  let script =
    match targets with
    | [ a; b ] ->
      Fault.single ~at:(Time.ms 300) ~node:a Fault.Corrupt_outputs
      @ Fault.single ~at:(Time.ms 900) ~node:b Fault.Corrupt_outputs
    | _ -> []
  in
  match Btr.Scenario.run (scenario_for script) with
  | Error e -> Format.printf "planning failed: %a@." Planner.pp_error e
  | Ok rt ->
    let m = Btr.Runtime.metrics rt in
    Format.printf "%a@." Btr.Metrics.pp_summary m;
    Format.printf "(timeline legend: C correct, W wrong, M missing, L late, S shed)@.";
    (* Show what each post-fault mode kept, by criticality. *)
    let strategy = Btr.Runtime.strategy rt in
    List.iter
      (fun faulty ->
        match Planner.plan_for strategy ~faulty with
        | None -> ()
        | Some p ->
          let kept = Graph.tasks p.Planner.aug.Augment.original in
          let names level =
            kept
            |> List.filter (fun (x : Task.t) -> x.criticality = level)
            |> List.map (fun (x : Task.t) -> x.name)
            |> String.concat ", "
          in
          Format.printf "@.mode {%s}%s:@."
            (String.concat "," (List.map string_of_int faulty))
            (match p.Planner.shed_below with
            | None -> ""
            | Some floor ->
              Format.asprintf " — shed everything below %a" Task.pp_criticality floor);
          List.iter
            (fun level ->
              let n = names level in
              if n <> "" then
                Format.printf "  %a: %s@." Task.pp_criticality level n)
            (List.rev Task.all_criticalities))
      [ []; [ 4 ]; [ 3; 4 ] ];
    Format.printf "@.mode changes:@.";
    List.iter
      (fun (t, node, mode) ->
        Format.printf "  t=%a node %d -> {%s}@." Time.pp t node
          (String.concat "," (List.map string_of_int mode)))
      (Btr.Runtime.mode_changes rt)
