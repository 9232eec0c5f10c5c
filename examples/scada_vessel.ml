(* The paper's §2 motivating scenario, closed loop: "when a sensor
   indicates a pressure increase in some part of the system, the system
   may need to respond within seconds — e.g., by opening a safety valve
   — to prevent an explosion."

   A pressure vessel is filled at a constant rate; a replicated PLC
   opens the relief valve when pressure crosses a threshold. We corrupt
   the node running the PLC primary just before the threshold is reached
   — the worst moment: the fail-safe valve holds its last valid command,
   shut, while the vessel keeps filling. BTR recovers long before the
   vessel's multi-second inertia budget (the actual five-second rule)
   runs out; without recovery the vessel bursts.

     dune exec examples/scada_vessel.exe *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Fault = Btr_fault.Fault
module Planner = Btr_planner.Planner
module Schedule = Btr_sched.Schedule
module Plant = Btr_plant.Plant
module Engine = Btr_sim.Engine

let build_workload () =
  let ms = Time.ms and us = Time.us in
  let sensor =
    Task.make ~id:0 ~name:"pressure-sensor" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:0 ()
  in
  let plc =
    Task.make ~id:1 ~name:"plc" ~wcet:(ms 3) ~criticality:Task.Safety_critical
      ~state_size:4096 ()
  in
  let valve =
    Task.make ~id:2 ~name:"relief-valve" ~kind:Task.Sink ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:1 ()
  in
  let ballast id node =
    Task.make ~id ~name:(Printf.sprintf "payload-n%d" node) ~wcet:(ms 30)
      ~criticality:Task.Best_effort ~pinned:node ()
  in
  Graph.create_relaxed ~period:(ms 50)
    ~tasks:[ sensor; plc; valve; ballast 3 0; ballast 4 1 ]
    ~flows:
      [
        { Graph.flow_id = 0; producer = 0; consumer = 1; msg_size = 64; deadline = None };
        { Graph.flow_id = 1; producer = 1; consumer = 2; msg_size = 32; deadline = Some (ms 40) };
      ]

let run ~f ~script ~horizon =
  (* Faster filling than the default, so mistakes hurt sooner. *)
  let plant = Plant.create (Plant.pressure_vessel ~inflow:0.8 ()) ~dt:(Time.ms 5) in
  let behaviors =
    [
      (0, fun ~period:_ ~inputs:_ -> Some [| Plant.output plant |]);
      ( 1,
        (* bang-bang: open wide above 6 bar. Deterministic, replayable. *)
        fun ~period:_ ~inputs ->
          match inputs with
          | [ { Btr.Behavior.value = p; _ } ] when Array.length p >= 1 ->
            Some [| (if p.(0) > 6.0 then 1.0 else 0.0) |]
          | _ -> None );
    ]
  in
  let scenario =
    Btr.Scenario.spec ~workload:(build_workload ())
      ~topology:
        (Btr_net.Topology.fully_connected ~n:5 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f ~recovery_bound:(Time.ms 500) ~script ~horizon ~behaviors ()
  in
  match Btr.Scenario.prepare scenario with
  | Error e -> Format.kasprintf failwith "planning failed: %a" Planner.pp_error e
  | Ok rt ->
    let eng = Btr.Runtime.engine rt in
    ignore
      (Engine.every eng ~period:(Time.ms 5) (fun e ->
           Plant.advance plant ~until:(Engine.now e)));
    (* A real valve controller validates its input and fails safe by
       holding the last valid command when fed garbage. The corrupt PLC
       sends values far out of [0,1], so the valve freezes — shut, since
       pressure was still below the threshold when the attack began —
       while the vessel keeps filling: the paper's §2 explosion
       scenario. *)
    Btr.Runtime.on_actuate rt ~orig_flow:1 (fun ~period:_ ~value ~at ->
        Plant.advance plant ~until:at;
        if Array.length value >= 1 && value.(0) >= 0.0 && value.(0) <= 1.0 then
          Plant.set_input plant value.(0));
    Btr.Runtime.run rt ~horizon;
    Plant.advance plant ~until:horizon;
    (rt, plant)

let () =
  let horizon = Time.sec 40 in
  let probe, _ = run ~f:1 ~script:[] ~horizon:(Time.ms 100) in
  let target =
    let plan = Planner.initial_plan (Btr.Runtime.strategy probe) in
    Option.get (Schedule.node_of plan.Planner.schedule 1)
  in
  Format.printf
    "PLC primary runs on node %d; corrupting it at t=1s, while the valve@.\
     is still shut and pressure is rising toward the 6-bar threshold@.@."
    target;
  let script = Fault.single ~at:(Time.sec 1) ~node:target Fault.Corrupt_outputs in
  let report name (rt, plant) =
    let m = Btr.Runtime.metrics rt in
    Format.printf "%s:@." name;
    Format.printf "  wrong/missing valve commands: %a@." Time.pp
      (Btr.Metrics.incorrect_time m);
    Format.printf "  peak pressure: %.1f%% of the 10-bar limit@."
      (100.0 *. Plant.max_excursion plant);
    Format.printf "  time outside envelope: %a, vessel burst: %b@.@." Time.pp
      (Plant.time_outside_envelope plant)
      (Plant.failed plant)
  in
  report "btr (f=1, R=500ms)" (run ~f:1 ~script ~horizon);
  report "no fault tolerance (f=0)" (run ~f:0 ~script ~horizon)
