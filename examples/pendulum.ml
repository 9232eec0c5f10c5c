(* Closed-loop control under attack: an inverted pendulum stabilized
   over the network by a BTR-protected controller. A compromised node
   starts sending wrong torque commands; BTR detects the divergence by
   replay, excludes the node, and the pendulum's inertia rides out the
   sub-R outage — the "five-second rule" in action (paper §1, §2).

     dune exec examples/pendulum.exe *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Fault = Btr_fault.Fault
module Planner = Btr_planner.Planner
module Schedule = Btr_sched.Schedule
module Plant = Btr_plant.Plant
module Engine = Btr_sim.Engine

let clamp lo hi x = Float.max lo (Float.min hi x)

let build_workload () =
  let ms = Time.ms and us = Time.us in
  let imu =
    Task.make ~id:0 ~name:"imu" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:0 ()
  in
  let controller =
    Task.make ~id:1 ~name:"controller" ~wcet:(ms 2)
      ~criticality:Task.Safety_critical ~state_size:1024 ()
  in
  let torque =
    Task.make ~id:2 ~name:"torque" ~kind:Task.Sink ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:1 ()
  in
  (* Ballast keeps the placeable controller off the physical I/O nodes
     (attacks on sensors/actuators themselves are out of scope). *)
  let ballast id node =
    Task.make ~id ~name:(Printf.sprintf "payload-n%d" node) ~wcet:(ms 14)
      ~criticality:Task.Best_effort ~pinned:node ()
  in
  Graph.create_relaxed ~period:(ms 20)
    ~tasks:[ imu; controller; torque; ballast 3 0; ballast 4 1 ]
    ~flows:
      [
        { Graph.flow_id = 0; producer = 0; consumer = 1; msg_size = 64; deadline = None };
        { Graph.flow_id = 1; producer = 1; consumer = 2; msg_size = 32; deadline = Some (ms 15) };
      ]

let run ~f ~script ~horizon =
  let plant = Plant.create (Plant.inverted_pendulum ()) ~dt:(Time.ms 1) in
  let behaviors =
    [
      (0, fun ~period:_ ~inputs:_ -> Some (Plant.state plant));
      ( 1,
        fun ~period:_ ~inputs ->
          match inputs with
          | [ { Btr.Behavior.value = st; _ } ] when Array.length st >= 2 ->
            Some [| clamp (-50.0) 50.0 (-.((25.0 *. st.(0)) +. (8.0 *. st.(1)))) |]
          | _ -> None );
    ]
  in
  let scenario =
    Btr.Scenario.spec ~workload:(build_workload ())
      ~topology:
        (Btr_net.Topology.fully_connected ~n:5 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f ~recovery_bound:(Time.ms 150) ~script ~horizon ~behaviors ()
  in
  match Btr.Scenario.prepare scenario with
  | Error e -> Format.kasprintf failwith "planning failed: %a" Planner.pp_error e
  | Ok rt ->
    let eng = Btr.Runtime.engine rt in
    ignore
      (Engine.every eng ~period:(Time.ms 1) (fun e ->
           Plant.advance plant ~until:(Engine.now e)));
    Btr.Runtime.on_actuate rt ~orig_flow:1 (fun ~period:_ ~value ~at ->
        Plant.advance plant ~until:at;
        if Array.length value >= 1 then
          Plant.set_input plant (clamp (-50.0) 50.0 value.(0)));
    Btr.Runtime.run rt ~horizon;
    Plant.advance plant ~until:horizon;
    (rt, plant)

let () =
  let horizon = Time.sec 4 in
  (* Find the controller primary's node, then corrupt it at t = 1s. *)
  let probe, _ = run ~f:1 ~script:[] ~horizon:(Time.ms 40) in
  let target =
    let plan = Planner.initial_plan (Btr.Runtime.strategy probe) in
    Option.get (Schedule.node_of plan.Planner.schedule 1)
  in
  Format.printf "controller primary runs on node %d; corrupting it at t=1s@.@." target;
  let script = Fault.single ~at:(Time.sec 1) ~node:target Fault.Corrupt_outputs in
  let report name (rt, plant) =
    let m = Btr.Runtime.metrics rt in
    Format.printf "%s:@." name;
    Format.printf "  wrong/missing torque commands: %a@." Time.pp
      (Btr.Metrics.incorrect_time m);
    Format.printf "  pendulum max excursion: %.0f%% of envelope@."
      (100.0 *. Plant.max_excursion plant);
    Format.printf "  time outside envelope: %a, destroyed: %b@.@." Time.pp
      (Plant.time_outside_envelope plant)
      (Plant.failed plant)
  in
  report "btr (f=1, R=150ms)" (run ~f:1 ~script ~horizon);
  report "no fault tolerance (f=0)" (run ~f:0 ~script ~horizon)
