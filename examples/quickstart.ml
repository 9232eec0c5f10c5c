(* Quickstart: protect a small CPS workload with BTR, crash a node, and
   watch the system reconfigure within its recovery bound.

     dune exec examples/quickstart.exe *)

open Btr_util
module Fault = Btr_fault.Fault
module Planner = Btr_planner.Planner

let () =
  (* 1. A workload: the avionics mix from the paper's introduction
     (flight control, engine monitor, navigation, in-flight
     entertainment), released every 20ms. *)
  let workload = Btr_workload.Generators.avionics ~n_nodes:6 in

  (* 2. A platform: six nodes, point-to-point 10MB/s links. *)
  let topology =
    Btr_net.Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
      ~latency:(Time.us 50)
  in

  (* 3. The contract: survive any f=1 Byzantine node, recover within
     R = 200ms. The offline planner precomputes a plan per fault
     pattern, the static verifier admits it against R (or
     Scenario.run refuses to deploy), and the runtime detects, gossips
     evidence, and switches. *)
  let scenario =
    Btr.Scenario.spec ~workload ~topology ~f:1 ~recovery_bound:(Time.ms 200)
      ~script:(Fault.single ~at:(Time.ms 250) ~node:4 Fault.Crash)
      ~horizon:(Time.sec 1) ()
  in

  match Btr.Scenario.run scenario with
  | Error e -> Format.printf "planning failed: %a@." Planner.pp_error e
  | Ok rt ->
    let strategy = Btr.Runtime.strategy rt in
    let stats = Planner.stats strategy in
    Format.printf "strategy: %d modes, %d transitions, worst-case recovery %a@."
      stats.Planner.modes stats.Planner.transitions Time.pp
      stats.Planner.worst_recovery;
    let m = Btr.Runtime.metrics rt in
    Format.printf "@.%a@." Btr.Metrics.pp_summary m;
    List.iter
      (fun (t, node, mode) ->
        Format.printf "t=%a: node %d switched to mode {%s}@." Time.pp t node
          (String.concat "," (List.map string_of_int mode)))
      (Btr.Runtime.mode_changes rt);
    List.iter
      (fun r -> Format.printf "measured recovery: %a (bound: 200ms)@." Time.pp r)
      (Btr.Metrics.recovery_times m)
