(* The E1–E9 experiment suite. The paper (HotOS'15) has no evaluation
   section; each experiment here operationalizes one quantitative claim
   from its text — see DESIGN.md §3 for the claim-to-experiment map and
   EXPERIMENTS.md for expected vs measured shapes. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Planner = Btr_planner.Planner
module Augment = Btr_planner.Augment
module Fault = Btr_fault.Fault
module Exec = Btr_baselines.Exec
module Plant = Btr_plant.Plant

let clique n = Topology.fully_connected ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)
let r_default = Time.ms 200

let spec ?(n = 6) ?(f = 1) ?(script = []) ?(horizon = Time.sec 1) ?seed
    ?behaviors ?tune () =
  Btr.Scenario.spec
    ~workload:(Generators.avionics ~n_nodes:n)
    ~topology:(clique n) ~f ~recovery_bound:r_default ~script ~horizon ?seed
    ?behaviors ?tune ()

let run_exn s =
  match Btr.Scenario.run s with
  | Ok rt -> rt
  | Error e -> Format.kasprintf failwith "plan failed: %a" Planner.pp_error e

(* Deploy without the Btr_check gate. Experiments that deliberately
   under-provision a resource (E8) measure what happens when a
   configuration the static verifier would reject runs anyway — the
   empirical counterpart of the verifier's prediction. *)
let run_unchecked ?(n = 6) ?(f = 1) ?(script = []) ?(horizon = Time.sec 1)
    ?tune () =
  match Btr.Scenario.run_unchecked (spec ~n ~f ~script ~horizon ?tune ()) with
  | Ok rt -> rt
  | Error e -> Format.kasprintf failwith "plan failed: %a" Planner.pp_error e

let pct x = Table.cell_pct (100.0 *. x)

(* When did the last correct node adopt a mode covering the injected
   fault? The gap from injection is the end-to-end reconfiguration
   latency (detection + distribution + transition). *)
let convergence_latency rt ~node ~at =
  let changes =
    List.filter
      (fun (_, _, mode) -> List.mem node mode)
      (Btr.Runtime.mode_changes rt)
  in
  match changes with
  | [] -> None
  | l -> Some (Time.sub (List.fold_left (fun acc (t, _, _) -> Time.max acc t) 0 l) at)

(* ------------------------------------------------------------------ *)
(* E1: replication & resource cost — "detection requires fewer
   replicas than masking" (§1).                                        *)

let e1 () =
  let table =
    Table.create ~title:"E1  Resource cost of protection (fault-free, avionics, 8 nodes)"
      ~header:[ "protocol"; "f"; "repl/task"; "cpu util"; "bytes/s"; "outputs ok" ]
  in
  let n = 8 in
  let horizon = Time.sec 1 in
  List.iter
    (fun f ->
      (* BTR: f+1 lanes plus one replay checker per protected task. *)
      let rt = run_exn (spec ~n ~f ~horizon ()) in
      let strategy = Btr.Runtime.strategy rt in
      let plan = Planner.initial_plan strategy in
      let aug = plan.Planner.aug in
      let kept_computes =
        List.filter (fun (x : Task.t) -> x.kind = Task.Compute) (Planner.kept strategy plan)
      in
      let computes = List.length kept_computes in
      let lanes =
        List.fold_left
          (fun acc (x : Task.t) ->
            acc + List.length (Augment.replicas_of aug x.id))
          0 kept_computes
      in
      let checkers = List.length (Augment.checkers aug) in
      let repl = float_of_int (lanes + checkers) /. float_of_int computes in
      let cpu =
        let nodes = Topology.nodes (clique n) in
        List.fold_left
          (fun acc nd ->
            acc +. Btr_sched.Schedule.node_utilization plan.Planner.schedule nd)
          0.0 nodes
        /. float_of_int (List.length nodes)
      in
      let bytes = (Btr.Runtime.net_stats rt).Net.bytes_sent in
      let ok = Btr.Metrics.correct_fraction (Btr.Runtime.metrics rt) in
      Table.add_row table
        [ "btr"; string_of_int f; Table.cell_f repl; Table.cell_f cpu;
          string_of_int bytes; pct ok ];
      (* Baselines on the same workload/topology. *)
      List.iter
        (fun style ->
          let t =
            Exec.run
              ~workload:(Generators.avionics ~n_nodes:n)
              ~topology:(clique n) ~style ~script:[] ~horizon ()
          in
          Table.add_row table
            [ Exec.style_name style; string_of_int f;
              Table.cell_f (Exec.replication_factor t);
              Table.cell_f (Exec.cpu_utilization t);
              string_of_int (Exec.bytes_sent t);
              pct (Btr.Metrics.correct_fraction (Exec.metrics t)) ])
        [ Exec.Zz { f; timeout = Time.ms 5 }; Exec.Pbft { f } ])
    [ 1; 2 ];
  let t0 =
    Exec.run
      ~workload:(Generators.avionics ~n_nodes:n)
      ~topology:(clique n) ~style:Exec.Unreplicated ~script:[] ~horizon ()
  in
  Table.add_row table
    [ "no-ft"; "-"; Table.cell_f (Exec.replication_factor t0);
      Table.cell_f (Exec.cpu_utilization t0); string_of_int (Exec.bytes_sent t0);
      pct (Btr.Metrics.correct_fraction (Exec.metrics t0)) ];
  Table.print table

(* E1b: what you choose to protect — the mixed-criticality knob the
   black-box baselines do not have (§1: "fine-grained responses").     *)

let e1b () =
  let table =
    Table.create
      ~title:"E1b Protection level ablation (btr, f=1, avionics, 8 nodes)"
      ~header:[ "protect >="; "repl/task"; "mean cpu util"; "protected outputs" ]
  in
  List.iter
    (fun level ->
      let tune c = { c with Planner.protect_level = level } in
      let rt = run_exn (spec ~n:8 ~tune ()) in
      let strategy = Btr.Runtime.strategy rt in
      let plan = Planner.initial_plan strategy in
      let aug = plan.Planner.aug in
      let kept_computes =
        List.filter (fun (x : Task.t) -> x.kind = Task.Compute) (Planner.kept strategy plan)
      in
      let computes = List.length kept_computes in
      let lanes =
        List.fold_left
          (fun acc (x : Task.t) -> acc + List.length (Augment.replicas_of aug x.id))
          0 kept_computes
      in
      let repl =
        float_of_int (lanes + List.length (Augment.checkers aug))
        /. float_of_int computes
      in
      let cpu =
        let nodes = Topology.nodes (clique 8) in
        List.fold_left
          (fun acc nd ->
            acc +. Btr_sched.Schedule.node_utilization plan.Planner.schedule nd)
          0.0 nodes
        /. float_of_int (List.length nodes)
      in
      let protected_count =
        List.length (Btr.Metrics.protected_flows (Btr.Runtime.metrics rt))
      in
      Table.add_row table
        [ Format.asprintf "%a" Task.pp_criticality level; Table.cell_f repl;
          Table.cell_f cpu;
          Printf.sprintf "%d of %d" protected_count
            (List.length (Graph.sink_flows (Planner.workload (Btr.Runtime.strategy rt)))) ])
    [ Task.Best_effort; Task.Medium; Task.High; Task.Safety_critical ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E2: bounded-time recovery per fault class vs Definition 3.1, and
   the unbounded tail of self-stabilization (§3, §3.1).                *)

let e2 () =
  let table =
    Table.create ~title:"E2  Measured recovery vs bound R = 200ms (single fault at t=250ms)"
      ~header:[ "system"; "fault"; "recovery"; "bound"; "within R" ]
  in
  let strategy_bound = ref Time.zero in
  List.iter
    (fun behavior ->
      let rt = run_exn (spec ~script:(Fault.single ~at:(Time.ms 250) ~node:3 behavior) ()) in
      strategy_bound :=
        (Planner.stats (Btr.Runtime.strategy rt)).Planner.worst_recovery;
      let recovery =
        match Btr.Metrics.recovery_times (Btr.Runtime.metrics rt) with
        | [ r ] -> r
        | _ -> Time.zero
      in
      Table.add_row table
        [ "btr"; Fault.behavior_name behavior; Time.to_string recovery;
          Time.to_string r_default;
          (if Time.compare recovery r_default <= 0 then "yes" else "NO") ])
    [
      Fault.Crash; Fault.Omit_outputs; Fault.Corrupt_outputs; Fault.Equivocate;
      Fault.Delay_outputs (Time.ms 8); Fault.Babble { bogus_per_period = 4 };
    ];
  (* Self-stabilization: same fault, 12 seeds; report the spread. *)
  let times =
    List.filter_map
      (fun seed ->
        let t =
          Exec.run ~seed
            ~workload:(Generators.avionics ~n_nodes:6)
            ~topology:(clique 6)
            ~style:(Exec.Selfstab { audit_interval = Time.ms 100; expose_prob = 0.3 })
            ~script:(Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs)
            ~horizon:(Time.sec 4) ()
        in
        match Btr.Metrics.recovery_times (Exec.metrics t) with
        | [ r ] -> Some (Time.to_sec_f r)
        | _ -> None)
      (List.init 12 (fun i -> i + 1))
  in
  (match Stats.summarize_opt times with
  | Some s ->
    Table.add_row table
      [ "self-stab"; "corrupt (12 seeds)";
        Printf.sprintf "p50=%.0fms max=%.0fms" (s.Stats.p50 *. 1e3) (s.Stats.max *. 1e3);
        "none"; "no bound" ]
  | None -> ());
  Table.print table;
  Printf.printf "   planner's offline worst-case recovery bound: %s\n\n"
    (Time.to_string !strategy_bound)

(* ------------------------------------------------------------------ *)
(* E3: the sequential attack — k faults, one every R, force at most
   k*R of incorrect output (§3).                                       *)

let e3 () =
  let table =
    Table.create ~title:"E3  Sequential attack: incorrect-output time vs k*R (R = 200ms)"
      ~header:[ "k (faulty nodes)"; "incorrect time"; "bound k*R"; "within" ]
  in
  List.iter
    (fun k ->
      let nodes = List.filteri (fun i _ -> i < k) [ 3; 1; 5 ] in
      let script =
        Fault.sequential_attack ~nodes ~start:(Time.ms 200) ~gap:r_default
          Fault.Corrupt_outputs
      in
      let rt = run_exn (spec ~n:8 ~f:k ~script ~horizon:(Time.sec 2) ()) in
      let bad = Btr.Metrics.incorrect_time (Btr.Runtime.metrics rt) in
      let bound = Time.mul r_default k in
      Table.add_row table
        [ string_of_int k; Time.to_string bad; Time.to_string bound;
          (if Time.compare bad bound <= 0 then "yes" else "NO") ])
    [ 1; 2; 3 ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E4: timeliness — fault-free deadline behaviour as the network gets
   slower (§1: BFT "tends to sacrifice liveness"), and incorrect
   output under attack.                                                *)

let e4 () =
  let table =
    Table.create
      ~title:"E4  Deadline misses vs link bandwidth (fault-free, avionics, 6 nodes)"
      ~header:[ "bandwidth"; "btr"; "no-ft"; "zz-lite"; "pbft-lite" ]
  in
  let horizon = Time.sec 1 in
  List.iter
    (fun bw ->
      let topo = Topology.fully_connected ~n:6 ~bandwidth_bps:bw ~latency:(Time.us 50) in
      let btr_cell =
        let s =
          Btr.Scenario.spec
            ~workload:(Generators.avionics ~n_nodes:6)
            ~topology:topo ~f:1 ~recovery_bound:r_default ~horizon ()
        in
        match Btr.Scenario.run s with
        | Ok rt ->
          pct (Btr.Metrics.deadline_miss_fraction (Btr.Runtime.metrics rt))
        | Error _ -> "unschedulable"
      in
      let baseline style =
        let t =
          Exec.run
            ~workload:(Generators.avionics ~n_nodes:6)
            ~topology:topo ~style ~script:[] ~horizon ()
        in
        pct (Btr.Metrics.deadline_miss_fraction (Exec.metrics t))
      in
      Table.add_row table
        [ Printf.sprintf "%dKB/s" (bw / 1000); btr_cell;
          baseline Exec.Unreplicated;
          baseline (Exec.Zz { f = 1; timeout = Time.ms 5 });
          baseline (Exec.Pbft { f = 1 }) ])
    [ 10_000_000; 1_000_000; 400_000; 150_000 ];
  Table.print table;
  (* Under attack: who produces wrong/missing output, and for how long. *)
  let table2 =
    Table.create ~title:"E4b Incorrect output under attack (corrupt node 3 at 250ms, 1s run)"
      ~header:[ "protocol"; "incorrect time"; "correct outputs" ]
  in
  let script = Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs in
  let rt = run_exn (spec ~script ()) in
  Table.add_row table2
    [ "btr"; Time.to_string (Btr.Metrics.incorrect_time (Btr.Runtime.metrics rt));
      pct (Btr.Metrics.correct_fraction (Btr.Runtime.metrics rt)) ];
  List.iter
    (fun style ->
      let t =
        Exec.run
          ~workload:(Generators.avionics ~n_nodes:6)
          ~topology:(clique 6) ~style ~script ~horizon:(Time.sec 1) ()
      in
      Table.add_row table2
        [ Exec.style_name style;
          Time.to_string (Btr.Metrics.incorrect_time (Exec.metrics t));
          pct (Btr.Metrics.correct_fraction (Exec.metrics t)) ])
    [ Exec.Unreplicated; Exec.Zz { f = 1; timeout = Time.ms 5 }; Exec.Pbft { f = 1 } ];
  Table.print table2

(* ------------------------------------------------------------------ *)
(* E5: fine-grained degradation — shed the in-flight entertainment,
   keep the flight controls (§1, §4.1).                                *)

let e5 () =
  let table =
    Table.create
      ~title:"E5  Mixed-criticality degradation (avionics on 5 nodes, f=2, accumulating crashes)"
      ~header:
        [ "faults"; "shed below"; "safety-critical"; "high"; "medium"; "low"; "best-effort" ]
  in
  (* Double the compute demand so that losing nodes forces the planner
     to shed, not merely repack. *)
  let base = Generators.avionics ~n_nodes:5 in
  let g =
    Graph.create ~period:(Graph.period base)
      ~tasks:
        (List.map
           (fun (x : Task.t) ->
             if x.kind = Task.Compute then { x with Task.wcet = Time.mul x.wcet 2 }
             else x)
           (Graph.tasks base))
      ~flows:(Graph.flows base)
  in
  let topo = clique 5 in
  let cfg = Planner.default_config ~f:2 ~recovery_bound:(Time.sec 1) in
  let strategy =
    match Planner.build { cfg with Planner.degree = 2 } g topo with
    | Ok s -> s
    | Error e -> Format.kasprintf failwith "%a" Planner.pp_error e
  in
  List.iter
    (fun faulty ->
      match Planner.plan_for strategy ~faulty with
      | None -> ()
      | Some p ->
        let kept = Planner.kept strategy p in
        let count level =
          string_of_int
            (List.length
               (List.filter (fun (x : Task.t) -> x.criticality = level) kept))
        in
        Table.add_row table
          [ Printf.sprintf "{%s}" (String.concat "," (List.map string_of_int faulty));
            (match p.Planner.shed_below with
            | None -> "-"
            | Some c -> Format.asprintf "%a" Task.pp_criticality c);
            count Task.Safety_critical; count Task.High; count Task.Medium;
            count Task.Low; count Task.Best_effort ])
    [ []; [ 4 ]; [ 3; 4 ] ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E6: physical inertia and the five-second rule (§1, §2).             *)

(* A BTR-controlled inverted pendulum: IMU on node 0, replicated
   state-feedback controller, torque actuator on node 1. Shared with
   the examples. *)
let pendulum_spec ~f ~script ~horizon ?tune () =
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
  (* Ballast load on the sensor and actuator nodes: the locality
     heuristic would otherwise co-locate the controller with them, and
     corrupting those nodes attacks the physical interfaces themselves
     (sensor/actuator attacks are out of scope — §5) or loses the
     pinned actuator outright. *)
  let ballast0 =
    Task.make ~id:3 ~name:"telemetry-ballast0" ~wcet:(ms 14)
      ~criticality:Task.Best_effort ~pinned:0 ()
  in
  let ballast1 =
    Task.make ~id:4 ~name:"telemetry-ballast1" ~wcet:(ms 14)
      ~criticality:Task.Best_effort ~pinned:1 ()
  in
  let workload =
    Graph.create_relaxed ~period:(ms 20)
      ~tasks:[ imu; controller; torque; ballast0; ballast1 ]
      ~flows:
        [
          { Graph.flow_id = 0; producer = 0; consumer = 1; msg_size = 64; deadline = None };
          { Graph.flow_id = 1; producer = 1; consumer = 2; msg_size = 32; deadline = Some (ms 15) };
        ]
  in
  let plant = Plant.create (Plant.inverted_pendulum ()) ~dt:(Time.ms 1) in
  let behaviors =
    [
      (0, fun ~period:_ ~inputs:_ -> Some (Plant.state plant));
      ( 1,
        fun ~period:_ ~inputs ->
          match inputs with
          | [ { Btr.Behavior.value = st; _ } ] when Array.length st >= 2 ->
            let u = -.((25.0 *. st.(0)) +. (8.0 *. st.(1))) in
            Some [| Float.max (-50.0) (Float.min 50.0 u) |]
          | _ -> None );
    ]
  in
  let s =
    Btr.Scenario.spec ~workload ~topology:(clique 5) ~f ~recovery_bound:(Time.ms 150)
      ~script ~horizon ~behaviors ?tune ()
  in
  (s, plant)

let run_pendulum ~f ~script ~horizon =
  let s, plant = pendulum_spec ~f ~script ~horizon () in
  match Btr.Scenario.prepare s with
  | Error e -> Format.kasprintf failwith "%a" Planner.pp_error e
  | Ok rt ->
    let eng = Btr.Runtime.engine rt in
    (* The plant integrates continuously; sample it every millisecond
       and apply torque commands as they reach the actuator. *)
    ignore
      (Btr_sim.Engine.every eng ~period:(Time.ms 1) (fun e ->
           Plant.advance plant ~until:(Btr_sim.Engine.now e)));
    Btr.Runtime.on_actuate rt ~orig_flow:1 (fun ~period:_ ~value ~at ->
        Plant.advance plant ~until:at;
        if Array.length value >= 1 then
          Plant.set_input plant (Float.max (-50.0) (Float.min 50.0 value.(0))));
    Btr.Runtime.run rt ~horizon;
    Plant.advance plant ~until:horizon;
    (rt, plant)

let e6 () =
  (* Part 1: open-loop outage sweep — how long an outage each plant
     tolerates (control input frozen), i.e. the max usable R. *)
  let table =
    Table.create ~title:"E6  Plant inertia: outage duration vs safety envelope"
      ~header:[ "outage"; "pendulum"; "pressure vessel"; "cruise control" ]
  in
  let survive model outage_s =
    let m = model () in
    let p = Plant.create m ~dt:(Time.ms 1) in
    let ctl = Plant.Controller.default_for m in
    let period = Time.ms 20 in
    let horizon = Time.add (Time.sec 40) (Time.of_sec_f outage_s) in
    let o_start = Time.sec 10 in
    let o_end = Time.add o_start (Time.of_sec_f outage_s) in
    let rec loop t =
      if Time.compare t horizon >= 0 then ()
      else begin
        Plant.advance p ~until:t;
        if Time.compare t o_start < 0 || Time.compare t o_end >= 0 then
          Plant.set_input p
            (Plant.Controller.compute ctl ~dt_s:(Time.to_sec_f period)
               ~measurement:(Plant.state p));
        loop (Time.add t period)
      end
    in
    loop Time.zero;
    if Time.equal (Plant.time_outside_envelope p) Time.zero then "ok"
    else if Plant.failed p then "DESTROYED"
    else "violated"
  in
  List.iter
    (fun outage_s ->
      Table.add_row table
        [ Printf.sprintf "%.2fs" outage_s;
          survive Plant.inverted_pendulum outage_s;
          survive (fun () -> Plant.pressure_vessel ()) outage_s;
          survive (fun () -> Plant.cruise_control ()) outage_s ])
    [ 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 30.0 ];
  Table.print table;
  (* Part 2: closed loop — BTR recovers fast enough for the pendulum;
     without recovery the same fault destroys it. *)
  let table2 =
    Table.create
      ~title:"E6b Closed loop: corrupt controller node at t=1s (pendulum, R=150ms)"
      ~header:[ "system"; "recovery"; "max excursion"; "outside envelope"; "destroyed" ]
  in
  let describe name rt plant =
    let recovery =
      match Btr.Metrics.recovery_times (Btr.Runtime.metrics rt) with
      | [ r ] -> Time.to_string r
      | _ -> "-"
    in
    Table.add_row table2
      [ name; recovery; Table.cell_f (Plant.max_excursion plant);
        Time.to_string (Plant.time_outside_envelope plant);
        (if Plant.failed plant then "yes" else "no") ]
  in
  let controller_node rt =
    let plan = Planner.initial_plan (Btr.Runtime.strategy rt) in
    Option.value ~default:2 (Btr_sched.Schedule.node_of plan.Planner.schedule 1)
  in
  (* Probe run to find the primary controller's node, then attack it. *)
  let probe, _ = run_pendulum ~f:1 ~script:[] ~horizon:(Time.ms 40) in
  let target = controller_node probe in
  let script = Fault.single ~at:(Time.sec 1) ~node:target Fault.Corrupt_outputs in
  let rt, plant = run_pendulum ~f:1 ~script ~horizon:(Time.sec 4) in
  describe "btr (f=1)" rt plant;
  let rt0, plant0 = run_pendulum ~f:0 ~script ~horizon:(Time.sec 4) in
  describe "no recovery (f=0)" rt0 plant0;
  Table.print table2

(* ------------------------------------------------------------------ *)
(* E7: planner scalability and the value of minimal reassignment
   (§4.1).                                                             *)

let e7 () =
  let table =
    Table.create ~title:"E7  Planner scalability (avionics, clique)"
      ~header:[ "nodes"; "f"; "modes"; "transitions"; "plan time"; "worst recovery" ]
  in
  List.iter
    (fun (n, f) ->
      let cfg = Planner.default_config ~f ~recovery_bound:(Time.sec 1) in
      match Planner.build cfg (Generators.avionics ~n_nodes:n) (clique n) with
      | Error _ -> Table.add_row table [ string_of_int n; string_of_int f; "-"; "-"; "-"; "-" ]
      | Ok s ->
        let st = Planner.stats s in
        Table.add_row table
          [ string_of_int n; string_of_int f; string_of_int st.Planner.modes;
            string_of_int st.Planner.transitions;
            Printf.sprintf "%.1fms" (st.Planner.planning_seconds *. 1e3);
            Time.to_string st.Planner.worst_recovery ])
    [ (4, 1); (6, 1); (8, 1); (12, 1); (16, 1); (6, 2); (8, 2); (12, 2); (8, 3) ];
  Table.print table;
  let table2 =
    Table.create ~title:"E7b Minimal reassignment vs naive replanning (8 nodes, f=2)"
      ~header:[ "policy"; "moved tasks"; "moved state"; "worst migration"; "worst recovery" ]
  in
  List.iter
    (fun (name, policy) ->
      let cfg =
        { (Planner.default_config ~f:2 ~recovery_bound:(Time.sec 1)) with
          Planner.reassignment = policy }
      in
      match Planner.build cfg (Generators.avionics ~n_nodes:8) (clique 8) with
      | Error _ -> ()
      | Ok s ->
        let trs = Planner.all_transitions s in
        let moved = List.fold_left (fun a tr -> a + List.length tr.Planner.moved) 0 trs in
        let worst_mig =
          List.fold_left (fun a tr -> Time.max a tr.Planner.migration_bound) Time.zero trs
        in
        Table.add_row table2
          [ name; string_of_int moved;
            Printf.sprintf "%dB" (Planner.stats s).Planner.total_moved_state;
            Time.to_string worst_mig;
            Time.to_string (Planner.stats s).Planner.worst_recovery ])
    [ ("minimal", Planner.Minimal); ("naive", Planner.Naive) ];
  Table.print table2

(* ------------------------------------------------------------------ *)
(* E8: evidence distribution under reserved bandwidth, with and
   without a bogus-evidence flood (§4.3).                              *)

let e8 () =
  let table =
    Table.create
      ~title:"E8  Reconfiguration latency vs reserved control bandwidth (corrupt node 3)"
      ~header:[ "control share"; "convergence"; "with bogus flood"; "recovery" ]
  in
  let run_with ~share ~flood =
    let script =
      Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs
      @ (if flood then
           Fault.single ~at:Time.zero ~node:5 (Fault.Babble { bogus_per_period = 8 })
         else [])
    in
    let tune c =
      { c with Planner.shares = Some { Net.data_frac = 0.35; control_frac = share } }
    in
    (* f = 2: the babbler is itself a fault, and both must fit the
       budget. Starved control shares are exactly what BTR-E303 rejects,
       so deploy past the gate to measure the failure it predicts. *)
    let rt = run_unchecked ~f:2 ~script ~tune () in
    let conv = convergence_latency rt ~node:3 ~at:(Time.ms 250) in
    let recovery =
      match Btr.Metrics.recovery_times (Btr.Runtime.metrics rt) with
      | r :: _ -> r
      | [] -> Time.zero
    in
    (conv, recovery)
  in
  List.iter
    (fun share ->
      let conv, recovery = run_with ~share ~flood:false in
      let conv_flood, _ = run_with ~share ~flood:true in
      let cell = function Some c -> Time.to_string c | None -> "never" in
      Table.add_row table
        [ Printf.sprintf "%.1f%%" (share *. 100.0); cell conv; cell conv_flood;
          Time.to_string recovery ])
    [ 0.005; 0.02; 0.05; 0.15 ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E9: omission attribution via problematic paths (§4.2).              *)

let e9 () =
  let table =
    Table.create
      ~title:"E9  Omission handling: selective omission by node 3 (f=1, threshold f+1=2)"
      ~header:
        [ "omits toward"; "attributed"; "false attrib."; "convergence"; "outputs ok" ]
  in
  List.iter
    (fun (label, behavior) ->
      let rt = run_exn (spec ~script:(Fault.single ~at:(Time.ms 250) ~node:3 behavior)
                          ~horizon:(Time.sec 2) ()) in
      let correct_nodes =
        List.filter (fun n -> n <> 3) (Topology.nodes (clique 6))
      in
      let attributed =
        List.exists (fun n -> List.mem 3 (Btr.Runtime.node_fault_nodes rt n)) correct_nodes
      in
      let false_attr =
        List.exists
          (fun n ->
            List.exists (fun x -> x <> 3) (Btr.Runtime.node_fault_nodes rt n))
          correct_nodes
      in
      let conv = convergence_latency rt ~node:3 ~at:(Time.ms 250) in
      Table.add_row table
        [ label; (if attributed then "yes" else "no");
          (if false_attr then "YES (bug)" else "none");
          (match conv with Some c -> Time.to_string c | None -> "-");
          pct (Btr.Metrics.correct_fraction (Btr.Runtime.metrics rt)) ])
    [
      ("1 node", Fault.Omit_to [ 0 ]);
      ("2 nodes", Fault.Omit_to [ 0; 1 ]);
      ("3 nodes", Fault.Omit_to [ 0; 1; 2 ]);
      ("everyone", Fault.Omit_outputs);
    ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E10 (beyond the paper): relaxing the §2.1 "losses are rare enough to
   be ignored" assumption. Residual per-hop loss makes single-miss path
   declarations frame correct nodes; an omission-strike threshold
   restores safety at the cost of slower omission detection.           *)

let e10 () =
  let table =
    Table.create
      ~title:"E10 Residual link loss vs omission-strike threshold (crash node 3 at 500ms, 2s run)"
      ~header:
        [ "loss/hop"; "strikes"; "false attributions"; "crash attributed"; "outputs ok" ]
  in
  List.iter
    (fun (loss, strikes) ->
      let s = spec ~horizon:(Time.sec 2)
          ~script:(Fault.single ~at:(Time.ms 500) ~node:3 Fault.Crash) () in
      match Btr.Scenario.plan s with
      | Error _ -> ()
      | Ok strategy ->
        let config =
          { Btr.Runtime.default_config with
            residual_loss = loss; omission_strikes = strikes }
        in
        let rt =
          Btr.Runtime.create ~config ~script:s.Btr.Scenario.script ~strategy ()
        in
        Btr.Runtime.run rt ~horizon:s.Btr.Scenario.horizon;
        let correct = List.filter (fun n -> n <> 3) (Topology.nodes (clique 6)) in
        let accusations =
          List.concat_map (fun c -> Btr.Runtime.node_fault_nodes rt c) correct
        in
        let false_attr = List.exists (fun x -> x <> 3) accusations in
        let caught = List.mem 3 accusations in
        Table.add_row table
          [ Printf.sprintf "%.1f%%" (loss *. 100.0); string_of_int strikes;
            (if false_attr then "YES" else "none");
            (if caught then "yes" else "no");
            pct (Btr.Metrics.correct_fraction (Btr.Runtime.metrics rt)) ])
    [ (0.0, 1); (0.003, 1); (0.003, 3); (0.01, 3); (0.01, 5) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E11: randomized fault-injection campaign — what the empirical
   adversary finds beyond the static verifier's verdicts. The original
   run of this grid surfaced the selective-omission gap (omitto.3.5@…);
   since the shared-strike detector rework and BTR-E305 the same grid
   reports zero violations — see EXPERIMENTS.md for before/after.      *)

let e11 () =
  let module Campaign = Btr_campaign.Campaign in
  let grid =
    {
      Campaign.default_grid with
      Campaign.fault_bounds = [ 1; 2 ];
      control_shares = [ None; Some 0.005 ];
    }
  in
  let spec = Campaign.spec ~grid ~trials:60 ~seed:7 ~shrink_budget:120 () in
  let result = Campaign.run ~jobs:1 spec in
  let table =
    Table.create
      ~title:"E11 Campaign verdicts by configuration (60 trials, seed 7)"
      ~header:[ "config"; "trials"; "rejected"; "violations"; "worst recovery" ]
  in
  List.iter
    (fun (p : Campaign.params) ->
      let vs =
        List.filter
          (fun (v : Campaign.verdict) ->
            Campaign.plan_key ~seed:spec.Campaign.seed v.Campaign.trial.Campaign.params
            = Campaign.plan_key ~seed:spec.Campaign.seed p)
          result.Campaign.verdicts
      in
      let count pred = List.length (List.filter pred vs) in
      let worst =
        List.fold_left
          (fun acc (v : Campaign.verdict) ->
            match v.Campaign.outcome with
            | Campaign.Pass st | Campaign.Violation st ->
              Time.max acc st.Campaign.worst_recovery
            | _ -> acc)
          Time.zero vs
      in
      Table.add_row table
        [
          Format.asprintf "%a" Campaign.pp_params p;
          string_of_int (List.length vs);
          string_of_int
            (count (fun v ->
                 match v.Campaign.outcome with Campaign.Rejected _ -> true | _ -> false));
          string_of_int (count (fun v -> Campaign.violates v.Campaign.outcome));
          Time.to_string worst;
        ])
    (Campaign.grid_params grid);
  Table.print table;
  List.iter
    (fun (s : Campaign.shrunk_violation) ->
      Printf.printf
        "violation (trial %d): %s -> %s (%d -> %d events, %d shrink runs)\n"
        s.Campaign.source.Campaign.index
        (Campaign.script_to_string s.Campaign.source.Campaign.script)
        (Campaign.script_to_string s.Campaign.script)
        (List.length s.Campaign.source.Campaign.script)
        (List.length s.Campaign.script)
        s.Campaign.shrink_runs)
    result.Campaign.violations

let all = [ ("e1", e1); ("e1b", e1b); ("e2", e2); ("e3", e3); ("e4", e4);
            ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9);
            ("e10", e10); ("e11", e11) ]
