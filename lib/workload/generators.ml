open Btr_util

(* A tiny builder DSL keeps the canned workloads readable. *)
module B = struct
  type t = {
    mutable tasks : Task.t list;
    mutable flows : Graph.flow list;
    mutable next_task : int;
    mutable next_flow : int;
  }

  let create () = { tasks = []; flows = []; next_task = 0; next_flow = 0 }

  let task b ~name ?kind ~wcet ?criticality ?state_size ?pinned () =
    let id = b.next_task in
    b.next_task <- id + 1;
    let t = Task.make ~id ~name ?kind ~wcet ?criticality ?state_size ?pinned () in
    b.tasks <- t :: b.tasks;
    id

  let flow b ~from_task ~to_task ~msg_size ?deadline () =
    let id = b.next_flow in
    b.next_flow <- id + 1;
    b.flows <-
      {
        Graph.flow_id = id;
        producer = from_task;
        consumer = to_task;
        msg_size;
        deadline;
      }
      :: b.flows

  let finish b ~period =
    Graph.create ~period ~tasks:(List.rev b.tasks) ~flows:(List.rev b.flows)
end

(* Every generator pins tasks to fixed node ids (avionics and fleet up
   to node 3, scada up to node 2) or divides by the node count (random). *)
let min_nodes = [ ("avionics", 4); ("scada", 3); ("random", 1); ("fleet", 4) ]

let check_nodes name ~n_nodes =
  match List.assoc_opt name min_nodes with
  | Some m when n_nodes < m ->
    Error (Printf.sprintf "workload %s needs >= %d nodes, got %d" name m n_nodes)
  | _ -> Ok ()

let require_nodes name ~n_nodes =
  match check_nodes name ~n_nodes with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Generators.%s: %s" name m)

let avionics ~n_nodes =
  require_nodes "avionics" ~n_nodes;
  let b = B.create () in
  let ms = Time.ms and us = Time.us in
  (* Flight control: sensors on nodes 0 and 1, actuator on node 2. *)
  let pitot =
    B.task b ~name:"pitot-sensor" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:0 ()
  in
  let imu =
    B.task b ~name:"imu-sensor" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:1 ()
  in
  let estimator =
    B.task b ~name:"state-estimator" ~wcet:(ms 2)
      ~criticality:Task.Safety_critical ~state_size:4_096 ()
  in
  let control_law =
    B.task b ~name:"control-law" ~wcet:(ms 2) ~criticality:Task.Safety_critical
      ~state_size:2_048 ()
  in
  let elevator =
    B.task b ~name:"elevator-actuator" ~kind:Task.Sink ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:2 ()
  in
  B.flow b ~from_task:pitot ~to_task:estimator ~msg_size:64 ();
  B.flow b ~from_task:imu ~to_task:estimator ~msg_size:128 ();
  B.flow b ~from_task:estimator ~to_task:control_law ~msg_size:128 ();
  B.flow b ~from_task:control_law ~to_task:elevator ~msg_size:64
    ~deadline:(ms 15) ();
  (* Engine monitoring: high criticality. *)
  let egt =
    B.task b ~name:"egt-sensor" ~kind:Task.Source ~wcet:(us 100)
      ~criticality:Task.High ~pinned:3 ()
  in
  let engine_monitor =
    B.task b ~name:"engine-monitor" ~wcet:(ms 1) ~criticality:Task.High
      ~state_size:1_024 ()
  in
  let alarm =
    B.task b ~name:"engine-alarm" ~kind:Task.Sink ~wcet:(us 100)
      ~criticality:Task.High ~pinned:2 ()
  in
  B.flow b ~from_task:egt ~to_task:engine_monitor ~msg_size:64 ();
  B.flow b ~from_task:engine_monitor ~to_task:alarm ~msg_size:32
    ~deadline:(ms 18) ();
  (* Navigation / display: medium. *)
  let gps =
    B.task b ~name:"gps-receiver" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.Medium ~pinned:(Stdlib.min 3 (n_nodes - 1)) ()
  in
  let nav =
    B.task b ~name:"nav-fusion" ~wcet:(ms 1) ~criticality:Task.Medium
      ~state_size:2_048 ()
  in
  let display =
    B.task b ~name:"pfd-display" ~kind:Task.Sink ~wcet:(us 300)
      ~criticality:Task.Medium ~pinned:0 ()
  in
  B.flow b ~from_task:gps ~to_task:nav ~msg_size:256 ();
  B.flow b ~from_task:estimator ~to_task:nav ~msg_size:128 ();
  B.flow b ~from_task:nav ~to_task:display ~msg_size:512 ~deadline:(ms 20) ();
  (* In-flight entertainment: best effort, heavy, sheddable. *)
  let media_src =
    B.task b ~name:"ife-media-source" ~kind:Task.Source ~wcet:(us 300)
      ~criticality:Task.Best_effort ~pinned:(n_nodes - 1) ()
  in
  let transcode =
    B.task b ~name:"ife-transcode" ~wcet:(ms 4) ~criticality:Task.Best_effort
      ~state_size:16_384 ()
  in
  let cabin =
    B.task b ~name:"ife-cabin-screens" ~kind:Task.Sink ~wcet:(us 300)
      ~criticality:Task.Best_effort ~pinned:(n_nodes - 1) ()
  in
  B.flow b ~from_task:media_src ~to_task:transcode ~msg_size:4_096 ();
  B.flow b ~from_task:transcode ~to_task:cabin ~msg_size:4_096 ~deadline:(ms 20) ();
  B.finish b ~period:(ms 20)

let scada ~n_nodes =
  require_nodes "scada" ~n_nodes;
  let b = B.create () in
  let ms = Time.ms and us = Time.us in
  let pressure =
    B.task b ~name:"pressure-sensor" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:0 ()
  in
  let temp =
    B.task b ~name:"temperature-sensor" ~kind:Task.Source ~wcet:(us 200)
      ~criticality:Task.High ~pinned:1 ()
  in
  let plc =
    B.task b ~name:"plc-logic" ~wcet:(ms 3) ~criticality:Task.Safety_critical
      ~state_size:8_192 ()
  in
  let valve =
    B.task b ~name:"relief-valve" ~kind:Task.Sink ~wcet:(us 200)
      ~criticality:Task.Safety_critical ~pinned:2 ()
  in
  B.flow b ~from_task:pressure ~to_task:plc ~msg_size:64 ();
  B.flow b ~from_task:temp ~to_task:plc ~msg_size:64 ();
  B.flow b ~from_task:plc ~to_task:valve ~msg_size:32 ~deadline:(ms 200) ();
  let trend =
    B.task b ~name:"trend-logger" ~wcet:(ms 2) ~criticality:Task.Low
      ~state_size:32_768 ()
  in
  let historian =
    B.task b ~name:"historian" ~kind:Task.Sink ~wcet:(us 300)
      ~criticality:Task.Low ~pinned:(n_nodes - 1) ()
  in
  B.flow b ~from_task:plc ~to_task:trend ~msg_size:256 ();
  B.flow b ~from_task:trend ~to_task:historian ~msg_size:1_024 ~deadline:(ms 500) ();
  let hmi =
    B.task b ~name:"hmi-render" ~wcet:(ms 2) ~criticality:Task.Best_effort
      ~state_size:4_096 ()
  in
  let console =
    B.task b ~name:"operator-console" ~kind:Task.Sink ~wcet:(us 300)
      ~criticality:Task.Best_effort ~pinned:(n_nodes - 1) ()
  in
  B.flow b ~from_task:plc ~to_task:hmi ~msg_size:512 ();
  B.flow b ~from_task:hmi ~to_task:console ~msg_size:2_048 ~deadline:(ms 500) ();
  B.finish b ~period:(ms 50)

let random_layered ~rng ~n_nodes ~layers ~width ?(period = Time.ms 20)
    ?utilization_target () =
  require_nodes "random" ~n_nodes;
  if layers < 1 || width < 1 then
    invalid_arg "Generators.random_layered: layers and width must be >= 1";
  let target =
    match utilization_target with
    | Some u -> u
    | None -> 0.5 *. float_of_int n_nodes
  in
  let b = B.create () in
  let crit () =
    Task.criticality_of_rank (Rng.int rng 5)
  in
  let n_sources = 1 + Rng.int rng 2 in
  let sources =
    List.init n_sources (fun i ->
        B.task b
          ~name:(Printf.sprintf "src%d" i)
          ~kind:Task.Source ~wcet:(Time.us 100) ~criticality:Task.High
          ~pinned:(i mod n_nodes) ())
  in
  (* Layers of compute tasks; wcet placeholder 1ms, rescaled below via a
     second pass that rebuilds the graph. *)
  let layer_tasks =
    List.init layers (fun l ->
        let w = 1 + Rng.int rng width in
        List.init w (fun i ->
            B.task b
              ~name:(Printf.sprintf "c%d_%d" l i)
              ~wcet:(Time.ms 1) ~criticality:(crit ())
              ~state_size:(256 * (1 + Rng.int rng 16))
              ()))
  in
  let n_sinks = 1 + Rng.int rng 2 in
  let sinks =
    List.init n_sinks (fun i ->
        B.task b
          ~name:(Printf.sprintf "sink%d" i)
          ~kind:Task.Sink ~wcet:(Time.us 100) ~criticality:Task.High
          ~pinned:((i + 1) mod n_nodes) ())
  in
  let connect_layer producers consumers =
    (* Every producer feeds 1–2 consumers; every consumer gets >= 1 input. *)
    List.iter
      (fun p ->
        let fanout = 1 + Rng.int rng 2 in
        let targets = Rng.sample rng fanout consumers in
        List.iter
          (fun c ->
            B.flow b ~from_task:p ~to_task:c
              ~msg_size:(32 * (1 + Rng.int rng 32))
              ())
          targets)
      producers;
    List.iter
      (fun c ->
        if
          not
            (List.exists
               (fun f -> f.Graph.consumer = c && List.mem f.Graph.producer producers)
               b.B.flows)
        then
          B.flow b
            ~from_task:(Rng.pick_list rng producers)
            ~to_task:c
            ~msg_size:(32 * (1 + Rng.int rng 32))
            ())
      consumers
  in
  let rec wire prev = function
    | [] -> prev
    | layer :: rest ->
      connect_layer prev layer;
      wire layer rest
  in
  let last = wire sources layer_tasks in
  (* Sink flows get deadlines inside the period. *)
  List.iter
    (fun s ->
      let p = Rng.pick_list rng last in
      B.flow b ~from_task:p ~to_task:s
        ~msg_size:(32 * (1 + Rng.int rng 8))
        ~deadline:(Time.div (Time.mul period 3) 4)
        ())
    sinks;
  (* Last-layer tasks the sinks did not pick still need an output. *)
  List.iter
    (fun p ->
      if not (List.exists (fun f -> f.Graph.producer = p) b.B.flows) then
        B.flow b ~from_task:p
          ~to_task:(Rng.pick_list rng sinks)
          ~msg_size:(32 * (1 + Rng.int rng 8))
          ~deadline:(Time.div (Time.mul period 3) 4)
          ())
    last;
  let g = B.finish b ~period in
  (* Rescale compute WCETs to hit the utilization target. *)
  let u = Graph.utilization g in
  let scale = target /. u in
  let tasks' =
    List.map
      (fun (t : Task.t) ->
        if t.kind = Task.Compute then
          {
            t with
            Task.wcet =
              Stdlib.max 10
                (int_of_float (float_of_int t.Task.wcet *. scale));
          }
        else t)
      (Graph.tasks g)
  in
  Graph.create ~period ~tasks:tasks' ~flows:(Graph.flows g)

let random_layered_max_tasks ~layers ~width = 2 + (layers * width) + 2

let fleet ~n_nodes =
  require_nodes "fleet" ~n_nodes;
  let b = B.create () in
  let ms = Time.ms and us = Time.us in
  (* Names are concatenated, not formatted: Printf allocated about 60%
     of the words a fleet build allocates. *)
  (* Per vehicle: a pinned telemetry source feeding a pinned local
     aggregator. Low criticality, node-local flow — the bulk traffic
     that makes the graph scale with the fleet. *)
  for i = 0 to n_nodes - 1 do
    let src =
      B.task b
        ~name:("telemetry-" ^ string_of_int i)
        ~kind:Task.Source ~wcet:(us 100) ~criticality:Task.Low ~pinned:i ()
    in
    let agg =
      B.task b
        ~name:("aggregate-" ^ string_of_int i)
        ~kind:Task.Sink ~wcet:(us 100) ~criticality:Task.Low ~pinned:i ()
    in
    B.flow b ~from_task:src ~to_task:agg ~msg_size:64 ()
  done;
  (* A fixed handful of fleet-wide control pipelines: pinned sensor →
     migratable controller → pinned actuator, protected criticality so
     the planner replicates the controllers and the verifier audits
     their omission cuts. *)
  for j = 0 to 3 do
    let src_node = j mod n_nodes and act_node = (j + 1) mod n_nodes in
    let sensor =
      B.task b
        ~name:("hazard-sensor-" ^ string_of_int j)
        ~kind:Task.Source ~wcet:(us 200) ~criticality:Task.High
        ~pinned:src_node ()
    in
    let controller =
      B.task b
        ~name:("fleet-controller-" ^ string_of_int j)
        ~wcet:(us 600) ~criticality:Task.High ~state_size:2_048 ()
    in
    let actuator =
      B.task b
        ~name:("fleet-actuator-" ^ string_of_int j)
        ~kind:Task.Sink ~wcet:(us 200) ~criticality:Task.High
        ~pinned:act_node ()
    in
    B.flow b ~from_task:sensor ~to_task:controller ~msg_size:128 ();
    B.flow b ~from_task:controller ~to_task:actuator ~msg_size:64
      ~deadline:(ms 15) ()
  done;
  B.finish b ~period:(ms 20)
