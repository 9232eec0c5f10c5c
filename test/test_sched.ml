open Btr_util
open Btr_workload
open Btr_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A transfer oracle: fixed cost per byte between distinct nodes. *)
let xfer_uniform ~us_per_byte ~src ~dst ~size_bytes =
  if src = dst then Time.zero else Time.us (us_per_byte * size_bytes)

let xfer1 = xfer_uniform ~us_per_byte:1

let mk_flow ?deadline id p c size =
  { Graph.flow_id = id; producer = p; consumer = c; msg_size = size; deadline }

let chain_graph () =
  let src =
    Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:(Time.us 100) ~pinned:0 ()
  in
  let a = Task.make ~id:1 ~name:"a" ~wcet:(Time.ms 1) () in
  let b = Task.make ~id:2 ~name:"b" ~wcet:(Time.ms 1) () in
  let sink =
    Task.make ~id:3 ~name:"k" ~kind:Task.Sink ~wcet:(Time.us 100) ~pinned:1 ()
  in
  Graph.create ~period:(Time.ms 10)
    ~tasks:[ src; a; b; sink ]
    ~flows:
      [
        mk_flow 0 0 1 100;
        mk_flow 1 1 2 100;
        mk_flow 2 2 3 100 ~deadline:(Time.ms 9);
      ]

let place_all_chain = function 0 -> 0 | 1 -> 0 | 2 -> 1 | 3 -> 1 | _ -> assert false

let test_schedule_chain () =
  let g = chain_graph () in
  match Schedule.list_schedule g ~place:place_all_chain ~xfer:xfer1 with
  | Error f -> Alcotest.failf "unexpected failure: %a" Schedule.pp_failure f
  | Ok s ->
    check_int "two nodes used" 2 (List.length (Schedule.nodes s));
    (match Schedule.window s 2 with
    | Some (start, _) ->
      (* b runs on node 1; its input leaves a (finishes 1.1ms) + 100us
         transfer, so b starts at 1.2ms. *)
      check_int "b starts after transfer" (Time.us 1200) start
    | None -> Alcotest.fail "task 2 not scheduled");
    (match Schedule.validate s g ~xfer:xfer1 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "validation: %s" msg)

(* A table that leaves a task of the graph without a slot fails
   validation by naming that task, and only for it. *)
let test_unscheduled_task_named () =
  let g = chain_graph () in
  let partial = Graph.restrict g ~keep:(fun x -> x.Task.id <> 3) in
  match Schedule.list_schedule partial ~place:place_all_chain ~xfer:xfer1 with
  | Error f -> Alcotest.failf "unexpected failure: %a" Schedule.pp_failure f
  | Ok s ->
    check_bool "task 3 has no node" true (Schedule.node_of s 3 = None);
    Alcotest.(check (result unit string))
      "validate names it" (Error "task 3 not scheduled")
      (Schedule.validate s g ~xfer:xfer1)

let test_same_node_no_transfer () =
  let g = chain_graph () in
  let place = function 3 -> 1 | _ -> 0 in
  (* Node 1 unreachable? Using uniform xfer it is reachable. *)
  match Schedule.list_schedule g ~place ~xfer:xfer1 with
  | Error f -> Alcotest.failf "failure: %a" Schedule.pp_failure f
  | Ok s ->
    let _, f_a = Option.get (Schedule.window s 1) in
    let st_b, _ = Option.get (Schedule.window s 2) in
    check_int "b starts right after a on same node" f_a st_b

let test_overload_detected () =
  let src =
    Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:(Time.us 10) ~pinned:0 ()
  in
  let heavy1 = Task.make ~id:1 ~name:"h1" ~wcet:(Time.ms 6) () in
  let heavy2 = Task.make ~id:2 ~name:"h2" ~wcet:(Time.ms 6) () in
  let sink =
    Task.make ~id:3 ~name:"k" ~kind:Task.Sink ~wcet:(Time.us 10) ~pinned:0 ()
  in
  let g =
    Graph.create ~period:(Time.ms 10)
      ~tasks:[ src; heavy1; heavy2; sink ]
      ~flows:[ mk_flow 0 0 1 8; mk_flow 1 0 2 8; mk_flow 2 1 3 8; mk_flow 3 2 3 8 ]
  in
  match Schedule.list_schedule g ~place:(fun _ -> 0) ~xfer:xfer1 with
  | Error (Schedule.Overload { node = 0; _ }) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Schedule.pp_failure f
  | Ok _ -> Alcotest.fail "expected overload"

let test_deadline_miss_detected () =
  let g = chain_graph () in
  (* A 7ms transfer for the one inter-node hop puts the sink at 9.2ms:
     past its 9ms deadline but still inside the 10ms period. *)
  let slow ~src ~dst ~size_bytes =
    if src = dst then Time.zero else Time.us (size_bytes * 70)
  in
  match Schedule.list_schedule g ~place:place_all_chain ~xfer:slow with
  | Error (Schedule.Deadline_miss { flow_id = 2; _ }) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Schedule.pp_failure f
  | Ok _ -> Alcotest.fail "expected deadline miss"

let test_no_route_detected () =
  let g = chain_graph () in
  let disconnected ~src ~dst ~size_bytes:_ =
    if src = dst then Time.zero else Time.infinity
  in
  match Schedule.list_schedule g ~place:place_all_chain ~xfer:disconnected with
  | Error (Schedule.No_route _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Schedule.pp_failure f
  | Ok _ -> Alcotest.fail "expected no-route"

let test_utilization_and_makespan () =
  let g = chain_graph () in
  match Schedule.list_schedule g ~place:(fun _ -> 0) ~xfer:xfer1 with
  | Error _ -> Alcotest.fail "schedulable"
  | Ok s ->
    Alcotest.(check (float 1e-6))
      "node 0 utilization" 0.22
      (Schedule.node_utilization s 0);
    (* One node, no transfers: the chain runs back to back. *)
    check_int "makespan = sum of wcets" (Time.us 2200)
      (List.fold_left
         (fun acc (sl : Schedule.slot) -> Time.max acc sl.finish)
         Time.zero (Schedule.slots_on s 0));
    check_bool "sink completion matches makespan" true
      (Schedule.window s 3 = Some (Time.us 2100, Time.us 2200))

let prop_valid_schedules_for_random_workloads =
  QCheck.Test.make
    ~name:"list schedule on 1 node is always valid when it succeeds" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        Generators.random_layered ~rng ~n_nodes:1 ~layers:3 ~width:3
          ~utilization_target:0.4 ()
      in
      match Schedule.list_schedule g ~place:(fun _ -> 0) ~xfer:xfer1 with
      | Error _ -> QCheck.assume_fail ()
      | Ok s -> Schedule.validate s g ~xfer:xfer1 = Ok ())

let prop_round_robin_placement_valid =
  QCheck.Test.make
    ~name:"round-robin placement across 4 nodes validates when schedulable"
    ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        Generators.random_layered ~rng ~n_nodes:4 ~layers:4 ~width:4
          ~utilization_target:1.2 ()
      in
      let place tid =
        match (Graph.task g tid).Task.pinned with Some n -> n | None -> tid mod 4
      in
      match Schedule.list_schedule g ~place ~xfer:xfer1 with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
        (* A valid table bounds each node's demand by the period. *)
        Schedule.validate s g ~xfer:xfer1 = Ok ()
        && List.for_all (fun n -> Schedule.node_utilization s n <= 1.0) (Schedule.nodes s))

let suite =
  [
    ("chain schedules with transfers", `Quick, test_schedule_chain);
    ("no transfer cost on same node", `Quick, test_same_node_no_transfer);
    ("overload detected", `Quick, test_overload_detected);
    ("deadline miss detected", `Quick, test_deadline_miss_detected);
    ("no-route detected", `Quick, test_no_route_detected);
    ("utilization and makespan", `Quick, test_utilization_and_makespan);
    QCheck_alcotest.to_alcotest prop_valid_schedules_for_random_workloads;
    QCheck_alcotest.to_alcotest prop_round_robin_placement_valid;
    ("validate names an unscheduled task", `Quick, test_unscheduled_task_named);
  ]
