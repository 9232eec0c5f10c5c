open Btr_util
open Btr_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_flow ?deadline id p c size =
  { Graph.flow_id = id; producer = p; consumer = c; msg_size = size; deadline }

let tiny_graph () =
  let src =
    Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:(Time.us 100) ~pinned:0 ()
  in
  let mid = Task.make ~id:1 ~name:"m" ~wcet:(Time.ms 1) () in
  let sink =
    Task.make ~id:2 ~name:"k" ~kind:Task.Sink ~wcet:(Time.us 100) ~pinned:1 ()
  in
  Graph.create ~period:(Time.ms 10)
    ~tasks:[ src; mid; sink ]
    ~flows:[ mk_flow 0 0 1 64; mk_flow 1 1 2 64 ~deadline:(Time.ms 8) ]

(* Task *)

let test_task_validation () =
  Alcotest.check_raises "unpinned source"
    (Invalid_argument "Task.make: s is a source/sink and must be pinned")
    (fun () ->
      ignore (Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:(Time.us 1) ()));
  Alcotest.check_raises "zero wcet"
    (Invalid_argument "Task.make: t has wcet <= 0") (fun () ->
      ignore (Task.make ~id:0 ~name:"t" ~wcet:0 ()))

let test_criticality_order () =
  check_bool "safety > best-effort" true
    (Task.compare_criticality Task.Safety_critical Task.Best_effort > 0);
  List.iteri
    (fun i c -> check_int "rank round-trip" i (Task.criticality_rank c))
    Task.all_criticalities;
  List.iter
    (fun c ->
      check_bool "of_rank inverse" true
        (Task.criticality_of_rank (Task.criticality_rank c) = c))
    Task.all_criticalities

let test_is_placeable () =
  let c = Task.make ~id:0 ~name:"c" ~wcet:1 () in
  check_bool "compute placeable" true (Task.is_placeable c);
  let pinned = Task.make ~id:1 ~name:"p" ~wcet:1 ~pinned:3 () in
  check_bool "pinned compute not placeable" false (Task.is_placeable pinned);
  let src = Task.make ~id:2 ~name:"s" ~kind:Task.Source ~wcet:1 ~pinned:0 () in
  check_bool "source not placeable" false (Task.is_placeable src)

(* Graph *)

let test_graph_accessors () =
  let g = tiny_graph () in
  check_int "tasks" 3 (Graph.task_count g);
  check_int "flows" 2 (List.length (Graph.flows g));
  check_int "sources" 1 (List.length (Graph.sources g));
  check_int "sinks" 1 (List.length (Graph.sinks g));
  check_int "compute" 1 (List.length (Graph.compute_tasks g));
  check_int "sink flows" 1 (List.length (Graph.sink_flows g));
  check_int "preds of mid" 1 (List.length (Graph.producers_of g 1));
  check_int "succs of mid" 1 (List.length (Graph.consumers_of g 1))

let test_topo_order () =
  let g = tiny_graph () in
  Alcotest.(check (list int)) "topological" [ 0; 1; 2 ] (Graph.topo_order g)

let test_cycle_rejected () =
  let a = Task.make ~id:0 ~name:"a" ~wcet:1 () in
  let b = Task.make ~id:1 ~name:"b" ~wcet:1 () in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Graph.create: dataflow graph has a cycle") (fun () ->
      ignore
        (Graph.create ~period:(Time.ms 1) ~tasks:[ a; b ]
           ~flows:[ mk_flow 0 0 1 8; mk_flow 1 1 0 8 ]))

let test_sink_with_output_rejected () =
  let s = Task.make ~id:0 ~name:"s" ~kind:Task.Sink ~wcet:1 ~pinned:0 () in
  let c = Task.make ~id:1 ~name:"c" ~wcet:1 () in
  Alcotest.check_raises "sink produces"
    (Invalid_argument "Graph.create: sink 0 produces flow 0") (fun () ->
      ignore
        (Graph.create ~period:(Time.ms 1) ~tasks:[ s; c ]
           ~flows:[ mk_flow 0 0 1 8 ]))

let test_dangling_compute_rejected () =
  let src = Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:1 ~pinned:0 () in
  let c = Task.make ~id:1 ~name:"c" ~wcet:1 () in
  let k = Task.make ~id:2 ~name:"k" ~kind:Task.Sink ~wcet:1 ~pinned:0 () in
  Alcotest.check_raises "compute without output"
    (Invalid_argument "Graph.create: non-sink task 1 has no outputs") (fun () ->
      ignore
        (Graph.create ~period:(Time.ms 1) ~tasks:[ src; c; k ]
           ~flows:[ mk_flow 0 0 1 8; mk_flow 1 0 2 8 ]))

let test_utilization () =
  let g = tiny_graph () in
  (* (100us + 1ms + 100us) / 10ms = 0.12 *)
  Alcotest.(check (float 1e-9)) "utilization" 0.12 (Graph.utilization g)

let test_restrict () =
  let g = Generators.avionics ~n_nodes:4 in
  let critical_only =
    Graph.restrict g ~keep:(fun t ->
        Task.compare_criticality t.Task.criticality Task.High >= 0)
  in
  check_bool "fewer tasks" true (Graph.task_count critical_only < Graph.task_count g);
  List.iter
    (fun (t : Task.t) ->
      check_bool "only high+ kept" true
        (Task.compare_criticality t.criticality Task.High >= 0))
    (Graph.tasks critical_only);
  List.iter
    (fun (f : Graph.flow) ->
      check_bool "no dangling flows" true
        (List.exists (fun (t : Task.t) -> t.id = f.producer) (Graph.tasks critical_only)
        && List.exists (fun (t : Task.t) -> t.id = f.consumer) (Graph.tasks critical_only)))
    (Graph.flows critical_only)

let test_tasks_at_least () =
  let g = Generators.avionics ~n_nodes:4 in
  let safety = Graph.tasks_at_least g Task.Safety_critical in
  check_int "safety-critical count" 5 (List.length safety);
  check_int "everything at best-effort" (Graph.task_count g)
    (List.length (Graph.tasks_at_least g Task.Best_effort))

(* Generators *)

let test_avionics_structure () =
  let g = Generators.avionics ~n_nodes:6 in
  check_bool "has IFE to shed" true
    (List.exists
       (fun (t : Task.t) -> t.criticality = Task.Best_effort)
       (Graph.tasks g));
  check_bool "has safety core" true
    (List.exists
       (fun (t : Task.t) -> t.criticality = Task.Safety_critical)
       (Graph.tasks g));
  List.iter
    (fun (t : Task.t) ->
      match t.kind with
      | Task.Source | Task.Sink -> check_bool "pinned" true (t.pinned <> None)
      | Task.Compute -> ())
    (Graph.tasks g);
  check_bool "all sink flows have deadlines" true
    (List.for_all (fun (f : Graph.flow) -> f.deadline <> None) (Graph.sink_flows g))

let test_scada_structure () =
  let g = Generators.scada ~n_nodes:4 in
  check_bool "valve flow deadline is 200ms" true
    (List.exists
       (fun (f : Graph.flow) -> f.deadline = Some (Time.ms 200))
       (Graph.sink_flows g));
  check_bool "utilization sane" true (Graph.utilization g < 1.0)

let prop_random_layered_valid =
  QCheck.Test.make ~name:"random layered workloads are valid dataflow graphs"
    ~count:50
    QCheck.(triple (int_range 2 8) (int_range 1 4) (int_range 1 4))
    (fun (n_nodes, layers, width) ->
      let rng = Rng.create (n_nodes + (layers * 100) + (width * 10_000)) in
      let g = Generators.random_layered ~rng ~n_nodes ~layers ~width () in
      (* create already validates; check derived invariants. *)
      let order = Graph.topo_order g in
      List.length order = Graph.task_count g
      && Graph.task_count g <= Generators.random_layered_max_tasks ~layers ~width
      && Graph.utilization g > 0.0
      && List.for_all
           (fun (f : Graph.flow) -> f.deadline <> None)
           (Graph.sink_flows g))

let prop_random_layered_deterministic =
  QCheck.Test.make ~name:"generator is deterministic in the rng seed" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let gen () =
        let rng = Rng.create seed in
        Generators.random_layered ~rng ~n_nodes:4 ~layers:3 ~width:3 ()
      in
      let a = gen () and b = gen () in
      Graph.tasks a = Graph.tasks b && Graph.flows a = Graph.flows b)

let test_min_nodes_table () =
  (* Each generator accepts exactly the node counts its min_nodes entry
     allows: it builds at the minimum and raises one below. *)
  let gen name n =
    match name with
    | "avionics" -> ignore (Generators.avionics ~n_nodes:n)
    | "scada" -> ignore (Generators.scada ~n_nodes:n)
    | "fleet" -> ignore (Generators.fleet ~n_nodes:n)
    | _ ->
      ignore
        (Generators.random_layered ~rng:(Rng.create 1) ~n_nodes:n ~layers:3
           ~width:3 ())
  in
  List.iter
    (fun (name, m) ->
      gen name m;
      check_bool
        (name ^ " ok at its minimum") true
        (Generators.check_nodes name ~n_nodes:m = Ok ());
      check_bool
        (name ^ " refused below it") true
        (Result.is_error (Generators.check_nodes name ~n_nodes:(m - 1)));
      match gen name (m - 1) with
      | () -> Alcotest.failf "%s built with %d nodes" name (m - 1)
      | exception Invalid_argument _ -> ())
    Generators.min_nodes;
  check_bool "unlisted names pass" true
    (Generators.check_nodes "nosuch" ~n_nodes:0 = Ok ())

let suite =
  [
    ("task validation", `Quick, test_task_validation);
    ("criticality ordering", `Quick, test_criticality_order);
    ("placeability", `Quick, test_is_placeable);
    ("graph accessors", `Quick, test_graph_accessors);
    ("topological order", `Quick, test_topo_order);
    ("cycles rejected", `Quick, test_cycle_rejected);
    ("sink with output rejected", `Quick, test_sink_with_output_rejected);
    ("dangling compute rejected", `Quick, test_dangling_compute_rejected);
    ("utilization", `Quick, test_utilization);
    ("restrict keeps graph consistent", `Quick, test_restrict);
    ("tasks_at_least filters by level", `Quick, test_tasks_at_least);
    ("avionics workload structure", `Quick, test_avionics_structure);
    ("scada workload structure", `Quick, test_scada_structure);
    QCheck_alcotest.to_alcotest prop_random_layered_valid;
    QCheck_alcotest.to_alcotest prop_random_layered_deterministic;
    ("generators refuse node counts below min_nodes", `Quick, test_min_nodes_table);
  ]
