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

(* Reference model for [Graph]: the same checks, in the same order and
   with the same messages, by list scans. [Ok] carries the task list,
   the flow list and the topological order. *)
let ref_graph ~relaxed ~period ~(tasks : Task.t list) ~(flows : Graph.flow list) =
  let fail fmt = Printf.ksprintf (fun m -> Some ("Graph.create: " ^ m)) fmt in
  let rec dup = function [] -> false | x :: rest -> List.mem x rest || dup rest in
  let find id = List.find_opt (fun (x : Task.t) -> x.id = id) tasks in
  let sorted = List.sort (fun (a : Graph.flow) b -> Int.compare a.flow_id b.flow_id) in
  let ins id = sorted (List.filter (fun (f : Graph.flow) -> f.consumer = id) flows) in
  let outs id = sorted (List.filter (fun (f : Graph.flow) -> f.producer = id) flows) in
  let flow_error (f : Graph.flow) =
    match (find f.producer, find f.consumer) with
    | None, _ -> fail "flow references unknown task %d" f.producer
    | _, None -> fail "flow references unknown task %d" f.consumer
    | Some p, Some c ->
      if f.msg_size <= 0 then fail "flow %d msg_size <= 0" f.flow_id
      else if Option.fold ~none:false ~some:(fun d -> d <= 0) f.deadline then
        fail "flow %d deadline <= 0" f.flow_id
      else if p.kind = Task.Sink then fail "sink %d produces flow %d" p.id f.flow_id
      else if c.kind = Task.Source then fail "source %d consumes flow %d" c.id f.flow_id
      else None
  in
  let task_error (x : Task.t) =
    match x.kind with
    | _ when relaxed -> None
    | Task.Sink when ins x.id = [] -> fail "sink %d has no inputs" x.id
    | (Task.Source | Task.Compute) when outs x.id = [] ->
      fail "non-sink task %d has no outputs" x.id
    | _ -> None
  in
  (* Kahn's algorithm, FIFO, consumers in ascending flow id. *)
  let rec kahn order indeg = function
    | [] -> List.rev order
    | id :: queue ->
      let indeg, ready =
        List.fold_left
          (fun (indeg, ready) (f : Graph.flow) ->
            let d = List.assoc f.consumer indeg - 1 in
            ((f.consumer, d) :: indeg, if d = 0 then ready @ [ f.consumer ] else ready))
          (indeg, []) (outs id)
      in
      kahn (id :: order) indeg (queue @ ready)
  in
  let first_error =
    if period <= 0 then fail "period <= 0"
    else if dup (List.map (fun (x : Task.t) -> x.id) tasks) then fail "duplicate task ids"
    else if dup (List.map (fun (f : Graph.flow) -> f.flow_id) flows) then
      fail "duplicate flow ids"
    else
      match List.find_map flow_error flows with
      | Some _ as e -> e
      | None -> List.find_map task_error tasks
  in
  match first_error with
  | Some msg -> Error msg
  | None ->
    let indeg = List.map (fun (x : Task.t) -> (x.id, List.length (ins x.id))) tasks in
    let ready = List.filter_map (fun (id, d) -> if d = 0 then Some id else None) indeg in
    let order = kahn [] indeg ready in
    if List.length order <> List.length tasks then Error "Graph.create: dataflow graph has a cycle"
    else Ok (tasks, flows, order)

let graph_result ~relaxed ~period ~tasks ~flows =
  match (if relaxed then Graph.create_relaxed else Graph.create) ~period ~tasks ~flows with
  | g -> Ok g
  | exception Invalid_argument msg -> Error msg

(* Every accessor agrees with the model on every id and its neighbours,
   so on ids outside the range too, and so does [restrict] (one level). *)
let rec graph_agrees ~restrict_too ~period g (tasks, flows, order) =
  let ids =
    List.map (fun (x : Task.t) -> x.id) tasks @ List.map (fun (f : Graph.flow) -> f.flow_id) flows
  in
  let probe = 0 :: List.concat_map (fun id -> [ id - 2; id - 1; id; id + 1; id + 2 ]) ids in
  let lookup f id msg =
    match f id with x -> Some x | exception Invalid_argument m when m = msg -> None
  in
  let by_id l = List.sort (fun (a : Graph.flow) b -> Int.compare a.flow_id b.flow_id) l in
  let kind_of id = (List.find (fun (x : Task.t) -> x.id = id) tasks).kind in
  let keep (x : Task.t) = x.id mod 3 <> 0 in
  Graph.period g = period
  && Graph.tasks g = tasks
  && Graph.flows g = flows
  && Graph.topo_order g = order
  && Graph.sink_flows g = List.filter (fun (f : Graph.flow) -> kind_of f.consumer = Task.Sink) flows
  && List.for_all
       (fun id ->
         lookup (Graph.task g) id (Printf.sprintf "Graph.task: unknown task %d" id)
         = List.find_opt (fun (x : Task.t) -> x.id = id) tasks
         && lookup (Graph.flow g) id (Printf.sprintf "Graph.flow: unknown flow %d" id)
            = List.find_opt (fun (f : Graph.flow) -> f.flow_id = id) flows
         && Graph.producers_of g id = by_id (List.filter (fun (f : Graph.flow) -> f.consumer = id) flows)
         && Graph.consumers_of g id = by_id (List.filter (fun (f : Graph.flow) -> f.producer = id) flows))
       probe
  && ((not restrict_too)
     ||
     let kept = List.filter keep tasks in
     let kept_id id = List.exists (fun (x : Task.t) -> x.id = id) kept in
     let kept_flows =
       List.filter (fun (f : Graph.flow) -> kept_id f.producer && kept_id f.consumer) flows
     in
     match
       ( graph_result ~relaxed:true ~period ~tasks:kept ~flows:kept_flows,
         ref_graph ~relaxed:true ~period ~tasks:kept ~flows:kept_flows )
     with
     | Ok _, Ok model -> graph_agrees ~restrict_too:false ~period (Graph.restrict g ~keep) model
     | _ -> false)

(* Random graphs over tasks at topological positions 0..n-1 (position 0
   a source, n-1 a sink), flows from lower to higher positions, task
   and flow ids dense from a base of 0, 1000 or a negative number and
   shuffled against the list order; then at most one defect. *)
let gen_graph_input =
  let open QCheck.Gen in
  let shuffled xs =
    map
      (fun keys ->
        List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.combine keys xs)))
      (list_repeat (List.length xs) nat)
  in
  let base = oneofl [ 0; 1000; -37 ] in
  int_range 1 8 >>= fun n ->
  base >>= fun task_base ->
  base >>= fun flow_base ->
  shuffled (List.init n (fun i -> task_base + i)) >>= fun ids ->
  list_repeat n (int_bound 4) >>= fun kinds ->
  let id_at = List.nth ids in
  let task_at i =
    let kind =
      if i = 0 then Task.Source
      else if i = n - 1 then Task.Sink
      else match List.nth kinds i with 0 -> Task.Source | 1 -> Task.Sink | _ -> Task.Compute
    in
    let pinned = if kind = Task.Compute then None else Some 0 in
    Task.make ~id:(id_at i) ~name:(Printf.sprintf "t%d" i) ~kind ~wcet:1 ?pinned ()
  in
  let tasks_by_pos = List.init n task_at in
  shuffled tasks_by_pos >>= fun tasks ->
  let pairs = List.concat (List.init n (fun a -> List.init (n - a - 1) (fun d -> (a, a + d + 1)))) in
  (if pairs = [] then return [] else list_size (int_bound 12) (oneofl pairs)) >>= fun edges ->
  shuffled (List.init (List.length edges) (fun i -> flow_base + i)) >>= fun flow_ids ->
  list_repeat (List.length edges) (pair (int_range 1 100) (oneofl [ None; Some 500; Some 0 ]))
  >>= fun attrs ->
  let flows =
    List.map2
      (fun ((a, b), flow_id) (msg_size, deadline) ->
        mk_flow ?deadline flow_id (id_at a) (id_at b) msg_size)
      (List.combine edges flow_ids) attrs
  in
  let next_flow = flow_base + List.length flows in
  let of_kind k = List.filter (fun (x : Task.t) -> x.kind = k) tasks_by_pos in
  let add_flow p c = flows @ [ mk_flow next_flow p c 8 ] in
  frequency
    [
      (4, return (tasks, flows));
      ( 1,
        match tasks with
        | a :: b :: rest -> return (a :: { b with Task.id = a.id } :: rest, flows)
        | _ -> return (tasks, flows) );
      ( 1,
        match flows with
        | a :: b :: rest -> return (tasks, a :: { b with Graph.flow_id = a.flow_id } :: rest)
        | _ -> return (tasks, flows) );
      ( 1,
        match flows with
        | f :: rest ->
          oneofl
            [
              (tasks, { f with Graph.producer = task_base + n + 2 } :: rest);
              (tasks, { f with Graph.consumer = task_base - 1 } :: rest);
            ]
        | [] -> return (tasks, flows) );
      ( 1,
        match of_kind Task.Sink with
        | [] -> return (tasks, flows)
        | sinks ->
          pair (oneofl sinks) (oneofl tasks_by_pos) >>= fun ((s : Task.t), (c : Task.t)) ->
          return (tasks, add_flow s.id c.id) );
      ( 1,
        pair (oneofl (of_kind Task.Source)) (oneofl tasks_by_pos)
        >>= fun ((s : Task.t), (p : Task.t)) -> return (tasks, add_flow p.id s.id) );
      ( 1,
        match of_kind Task.Compute with
        | [] -> return (tasks, flows)
        | computes ->
          (* Back to an earlier compute task or to itself: a cycle
             whenever the forward path exists, a self-loop always. *)
          pair (oneofl computes) (oneofl computes) >>= fun ((a : Task.t), (b : Task.t)) ->
          return (tasks, add_flow (Stdlib.max a.id b.id) (Stdlib.min a.id b.id)) );
    ]
  >>= fun (tasks, flows) -> map (fun period -> (period, tasks, flows)) (oneofl [ 1000; 1000; 0 ])

let prop_graph_matches_reference =
  QCheck.Test.make ~name:"Graph agrees with the list-scan reference model" ~count:500
    (QCheck.make gen_graph_input ~print:(fun (period, tasks, flows) ->
         Format.asprintf "period=%d@.tasks=%s@.flows=%s" period
           (String.concat "; " (List.map (fun (x : Task.t) -> Format.asprintf "%a" Task.pp x) tasks))
           (String.concat "; "
              (List.map
                 (fun (f : Graph.flow) ->
                   Printf.sprintf "%d:%d->%d %dB %s" f.flow_id f.producer f.consumer f.msg_size
                     (match f.deadline with Some d -> string_of_int d | None -> "-"))
                 flows))))
    (fun (period, tasks, flows) ->
      List.for_all
        (fun relaxed ->
          match
            (graph_result ~relaxed ~period ~tasks ~flows, ref_graph ~relaxed ~period ~tasks ~flows)
          with
          | Error a, Error b -> String.equal a b
          | Ok g, Ok model -> graph_agrees ~restrict_too:true ~period g model
          | Ok _, Error e -> QCheck.Test.fail_reportf "model refused (%s), Graph accepted" e
          | Error e, Ok _ -> QCheck.Test.fail_reportf "Graph refused (%s), model accepted" e)
        [ true; false ])

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
    ("graph accessors", `Quick, test_graph_accessors);
    ("topological order", `Quick, test_topo_order);
    ("cycles rejected", `Quick, test_cycle_rejected);
    ("sink with output rejected", `Quick, test_sink_with_output_rejected);
    ("dangling compute rejected", `Quick, test_dangling_compute_rejected);
    ("utilization", `Quick, test_utilization);
    ("restrict keeps graph consistent", `Quick, test_restrict);
    ("avionics workload structure", `Quick, test_avionics_structure);
    ("scada workload structure", `Quick, test_scada_structure);
    QCheck_alcotest.to_alcotest prop_random_layered_valid;
    QCheck_alcotest.to_alcotest prop_random_layered_deterministic;
    QCheck_alcotest.to_alcotest prop_graph_matches_reference;
    ("generators refuse node counts below min_nodes", `Quick, test_min_nodes_table);
  ]
