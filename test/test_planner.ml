open Btr_util
open Btr_workload
module Augment = Btr_planner.Augment
module Planner = Btr_planner.Planner
module Check = Btr_check.Check
module Topology = Btr_net.Topology
module Schedule = Btr_sched.Schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let topo6 () =
  Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)

let build ?(f = 1) ?(r = Time.ms 200) ?(tune = Fun.id) g topo =
  let cfg = tune (Planner.default_config ~f ~recovery_bound:r) in
  Planner.build cfg g topo

let must_build ?f ?r ?tune g topo =
  match build ?f ?r ?tune g topo with
  | Ok s -> s
  | Error e -> Alcotest.failf "planner failed: %a" Planner.pp_error e

(* Augment *)

let aug_avionics degree =
  Augment.augment
    (Generators.avionics ~n_nodes:6)
    ~nodes:[ 0; 1; 2; 3; 4; 5 ] ~degree ~protect_level:Task.Medium

let test_augment_counts () =
  let g = Generators.avionics ~n_nodes:6 in
  let aug = aug_avionics 2 in
  (* protected = compute tasks with criticality >= Medium *)
  let protected_count =
    List.length
      (List.filter
         (fun (x : Task.t) ->
           x.kind = Task.Compute
           && Task.compare_criticality x.criticality Task.Medium >= 0)
         (Graph.tasks g))
  in
  let expected =
    Graph.task_count g (* originals incl. lane-0 reuse *)
    + protected_count (* one extra lane each *)
    + protected_count (* one checker each *)
    + 6 (* guards *)
  in
  check_int "augmented task count" expected (Graph.task_count aug.Augment.graph);
  check_int "checkers" protected_count (List.length (Augment.checkers aug));
  check_int "guards" 6 (List.length (Augment.guards aug))

let test_augment_roles_and_lanes () =
  let aug = aug_avionics 3 in
  List.iter
    (fun (x : Task.t) ->
      match Augment.role_of aug x.id with
      | Augment.Replica { orig; lane } ->
        check_int "lane_of agrees" lane (Augment.lane_of aug x.id);
        check_int "orig_of agrees" orig (Augment.orig_of aug x.id);
        check_int "replica group size" 3 (List.length (Augment.replicas_of aug orig))
      | Augment.Checker { orig } ->
        check_bool "checker watches a protected task" true
          (Augment.is_protected aug orig)
      | Augment.Original | Augment.Guard _ -> ())
    (Graph.tasks aug.Augment.graph)

let test_augment_digest_flows () =
  let aug = aug_avionics 2 in
  let digest_flows = Augment.digest_flow_ids aug in
  (* one per lane per protected task *)
  check_int "digest flow count" (2 * List.length (Augment.checkers aug))
    (List.length digest_flows);
  List.iter
    (fun fid ->
      check_bool "digest flows have no orig flow" true
        (Augment.orig_flow_of aug fid = None))
    digest_flows

let test_augment_sinks_get_all_lanes () =
  let g = Generators.avionics ~n_nodes:6 in
  let aug = aug_avionics 2 in
  List.iter
    (fun (fl : Graph.flow) ->
      let consumer = Graph.task g fl.consumer in
      let producer = Graph.task g fl.producer in
      if consumer.Task.kind = Task.Sink && Augment.is_protected aug producer.Task.id
      then begin
        let copies =
          List.filter
            (fun (af : Graph.flow) ->
              Augment.orig_flow_of aug af.flow_id = Some (fl.flow_id, 0)
              || Augment.orig_flow_of aug af.flow_id = Some (fl.flow_id, 1))
            (Graph.flows aug.Augment.graph)
        in
        check_int "one copy per lane reaches the sink" 2 (List.length copies)
      end)
    (Graph.sink_flows g)

let test_augment_degree_one () =
  let aug = aug_avionics 1 in
  check_bool "degree-1 keeps original ids" true
    (List.for_all
       (fun (x : Task.t) ->
         match Augment.role_of aug x.id with
         | Augment.Replica { lane; _ } -> lane = 0
         | Augment.Original | Augment.Checker _ | Augment.Guard _ -> true)
       (Graph.tasks aug.Augment.graph))

(* Planner *)

let test_build_avionics () =
  let s = must_build (Generators.avionics ~n_nodes:6) (topo6 ()) in
  let st = Planner.stats s in
  check_int "modes = 1 + n" 7 st.Planner.modes;
  check_int "transitions = n" 6 st.Planner.transitions;
  check_bool "admitted within 200ms" true (Check.passed (Check.verify s))

let test_replica_separation () =
  let s = must_build ~f:2 (Generators.avionics ~n_nodes:6) (topo6 ()) in
  List.iter
    (fun (p : Planner.plan) ->
      let aug = p.Planner.aug in
      List.iter
        (fun (x : Task.t) ->
          let lanes = Augment.replicas_of aug x.id in
          if List.length lanes > 1 then begin
            let nodes = List.filter_map (Schedule.node_of p.schedule) lanes in
            check_int "lanes on distinct nodes" (List.length nodes)
              (List.length (List.sort_uniq Int.compare nodes))
          end)
        (Graph.tasks aug.Augment.original))
    (Planner.all_plans s)

let test_no_tasks_on_faulty_nodes () =
  let s = must_build ~f:2 (Generators.avionics ~n_nodes:6) (topo6 ()) in
  List.iter
    (fun (p : Planner.plan) ->
      List.iter
        (fun (_, node) ->
          check_bool "assignment avoids faulty nodes" false
            (List.mem node p.Planner.faulty))
        (Planner.assignments p))
    (Planner.all_plans s)

let test_schedules_validate () =
  let s = must_build ~f:1 (Generators.avionics ~n_nodes:6) (topo6 ()) in
  let cfg = Planner.config s in
  List.iter
    (fun (p : Planner.plan) ->
      let xfer ~src ~dst ~size_bytes =
        if src = dst then Some Time.zero
        else
          Btr_net.Net.plan_transfer_time (topo6 ()) ?shares:cfg.Planner.shares
            ~avoid:p.Planner.faulty ~cls:Btr_net.Net.Data ~src ~dst ~size_bytes ()
      in
      match Schedule.validate p.Planner.schedule p.Planner.aug.Augment.graph ~xfer with
      | Ok () -> ()
      | Error m -> Alcotest.failf "plan %s invalid: %s"
          (String.concat "," (List.map string_of_int p.Planner.faulty)) m)
    (Planner.all_plans s)

let test_lost_pinned_tasks () =
  let s = must_build ~f:1 (Generators.avionics ~n_nodes:6) (topo6 ()) in
  match Planner.plan_for s ~faulty:[ 0 ] with
  | None -> Alcotest.fail "mode {0} missing"
  | Some p ->
    (* Node 0 hosts the pitot sensor and the PFD display. *)
    check_bool "pinned tasks on node 0 are lost" true
      (List.length p.Planner.lost_tasks >= 2)

let test_transition_minimality () =
  let g = Generators.avionics ~n_nodes:6 in
  let minimal = must_build ~f:1 g (topo6 ()) in
  let naive =
    must_build ~f:1 ~tune:(fun c -> { c with Planner.reassignment = Planner.Naive })
      g (topo6 ())
  in
  let moved s =
    List.fold_left
      (fun acc (tr : Planner.transition) -> acc + List.length tr.Planner.moved)
      0 (Planner.all_transitions s)
  in
  check_bool "minimal reassignment moves no more tasks than naive" true
    (moved minimal <= moved naive);
  check_bool "minimal moves strictly less state in total" true
    ((Planner.stats minimal).Planner.total_moved_state
    <= (Planner.stats naive).Planner.total_moved_state)

let test_transition_structure () =
  let s = must_build ~f:1 (Generators.avionics ~n_nodes:6) (topo6 ()) in
  List.iter
    (fun (tr : Planner.transition) ->
      check_bool "new fault joins the mode" true
        (List.mem tr.Planner.new_fault tr.Planner.to_faulty);
      check_bool "recovery bound positive" true
        (Time.compare tr.Planner.recovery_bound Time.zero > 0);
      List.iter
        (fun (m : Planner.move) ->
          check_bool "moves change node" true (m.Planner.from_node <> m.Planner.to_node);
          check_bool "moves land on surviving nodes" false
            (List.mem m.Planner.to_node tr.Planner.to_faulty))
        tr.Planner.moved)
    (Planner.all_transitions s)

let test_shedding_under_pressure () =
  (* 3 nodes, f = 1: after a fault only 2 nodes remain for an avionics
     workload with doubled lanes — the best-effort IFE must go. *)
  let g = Generators.avionics ~n_nodes:4 in
  let topo = Topology.fully_connected ~n:4 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50) in
  let s = must_build ~f:1 ~r:(Time.sec 1) g topo in
  let degraded =
    List.filter (fun (p : Planner.plan) -> p.Planner.shed_below <> None)
      (Planner.all_plans s)
  in
  (* Shedding is criticality-monotone whenever it happens. *)
  List.iter
    (fun (p : Planner.plan) ->
      match p.Planner.shed_below with
      | None -> ()
      | Some floor ->
        List.iter
          (fun (x : Task.t) ->
            check_bool "no kept task below the floor" true
              (Task.compare_criticality x.criticality floor >= 0))
          (Graph.tasks p.Planner.aug.Augment.original))
    (Planner.all_plans s);
  ignore degraded

let test_plan_for_is_order_insensitive () =
  let s = must_build ~f:2 (Generators.avionics ~n_nodes:6) (topo6 ()) in
  let a = Planner.plan_for s ~faulty:[ 1; 3 ] in
  let b = Planner.plan_for s ~faulty:[ 3; 1 ] in
  check_bool "same plan" true
    (match a, b with
    | Some x, Some y -> x.Planner.faulty = y.Planner.faulty
    | _ -> false);
  check_bool "unknown pattern gives None" true (Planner.plan_for s ~faulty:[ 1; 2; 3 ] = None)

let test_bad_configs_rejected () =
  let g = Generators.avionics ~n_nodes:6 in
  (match build ~f:5 g (topo6 ()) with
  | Error (Planner.Bad_config _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "degree 6 on 1 surviving node should fail");
  match
    build ~tune:(fun c -> { c with Planner.degree = 0 }) g (topo6 ())
  with
  | Error (Planner.Bad_config _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "degree 0 should fail"

let test_disconnection_detected () =
  let g = Generators.scada ~n_nodes:4 in
  let topo = Topology.star ~n:4 ~hub:3 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50) in
  match build ~f:1 g topo with
  | Error (Planner.Disconnected { faulty }) ->
    check_bool "hub failure disconnects" true (faulty = [ 3 ])
  | Error e -> Alcotest.failf "wrong error: %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "star with faulty hub must be rejected"

let test_unschedulable_detected () =
  (* Make the workload impossible: single huge compute task per period. *)
  let src = Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:(Time.us 10) ~pinned:0 () in
  let heavy =
    Task.make ~id:1 ~name:"h" ~wcet:(Time.ms 15) ~criticality:Task.Safety_critical ()
  in
  let sink = Task.make ~id:2 ~name:"k" ~kind:Task.Sink ~wcet:(Time.us 10) ~pinned:1 () in
  let g =
    Graph.create ~period:(Time.ms 10) ~tasks:[ src; heavy; sink ]
      ~flows:
        [
          { Graph.flow_id = 0; producer = 0; consumer = 1; msg_size = 8; deadline = None };
          { Graph.flow_id = 1; producer = 1; consumer = 2; msg_size = 8; deadline = Some (Time.ms 9) };
        ]
  in
  match build ~f:1 g (topo6 ()) with
  | Error (Planner.Unschedulable _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "15ms task in a 10ms period should be unschedulable"

let prop_random_workloads_plan_and_validate =
  QCheck.Test.make
    ~name:"random workloads: every mode's schedule passes independent validation"
    ~count:25
    QCheck.(int_range 0 5000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        Generators.random_layered ~rng ~n_nodes:5 ~layers:2 ~width:3
          ~utilization_target:0.8 ()
      in
      let topo =
        Topology.fully_connected ~n:5 ~bandwidth_bps:20_000_000 ~latency:(Time.us 20)
      in
      match build ~f:1 ~r:(Time.sec 1) g topo with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
        let cfg = Planner.config s in
        List.for_all
          (fun (p : Planner.plan) ->
            let xfer ~src ~dst ~size_bytes =
              if src = dst then Some Time.zero
              else
                Btr_net.Net.plan_transfer_time topo ?shares:cfg.Planner.shares
                  ~avoid:p.Planner.faulty ~cls:Btr_net.Net.Data ~src ~dst
                  ~size_bytes ()
            in
            Schedule.validate p.Planner.schedule p.Planner.aug.Augment.graph ~xfer
            = Ok ())
          (Planner.all_plans s))

(* config_key: the serialization campaigns key their plan cache on *)

let test_config_key_total () =
  let base = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 200) in
  Alcotest.(check string)
    "equal configs, equal keys"
    (Planner.config_key base)
    (Planner.config_key { base with Planner.f = 1 });
  (* two closures with the same meaning must agree through the key,
     which is the whole point: closures themselves are incomparable *)
  let t1 c = { c with Planner.protect_level = Task.High } in
  let t2 c = { c with Planner.protect_level = Task.High } in
  Alcotest.(check string) "tune closures compare via key"
    (Planner.config_key (t1 base))
    (Planner.config_key (t2 base));
  let distinct =
    [
      { base with Planner.f = 2 };
      { base with Planner.recovery_bound = Time.ms 100 };
      { base with Planner.protect_level = Task.Safety_critical };
      { base with Planner.degree = 3 };
      { base with Planner.reassignment = Planner.Naive };
      { base with
        Planner.shares = Some { Btr_net.Net.data_frac = 0.35; control_frac = 0.02 }
      };
    ]
  in
  let keys = List.map Planner.config_key (base :: distinct) in
  Alcotest.(check int)
    "every varied field changes the key"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_resolved_config_applies_tune () =
  let spec =
    Btr.Scenario.spec
      ~workload:(Generators.avionics ~n_nodes:6)
      ~topology:(topo6 ()) ~f:1 ~recovery_bound:(Time.ms 200)
      ~tune:(fun c -> { c with Planner.protect_level = Task.High })
      ()
  in
  let cfg = Btr.Scenario.resolved_config spec in
  Alcotest.(check bool)
    "tune applied" true
    (cfg.Planner.protect_level = Task.High);
  Alcotest.(check string)
    "resolved key matches hand-tuned key"
    (Planner.config_key
       { (Planner.default_config ~f:1 ~recovery_bound:(Time.ms 200)) with
         Planner.protect_level = Task.High
       })
    (Planner.config_key cfg)

let test_with_recovery_bound () =
  let g = Generators.avionics ~n_nodes:6 in
  let s = must_build g (topo6 ()) in
  let s' = Planner.with_recovery_bound s (Time.ms 150) in
  check_int "R retuned" (Time.ms 150) (Planner.config s').Planner.recovery_bound;
  check_bool "plans shared, not replanned" true
    (List.for_all2 ( == ) (Planner.all_plans s) (Planner.all_plans s'));
  check_bool "transitions shared" true
    (List.for_all2 ( == ) (Planner.all_transitions s) (Planner.all_transitions s'));
  (* admission is re-judged against the new R: the verifier's whole
     report, not just its verdict, equals a scratch build's *)
  let fresh = must_build ~r:(Time.ms 150) g (topo6 ()) in
  Alcotest.(check string) "admission matches a scratch build at the new R"
    (Check.report_to_json (Check.verify fresh))
    (Check.report_to_json (Check.verify s'))

(* Index agreement. The reference re-derives the association lists the
   augmentation used to carry, from its contract rather than from the
   index: tasks in graph order are each original's lanes (or the
   original itself), then one checker per protected task, then one guard
   per node; data flows are each original flow wired lane by lane, with
   duplicate endpoint pairs collapsed, then the digest flows. The
   accessors' list-scan definitions run over those lists, and every
   indexed accessor must agree with them on every id in the graph and on
   ids outside it. *)
let ref_roles aug ~protect_level ~nodes =
  let orig = aug.Augment.original and d = aug.Augment.degree in
  let protected (x : Task.t) =
    x.kind = Task.Compute && Task.compare_criticality x.criticality protect_level >= 0
  in
  let expected =
    List.concat_map
      (fun (x : Task.t) ->
        if protected x then List.init d (fun lane -> Augment.Replica { orig = x.id; lane })
        else [ Augment.Original ])
      (Graph.tasks orig)
    @ List.filter_map
        (fun (x : Task.t) -> if protected x then Some (Augment.Checker { orig = x.id }) else None)
        (Graph.tasks orig)
    @ List.map (fun node -> Augment.Guard { node }) nodes
  in
  List.map2 (fun (x : Task.t) role -> (x.id, role)) (Graph.tasks aug.Augment.graph) expected

let scan_replicas roles orig =
  let lanes =
    List.filter_map
      (function
        | id, Augment.Replica { orig = o; lane } when o = orig -> Some (lane, id)
        | _ -> None)
      roles
  in
  match lanes with
  | [] -> [ orig ]
  | _ -> List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) lanes)

let scan_checker roles orig =
  List.find_map
    (function id, Augment.Checker { orig = o } when o = orig -> Some id | _ -> None)
    roles

let ref_flow_origin aug roles =
  let lane_task orig lane =
    match scan_replicas roles orig with [ x ] -> x | lanes -> List.nth lanes lane
  in
  let seen = Hashtbl.create 16 in
  let wired =
    List.concat_map
      (fun (f : Graph.flow) ->
        List.filter_map
          (fun lane ->
            let p = lane_task f.producer lane and c = lane_task f.consumer lane in
            if Hashtbl.mem seen (p, c, f.flow_id) then None
            else begin
              Hashtbl.replace seen (p, c, f.flow_id) ();
              Some (p, c, (f.flow_id, lane))
            end)
          (List.init aug.Augment.degree Fun.id))
      (Graph.flows aug.Augment.original)
  in
  let data =
    List.filter
      (fun (fl : Graph.flow) ->
        match List.assoc fl.consumer roles with Augment.Checker _ -> false | _ -> true)
      (Graph.flows aug.Augment.graph)
  in
  List.map2
    (fun (fl : Graph.flow) (p, c, origin) ->
      check_bool "data flow wired as the contract says" true
        (fl.producer = p && fl.consumer = c);
      (fl.flow_id, origin))
    data wired

let check_index_agreement ~protect_level ~nodes aug =
  let roles = ref_roles aug ~protect_level ~nodes in
  let ids = List.map fst roles in
  let outside = [ -1; 1 + List.fold_left max 0 ids; 1_000_000 ] in
  let result f x = match f x with v -> Ok v | exception Invalid_argument m -> Error m in
  List.iter
    (fun id ->
      let scan_role = List.assoc_opt id roles in
      check_bool "role_of" true
        (result (Augment.role_of aug) id
        = match scan_role with
          | Some r -> Ok r
          | None -> Error (Printf.sprintf "Augment.role_of: unknown task %d" id));
      (match scan_role with
      | None -> ()
      | Some r ->
        check_int "orig_of" (match r with Augment.Replica { orig; _ } | Augment.Checker { orig } -> orig | _ -> id)
          (Augment.orig_of aug id);
        check_int "lane_of" (match r with Augment.Replica { lane; _ } -> lane | _ -> 0)
          (Augment.lane_of aug id));
      check_bool "replicas_of" true (Augment.replicas_of aug id = scan_replicas roles id);
      check_bool "checker_of" true (Augment.checker_of aug id = scan_checker roles id))
    (ids @ outside);
  let origins = ref_flow_origin aug roles in
  let fids = List.map (fun (fl : Graph.flow) -> fl.flow_id) (Graph.flows aug.Augment.graph) in
  List.iter
    (fun fid ->
      check_bool "orig_flow_of" true (Augment.orig_flow_of aug fid = List.assoc_opt fid origins))
    (fids @ [ -1; 1 + List.fold_left max 0 fids ])

let test_index_agreement () =
  let workloads =
    [
      ("avionics", Generators.avionics ~n_nodes:6);
      ("scada", Generators.scada ~n_nodes:6);
      ( "random",
        Generators.random_layered ~rng:(Rng.create 3) ~n_nodes:6 ~layers:3 ~width:3 () );
      ("fleet", Generators.fleet ~n_nodes:6);
    ]
  in
  List.iter
    (fun (name, g) ->
      let built = ref 0 in
      List.iter
        (fun degree ->
          let nodes = [ 0; 1; 2; 3; 4; 5 ] in
          check_index_agreement ~protect_level:Task.Medium ~nodes
            (Augment.augment g ~nodes ~degree ~protect_level:Task.Medium);
          let topo = Topology.dual_bus ~n:6 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50) in
          match build ~tune:(fun c -> { c with Planner.degree }) g topo with
          | Error _ -> ()
          | Ok s ->
            incr built;
            List.iter
              (fun (p : Planner.plan) ->
                let alive = List.filter (fun n -> not (List.mem n p.faulty)) nodes in
                check_index_agreement ~protect_level:Task.Medium ~nodes:alive p.aug;
                (* The schedule records where list scheduling put each task. *)
                let placed =
                  List.filter_map
                    (fun (x : Task.t) ->
                      Option.map (fun n -> (x.id, n)) (Schedule.node_of p.schedule x.id))
                    (Graph.tasks p.aug.Augment.graph)
                in
                check_bool "assignments" true (Planner.assignments p = placed))
              (Planner.all_plans s))
        [ 1; 2; 3 ];
      check_bool (name ^ ": some degree plans") true (!built > 0))
    workloads

(* Reference model of a task's inputs: the list scans the runtime ran
   on every job before [Augment.inputs_of] existed. [present] is the set
   of augmented flow ids with a message in the inbox. It answers which
   lane each original flow is taken from (the lowest live one) and
   whether a compute task abstains: no input at all although it has
   producers, or fewer original flows received than there are original
   flows from placed producers. *)
let scan_gather (plan : Planner.plan) tid ~present =
  let aug = plan.Planner.aug in
  let best = Hashtbl.create 8 in
  List.iter
    (fun (fl : Graph.flow) ->
      if List.mem fl.flow_id present then
        match Augment.orig_flow_of aug fl.flow_id with
        | Some (orig_flow, lane) -> (
          match Hashtbl.find_opt best orig_flow with
          | Some (l, _) when l <= lane -> ()
          | _ -> Hashtbl.replace best orig_flow (lane, fl.flow_id))
        | None -> ())
    (Graph.producers_of aug.Augment.graph tid);
  Table.sorted_bindings ~cmp:Int.compare best

(* Each original flow into the task with its lane flows, by lane. *)
let scan_groups (plan : Planner.plan) tid =
  let aug = plan.Planner.aug in
  let origins =
    List.filter_map
      (fun (fl : Graph.flow) ->
        Option.map (fun (o, lane) -> (o, (lane, fl.flow_id))) (Augment.orig_flow_of aug fl.flow_id))
      (Graph.producers_of aug.Augment.graph tid)
  in
  List.map
    (fun o ->
      ( o,
        List.map snd
          (List.sort
             (fun (lane, _) (lane', _) -> Int.compare lane lane')
             (List.filter_map (fun (o', lf) -> if o' = o then Some lf else None) origins)) ))
    (List.sort_uniq Int.compare (List.map fst origins))

let scan_abstains (plan : Planner.plan) tid ~present =
  let aug = plan.Planner.aug in
  let g = aug.Augment.graph in
  let producers = Graph.producers_of g tid in
  let required =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (fl : Graph.flow) ->
           match Schedule.node_of plan.Planner.schedule fl.producer with
           | Some _ -> Option.map fst (Augment.orig_flow_of aug fl.flow_id)
           | None -> None)
         producers)
  in
  let got = scan_gather plan tid ~present in
  (Graph.task g tid).Task.kind = Task.Compute
  && ((got = [] && producers <> []) || List.length got < List.length required)

(* The same answers from the table: the first live lane of each group,
   and "groups present < groups". *)
let table_gather (plan : Planner.plan) tid ~present =
  let aug = plan.Planner.aug in
  List.filter_map
    (fun (grp : Augment.input_group) ->
      List.find_map
        (fun (fl : Graph.flow) ->
          match Augment.orig_flow_of aug fl.flow_id with
          | Some (_, lane) when List.mem fl.flow_id present ->
            Some (grp.orig_flow, (lane, fl.flow_id))
          | _ -> None)
        (Array.to_list grp.lane_flows))
    (Array.to_list (Augment.inputs_of aug tid))

let table_abstains (plan : Planner.plan) tid ~present =
  (Graph.task plan.Planner.aug.Augment.graph tid).Task.kind = Task.Compute
  && List.length (table_gather plan tid ~present)
     < Array.length (Augment.inputs_of plan.Planner.aug tid)

let prop_input_table_matches_scan =
  QCheck.Test.make
    ~name:"input table agrees with the list-scan gather and abstention rules"
    ~count:30
    QCheck.(pair (int_range 0 5000) (int_range 1 3))
    (fun (seed, degree) ->
      let rng = Rng.create seed in
      let g =
        Generators.random_layered ~rng ~n_nodes:5 ~layers:3 ~width:3
          ~utilization_target:0.5 ()
      in
      let topo =
        Topology.fully_connected ~n:5 ~bandwidth_bps:20_000_000 ~latency:(Time.us 20)
      in
      match build ~f:1 ~r:(Time.sec 1) ~tune:(fun c -> { c with Planner.degree }) g topo with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
        List.for_all
          (fun (p : Planner.plan) ->
            let tasks = Graph.tasks p.aug.Augment.graph in
            (* The rule "groups present < groups" rests on this. *)
            List.for_all (fun (x : Task.t) -> Schedule.node_of p.schedule x.id <> None) tasks
            && List.for_all
                 (fun (x : Task.t) ->
                   let incoming =
                     List.map (fun (fl : Graph.flow) -> fl.flow_id)
                       (Graph.producers_of p.aug.Augment.graph x.id)
                   in
                   (* Every inbox subset for small fan-in, a random
                      sample of them beyond. *)
                   let subsets =
                     if List.length incoming <= 6 then
                       List.fold_left
                         (fun acc fid -> acc @ List.map (fun l -> fid :: l) acc)
                         [ [] ] incoming
                     else
                       List.init 64 (fun _ ->
                           List.filter (fun _ -> Rng.bool rng) incoming)
                   in
                   List.map
                     (fun (grp : Augment.input_group) ->
                       ( grp.orig_flow,
                         List.map (fun (fl : Graph.flow) -> fl.flow_id) (Array.to_list grp.lane_flows) ))
                     (Array.to_list (Augment.inputs_of p.aug x.id))
                   = scan_groups p x.id
                   && List.for_all
                     (fun present ->
                       table_gather p x.id ~present = scan_gather p x.id ~present
                       && table_abstains p x.id ~present = scan_abstains p x.id ~present)
                     subsets)
                 (* The tasks that compute from inputs; checkers compare
                    digests and guards run nothing. *)
                 (List.filter
                    (fun (x : Task.t) ->
                      match Augment.role_of p.aug x.id with
                      | Augment.Original | Augment.Replica _ -> true
                      | Augment.Checker _ | Augment.Guard _ -> false)
                    tasks))
          (Planner.all_plans s))

(* The reference for [plan.dropped]: the runtime used to derive it at
   every period boundary from the augmented graph — a workload sink
   flow is carried when some lane flow of the mode maps back to it. *)
let scan_dropped workload (plan : Planner.plan) =
  let aug = plan.Planner.aug in
  let carried = Hashtbl.create 16 in
  List.iter
    (fun (fl : Graph.flow) ->
      match Augment.orig_flow_of aug fl.flow_id with
      | Some (orig, _lane) -> Hashtbl.replace carried orig ()
      | None -> ())
    (Graph.flows aug.Augment.graph);
  List.filter_map
    (fun (fl : Graph.flow) ->
      if Hashtbl.mem carried fl.flow_id then None else Some fl.flow_id)
    (Graph.sink_flows workload)

(* At the generator's default load, modes shed and lose outputs. *)
let prop_dropped_matches_scan =
  QCheck.Test.make ~name:"each plan's dropped outputs match the augmented-graph scan"
    ~count:40
    QCheck.(triple (int_range 0 5000) (int_range 4 6) (int_range 1 3))
    (fun (seed, n, degree) ->
      let g =
        Generators.random_layered ~rng:(Rng.create seed) ~n_nodes:n ~layers:3 ~width:3 ()
      in
      let topo =
        if seed mod 2 = 0 then
          Topology.fully_connected ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)
        else Topology.dual_bus ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)
      in
      match build ~r:(Time.ms 300) ~tune:(fun c -> { c with Planner.degree }) g topo with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
        List.for_all
          (fun (p : Planner.plan) -> p.Planner.dropped = scan_dropped g p)
          (Planner.all_plans s))

let test_dropped_outputs () =
  (* Random seed 3 on a 4-node clique: the fault-free mode sheds, and
     crashing node 1 loses more. *)
  let g = Generators.random_layered ~rng:(Rng.create 3) ~n_nodes:4 ~layers:3 ~width:3 () in
  let s =
    must_build ~r:(Time.ms 300) g
      (Topology.fully_connected ~n:4 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50))
  in
  List.iter
    (fun (p : Planner.plan) ->
      check_bool "dropped = scan" true (p.Planner.dropped = scan_dropped g p))
    (Planner.all_plans s);
  let dropped faulty = (Option.get (Planner.plan_for s ~faulty)).Planner.dropped in
  check_bool "fault-free mode drops outputs" true (dropped [] <> []);
  check_bool "crash of node 1 drops more" true
    (List.for_all (fun f -> List.mem f (dropped [ 1 ])) (dropped [])
    && List.length (dropped [ 1 ]) > List.length (dropped []))

let test_every_task_placed () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun degree ->
          match build ~tune:(fun c -> { c with Planner.degree }) g (topo6 ()) with
          | Error _ -> ()
          | Ok s ->
            List.iter
              (fun (p : Planner.plan) ->
                List.iter
                  (fun (x : Task.t) ->
                    check_bool
                      (Printf.sprintf "%s degree %d: task %d placed" name degree x.id)
                      true
                      (Schedule.node_of p.schedule x.id <> None))
                  (Graph.tasks p.aug.Augment.graph))
              (Planner.all_plans s))
        [ 1; 2; 3 ])
    [
      ("avionics", Generators.avionics ~n_nodes:6);
      ("scada", Generators.scada ~n_nodes:6);
      ("fleet", Generators.fleet ~n_nodes:6);
    ]

let suite =
  [
    ("augment: task counts", `Quick, test_augment_counts);
    ("augment: roles and lanes consistent", `Quick, test_augment_roles_and_lanes);
    ("augment: digest flows wired to checkers", `Quick, test_augment_digest_flows);
    ("augment: sinks receive every lane", `Quick, test_augment_sinks_get_all_lanes);
    ("augment: degree one is the identity on ids", `Quick, test_augment_degree_one);
    ("build avionics strategy", `Quick, test_build_avionics);
    ("replica lanes on distinct nodes", `Quick, test_replica_separation);
    ("no tasks on faulty nodes", `Quick, test_no_tasks_on_faulty_nodes);
    ("every mode's schedule validates", `Quick, test_schedules_validate);
    ("pinned tasks on faulty nodes are lost", `Quick, test_lost_pinned_tasks);
    ("minimal reassignment beats naive", `Quick, test_transition_minimality);
    ("transition structure", `Quick, test_transition_structure);
    ("shedding is criticality-monotone", `Quick, test_shedding_under_pressure);
    ("plan lookup ignores order", `Quick, test_plan_for_is_order_insensitive);
    ("bad configs rejected", `Quick, test_bad_configs_rejected);
    ("disconnection detected", `Quick, test_disconnection_detected);
    ("unschedulable workloads detected", `Quick, test_unschedulable_detected);
    ("with_recovery_bound is O(1) and re-admits", `Quick, test_with_recovery_bound);
    ("config_key is total and injective on fields", `Quick, test_config_key_total);
    ("scenario resolved_config applies tune", `Quick, test_resolved_config_applies_tune);
    QCheck_alcotest.to_alcotest prop_random_workloads_plan_and_validate;
    ("indexed accessors agree with list scans", `Quick, test_index_agreement);
    QCheck_alcotest.to_alcotest prop_input_table_matches_scan;
    ("every augmented task of every plan is placed", `Quick, test_every_task_placed);
    ("dropped outputs of the seed-3 modes", `Quick, test_dropped_outputs);
    QCheck_alcotest.to_alcotest prop_dropped_matches_scan;
  ]
