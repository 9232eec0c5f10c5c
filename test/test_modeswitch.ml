open Btr_util
module Modeswitch = Btr_modeswitch.Modeswitch
module Planner = Btr_planner.Planner
module Fault = Btr_fault.Fault
open Btr_workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Fault_set *)

let test_fault_set_grow_only () =
  let fs = Modeswitch.Fault_set.create () in
  check_bool "first add" true (Modeswitch.Fault_set.add_node fs 3);
  check_bool "duplicate add" false (Modeswitch.Fault_set.add_node fs 3);
  check_bool "mem" true (Modeswitch.Fault_set.mem_node fs 3);
  ignore (Modeswitch.Fault_set.add_node fs 1);
  Alcotest.(check (list int)) "sorted" [ 1; 3 ] (Modeswitch.Fault_set.nodes fs)

let test_fault_set_paths () =
  let fs = Modeswitch.Fault_set.create () in
  check_bool "path add" true (Modeswitch.Fault_set.add_path fs (5, 2));
  check_bool "normalized duplicate" false (Modeswitch.Fault_set.add_path fs (2, 5));
  check_bool "mem either order" true (Modeswitch.Fault_set.mem_path fs (5, 2));
  check_bool "mem normalized" true (Modeswitch.Fault_set.mem_path fs (2, 5))

let test_fault_set_union () =
  let a = Modeswitch.Fault_set.create () in
  let b = Modeswitch.Fault_set.create () in
  ignore (Modeswitch.Fault_set.add_node a 1);
  ignore (Modeswitch.Fault_set.add_node b 2);
  ignore (Modeswitch.Fault_set.add_path b (3, 4));
  check_bool "union adds" true (Modeswitch.Fault_set.union a b);
  Alcotest.(check (list int)) "merged nodes" [ 1; 2 ] (Modeswitch.Fault_set.nodes a);
  check_bool "union idempotent" false (Modeswitch.Fault_set.union a b)

let prop_fault_set_converges =
  QCheck.Test.make
    ~name:"fault sets converge regardless of evidence arrival order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 15) (int_bound 9))
    (fun adds ->
      let rng = Rng.create 42 in
      let build order =
        let fs = Modeswitch.Fault_set.create () in
        List.iter (fun n -> ignore (Modeswitch.Fault_set.add_node fs n)) order;
        Modeswitch.Fault_set.nodes fs
      in
      let shuffled = Array.of_list adds in
      Rng.shuffle rng shuffled;
      build adds = build (Array.to_list shuffled))

(* diff *)

let strategy () =
  let g = Generators.avionics ~n_nodes:6 in
  let topo =
    Btr_net.Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
      ~latency:(Time.us 50)
  in
  match
    Planner.build (Planner.default_config ~f:1 ~recovery_bound:(Time.ms 500)) g topo
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "planner failed: %a" Planner.pp_error e

let test_diff_covers_the_moved_tasks () =
  let s = strategy () in
  let from_plan = Planner.initial_plan s in
  let to_plan = Option.get (Planner.plan_for s ~faulty:[ 4 ]) in
  (* Union of all nodes' actions must stop every task that was on node 4
     and start it elsewhere. *)
  let all_actions =
    List.concat_map
      (fun node -> Modeswitch.diff ~node ~from_plan ~to_plan)
      (Btr_net.Topology.nodes (Planner.topology s))
  in
  let tasks_on_4 =
    List.filter_map
      (fun (tid, n) -> if n = 4 then Some tid else None)
      (Planner.assignments from_plan)
  in
  check_bool "node 4 hosted something" true (tasks_on_4 <> []);
  List.iter
    (fun tid ->
      let started =
        List.exists
          (function
            | Modeswitch.Start_fresh x -> x = tid
            | Modeswitch.Start_after_state { task; _ } -> task = tid
            | Modeswitch.Stop _ | Modeswitch.Send_state _ -> false)
          all_actions
      in
      check_bool (Printf.sprintf "task %d restarts elsewhere" tid) true started)
    tasks_on_4

let test_diff_no_state_from_faulty_node () =
  let s = strategy () in
  let from_plan = Planner.initial_plan s in
  let to_plan = Option.get (Planner.plan_for s ~faulty:[ 4 ]) in
  List.iter
    (fun node ->
      List.iter
        (function
          | Modeswitch.Start_after_state { from_node; _ } ->
            check_bool "never waits on state from the faulty node" false (from_node = 4)
          | Modeswitch.Send_state { to_node; _ } ->
            check_bool "never ships state to the faulty node" false (to_node = 4)
          | Modeswitch.Stop _ | Modeswitch.Start_fresh _ -> ())
        (Modeswitch.diff ~node ~from_plan ~to_plan))
    (Btr_net.Topology.nodes (Planner.topology s))

let test_diff_identity () =
  let s = strategy () in
  let p = Planner.initial_plan s in
  List.iter
    (fun node ->
      check_int "no actions for identical plans" 0
        (List.length (Modeswitch.diff ~node ~from_plan:p ~to_plan:p)))
    (Btr_net.Topology.nodes (Planner.topology s))

let test_diff_send_matches_start () =
  let s = strategy () in
  let from_plan = Planner.initial_plan s in
  let to_plan = Option.get (Planner.plan_for s ~faulty:[ 2 ]) in
  let nodes = Btr_net.Topology.nodes (Planner.topology s) in
  let all = List.concat_map (fun node -> Modeswitch.diff ~node ~from_plan ~to_plan) nodes in
  List.iter
    (function
      | Modeswitch.Start_after_state { task; from_node; bytes } ->
        check_bool "a matching Send_state exists" true
          (List.exists
             (function
               | Modeswitch.Send_state { task = t2; bytes = b2; _ } ->
                 t2 = task && b2 = bytes
               | _ -> false)
             (Modeswitch.diff ~node:from_node ~from_plan ~to_plan))
      | _ -> ())
    all

(* Fault scripts *)

let test_sequential_attack () =
  let script =
    Fault.sequential_attack ~nodes:[ 3; 1; 4 ] ~start:(Time.ms 100)
      ~gap:(Time.ms 250) Fault.Crash
  in
  check_int "three events" 3 (List.length script);
  let times = List.map (fun e -> e.Fault.at) script in
  Alcotest.(check (list int)) "spaced by the gap"
    [ Time.ms 100; Time.ms 350; Time.ms 600 ] times

let suite =
  [
    ("fault set is grow-only", `Quick, test_fault_set_grow_only);
    ("fault set normalizes paths", `Quick, test_fault_set_paths);
    ("fault set union", `Quick, test_fault_set_union);
    ("diff restarts everything the faulty node hosted", `Quick, test_diff_covers_the_moved_tasks);
    ("diff never involves the faulty node in state transfer", `Quick, test_diff_no_state_from_faulty_node);
    ("diff of identical plans is empty", `Quick, test_diff_identity);
    ("send/start state actions pair up", `Quick, test_diff_send_matches_start);
    ("sequential attack script", `Quick, test_sequential_attack);
    QCheck_alcotest.to_alcotest prop_fault_set_converges;
  ]
