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

(* Planner.moves: the diff of two plans that every node acts on. A
   node ships the state of each migrating, stateful move it hosted and
   the new host awaits it (Runtime.maybe_switch_mode). *)

let ships (m : Planner.move) = m.Planner.migrates && m.Planner.state_size > 0

(* [task; sender; receiver; bytes] of every state send, as each sender
   derives them, and of every await, as each receiver does. *)
let sends_and_awaits nodes moves =
  let per_node keep =
    List.sort (List.compare Int.compare)
      (List.concat_map
         (fun node ->
           List.filter_map
             (fun (m : Planner.move) ->
               if keep node m && ships m then
                 Some [ m.Planner.task; m.Planner.from_node; m.Planner.to_node; m.Planner.state_size ]
               else None)
             moves)
         nodes)
  in
  ( per_node (fun node (m : Planner.move) -> m.Planner.from_node = node),
    per_node (fun node (m : Planner.move) -> m.Planner.to_node = node) )

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
  (* Every task node 4 hosted moves off it, and restarts fresh: its
     state died with the node. *)
  let moves = Planner.moves ~from_plan ~to_plan in
  let tasks_on_4 =
    List.filter_map
      (fun (tid, n) -> if n = 4 then Some tid else None)
      (Planner.assignments from_plan)
  in
  check_bool "node 4 hosted something" true (tasks_on_4 <> []);
  List.iter
    (fun tid ->
      check_bool (Printf.sprintf "task %d restarts elsewhere" tid) true
        (List.exists
           (fun (m : Planner.move) ->
             m.Planner.task = tid && m.Planner.from_node = 4 && m.Planner.to_node <> 4
             && not m.Planner.migrates)
           moves))
    tasks_on_4

let test_diff_no_state_from_faulty_node () =
  let s = strategy () in
  let from_plan = Planner.initial_plan s in
  let to_plan = Option.get (Planner.plan_for s ~faulty:[ 4 ]) in
  List.iter
    (fun (m : Planner.move) ->
      if ships m then begin
        check_bool "never ships state from the faulty node" false (m.Planner.from_node = 4);
        check_bool "never ships state to the faulty node" false (m.Planner.to_node = 4)
      end)
    (Planner.moves ~from_plan ~to_plan)

let test_diff_identity () =
  let s = strategy () in
  let p = Planner.initial_plan s in
  check_int "no moves between identical plans" 0
    (List.length (Planner.moves ~from_plan:p ~to_plan:p))

let test_diff_send_matches_start () =
  let s = strategy () in
  let from_plan = Planner.initial_plan s in
  let to_plan = Option.get (Planner.plan_for s ~faulty:[ 2 ]) in
  let sends, awaits =
    sends_and_awaits (Btr_net.Topology.nodes (Planner.topology s))
      (Planner.moves ~from_plan ~to_plan)
  in
  check_bool "some state ships" true (awaits <> []);
  List.iter
    (fun await -> check_bool "a matching send exists" true (List.mem await sends))
    awaits

(* A random strategy: workload, topology, node count and f. Plans that
   fail to build or are too small for f are skipped. *)
let arb_strategy =
  let gen =
    QCheck.Gen.(
      quad (int_bound 2) bool (int_range 5 7) (pair (int_range 1 2) (int_range 1 1000)))
  in
  let print (w, bus, n, (f, seed)) =
    Printf.sprintf "workload %d, %s, n = %d, f = %d, seed %d" w
      (if bus then "dual-bus" else "clique") n f seed
  in
  QCheck.make ~print gen

let prop_moves_consistent =
  QCheck.Test.make ~name:"moves pair sends with awaits and sum to state_bytes"
    ~count:30 arb_strategy (fun (w, bus, n, (f, seed)) ->
      let g =
        match w with
        | 0 -> Generators.avionics ~n_nodes:n
        | 1 -> Generators.scada ~n_nodes:n
        | _ ->
          Generators.random_layered ~rng:(Rng.create seed) ~n_nodes:n ~layers:3
            ~width:3 ()
      in
      let topo =
        (if bus then Btr_net.Topology.dual_bus else Btr_net.Topology.fully_connected)
          ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)
      in
      match Planner.build (Planner.default_config ~f ~recovery_bound:(Time.sec 1)) g topo with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
        let nodes = Btr_net.Topology.nodes topo in
        let plans = Planner.all_plans s in
        (* Fault_set.target can switch between non-nested modes, so
           every ordered pair of modes is a possible mode change. *)
        List.for_all
          (fun (from_plan : Planner.plan) ->
            List.for_all
              (fun (to_plan : Planner.plan) ->
                let moves = Planner.moves ~from_plan ~to_plan in
                let sends, awaits = sends_and_awaits nodes moves in
                sends = awaits
                && List.for_all
                     (fun (m : Planner.move) ->
                       (not (List.mem m.Planner.to_node to_plan.Planner.faulty))
                       && m.Planner.migrates
                          = not (List.mem m.Planner.from_node to_plan.Planner.faulty))
                     moves)
              plans)
          plans
        && List.for_all
             (fun (tr : Planner.transition) ->
               let plan faulty = Option.get (Planner.plan_for s ~faulty) in
               let moves =
                 Planner.moves ~from_plan:(plan tr.Planner.from_faulty)
                   ~to_plan:(plan tr.Planner.to_faulty)
               in
               List.fold_left
                 (fun acc (m : Planner.move) ->
                   if m.Planner.migrates then acc + m.Planner.state_size else acc)
                 0 moves
               = tr.Planner.state_bytes)
             (Planner.all_transitions s))

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
    QCheck_alcotest.to_alcotest prop_moves_consistent;
  ]
