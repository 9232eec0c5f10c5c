(* Incremental verification: Incr.report must be byte-identical to a
   from-scratch Planner.build + Check.verify on the edited inputs — the
   equivalence the memo keys claim — and edits outside an analysis
   family's dependency cone must not miss in that family's memo. *)

open Btr_util
module Graph = Btr_workload.Graph
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Planner = Btr_planner.Planner
module Check = Btr_check.Check
module Incr = Btr_check.Incr

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let clique n =
  Topology.fully_connected ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)

let fleet_topo n =
  Topology.dual_bus ~n ~bandwidth_bps:(1_000_000 * n) ~latency:(Time.us 50)

let scratch_json st =
  let v = Incr.view st in
  match Planner.build v.Check.config v.Check.workload v.Check.topology with
  | Error e -> Alcotest.failf "scratch build failed: %a" Planner.pp_error e
  | Ok s -> Check.report_to_json (Check.verify s)

let init_exn ?strikes cfg w t =
  match Incr.init ?strikes cfg w t with
  | Ok st -> st
  | Error e -> Alcotest.failf "init failed: %a" Planner.pp_error e

(* ------------------------------------------------------------------ *)

let test_init_matches_scratch () =
  let w = Generators.avionics ~n_nodes:6 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 200) in
  let st = init_exn cfg w (clique 6) in
  check_string "init report = scratch report" (scratch_json st)
    (Check.report_to_json (Incr.report st))

let check_no_misses (s : Incr.memo_stats) =
  check_int "reserve misses" 0 s.Incr.reserve_misses;
  check_int "sched misses" 0 s.Incr.sched_misses;
  check_int "evb misses" 0 s.Incr.evb_misses;
  check_int "cuts misses" 0 s.Incr.cuts_misses

(* The planner and the verifier share one evidence-bound table: init
   computes each mode's bound once, for the planner, and the verifier
   hits it. Fleet 8 at f = 1 has 8 faulty modes. *)
let test_init_shares_evidence_bounds () =
  let w = Generators.fleet ~n_nodes:8 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 100) in
  let st = init_exn cfg w (fleet_topo 8) in
  let s = Incr.memo_stats st in
  check_int "evb misses" 8 s.Incr.evb_misses;
  check_int "evb hits" 8 s.Incr.evb_hits

let test_set_r_cone () =
  let w = Generators.fleet ~n_nodes:8 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 100) in
  let st = init_exn cfg w (fleet_topo 8) in
  Incr.reset_memo_stats st;
  let st, _ = Result.get_ok (Incr.apply st (Incr.Set_recovery_bound (Time.ms 80))) in
  let s = Incr.memo_stats st in
  (* R touches no analysis input: every family must hit. *)
  check_no_misses s;
  check_bool "some hits happened" true (s.Incr.reserve_hits > 0);
  check_string "still = scratch" (scratch_json st)
    (Check.report_to_json (Incr.report st))

let test_flow_retune_cone () =
  let w = Generators.fleet ~n_nodes:8 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 100) in
  let st = init_exn cfg w (fleet_topo 8) in
  let fl = List.hd (Graph.flows w) in
  Incr.reset_memo_stats st;
  let st, _ =
    Result.get_ok
      (Incr.apply st
         (Incr.Retune_flow
            { flow = fl.Graph.flow_id; msg_size = Some (fl.Graph.msg_size * 2);
              deadline = None }))
  in
  let s = Incr.memo_stats st in
  (* A message-size change replans every mode (the workload fingerprint
     is coarse) but leaves the network, and so the evidence bounds,
     untouched: that family must hit across the rebuilt plans. *)
  check_int "evb misses" 0 s.Incr.evb_misses;
  check_bool "reserve ledgers recomputed" true (s.Incr.reserve_misses > 0);
  check_string "still = scratch" (scratch_json st)
    (Check.report_to_json (Incr.report st))

let test_link_retune_cone () =
  let w = Generators.fleet ~n_nodes:8 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 100) in
  let st = init_exn cfg w (fleet_topo 8) in
  Incr.reset_memo_stats st;
  let st, _ =
    Result.get_ok
      (Incr.apply st
         (Incr.Retune_link
            { link = 0; bandwidth_bps = Some (16_000_000); latency = None }))
  in
  let s = Incr.memo_stats st in
  (* Bandwidth enters evidence bounds: a topology edit starts an empty
     evidence-bound table. *)
  check_bool "evb recomputed" true (s.Incr.evb_misses > 0);
  check_string "still = scratch" (scratch_json st)
    (Check.report_to_json (Incr.report st))

(* Memo keys are content digests of the inputs, not edit counters: an
   edit that restores earlier inputs, or changes nothing, hits in every
   family. *)
let test_undone_edit_hits () =
  let w = Generators.fleet ~n_nodes:8 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 100) in
  let st = init_exn cfg w (fleet_topo 8) in
  let fl = List.hd (Graph.flows w) in
  let fresh =
    1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 (Graph.flows w)
  in
  let st, _ =
    Result.get_ok (Incr.apply st (Incr.Add_flow { fl with Graph.flow_id = fresh }))
  in
  Incr.reset_memo_stats st;
  let st, _ = Result.get_ok (Incr.apply st (Incr.Remove_flow fresh)) in
  check_no_misses (Incr.memo_stats st);
  check_string "still = scratch" (scratch_json st)
    (Check.report_to_json (Incr.report st))

let test_no_op_retune_hits () =
  let w = Generators.fleet ~n_nodes:8 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 100) in
  let st = init_exn cfg w (fleet_topo 8) in
  let fl = List.hd (Graph.flows w) in
  Incr.reset_memo_stats st;
  let st, _ =
    Result.get_ok
      (Incr.apply st
         (Incr.Retune_flow
            { flow = fl.Graph.flow_id; msg_size = Some fl.Graph.msg_size; deadline = None }))
  in
  check_no_misses (Incr.memo_stats st);
  check_string "still = scratch" (scratch_json st)
    (Check.report_to_json (Incr.report st))

let test_invalid_edit_keeps_state () =
  let w = Generators.avionics ~n_nodes:6 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 200) in
  let st = init_exn cfg w (clique 6) in
  let before = Check.report_to_json (Incr.report st) in
  (* Added flow ids stay dense: one far past the largest would make
     every augmentation index span the gap. Link latencies are never
     negative. *)
  let fl = List.hd (Graph.flows w) in
  let add id = Incr.Add_flow { fl with Graph.flow_id = id } in
  let negative_latency =
    [
      Incr.Add_link
        { Topology.link_id = 99; members = [ 0; 1 ]; bandwidth_bps = 1000; latency = -5 };
      Incr.Retune_link { link = 0; bandwidth_bps = None; latency = Some (-100) };
    ]
  in
  List.iter
    (fun edit ->
      match Incr.apply st edit with
      | Error (Incr.Invalid_edit _) -> ()
      | Error e -> Alcotest.failf "wrong error: %a" Incr.pp_apply_error e
      | Ok _ -> Alcotest.failf "expected Invalid_edit: %s" (Incr.edit_to_string edit))
    ([ Incr.Remove_flow 99_999; add 1_000_000_000; add max_int; add (-1); add min_int ]
    @ negative_latency);
  check_string "state unchanged" before (Check.report_to_json (Incr.report st));
  let next =
    1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 (Graph.flows w)
  in
  check_bool "one past the largest flow id applies" true (Result.is_ok (Incr.apply st (add next)))

(* A topology edit that fails to plan must leave no bound of the
   rejected topology behind: removing node 4 from a 5-ring leaves the
   line 0-1-2-3, which plans mode {0} and then finds mode {1}
   disconnected. Later edits of the kept ring must plan with the ring's
   bounds. *)
let test_failed_topology_edit_keeps_bounds () =
  let w = Generators.avionics ~n_nodes:5 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 300) in
  let ring = Topology.ring ~n:5 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50) in
  let st = init_exn cfg w ring in
  (match Incr.apply st (Incr.Remove_node 4) with
  | Error (Incr.Plan_failed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Incr.pp_apply_error e
  | Ok _ -> Alcotest.fail "expected the line topology to fail planning");
  let fl = List.hd (Graph.flows w) in
  let st, _ =
    Result.get_ok
      (Incr.apply st
         (Incr.Retune_flow
            { flow = fl.Graph.flow_id; msg_size = Some (fl.Graph.msg_size * 2);
              deadline = None }))
  in
  let v = Incr.view st in
  let scratch =
    Result.get_ok (Planner.build v.Check.config v.Check.workload v.Check.topology)
  in
  let bounds s =
    List.map (fun (tr : Planner.transition) -> tr.Planner.recovery_bound)
      (Planner.all_transitions s)
  in
  check_bool "transition bounds = scratch" true
    (bounds scratch = bounds (Incr.strategy st));
  check_string "still = scratch" (scratch_json st)
    (Check.report_to_json (Incr.report st))

(* An edit whose system is too large to plan is refused before
   replanning, the way a from-scratch check refuses it: 40 nodes at
   f = 4 would place about 1.3e7 tasks. *)
let test_plan_size_guard () =
  let w = Generators.avionics ~n_nodes:40 in
  let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 200) in
  let st = init_exn cfg w (clique 40) in
  let before = Check.report_to_json (Incr.report st) in
  (match Incr.apply st (Incr.Set_f 4) with
  | Error (Incr.Invalid_edit msg) ->
    check_bool "the size check's message" true
      (Planner.check_plan_size ~nodes:40 ~f:4 ~tasks:(Graph.task_count w) = Error msg)
  | Error e -> Alcotest.failf "wrong error: %a" Incr.pp_apply_error e
  | Ok _ -> Alcotest.fail "expected Invalid_edit for set-f 4");
  check_string "state unchanged" before (Check.report_to_json (Incr.report st));
  check_bool "set-f 2 still applies" true (Result.is_ok (Incr.apply st (Incr.Set_f 2)))

let test_parse_round_trip () =
  let edits =
    [
      Incr.Add_node 7;
      Incr.Remove_node 3;
      Incr.Add_link
        {
          Topology.link_id = 9;
          members = [ 0; 1; 4 ];
          bandwidth_bps = 1_000_000;
          latency = Time.us 50;
        };
      Incr.Retune_link
        { link = 2; bandwidth_bps = Some 5_000_000; latency = None };
      Incr.Retune_link { link = 2; bandwidth_bps = None; latency = Some (Time.us 10) };
      Incr.Add_flow
        {
          Graph.flow_id = 42;
          producer = 1;
          consumer = 2;
          msg_size = 64;
          deadline = Some (Time.ms 15);
        };
      Incr.Add_flow
        { Graph.flow_id = 43; producer = 1; consumer = 2; msg_size = 64; deadline = None };
      Incr.Remove_flow 42;
      Incr.Retune_flow { flow = 3; msg_size = Some 128; deadline = None };
      Incr.Retune_flow { flow = 3; msg_size = None; deadline = Some None };
      Incr.Retune_flow
        { flow = 3; msg_size = None; deadline = Some (Some (Time.ms 15)) };
      Incr.Set_f 2;
      Incr.Set_recovery_bound (Time.ms 300);
    ]
  in
  List.iter
    (fun e ->
      match Incr.parse_edit (Incr.edit_to_string e) with
      | Ok e' ->
        check_bool (Incr.edit_to_string e ^ " round-trips") true (e = e')
      | Error msg -> Alcotest.failf "parse %S: %s" (Incr.edit_to_string e) msg)
    edits;
  check_bool "garbage rejected" true
    (Result.is_error (Incr.parse_edit "frobnicate 3"))

(* ------------------------------------------------------------------ *)
(* The tentpole property: a random edit script applied incrementally
   always leaves the report byte-identical (JSON and E305 witnesses) to
   planning and verifying the final inputs from scratch. *)

let random_edit rng st =
  let v = Incr.view st in
  let flows = Graph.flows v.Check.workload in
  let links = Topology.links v.Check.topology in
  match Rng.int rng 8 with
  | 0 ->
    let fl = Rng.pick_list rng flows in
    Incr.Retune_flow
      {
        flow = fl.Graph.flow_id;
        msg_size = Some (16 + Rng.int rng 256);
        deadline = None;
      }
  | 1 ->
    let fl = Rng.pick_list rng flows in
    let deadline =
      if Rng.bool rng then Some None
      else Some (Some (Time.ms (10 + Rng.int rng 100)))
    in
    Incr.Retune_flow { flow = fl.Graph.flow_id; msg_size = None; deadline }
  | 2 ->
    let fl = Rng.pick_list rng flows in
    let fresh =
      1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 flows
    in
    Incr.Add_flow { fl with Graph.flow_id = fresh; msg_size = 16 + Rng.int rng 128 }
  | 3 ->
    let fl = Rng.pick_list rng flows in
    Incr.Remove_flow fl.Graph.flow_id
  | 4 ->
    let l = Rng.pick_list rng links in
    Incr.Retune_link
      {
        link = l.Topology.link_id;
        bandwidth_bps = Some (5_000_000 + Rng.int rng 20_000_000);
        latency = None;
      }
  | 5 ->
    let l = Rng.pick_list rng links in
    Incr.Retune_link
      {
        link = l.Topology.link_id;
        bandwidth_bps = None;
        latency = Some (Time.us (10 + Rng.int rng 200));
      }
  | 6 -> Incr.Set_f (Rng.int rng 2)
  | _ -> Incr.Set_recovery_bound (Time.ms (50 + Rng.int rng 400))

let prop_equivalence =
  QCheck.Test.make ~name:"incremental report = from-scratch report" ~count:50
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 2 in
      let workload =
        Generators.random_layered ~rng:(Rng.split rng) ~n_nodes:n ~layers:3
          ~width:3 ()
      in
      let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 300) in
      match Incr.init cfg workload (clique n) with
      | Error _ -> true (* unplannable seed: vacuous *)
      | Ok st0 ->
        let st = ref st0 in
        let ok = ref true in
        for _ = 1 to 20 do
          if !ok then begin
            let edit = random_edit rng !st in
            match Incr.apply !st edit with
            | Error (Incr.Invalid_edit _ | Incr.Plan_failed _) ->
              (* state must be unchanged; keep editing from it *)
              ()
            | Ok (st', _) ->
              st := st';
              let v = Incr.view st' in
              (match
                 Planner.build v.Check.config v.Check.workload v.Check.topology
               with
              | Error _ ->
                (* apply succeeded but scratch failed: divergence *)
                ok := false
              | Ok s ->
                let scratch = Check.verify s in
                if
                  Check.report_to_json scratch
                  <> Check.report_to_json (Incr.report st')
                then ok := false
                else begin
                  (* E305 witnesses must agree too, including order. *)
                  let wi = Check.selective_omission_witnesses (Incr.view st') in
                  let ws =
                    Check.selective_omission_witnesses
                      (Check.view_of_strategy s)
                  in
                  if wi <> ws then ok := false
                end)
          end
        done;
        !ok)

let suite =
  [
    Alcotest.test_case "init report equals from-scratch" `Quick
      test_init_matches_scratch;
    Alcotest.test_case "init computes each evidence bound once" `Quick
      test_init_shares_evidence_bounds;
    Alcotest.test_case "Set_recovery_bound invalidates nothing" `Quick
      test_set_r_cone;
    Alcotest.test_case "flow retune hits evidence bounds, misses reserves" `Quick
      test_flow_retune_cone;
    Alcotest.test_case "link retune recomputes evidence bounds" `Quick
      test_link_retune_cone;
    Alcotest.test_case "undoing an edit misses in no memo family" `Quick
      test_undone_edit_hits;
    Alcotest.test_case "retune to the current size misses nowhere" `Quick
      test_no_op_retune_hits;
    Alcotest.test_case "invalid edit leaves state unchanged" `Quick
      test_invalid_edit_keeps_state;
    Alcotest.test_case "a failed topology edit leaves no stale bound" `Quick
      test_failed_topology_edit_keeps_bounds;
    Alcotest.test_case "an edit past the plan-size limit is refused" `Quick
      test_plan_size_guard;
    Alcotest.test_case "edit scripts round-trip through text" `Quick
      test_parse_round_trip;
    QCheck_alcotest.to_alcotest prop_equivalence;
  ]
