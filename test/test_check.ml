(* Static verifier: a pristine strategy passes; for every diagnostic
   code there is a minimal corrupted view that makes it fire; and the
   headline property — the verifier accepting a strategy implies
   simulated recovery stays within R. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Planner = Btr_planner.Planner
module Schedule = Btr_sched.Schedule
module Augment = Btr_planner.Augment
module Check = Btr_check.Check
module Fault = Btr_fault.Fault

let check_bool = Alcotest.(check bool)

let clique n =
  Topology.fully_connected ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50)

let strategy =
  lazy
    (let g = Generators.avionics ~n_nodes:6 in
     let cfg = Planner.default_config ~f:1 ~recovery_bound:(Time.ms 200) in
     match Planner.build cfg g (clique 6) with
     | Ok s -> s
     | Error e -> Alcotest.failf "planner failed: %a" Planner.pp_error e)

let base_view () = Check.view_of_strategy (Lazy.force strategy)

let has code report =
  List.exists
    (fun (d : Check.diagnostic) -> d.code = code)
    report.Check.diagnostics

(* Corrupt the view, verify, and require [code] among the diagnostics
   (an Error code must also fail the report). [strikes] is the runtime
   watchdog declaration threshold seen by the selective-omission check. *)
let fires ?strikes code corrupt () =
  let report = Check.verify_view ?strikes (corrupt (base_view ())) in
  check_bool (Check.code_id code ^ " fires") true (has code report);
  match Check.severity_of code with
  | Check.Error ->
    check_bool (Check.code_id code ^ " fails the report") false
      (Check.passed report)
  | Check.Warning -> ()

let with_shares v s =
  { v with Check.config = { v.Check.config with Planner.shares = Some s } }

let test_pristine_passes () =
  let report = Check.verify_view (base_view ()) in
  check_bool "avionics strategy passes" true (Check.passed report);
  check_bool "no error diagnostics" true (Check.errors report = [])

let test_json_shape () =
  let report = Check.verify_view (base_view ()) in
  let json = Check.report_to_json report in
  check_bool "json verdict" true
    (String.length json > 0 && String.sub json 0 18 = "{\"verdict\":\"pass\",")

(* BTR-E101: clique links have 2 members; 2 x (0.5 + 0.2) > 1. *)
let e101 =
  fires Check.Link_oversubscribed (fun v ->
      with_shares v { Net.data_frac = 0.5; control_frac = 0.2 })

(* BTR-E102: a data reserve of ~1 B/s cannot carry any flow. *)
let e102 =
  fires Check.Data_reserve_exceeded (fun v ->
      with_shares v { Net.data_frac = 1e-9; control_frac = 0.05 })

(* BTR-W103: a control reserve of ~1 B/s takes 160s per evidence record. *)
let w103 =
  fires Check.Control_reserve_tight (fun v ->
      with_shares v { Net.data_frac = 0.4; control_frac = 1e-9 })

(* Corrupt the view and require the one BTR-E203 diagnostic the
   corruption names, and a failed report. *)
let fires_e203 corrupt () =
  let v, message = corrupt (base_view ()) in
  let report = Check.verify_view v in
  let e203 =
    List.filter_map
      (fun (d : Check.diagnostic) ->
        if d.code = Check.Schedule_invalid then Some d.message else None)
      report.Check.diagnostics
  in
  Alcotest.(check (list string)) "BTR-E203 messages" [ message ] e203;
  check_bool "BTR-E203 fails the report" false (Check.passed report)

let with_fault_free v f =
  {
    v with
    Check.plans =
      List.map
        (fun (p : Planner.plan) -> if p.faulty = [] then f p else p)
        v.Check.plans;
  }

let schedule_exn g ~place v =
  let xfer =
    Net.route_transfer_time
      (Topology.router v.Check.topology ~usable:(fun _ -> true))
      (Net.shares_for v.Check.topology v.Check.config.Planner.shares)
      ~cls:Net.Data
  in
  match Schedule.list_schedule g ~place ~xfer with
  | Ok t -> t
  | Error f -> Alcotest.failf "table: %a" Schedule.pp_failure f

(* BTR-E203: the fault-free table leaves its last task unscheduled.
   Every other slot stays where the planner put it, so the one problem
   is the task without a slot. With the slot clauses bounding each
   node's demand by the period, a missing slot is the one way a table
   can lose work. *)
let e203_unscheduled_task =
  fires_e203 (fun v ->
      let p = List.find (fun (p : Planner.plan) -> p.faulty = []) v.Check.plans in
      let g = p.aug.Augment.graph in
      let last = List.nth (Graph.topo_order g) (Graph.task_count g - 1) in
      let partial = Graph.restrict g ~keep:(fun x -> x.Task.id <> last) in
      let place tid = Option.get (Schedule.node_of p.schedule tid) in
      let schedule = schedule_exn partial ~place v in
      ( with_fault_free v (fun p -> { p with schedule }),
        Printf.sprintf "task %d not scheduled" last ))

(* BTR-E203: a 4ms task feeding a sink flow with a 2ms deadline. The
   table is built with the deadline lifted and checked against the
   graph that has it: the sink completes at 5ms or later, past 2ms. *)
let e203_deadline_missed =
  fires_e203 (fun v ->
      let graph deadline =
        let g =
          Graph.create_relaxed ~period:(Time.ms 10)
            ~tasks:
              [
                Task.make ~id:0 ~name:"a" ~wcet:(Time.ms 4) ();
                Task.make ~id:1 ~name:"b" ~wcet:(Time.ms 4) ();
                Task.make ~id:2 ~name:"s" ~kind:Task.Sink ~wcet:(Time.ms 1)
                  ~pinned:0 ();
              ]
            ~flows:
              [
                { Graph.flow_id = 0; producer = 1; consumer = 2; msg_size = 8; deadline };
              ]
        in
        Augment.augment g ~nodes:[ 0; 1; 2; 3; 4; 5 ] ~degree:1
          ~protect_level:Task.Safety_critical
      in
      let loose = graph None in
      let place tid =
        match (Graph.task loose.Augment.graph tid).Task.pinned with
        | Some n -> n
        | None -> if tid = 0 then 1 else 0
      in
      let schedule = schedule_exn loose.Augment.graph ~place v in
      let aug = graph (Some (Time.ms 2)) in
      ( with_fault_free v (fun p -> { p with aug; schedule }),
        "flow 0: deadline missed" ))

(* BTR-E203: the fault-free mode handed a degraded mode's table. *)
let e203 =
  fires Check.Schedule_invalid (fun v ->
      let donor =
        List.find (fun (p : Planner.plan) -> p.faulty <> []) v.Check.plans
      in
      {
        v with
        Check.plans =
          List.map
            (fun (p : Planner.plan) ->
              if p.faulty = [] then { p with schedule = donor.schedule } else p)
            v.Check.plans;
      })

(* BTR-E301: the plan for fault set {5} deleted. *)
let e301 =
  fires Check.Mode_missing (fun v ->
      {
        v with
        Check.plans =
          List.filter (fun (p : Planner.plan) -> p.faulty <> [ 5 ]) v.Check.plans;
      })

(* BTR-E302: the transition {} -> {3} deleted. *)
let drop_transition_to_3 v =
  {
    v with
    Check.transitions =
      List.filter
        (fun (tr : Planner.transition) ->
          not (tr.from_faulty = [] && tr.new_fault = 3))
        v.Check.transitions;
  }

let e302 = fires Check.Transition_missing drop_transition_to_3

(* BTR-E303: R shrunk below every transition's bound. *)
let e303 =
  fires Check.Recovery_bound_exceeded (fun v ->
      {
        v with
        Check.config = { v.Check.config with Planner.recovery_bound = Time.ms 1 };
      })

(* BTR-W304: a stored bound forged down to 1µs. *)
let w304 =
  fires Check.Recovery_bound_understated (fun v ->
      {
        v with
        Check.transitions =
          List.map
            (fun (tr : Planner.transition) ->
              if tr.from_faulty = [] && tr.new_fault = 3 then
                { tr with recovery_bound = Time.us 1 }
              else tr)
            v.Check.transitions;
      })

let with_recovery_bound v r =
  { v with Check.config = { v.Check.config with Planner.recovery_bound = r } }

(* BTR-E305: at R = 60ms the strike path misses its deadline for every
   selective-omission cut, and sender 0's minimal cut is a single
   watcher ({2}), so corroboration (which needs f+1 = 2 distinct
   watchers) cannot save it either. R = 60ms is chosen so that E303
   does {e not} also fire: the transitions themselves still fit. *)
let e305 =
  fires Check.Selective_omission_undetectable (fun v ->
      with_recovery_bound v (Time.ms 60))

(* BTR-W306: with a 2-strike watchdog at R = 80ms, single-watchdog
   declaration takes 2 periods + slack > R, but the senders whose
   minimal cut spans >= 2 watchers are still caught in time through
   first-sweep corroboration. *)
let w306 =
  fires ~strikes:2 Check.Omission_needs_corroboration (fun v ->
      with_recovery_bound v (Time.ms 80))

(* BTR-E401: a transition retargeted at a mode nobody planned. *)
let e401 =
  fires Check.Transition_target_unknown (fun v ->
      {
        v with
        Check.transitions =
          List.map
            (fun (tr : Planner.transition) ->
              if tr.from_faulty = [] && tr.new_fault = 3 then
                { tr with to_faulty = [ 9 ]; new_fault = 9 }
              else tr)
            v.Check.transitions;
      })

(* BTR-E402: an extra plan for {4,5} that no transition reaches. *)
let e402 =
  fires Check.Orphan_mode (fun v ->
      let donor =
        List.find (fun (p : Planner.plan) -> p.faulty = [ 4 ]) v.Check.plans
      in
      { v with Check.plans = v.Check.plans @ [ { donor with faulty = [ 4; 5 ] } ] })

(* BTR-E403: the clique's plans judged against a star — when the hub is
   the faulty node, the survivors have no route left. *)
let e403 =
  fires Check.Evidence_unroutable (fun v ->
      {
        v with
        Check.topology =
          Topology.star ~n:6 ~hub:0 ~bandwidth_bps:10_000_000
            ~latency:(Time.us 50);
      })

(* BTR-W404: a control reserve of 100 B/s takes 1.6s per evidence
   record hop, dwarfing the 200ms budget. *)
let w404 =
  fires Check.Evidence_budget_dominant (fun v ->
      with_shares v { Net.data_frac = 0.4; control_frac = 0.00001 })

let test_code_id_round_trip () =
  (* code_of_id is a total inverse of code_id over all_codes — stable
     ids in artifacts must resolve back to the code that produced them. *)
  Alcotest.(check int) "fourteen codes" 14 (List.length Check.all_codes);
  List.iter
    (fun c ->
      check_bool (Check.code_id c ^ " round-trips") true
        (Check.code_of_id (Check.code_id c) = Some c))
    Check.all_codes;
  check_bool "unknown id rejected" true (Check.code_of_id "BTR-E999" = None);
  check_bool "retired ids rejected" true
    (Check.code_of_id "BTR-E201" = None && Check.code_of_id "BTR-W202" = None);
  check_bool "empty id rejected" true (Check.code_of_id "" = None)

let test_json_order_stable () =
  (* report_to_json sorts diagnostics (severity, code, locus, message),
     so two reports carrying the same multiset serialize identically
     whatever order verification emitted them in. *)
  let report = Check.verify_view (with_shares (base_view ())
      { Net.data_frac = 0.5; control_frac = 0.2 }) in
  check_bool "fixture has several diagnostics" true
    (List.length report.Check.diagnostics > 1);
  let shuffled =
    { report with Check.diagnostics = List.rev report.Check.diagnostics }
  in
  Alcotest.(check string) "serialization is order-insensitive"
    (Check.report_to_json report)
    (Check.report_to_json shuffled)

let test_scenario_rejects () =
  (* The Scenario pipeline must surface verification failures as
     Planner.Rejected instead of deploying. An impossible R triggers it
     end to end. *)
  let spec =
    Btr.Scenario.spec
      ~workload:(Generators.avionics ~n_nodes:6)
      ~topology:(clique 6) ~f:1 ~recovery_bound:(Time.us 10) ()
  in
  match Btr.Scenario.plan spec with
  | Error (Planner.Rejected { diagnostics }) ->
    check_bool "diagnostics carried" true (diagnostics <> []);
    check_bool "codes are stable ids" true
      (List.for_all
         (fun (code, _) -> Check.code_of_id code <> None)
         diagnostics)
  | Error e -> Alcotest.failf "expected Rejected, got %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "expected rejection for R = 10us"

let test_every_code_covered () =
  (* Meta-test: the corpus above exercises every declared code. *)
  let covered =
    [
      Check.Link_oversubscribed;
      Check.Data_reserve_exceeded;
      Check.Control_reserve_tight;
      Check.Schedule_invalid;
      Check.Mode_missing;
      Check.Transition_missing;
      Check.Recovery_bound_exceeded;
      Check.Recovery_bound_understated;
      Check.Selective_omission_undetectable;
      Check.Omission_needs_corroboration;
      Check.Transition_target_unknown;
      Check.Orphan_mode;
      Check.Evidence_unroutable;
      Check.Evidence_budget_dominant;
    ]
  in
  check_bool "corpus covers all_codes" true
    (List.for_all (fun c -> List.mem c covered) Check.all_codes
    && List.length covered = List.length Check.all_codes)

(* Every protected sink output Correct (or deliberately Shed) in every
   finalized period — the fault-free feasibility the paper's recovery
   promise presumes. Some deep random workloads cannot deliver their
   outputs within a period even with no fault injected; recovery is
   meaningless for those deployments, so the property skips them. *)
let deployment_clean workload rt =
  let m = Btr.Runtime.metrics rt in
  let prot = Btr.Metrics.protected_flows m in
  List.for_all
    (fun (fl : Graph.flow) ->
      (not (List.mem fl.flow_id prot))
      || List.for_all
           (fun p ->
             match Btr.Metrics.status m ~orig_flow:fl.flow_id ~period:p with
             | Some (Btr.Metrics.Correct | Btr.Metrics.Shed) | None -> true
             | Some _ -> false)
           (List.init 60 Fun.id))
    (Graph.sink_flows workload)

(* The tentpole property: acceptance is meaningful. If Scenario.plan
   (which runs the verifier) accepts a random strategy whose fault-free
   deployment delivers its outputs, then simulating a crash recovers
   within R. *)
let prop_accept_implies_bounded_recovery =
  QCheck.Test.make ~name:"verifier accepts => simulated recovery <= R"
    ~count:100
    QCheck.(pair (int_range 1 10_000) (int_bound 3))
    (fun (seed, node) ->
      let workload =
        Generators.random_layered ~rng:(Rng.create seed) ~n_nodes:4 ~layers:3
          ~width:3 ()
      in
      let r = Time.ms 300 in
      let spec ?script () =
        Btr.Scenario.spec ~workload ~topology:(clique 4) ~f:1 ~recovery_bound:r
          ?script ~horizon:(Time.sec 1) ~seed ()
      in
      match Btr.Scenario.plan (spec ()) with
      | Error _ -> true (* not accepted: property is vacuous *)
      | Ok _ -> (
        match Btr.Scenario.run (spec ()) with
        | Error _ -> false (* accepted strategies must deploy *)
        | Ok rt0 when not (deployment_clean workload rt0) -> true
        | Ok _ -> (
          match
            Btr.Scenario.run
              (spec
                 ~script:(Fault.single ~at:(Time.ms 110) ~node Fault.Crash)
                 ())
          with
          | Error _ -> false
          | Ok rt ->
            List.for_all
              (fun rec_t -> Time.compare rec_t r <= 0)
              (Btr.Metrics.recovery_times (Btr.Runtime.metrics rt)))))

(* KNOWN DIVERGENCE, pinned. The acceptance property above skips
   deployments whose fault-free run is not clean, and at the current
   QCHECK_SEED the draw below never comes up — but it is a real
   counterexample to "verifier accepts => simulated recovery <= R":
   the verifier accepts workload seed 41 at R = 300ms, yet simulating
   node 2's crash at 110ms measures an 890ms recovery. This test pins
   the divergent measurement so the eventual checker/simulator fix
   flips exactly the last assertion (and deletes this paragraph)
   instead of surfacing as a mystery property failure. *)
let test_pinned_divergence_seed41 () =
  let seed = 41 in
  let workload =
    Generators.random_layered ~rng:(Rng.create seed) ~n_nodes:4 ~layers:3
      ~width:3 ()
  in
  let r = Time.ms 300 in
  let spec ?script () =
    Btr.Scenario.spec ~workload ~topology:(clique 4) ~f:1 ~recovery_bound:r
      ?script ~horizon:(Time.sec 1) ~seed ()
  in
  check_bool "verifier accepts the seed-41 deployment" true
    (Result.is_ok (Btr.Scenario.plan (spec ())));
  (match
     Btr.Scenario.run
       (spec ~script:(Fault.single ~at:(Time.ms 110) ~node:2 Fault.Crash) ())
   with
  | Error e -> Alcotest.failf "faulted run failed to deploy: %a" Planner.pp_error e
  | Ok rt ->
    let worst =
      List.fold_left Time.max Time.zero
        (Btr.Metrics.recovery_times (Btr.Runtime.metrics rt))
    in
    Alcotest.(check int)
      "pinned divergent recovery (us)" 890_000 worst;
    (* Flip this assertion to [<= 0] once the divergence is fixed. *)
    check_bool "simulated recovery exceeds accepted R (known divergence)"
      true
      (Time.compare worst r > 0))

(* The omission-shaped generalization: acceptance must also survive the
   adversary the old detector starved on. Draw a sender and a random
   nonempty subset of the other nodes as omission targets; accepted
   strategies must keep recovery within R against that schedule. *)
let prop_accept_implies_bounded_recovery_omitto =
  QCheck.Test.make
    ~name:"verifier accepts => omit-to recovery <= R (random watcher subsets)"
    ~count:100
    QCheck.(triple (int_range 1 10_000) (int_bound 3) (int_range 1 7))
    (fun (seed, sender, mask) ->
      let workload =
        Generators.random_layered ~rng:(Rng.create seed) ~n_nodes:4 ~layers:3
          ~width:3 ()
      in
      let others = List.filter (fun x -> x <> sender) [ 0; 1; 2; 3 ] in
      let targets =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) others
      in
      let targets = if targets = [] then [ List.hd others ] else targets in
      let r = Time.ms 300 in
      let spec ?script () =
        Btr.Scenario.spec ~workload ~topology:(clique 4) ~f:1 ~recovery_bound:r
          ?script ~horizon:(Time.sec 1) ~seed ()
      in
      match Btr.Scenario.plan (spec ()) with
      | Error _ -> true (* not accepted: property is vacuous *)
      | Ok _ -> (
        match Btr.Scenario.run (spec ()) with
        | Error _ -> false
        | Ok rt0 when not (deployment_clean workload rt0) -> true
        | Ok _ -> (
          match
            Btr.Scenario.run
              (spec
                 ~script:
                   [
                     {
                       Fault.at = Time.ms 110;
                       node = sender;
                       behavior = Fault.Omit_to targets;
                     };
                   ]
                 ())
          with
          | Error _ -> false
          | Ok rt ->
            List.for_all
              (fun rec_t -> Time.compare rec_t r <= 0)
              (Btr.Metrics.recovery_times (Btr.Runtime.metrics rt)))))

(* The dual: a BTR-E305 rejection is not conservatism — in the decisive
   regime (R at most (strikes + 1) periods, so no detection path can
   possibly fit), some witness schedule genuinely violates when forced
   past the gate. Outside that regime the static bound keeps a safety
   margin of about two periods over the simulator, which is exactly
   what a verifier is for. *)
let witness_strategy_cache : (int, Btr_planner.Planner.t) Hashtbl.t =
  Hashtbl.create 8

let witness_strategy ~r_ms =
  match Hashtbl.find_opt witness_strategy_cache r_ms with
  | Some s -> s
  | None ->
    let s =
      match
        Planner.build
          (Planner.default_config ~f:1 ~recovery_bound:(Time.ms r_ms))
          (Generators.avionics ~n_nodes:6)
          (clique 6)
      with
      | Ok s -> s
      | Error e -> Alcotest.failf "planner failed: %a" Planner.pp_error e
    in
    Hashtbl.replace witness_strategy_cache r_ms s;
    s

let prop_e305_reject_implies_violating_schedule =
  QCheck.Test.make
    ~name:"E305 reject => a witness schedule violates (decisive regime)"
    ~count:40
    QCheck.(pair (int_range 1 5) (int_range 0 12))
    (fun (strikes, r_step) ->
      let period_ms = 20 in
      let r_ms =
        Stdlib.min (40 + (10 * r_step)) (period_ms * (strikes + 1))
      in
      let r = Time.ms r_ms in
      let v = Check.view_of_strategy (witness_strategy ~r_ms) in
      let wits = Check.selective_omission_witnesses ~strikes v in
      let config =
        { Btr.Runtime.default_config with Btr.Runtime.omission_strikes = strikes }
      in
      wits <> []
      && List.exists
           (fun (w : Check.omission_witness) ->
             let spec =
               Btr.Scenario.spec
                 ~workload:(Generators.avionics ~n_nodes:6)
                 ~topology:(clique 6) ~f:1 ~recovery_bound:r
                 ~script:
                   [
                     {
                       Fault.at = Time.ms 250;
                       node = w.Check.ow_sender;
                       behavior = Fault.Omit_to w.Check.ow_targets;
                     };
                   ]
                 ~horizon:(Time.sec 1) ()
             in
             match Btr.Scenario.run_unchecked ~config spec with
             | Error _ -> false
             | Ok rt ->
               List.exists
                 (fun rec_t -> Time.compare rec_t r > 0)
                 (Btr.Metrics.recovery_times (Btr.Runtime.metrics rt)))
           wits)

let suite =
  [
    ("pristine avionics strategy passes", `Quick, test_pristine_passes);
    ("report serializes to JSON", `Quick, test_json_shape);
    ("E101 link oversubscribed", `Quick, e101);
    ("E102 data reserve exceeded", `Quick, e102);
    ("W103 control reserve tight", `Quick, w103);
    ("E203 schedule invalid", `Quick, e203);
    ("E203 unscheduled task", `Quick, e203_unscheduled_task);
    ("E203 sink deadline missed", `Quick, e203_deadline_missed);
    ("E301 mode missing", `Quick, e301);
    ("E302 transition missing", `Quick, e302);
    ("E303 recovery bound exceeded", `Quick, e303);
    ("W304 recovery bound understated", `Quick, w304);
    ("E305 selective omission undetectable", `Quick, e305);
    ("W306 omission needs corroboration", `Quick, w306);
    ("E401 transition target unknown", `Quick, e401);
    ("E402 orphan mode", `Quick, e402);
    ("E403 evidence unroutable", `Quick, e403);
    ("W404 evidence budget dominant", `Quick, w404);
    ("code ids round-trip through code_of_id", `Quick, test_code_id_round_trip);
    ("JSON report order is stable", `Quick, test_json_order_stable);
    ("scenario rejects an infeasible plan", `Quick, test_scenario_rejects);
    ("corpus covers every code", `Quick, test_every_code_covered);
    ( "pinned divergence: seed 41 accepted but recovers in 890ms",
      `Quick,
      test_pinned_divergence_seed41 );
    QCheck_alcotest.to_alcotest prop_accept_implies_bounded_recovery;
    QCheck_alcotest.to_alcotest prop_accept_implies_bounded_recovery_omitto;
    QCheck_alcotest.to_alcotest prop_e305_reject_implies_violating_schedule;
  ]
