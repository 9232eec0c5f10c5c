(* Unit tests for the core support modules: behaviours, the golden
   reference executor, the output metrics, and the scenario facade. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Behavior = Btr.Behavior
module Golden = Btr.Golden
module Metrics = Btr.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A 3-task chain: source 0 -> compute 1 -> sink 2. *)
let chain () =
  Graph.create ~period:(Time.ms 10)
    ~tasks:
      [
        Task.make ~id:0 ~name:"s" ~kind:Task.Source ~wcet:(Time.us 10) ~pinned:0 ();
        Task.make ~id:1 ~name:"c" ~wcet:(Time.ms 1) ();
        Task.make ~id:2 ~name:"k" ~kind:Task.Sink ~wcet:(Time.us 10) ~pinned:1 ();
      ]
    ~flows:
      [
        { Graph.flow_id = 0; producer = 0; consumer = 1; msg_size = 8; deadline = None };
        { Graph.flow_id = 1; producer = 1; consumer = 2; msg_size = 8; deadline = Some (Time.ms 9) };
      ]

(* Behavior *)

let test_default_compute_deterministic () =
  let inputs = [ { Behavior.orig_flow = 0; value = [| 1.5 |] } ] in
  let a = Behavior.default_compute 1 ~period:3 ~inputs in
  let b = Behavior.default_compute 1 ~period:3 ~inputs in
  check_bool "same inputs, same output" true (a = b);
  check_bool "different period, different output" true
    (a <> Behavior.default_compute 1 ~period:4 ~inputs);
  check_bool "different task, different output" true
    (a <> Behavior.default_compute 2 ~period:3 ~inputs)

let test_default_compute_order_insensitive () =
  let i1 = { Behavior.orig_flow = 0; value = [| 1.0 |] } in
  let i2 = { Behavior.orig_flow = 1; value = [| 2.0 |] } in
  check_bool "input order irrelevant" true
    (Behavior.default_compute 1 ~period:0 ~inputs:[ i1; i2 ]
    = Behavior.default_compute 1 ~period:0 ~inputs:[ i2; i1 ])

let test_default_compute_silent_without_inputs () =
  check_bool "no inputs, no output" true
    (Behavior.default_compute 1 ~period:0 ~inputs:[] = None)

let test_value_digest () =
  check_bool "digest deterministic" true
    (Int64.equal (Behavior.value_digest [| 1.0; 2.0 |]) (Behavior.value_digest [| 1.0; 2.0 |]));
  check_bool "digest discriminates values" false
    (Int64.equal (Behavior.value_digest [| 1.0 |]) (Behavior.value_digest [| 1.0000001 |]));
  check_bool "digest discriminates arity" false
    (Int64.equal (Behavior.value_digest [| 1.0 |]) (Behavior.value_digest [| 1.0; 1.0 |]))

(* The digest of a value is the FNV-1a of its "%h;" rendering; replica
   comparison, golden outputs and the baselines' quorum order all rest
   on it, so it is pinned. *)
let test_value_digest_pinned () =
  Alcotest.(check string) "[|1.0|] digests \"0x1p+0;\"" "cee75448016fd014"
    (Printf.sprintf "%016Lx" (Behavior.value_digest [| 1.0 |]))

(* The reference the streamed digest must equal, byte for byte: FNV-1a
   over the "%h;" rendering of every element. *)
let reference_digest v =
  Fnv.hash64 (String.concat "" (Array.to_list (Array.map (Printf.sprintf "%h;") v)))

let special_floats =
  List.map Int64.float_of_bits
    [
      0L;
      Int64.min_int (* -0 *);
      1L (* smallest subnormal *);
      0x000F_FFFF_FFFF_FFFFL (* largest subnormal *);
      0x8000_0000_0000_0001L;
      0x8008_0000_0000_0000L;
      0x0010_0000_0000_0000L (* min_float *);
      0x7FEF_FFFF_FFFF_FFFFL (* max_float *);
      0xFFEF_FFFF_FFFF_FFFFL;
      0x7FF0_0000_0000_0000L (* infinity *);
      0xFFF0_0000_0000_0000L;
      0x7FF0_0000_0000_0001L (* NaN payloads, both signs *);
      0x7FF8_0000_0000_0000L;
      0x7FFF_FFFF_FFFF_FFFFL;
      0xFFF0_0000_0000_0001L;
      0xFFF8_0000_0000_0000L;
      0xFFFF_FFFF_FFFF_FFFFL;
    ]
  @ [ 1.0; -1.0; 0.5; 3.0; 1000.0; 1e-300; nan; Float.pi ]

let gen_float =
  let open QCheck.Gen in
  let bits hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo) in
  let word = int_bound 0xFFFF_FFFF in
  frequency
    [
      (* any bit pattern: every exponent, NaN payloads and subnormals *)
      (4, map2 (fun hi lo -> Int64.float_of_bits (bits hi lo)) word word);
      (* fractions with trailing zero nibbles, subnormal and extreme
         exponents included *)
      ( 3,
        map3
          (fun sign exp (nibbles, top) ->
            let frac = (top land ((1 lsl (4 * nibbles)) - 1)) lsl (4 * (13 - nibbles)) in
            Int64.float_of_bits
              (Int64.logor
                 (Int64.shift_left (Int64.of_int ((sign lsl 11) lor exp)) 52)
                 (Int64.of_int frac)))
          (int_bound 1)
          (oneof [ int_bound 0x7FF; oneofl [ 0; 1; 0x7FE; 0x7FF; 1023 ] ])
          (pair (int_bound 13) (map2 (fun hi lo -> ((hi land 0xF_FFFF) lsl 32) lor lo) word word)) );
      (* values the workloads produce *)
      (2, map (fun i -> float_of_int i /. 1_000.0) (int_range (-1_000_000) 1_000_000));
      (1, oneofl special_floats);
    ]

let prop_value_digest_matches_rendering =
  QCheck.Test.make ~name:"value_digest is FNV-1a over the %h; rendering" ~count:100_000
    (QCheck.make
       ~print:(fun v ->
         String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") v)))
       QCheck.Gen.(array_size (int_bound 4) gen_float))
    (fun v -> Int64.equal (Behavior.value_digest v) (reference_digest v))

let test_value_digest_special () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "%h (bits %016Lx)" x (Int64.bits_of_float x))
        (Fnv.to_hex (reference_digest [| x |]))
        (Fnv.to_hex (Behavior.value_digest [| x |])))
    special_floats;
  check_bool "empty array digests the empty string" true
    (Int64.equal (Behavior.value_digest [||]) (Fnv.hash64 ""))

let test_equal_value () =
  check_bool "equal" true (Behavior.equal_value [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  check_bool "tolerant to 1e-12" true (Behavior.equal_value [| 1.0 |] [| 1.0 +. 1e-12 |]);
  check_bool "length mismatch" false (Behavior.equal_value [| 1.0 |] [| 1.0; 2.0 |]);
  check_bool "value mismatch" false (Behavior.equal_value [| 1.0 |] [| 1.1 |])

let test_behavior_table () =
  let g = chain () in
  let marker ~period:_ ~inputs:_ = Some [| 99.0 |] in
  let t = Behavior.table g ~overrides:[ (1, marker) ] in
  check_bool "override wins" true
    (Behavior.find t 1 ~period:0 ~inputs:[] = Some [| 99.0 |]);
  check_bool "source default is counter" true
    (Behavior.find t 0 ~period:5 ~inputs:[] = Some [| 0.0; 5.0 |])

(* Golden *)

let test_golden_chain () =
  let g = chain () in
  let table = Behavior.table g ~overrides:[] in
  let gold = Golden.create g table in
  check_bool "unrecorded source has no value" true
    (Golden.value gold ~task:0 ~period:0 = None);
  Golden.note_source gold ~task:0 ~period:0 [| 7.0 |];
  (match Golden.value gold ~task:1 ~period:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "compute value expected once source recorded");
  check_bool "flow value = producer value" true
    (Golden.flow_value gold ~flow:1 ~period:0 = Golden.value gold ~task:1 ~period:0);
  check_bool "digest matches value" true
    (match Golden.value gold ~task:1 ~period:0, Golden.digest gold ~task:1 ~period:0 with
    | Some v, Some d -> Int64.equal (Behavior.value_digest v) d
    | _ -> false)

let test_golden_first_write_wins () =
  let g = chain () in
  let gold = Golden.create g (Behavior.table g ~overrides:[]) in
  Golden.note_source gold ~task:0 ~period:0 [| 1.0 |];
  Golden.note_source gold ~task:0 ~period:0 [| 2.0 |];
  check_bool "first write wins" true
    (Golden.value gold ~task:0 ~period:0 = Some [| 1.0 |])

let test_golden_missing_input_propagates () =
  let g = chain () in
  let gold = Golden.create g (Behavior.table g ~overrides:[]) in
  (* Source never fires in period 3: compute has no inputs -> None. *)
  check_bool "starved compute has no golden value" true
    (Golden.value gold ~task:1 ~period:3 = None)

(* Metrics *)

let mk_metrics () =
  let g = chain () in
  let gold = Golden.create g (Behavior.table g ~overrides:[]) in
  (Metrics.create g, gold, g)

let expected_value gold period =
  Golden.note_source gold ~task:0 ~period [| float_of_int period |];
  Option.get (Golden.flow_value gold ~flow:1 ~period)

let test_metrics_statuses () =
  let m, gold, _ = mk_metrics () in
  (* p0 correct, p1 wrong, p2 missing, p3 late, p4 shed *)
  let v0 = expected_value gold 0 in
  Metrics.record_delivery m ~orig_flow:1 ~period:0 ~value:v0 ~arrived:(Time.ms 5) ~lane:0;
  let _ = expected_value gold 1 in
  Metrics.record_delivery m ~orig_flow:1 ~period:1 ~value:[| 1234.0 |]
    ~arrived:(Time.ms 15) ~lane:0;
  let _ = expected_value gold 2 in
  let v3 = expected_value gold 3 in
  Metrics.record_delivery m ~orig_flow:1 ~period:3 ~value:v3
    ~arrived:(Time.add (Time.ms 30) (Time.ms 9 + 1)) ~lane:1;
  let _ = expected_value gold 4 in
  List.iter
    (fun p ->
      Metrics.finalize_period m ~golden:gold ~period:p
        ~shed:(if p = 4 then [ 1 ] else []))
    [ 0; 1; 2; 3; 4 ];
  let st p = Option.get (Metrics.status m ~orig_flow:1 ~period:p) in
  check_bool "p0 correct" true (st 0 = Metrics.Correct);
  check_bool "p1 wrong" true (st 1 = Metrics.Wrong);
  check_bool "p2 missing" true (st 2 = Metrics.Missing);
  check_bool "p3 late" true (st 3 = Metrics.Late);
  check_bool "p4 shed" true (st 4 = Metrics.Shed);
  check_int "five periods" 5 (Metrics.periods_finalized m);
  (* Aggregates: 1 correct out of 4 non-shed; 2 deadline misses. *)
  Alcotest.(check (float 1e-9)) "correct fraction" 0.25 (Metrics.correct_fraction m);
  Alcotest.(check (float 1e-9)) "miss fraction" 0.5 (Metrics.deadline_miss_fraction m);
  check_int "bad periods x period" (Time.ms 30) (Metrics.incorrect_time m);
  check_bool "lane counts" true (Metrics.lanes_used m ~orig_flow:1 = [ (0, 2); (1, 1) ])

let test_metrics_vacuous_correct () =
  let m, gold, _ = mk_metrics () in
  (* Nothing expected (source silent) and nothing delivered: Correct. *)
  Metrics.finalize_period m ~golden:gold ~period:0 ~shed:[];
  check_bool "vacuously correct" true
    (Metrics.status m ~orig_flow:1 ~period:0 = Some Metrics.Correct)

let test_metrics_unexpected_delivery_is_wrong () =
  let m, gold, _ = mk_metrics () in
  Metrics.record_delivery m ~orig_flow:1 ~period:0 ~value:[| 3.0 |]
    ~arrived:(Time.ms 2) ~lane:0;
  Metrics.finalize_period m ~golden:gold ~period:0 ~shed:[];
  check_bool "acting with no golden value is wrong" true
    (Metrics.status m ~orig_flow:1 ~period:0 = Some Metrics.Wrong)

let test_metrics_recovery_windows () =
  let m, gold, _ = mk_metrics () in
  Metrics.record_injection m ~at:(Time.ms 10) ~node:5 ~what:"corrupt";
  (* periods 1-2 bad, 3+ good. *)
  for p = 0 to 5 do
    let v = expected_value gold p in
    let delivered = if p = 1 || p = 2 then [| -1.0 |] else v in
    Metrics.record_delivery m ~orig_flow:1 ~period:p ~value:delivered
      ~arrived:(Time.add (Time.mul (Time.ms 10) p) (Time.ms 5)) ~lane:0;
    Metrics.finalize_period m ~golden:gold ~period:p ~shed:[]
  done;
  (match Metrics.recovery_times m with
  | [ r ] -> check_int "recovery ends with last bad period" (Time.ms 20) r
  | l -> Alcotest.failf "expected 1 recovery, got %d" (List.length l));
  check_int "incorrect time = 2 periods" (Time.ms 20) (Metrics.incorrect_time m)

let test_metrics_protected_scoping () =
  let g = chain () in
  let gold = Golden.create g (Behavior.table g ~overrides:[]) in
  let m = Metrics.create ~protected_flows:[] g in
  Metrics.record_injection m ~at:Time.zero ~node:0 ~what:"corrupt";
  let _ = expected_value gold 0 in
  Metrics.finalize_period m ~golden:gold ~period:0 ~shed:[];
  (* flow 1 is Missing, but it is not protected: no incorrect time. *)
  check_int "unprotected misses don't count" 0 (Metrics.incorrect_time m);
  check_bool "recovery zero" true (Metrics.recovery_times m = [ Time.zero ])

(* Scenario *)

let test_scenario_defaults () =
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
      ~topology:
        (Btr_net.Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f:1 ~recovery_bound:(Time.ms 200) ()
  in
  check_int "default horizon = 100 periods" (Time.sec 2) s.Btr.Scenario.horizon;
  check_int "default seed" 1 s.Btr.Scenario.seed

let test_scenario_plan_only () =
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.scada ~n_nodes:5)
      ~topology:
        (Btr_net.Topology.fully_connected ~n:5 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f:1 ~recovery_bound:(Time.ms 300) ()
  in
  match Btr.Scenario.plan s with
  | Ok strategy ->
    check_bool "scada admits" true
      (Btr_check.Check.passed (Btr_check.Check.verify strategy))
  | Error e -> Alcotest.failf "plan: %a" Btr_planner.Planner.pp_error e

let test_scenario_tune_applies () =
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
      ~topology:
        (Btr_net.Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f:1 ~recovery_bound:(Time.ms 200)
      ~tune:(fun c -> { c with Btr_planner.Planner.degree = 3 })
      ()
  in
  match Btr.Scenario.plan s with
  | Ok strategy ->
    check_int "tuned degree stored" 3 (Btr_planner.Planner.config strategy).Btr_planner.Planner.degree
  | Error e -> Alcotest.failf "plan: %a" Btr_planner.Planner.pp_error e

(* A mode that sheds outputs: the random workload of seed 3 on a
   4-node clique, node 1 crashing at 100 ms. Shed events are stamped
   with the end of their period, so they must be emitted at that
   boundary, never mid-period, or the trace's clock goes backwards. *)
let test_scenario_shed_events_in_order () =
  let obs = Btr_obs.Obs.with_memory () in
  let s =
    Btr.Scenario.spec
      ~workload:
        (Btr_workload.Generators.random_layered ~rng:(Rng.create 3) ~n_nodes:4
           ~layers:3 ~width:3 ())
      ~topology:
        (Btr_net.Topology.fully_connected ~n:4 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f:1 ~recovery_bound:(Time.ms 300)
      ~script:(Btr_fault.Fault.single ~at:(Time.ms 100) ~node:1 Btr_fault.Fault.Crash)
      ~horizon:(Time.ms 1000) ~seed:3 ~obs ()
  in
  (match Btr.Scenario.run s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "run: %a" Btr_planner.Planner.pp_error e);
  let events = Btr_obs.Obs.events obs in
  check_bool "some output is shed" true
    (List.exists
       (fun (e : Btr_obs.Obs.event) ->
         match e.payload with Btr_obs.Obs.Shed _ -> true | _ -> false)
       events);
  ignore
    (List.fold_left
       (fun last (e : Btr_obs.Obs.event) ->
         if e.at < last then
           Alcotest.failf "event %d at %d follows one at %d" e.seq e.at last;
         e.at)
       0 events)

(* Pinned traces: the FNV-1a digest of a run's JSONL trace lines (the
   bytes `btr --trace` writes). Any change to what a deployment does or
   reports shows here; a deliberate one re-pins the digest. *)
let trace_digest spec_of =
  let obs = Btr_obs.Obs.with_memory () in
  (match Btr.Scenario.run (spec_of obs) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "run: %a" Btr_planner.Planner.pp_error e);
  let events = Btr_obs.Obs.events obs in
  ( events,
    Fnv.to_hex (Fnv.hash64_lines (List.map Btr_obs.Obs.event_to_json events)) )

let test_demo_trace_pinned () =
  let events, digest =
    trace_digest (fun obs -> Btr.Scenario.avionics_demo ~obs ())
  in
  check_int "demo trace events" 5323 (List.length events);
  Alcotest.(check string) "demo trace digest" "b578a72a3d65d688" digest

(* Avionics on a 6-node clique, node 2 crashing at 250 ms (`btr run
   --script crash@2@250000`): node 4 ships task 14's state to node 1,
   so the trace pins the state-migration path the demo never takes. *)
let test_migration_trace_pinned () =
  let events, digest =
    trace_digest (fun obs ->
        Btr.Scenario.spec
          ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
          ~topology:
            (Btr_net.Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
               ~latency:(Time.us 50))
          ~f:1 ~recovery_bound:(Time.ms 200)
          ~script:(Btr_fault.Fault.single ~at:(Time.ms 250) ~node:2 Btr_fault.Fault.Crash)
          ~horizon:(Time.sec 1) ~obs ())
  in
  check_bool "a 4096-byte state send" true
    (List.exists
       (fun (e : Btr_obs.Obs.event) ->
         e.payload
         = Btr_obs.Obs.Msg_sent { src = 4; dst = 1; cls = "control"; bytes = 4096 })
       events);
  check_int "crash trace events" 5356 (List.length events);
  Alcotest.(check string) "crash trace digest" "2a3659385319ab78" digest

(* Minor words allocated per engine event by the avionics demo trial
   (deploy and simulate, null sink). Minor words are counted exactly at
   each allocation, so the figure repeats run to run; the few tables
   large enough to go straight to the major heap are left out. The
   ceiling is the measured value (86.0; 149.0 before the runtime's
   allocation diet) plus 10%: a change that brings back per-event
   garbage fails here before it shows in the campaign benchmark. *)
let test_demo_words_per_event () =
  let s = Btr.Scenario.avionics_demo () in
  match Btr.Scenario.plan s with
  | Error e -> Alcotest.failf "plan: %a" Btr_planner.Planner.pp_error e
  | Ok strategy ->
    let before = Gc.minor_words () in
    let rt = Btr.Scenario.deploy s strategy in
    Btr.Runtime.run rt ~horizon:s.Btr.Scenario.horizon;
    let events = Btr_sim.Engine.events_processed (Btr.Runtime.engine rt) in
    let w = (Gc.minor_words () -. before) /. float_of_int events in
    if w > 94.6 then
      Alcotest.failf "demo trial allocates %.1f words per engine event (ceiling 94.6)" w

let suite =
  [
    ("behaviour: deterministic", `Quick, test_default_compute_deterministic);
    ("behaviour: input-order insensitive", `Quick, test_default_compute_order_insensitive);
    ("behaviour: silent without inputs", `Quick, test_default_compute_silent_without_inputs);
    ("behaviour: value digests", `Quick, test_value_digest);
    ("behaviour: value equality", `Quick, test_equal_value);
    ("behaviour: table overrides", `Quick, test_behavior_table);
    ("golden: chain evaluation", `Quick, test_golden_chain);
    ("golden: first source write wins", `Quick, test_golden_first_write_wins);
    ("golden: missing input propagates", `Quick, test_golden_missing_input_propagates);
    ("metrics: all five statuses", `Quick, test_metrics_statuses);
    ("metrics: vacuous periods are correct", `Quick, test_metrics_vacuous_correct);
    ("metrics: unexpected delivery is wrong", `Quick, test_metrics_unexpected_delivery_is_wrong);
    ("metrics: recovery windows", `Quick, test_metrics_recovery_windows);
    ("metrics: protected-flow scoping", `Quick, test_metrics_protected_scoping);
    ("scenario: defaults", `Quick, test_scenario_defaults);
    ("scenario: plan only", `Quick, test_scenario_plan_only);
    ("scenario: tune applies", `Quick, test_scenario_tune_applies);
    ("scenario: shed events keep the clock monotone", `Quick, test_scenario_shed_events_in_order);
    ("scenario: demo trace is pinned", `Quick, test_demo_trace_pinned);
    ("scenario: state-migration trace is pinned", `Quick, test_migration_trace_pinned);
    ("behaviour: value digest reference value", `Quick, test_value_digest_pinned);
    ("behaviour: value digest of special floats", `Quick, test_value_digest_special);
    QCheck_alcotest.to_alcotest prop_value_digest_matches_rendering;
    ("scenario: demo trial words per engine event", `Quick, test_demo_words_per_event);
  ]
