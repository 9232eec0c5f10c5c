open Btr_util
module Obs = Btr_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Registry *)

let test_registry_get_or_create () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg Obs.Net "msgs-sent" in
  let b = Obs.Registry.counter reg Obs.Net "msgs-sent" in
  Obs.Counter.incr a;
  Obs.Counter.add b 2;
  check_int "same counter behind one name" 3 (Obs.Counter.value a);
  check_str "qualified name" "net.msgs-sent" (Obs.Counter.name a);
  let g = Obs.Registry.gauge reg Obs.Sim "queue-depth" in
  Obs.Gauge.set g 7;
  Obs.Gauge.set g 4;
  check_int "gauge keeps last" 4 (Obs.Gauge.value g)

let test_registry_sorted_listing () =
  let reg = Obs.Registry.create () in
  Obs.Counter.incr (Obs.Registry.counter reg Obs.Net "b");
  Obs.Counter.incr (Obs.Registry.counter reg Obs.Detect "a");
  Alcotest.(check (list (pair string int)))
    "counters sorted by qualified name"
    [ ("detect.a", 1); ("net.b", 1) ]
    (Obs.Registry.counters reg)

let test_registry_json () =
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg Obs.Evidence "dedup-hits") 5;
  Obs.Gauge.set (Obs.Registry.gauge reg Obs.Sim "depth") 2;
  check_str "registry json"
    {|{"counters":{"evidence.dedup-hits":5},"gauges":{"sim.depth":2}}|}
    (Obs.Registry.to_json reg)

(* Contexts and sinks *)

let test_null_disabled () =
  check_bool "null disabled" false (Obs.enabled Obs.null);
  let fresh = Obs.create () in
  check_bool "fresh null-sink disabled" false (Obs.enabled fresh);
  Obs.emit fresh ~at:Time.zero Obs.Sim (Obs.Run_finished { events = 0 });
  check_int "nothing retained" 0 (List.length (Obs.events fresh))

let test_memory_ring () =
  let obs = Obs.with_memory ~capacity:4 () in
  check_bool "memory sink enabled" true (Obs.enabled obs);
  for i = 0 to 5 do
    Obs.emit obs ~at:(Time.us i) Obs.Sim (Obs.Run_finished { events = i })
  done;
  let evs = Obs.events obs in
  check_int "keeps last capacity" 4 (List.length evs);
  Alcotest.(check (list int))
    "oldest first, newest last" [ 2; 3; 4; 5 ]
    (List.map (fun (e : Obs.event) -> e.Obs.seq) evs)

let test_event_json () =
  let obs = Obs.with_memory () in
  Obs.emit obs ~at:(Time.ms 2) ~node:3 Obs.Net
    (Obs.Msg_sent { src = 3; dst = 1; cls = "data"; bytes = 64 });
  Obs.emit obs ~at:(Time.ms 3) Obs.Modeswitch
    (Obs.Mode_staged { faulty = [ 1; 4 ] });
  match Obs.events obs with
  | [ sent; staged ] ->
    check_str "msg-sent json"
      {|{"t":2000,"seq":0,"sub":"net","node":3,"ev":"msg-sent","src":3,"dst":1,"cls":"data","bytes":64}|}
      (Obs.event_to_json sent);
    check_str "node omitted when -1"
      {|{"t":3000,"seq":1,"sub":"modeswitch","ev":"mode-staged","faulty":[1,4]}|}
      (Obs.event_to_json staged)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_campaign_event_json () =
  let obs = Obs.with_memory () in
  Obs.emit obs ~at:Time.zero Obs.Campaign
    (Obs.Campaign_started { trials = 50; configs = 4 });
  Obs.emit obs ~at:Time.zero Obs.Campaign
    (Obs.Trial_verdict { trial = 7; verdict = "violation" });
  Obs.emit obs ~at:Time.zero Obs.Campaign
    (Obs.Violation_shrunk { trial = 7; events_before = 5; events_after = 1 });
  match Obs.events obs with
  | [ started; verdict; shrunk ] ->
    check_str "campaign-started json"
      {|{"t":0,"seq":0,"sub":"campaign","ev":"campaign-started","trials":50,"configs":4}|}
      (Obs.event_to_json started);
    check_str "trial-verdict json"
      {|{"t":0,"seq":1,"sub":"campaign","ev":"trial-verdict","trial":7,"verdict":"violation"}|}
      (Obs.event_to_json verdict);
    check_str "violation-shrunk json"
      {|{"t":0,"seq":2,"sub":"campaign","ev":"violation-shrunk","trial":7,"before":5,"after":1}|}
      (Obs.event_to_json shrunk)
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l)

(* End-to-end: the demo deployment's trace *)

let demo_trace seed =
  let obs = Obs.with_memory ~capacity:100_000 () in
  (match Btr.Scenario.run (Btr.Scenario.avionics_demo ~seed ~obs ()) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "demo plan rejected");
  ( String.concat "\n" (List.map Obs.event_to_json (Obs.events obs)),
    Obs.metrics_json obs )

let test_demo_trace_deterministic () =
  let trace1, metrics1 = demo_trace 1 in
  let trace2, metrics2 = demo_trace 1 in
  check_bool "same seed, byte-identical trace" true (String.equal trace1 trace2);
  check_str "same seed, identical metrics" metrics1 metrics2;
  check_bool "trace is non-trivial" true (String.length trace1 > 10_000)

let test_demo_trace_covers_subsystems () =
  let obs = Obs.with_memory ~capacity:100_000 () in
  (match Btr.Scenario.run (Btr.Scenario.avionics_demo ~obs ()) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "demo plan rejected");
  let subs =
    List.sort_uniq String.compare
      (List.map
         (fun (e : Obs.event) -> Obs.subsystem_name e.Obs.sub)
         (Obs.events obs))
  in
  List.iter
    (fun s -> check_bool ("trace has " ^ s) true (List.mem s subs))
    [ "sim"; "net"; "runtime"; "detect"; "evidence"; "modeswitch"; "fault" ]

let test_demo_counters () =
  let obs = Obs.create () in
  (* Null sink: no events, but every counter still accumulates. *)
  (match Btr.Scenario.run (Btr.Scenario.avionics_demo ~obs ()) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "demo plan rejected");
  check_int "no events recorded" 0 (List.length (Obs.events obs));
  let counters = Obs.Registry.counters (Obs.registry obs) in
  let get name = Option.value ~default:(-1) (List.assoc_opt name counters) in
  check_bool "messages flowed" true (get "net.msgs-sent" > 0);
  check_bool "evidence admitted" true (get "evidence.records-admitted" > 0);
  check_bool "verdicts counted" true (get "runtime.verdicts.correct" > 0);
  check_bool "the corrupt periods were judged wrong" true
    (get "runtime.verdicts.wrong" > 0)

let suite =
  [
    ("registry get-or-create", `Quick, test_registry_get_or_create);
    ("registry sorted listing", `Quick, test_registry_sorted_listing);
    ("registry json", `Quick, test_registry_json);
    ("null contexts disabled", `Quick, test_null_disabled);
    ("memory ring keeps newest", `Quick, test_memory_ring);
    ("event json encoding", `Quick, test_event_json);
    ("campaign event json encoding", `Quick, test_campaign_event_json);
    ("demo trace deterministic per seed", `Quick, test_demo_trace_deterministic);
    ("demo trace covers subsystems", `Quick, test_demo_trace_covers_subsystems);
    ("counters accumulate with null sink", `Quick, test_demo_counters);
  ]
