open Btr_util
module Campaign = Btr_campaign.Campaign
module Shrink = Btr_campaign.Shrink
module Orchestrate = Btr_campaign.Orchestrate
module Task = Btr_workload.Task
module Fault = Btr_fault.Fault
module Obs = Btr_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- grids ---------------------------------------------------------- *)

let two_axis_grid =
  {
    Campaign.default_grid with
    Campaign.fault_bounds = [ 1; 2 ];
    control_shares = [ None; Some 0.005 ];
  }

let test_grid_cross_product () =
  check_int "singleton grid" 1 (List.length (Campaign.grid_params Campaign.default_grid));
  let ps = Campaign.grid_params two_axis_grid in
  check_int "2x2 grid" 4 (List.length ps);
  (* declaration order: f varies slower than control_share *)
  let fs = List.map (fun (p : Campaign.params) -> p.Campaign.f) ps in
  check_bool "f order" true (fs = [ 1; 1; 2; 2 ]);
  List.iter
    (fun (p : Campaign.params) ->
      check_int "nodes fixed" 6 p.Campaign.nodes;
      check_int "R fixed" (Time.ms 200) p.Campaign.r)
    ps

let test_grid_validation () =
  let ok g = Result.is_ok (Campaign.validate_grid g) in
  check_bool "default valid" true (ok Campaign.default_grid);
  check_bool "empty axis" false
    (ok { Campaign.default_grid with Campaign.workloads = [] });
  check_bool "unknown workload" false
    (ok { Campaign.default_grid with Campaign.workloads = [ "nosuch" ] });
  check_bool "unknown topology" false
    (ok { Campaign.default_grid with Campaign.topologies = [ "star" ] });
  check_bool "negative f" false
    (ok { Campaign.default_grid with Campaign.fault_bounds = [ -1 ] });
  check_bool "zero R" false
    (ok { Campaign.default_grid with Campaign.recovery_bounds = [ Time.zero ] });
  check_bool "share > 0.6" false
    (ok { Campaign.default_grid with Campaign.control_shares = [ Some 0.9 ] })

let test_classes_validation () =
  let ok g = Result.is_ok (Campaign.validate_grid g) in
  check_bool "empty classes" false
    (ok { Campaign.default_grid with Campaign.classes = [] });
  check_bool "unknown class" false
    (ok { Campaign.default_grid with Campaign.classes = [ "omitto"; "gray" ] });
  check_bool "single-class palette" true
    (ok { Campaign.default_grid with Campaign.classes = [ "omitto" ] })

let test_known_classes_complete () =
  check_int "seven behavior classes" 7 (List.length Campaign.known_classes);
  List.iter
    (fun c ->
      check_bool (c ^ " validates alone") true
        (Result.is_ok
           (Campaign.validate_grid
              { Campaign.default_grid with Campaign.classes = [ c ] })))
    Campaign.known_classes

let test_classes_restrict_scripts () =
  (* A single-class palette draws only that behavior, over many trials. *)
  let spec =
    Campaign.spec
      ~grid:{ Campaign.default_grid with Campaign.classes = [ "omitto" ] }
      ~trials:30 ~seed:11 ()
  in
  let events = ref 0 in
  List.iter
    (fun (t : Campaign.trial) ->
      List.iter
        (fun (e : Fault.event) ->
          incr events;
          match e.Fault.behavior with
          | Fault.Omit_to targets ->
            check_bool "omit-to targets nonempty" true (targets <> [])
          | _ -> Alcotest.fail "non-omitto event from an omitto-only palette")
        t.Campaign.script)
    (Campaign.compile spec);
  check_bool "palette actually produced events" true (!events > 0)

let test_classes_not_in_cross_product () =
  (* The classes axis shapes behavior generation, not the config grid. *)
  let n g = List.length (Campaign.grid_params g) in
  check_int "classes axis does not multiply configs"
    (n Campaign.default_grid)
    (n { Campaign.default_grid with Campaign.classes = [ "crash" ] })

(* --- compilation ---------------------------------------------------- *)

let test_compile_deterministic () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:12 ~seed:5 () in
  let a = Campaign.compile spec and b = Campaign.compile spec in
  check_int "trial count" 12 (List.length a);
  List.iter2
    (fun (x : Campaign.trial) (y : Campaign.trial) ->
      check_int "seed equal" x.Campaign.runtime_seed y.Campaign.runtime_seed;
      check_string "script equal"
        (Campaign.script_to_string x.Campaign.script)
        (Campaign.script_to_string y.Campaign.script))
    a b;
  (* round-robin over the grid *)
  List.iteri
    (fun i (t : Campaign.trial) ->
      check_int "trial index" i t.Campaign.index;
      let expected = List.nth (Campaign.grid_params two_axis_grid) (i mod 4) in
      check_int "config round-robin f" expected.Campaign.f t.Campaign.params.Campaign.f)
    a

let test_trial_of_index () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:9 ~seed:3 () in
  let all = Campaign.compile spec in
  List.iteri
    (fun i (t : Campaign.trial) ->
      match Campaign.trial_of_index spec i with
      | None -> Alcotest.failf "trial %d missing" i
      | Some u ->
        check_int "seed" t.Campaign.runtime_seed u.Campaign.runtime_seed;
        check_int "horizon" t.Campaign.horizon u.Campaign.horizon;
        check_string "script"
          (Campaign.script_to_string t.Campaign.script)
          (Campaign.script_to_string u.Campaign.script))
    all;
  check_bool "out of range" true (Campaign.trial_of_index spec 9 = None);
  check_bool "negative" true (Campaign.trial_of_index spec (-1) = None)

let test_scripts_respect_f () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:40 ~seed:9 () in
  List.iter
    (fun (t : Campaign.trial) ->
      let nodes =
        List.sort_uniq Int.compare
          (List.map (fun (e : Fault.event) -> e.Fault.node) t.Campaign.script)
      in
      check_bool "faulty nodes <= f" true
        (List.length nodes <= t.Campaign.params.Campaign.f);
      List.iter
        (fun (e : Fault.event) ->
          check_bool "event before horizon" true
            (Time.compare e.Fault.at t.Campaign.horizon < 0))
        t.Campaign.script)
    (Campaign.compile spec)

(* --- the schedule codec --------------------------------------------- *)

let test_codec_roundtrip_known () =
  let s = "babble.8@5@0;omitto.1.2@4@40000;corrupt@3@250000" in
  match Campaign.script_of_string s with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok script ->
    check_int "events" 3 (List.length script);
    check_string "canonical roundtrip" s (Campaign.script_to_string script)

let test_codec_rejects_garbage () =
  let bad = [ "frob@1@2"; "crash@x@2"; "crash@1"; "babble@1@2"; "delay.0@1@2"; "omitto@1@2" ] in
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true
        (Result.is_error (Campaign.script_of_string s)))
    bad;
  check_bool "empty script ok" true (Campaign.script_of_string "" = Ok [])

let test_script_nodes_in_range () =
  let check s =
    match Campaign.script_of_string s with
    | Error m -> Alcotest.failf "parse failed: %s" m
    | Ok script -> Campaign.validate_script ~nodes:6 script
  in
  check_bool "in-range script ok" true
    (check "omitto.3.5@2@250000;crash@0@0" = Ok ());
  List.iter
    (fun s ->
      match check s with
      | Ok () -> Alcotest.failf "%S accepted with 6 nodes" s
      | Error m -> check_bool (s ^ " names node 99") true (contains ~sub:"99" m))
    [ "crash@99@5"; "omitto.99.5@2@250000" ];
  check_bool "node = nodes is out of range" true
    (Result.is_error (check "crash@6@0"))

let prop_codec_roundtrip =
  (* generated trial scripts survive to_string/of_string unchanged *)
  QCheck.Test.make ~name:"codec roundtrips compiled scripts" ~count:30
    QCheck.(map (fun s -> abs s) small_int)
    (fun seed ->
      let spec = Campaign.spec ~grid:two_axis_grid ~trials:8 ~seed () in
      List.for_all
        (fun (t : Campaign.trial) ->
          let str = Campaign.script_to_string t.Campaign.script in
          match Campaign.script_of_string str with
          | Error _ -> false
          | Ok back -> Campaign.script_to_string back = str)
        (Campaign.compile spec))

(* --- determinism across worker counts ------------------------------- *)

let orchestrated ?obs ~jobs spec =
  match Orchestrate.run ?obs ~jobs ~shard:Orchestrate.unsharded spec with
  | Ok r -> r
  | Error m -> Alcotest.failf "campaign run failed: %s" m

let prop_jobs_invariant =
  (* The pool's regression guard: chunked index claiming over strategies
     resolved before the workers start must preserve byte-identical
     artifacts (verdict lines, summary, fingerprint) and the plan-cache
     counters for every worker count. Trial counts vary with the seed so
     the chunking edges (n < jobs, n = jobs, chunk > 1 remainders) all
     get exercised; jobs 3 is the calling domain plus two spawned ones,
     an odd split with remainders. *)
  QCheck.Test.make ~name:"artifacts identical for jobs in {1,2,3,4,8}" ~count:50
    QCheck.(map (fun s -> abs s) small_int)
    (fun seed ->
      let spec =
        Campaign.spec ~grid:two_axis_grid
          ~trials:(4 + (seed mod 5))
          ~seed ~shrink:false ()
      in
      let artifact_and_cache jobs =
        let obs = Obs.create () in
        let lines = (orchestrated ~obs ~jobs spec).Orchestrate.lines in
        let counters = Obs.Registry.counters (Obs.registry obs) in
        ( lines,
          List.assoc_opt "campaign.plan_cache_hits" counters,
          List.assoc_opt "campaign.plan_cache_misses" counters )
      in
      let base = artifact_and_cache 1 in
      List.for_all (fun jobs -> artifact_and_cache jobs = base) [ 2; 3; 4; 8 ])

let test_full_artifact_jobs_invariant () =
  (* the whole artifact must not depend on the worker count. This seed
     used to produce selective-omission violations; since the detector
     shares strikes per sender and lanes abstain on partial inputs, the
     statically-admitted default grid runs clean — which is itself the
     regression being pinned here (the conformance suite sweeps it
     exhaustively). *)
  let spec = Campaign.spec ~trials:10 ~seed:7 () in
  let a = orchestrated ~jobs:1 spec and b = orchestrated ~jobs:3 spec in
  check_bool "admitted grid runs clean" true (not a.Orchestrate.has_violations);
  check_bool "artifacts identical" true (a.Orchestrate.lines = b.Orchestrate.lines);
  check_int "jobs recorded" 3 (Campaign.run_trials ~jobs:3 spec []).Campaign.jobs

let test_shrunk_violations_replay () =
  (* Generated scripts respect f, and admitted configs now survive every
     in-budget schedule — so a violation worth shrinking needs a script
     beyond the fault budget: two crashed nodes at f = 1. The shrunk
     script must replay standalone through a fresh cache. *)
  let script =
    match
      Campaign.script_of_string
        "crash@2@250000;babble.4@0@50000;crash@3@300000;delay.2000@4@100000"
    with
    | Ok s -> s
    | Error m -> Alcotest.failf "bad fixture: %s" m
  in
  let params = Campaign.default_params in
  let trial =
    { Campaign.index = 0; runtime_seed = 1; params; script; horizon = Time.sec 1 }
  in
  let cache = Campaign.Cache.create ~seed:1 in
  match Campaign.shrink_violation ~cache ~budget:150 trial with
  | None -> Alcotest.fail "two crashes at f=1 must violate"
  | Some s ->
    let cache2 = Campaign.Cache.create ~seed:1 in
    let outcome =
      Campaign.run_script ~cache:cache2 params ~runtime_seed:1 s.Campaign.script
    in
    check_bool "shrunk script still violates" true (Campaign.violates outcome);
    check_bool "no larger than source" true
      (List.length s.Campaign.script <= List.length script)

(* --- plan cache ------------------------------------------------------ *)

let test_plan_cache_shared () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:16 ~seed:2 ~shrink:false () in
  let result = Campaign.run ~jobs:1 spec in
  (* 4 configs -> 4 plans, everything else must hit *)
  check_int "misses = configs" 4 result.Campaign.cache_misses;
  check_bool "hits cover the rest" true (result.Campaign.cache_hits >= 12)

let test_cache_counters_exact () =
  (* The pool's strategies are looked up on the calling domain, once
     per trial in trial order, so the totals do not depend on the
     worker count: with shrinking off and a violation-free fixture the
     cache is consulted exactly once per trial. *)
  List.iter
    (fun jobs ->
      let spec =
        Campaign.spec ~grid:two_axis_grid ~trials:16 ~seed:2 ~shrink:false ()
      in
      let r = Campaign.run ~jobs spec in
      check_bool "fixture stays violation-free" true (r.Campaign.violations = []);
      check_int
        (Printf.sprintf "hits + misses = trials at jobs=%d" jobs)
        16
        (r.Campaign.cache_hits + r.Campaign.cache_misses);
      check_int
        (Printf.sprintf "misses = configs at jobs=%d" jobs)
        4 r.Campaign.cache_misses)
    [ 1; 4 ]

let test_cache_derives_r_neighbours () =
  (* Two grid points differing only in R share the R-stripped base: the
     second must be served by with_recovery_bound derivation, not a
     fresh plan. Both counts as misses (the full key was absent), and
     the derived strategy must verify and report the requested R. *)
  let cache = Campaign.Cache.create ~seed:1 in
  let base = Campaign.default_params in
  let tighter = { base with Campaign.r = Time.ms 150 } in
  (match Campaign.Cache.strategy cache base with
  | Error m -> Alcotest.failf "base params rejected: %s" m
  | Ok _ -> ());
  check_int "no derivation yet" 0 (Campaign.Cache.derived cache);
  (match Campaign.Cache.strategy cache tighter with
  | Error m -> Alcotest.failf "R-neighbour rejected: %s" m
  | Ok s ->
    check_int "derived strategy carries the requested R" (Time.ms 150)
      (Btr_planner.Planner.config s).Btr_planner.Planner.recovery_bound);
  check_int "second config was derived" 1 (Campaign.Cache.derived cache);
  check_int "both were cache misses" 2 (Campaign.Cache.misses cache);
  (* repeat lookups hit the full key, not the derivation path *)
  (match Campaign.Cache.strategy cache tighter with
  | Error m -> Alcotest.failf "repeat lookup failed: %s" m
  | Ok _ -> ());
  check_int "repeat is a plain hit" 1 (Campaign.Cache.derived cache);
  check_int "hits" 1 (Campaign.Cache.hits cache)

let test_plan_key_semantics () =
  let base = Campaign.default_params in
  let same = { base with Campaign.workload = "avionics" } in
  check_string "semantically equal params share a key"
    (Campaign.plan_key ~seed:1 base)
    (Campaign.plan_key ~seed:1 same);
  let shares = { base with Campaign.control_share = Some 0.02 } in
  let protect = { base with Campaign.protect = Task.High } in
  let faults = { base with Campaign.f = 2 } in
  List.iter
    (fun p ->
      check_bool "differing config differs" true
        (Campaign.plan_key ~seed:1 base <> Campaign.plan_key ~seed:1 p))
    [ shares; protect; faults ]

(* --- shrinking ------------------------------------------------------- *)

(* A deterministic violation: two crashed nodes exceed the f = 1 budget,
   so no plan covers them and the second crash's tasks stay missing to
   the horizon. (The historic fixture here — omitto.3.5@2@250000, a
   selective omission out-waiting detection — no longer violates: the
   detector closes it; test_conformance pins that.) Three noise events
   that each pass on their own ride along; the shrinker must strip down
   to a two-node budget breach. *)
let noisy_violation_script () =
  match
    Campaign.script_of_string
      "crash@2@250000;equivocate@1@400000;crash@3@300000;delay.2000@4@100000;babble.4@0@50000"
  with
  | Ok s -> s
  | Error m -> Alcotest.failf "bad fixture: %s" m

let test_shrinker_minimizes_known_violation () =
  let params = Campaign.default_params in
  let trial =
    {
      Campaign.index = 0;
      runtime_seed = 1;
      params;
      script = noisy_violation_script ();
      horizon = Time.sec 1;
    }
  in
  let cache = Campaign.Cache.create ~seed:1 in
  match Campaign.shrink_violation ~cache ~budget:150 trial with
  | None -> Alcotest.fail "fixture no longer violates"
  | Some s ->
    check_bool "shrunk to <= 3 events" true (List.length s.Campaign.script <= 3);
    check_bool "kept two distinct faulty nodes (the budget breach)" true
      (List.length
         (List.sort_uniq Int.compare
            (List.map (fun (e : Fault.event) -> e.Fault.node) s.Campaign.script))
      = 2);
    check_bool "snippet is a program" true
      (String.length s.Campaign.snippet > 0
      && String.sub s.Campaign.snippet 0 2 = "(*");
    (* replay through a fresh cache *)
    let cache2 = Campaign.Cache.create ~seed:1 in
    check_bool "replays to the same violation" true
      (Campaign.violates
         (Campaign.run_script ~cache:cache2 params ~runtime_seed:1
            s.Campaign.script))

let test_shrink_budget_zero_keeps_script () =
  let params = Campaign.default_params in
  let script = noisy_violation_script () in
  let trial =
    { Campaign.index = 0; runtime_seed = 1; params; script; horizon = Time.sec 1 }
  in
  let cache = Campaign.Cache.create ~seed:1 in
  match Campaign.shrink_violation ~cache ~budget:0 trial with
  | None -> Alcotest.fail "fixture no longer violates"
  | Some s ->
    check_int "unshrunk" (List.length script) (List.length s.Campaign.script);
    check_int "no runs" 0 s.Campaign.shrink_runs

let test_shrinker_unit () =
  (* pure predicate: violation iff a crash on node 0 is present *)
  let crash0 = { Fault.at = Time.ms 7; node = 0; behavior = Fault.Crash } in
  let noise =
    [
      { Fault.at = Time.ms 1; node = 1; behavior = Fault.Equivocate };
      { Fault.at = Time.ms 2; node = 2; behavior = Fault.Babble { bogus_per_period = 8 } };
      { Fault.at = Time.ms 3; node = 3; behavior = Fault.Omit_outputs };
      { Fault.at = Time.ms 4; node = 4; behavior = Fault.Corrupt_outputs };
    ]
  in
  let violates s =
    List.exists
      (fun (e : Fault.event) ->
        e.Fault.node = 0 && e.Fault.behavior = Fault.Crash)
      s
  in
  let r = Shrink.minimize ~violates ~round_to:(Time.ms 5) (noise @ [ crash0 ]) in
  check_int "single event left" 1 (List.length r.Shrink.script);
  check_int "removed" 4 r.Shrink.removed_events;
  (match r.Shrink.script with
  | [ e ] ->
    check_int "the crash survives" 0 e.Fault.node;
    check_int "time zeroed" 0 e.Fault.at
  | _ -> Alcotest.fail "expected singleton");
  check_bool "result satisfies predicate" true (violates r.Shrink.script)

let test_shrinker_weakens_params () =
  let babble n = { Fault.at = Time.zero; node = 0; behavior = Fault.Babble { bogus_per_period = n } } in
  (* violation iff some babble >= 2 bogus/period *)
  let violates s =
    List.exists
      (fun (e : Fault.event) ->
        match e.Fault.behavior with
        | Fault.Babble { bogus_per_period } -> bogus_per_period >= 2
        | _ -> false)
      s
  in
  let r = Shrink.minimize ~violates [ babble 64 ] in
  match r.Shrink.script with
  | [ { Fault.behavior = Fault.Babble { bogus_per_period }; _ } ] ->
    check_int "babble halved to the floor" 2 bogus_per_period
  | _ -> Alcotest.fail "expected one babble event"

(* --- observability --------------------------------------------------- *)

let test_obs_events_and_counters () =
  let obs = Obs.with_memory () in
  let spec = Campaign.spec ~trials:10 ~seed:7 () in
  let result = Campaign.run ~obs ~jobs:2 spec in
  let events = Obs.events obs in
  let count pred = List.length (List.filter pred events) in
  check_int "one campaign-started" 1
    (count (fun e ->
         match e.Obs.payload with Obs.Campaign_started _ -> true | _ -> false));
  check_int "one verdict event per trial" 10
    (count (fun e ->
         match e.Obs.payload with Obs.Trial_verdict _ -> true | _ -> false));
  check_int "one shrink event per violation"
    (List.length result.Campaign.violations)
    (count (fun e ->
         match e.Obs.payload with Obs.Violation_shrunk _ -> true | _ -> false));
  (* verdict events arrive in trial order whatever the pool did *)
  let verdict_trials =
    List.filter_map
      (fun e ->
        match e.Obs.payload with
        | Obs.Trial_verdict { trial; _ } -> Some trial
        | _ -> None)
      events
  in
  check_bool "trial order" true (verdict_trials = List.init 10 Fun.id);
  let counters = Obs.Registry.counters (Obs.registry obs) in
  let counter name = List.assoc_opt name counters in
  check_bool "campaign.trials" true (counter "campaign.trials" = Some 10);
  check_bool "campaign.violations" true
    (counter "campaign.violations"
    = Some (List.length result.Campaign.violations));
  check_bool "cache counters exported" true
    (counter "campaign.plan_cache_misses" = Some result.Campaign.cache_misses)

(* --- artifacts ------------------------------------------------------- *)

let test_flat_json_parses_verdicts () =
  let spec = Campaign.spec ~trials:4 ~seed:7 ~shrink:false () in
  let result = Campaign.run ~jobs:1 spec in
  List.iter
    (fun v ->
      match Flat_json.parse (Campaign.verdict_json v) with
      | Error m -> Alcotest.failf "verdict line unparseable: %s" m
      | Ok fields ->
        check_bool "has trial" true
          (match List.assoc_opt "trial" fields with
          | Some (Flat_json.Int _) -> true
          | _ -> false);
        check_bool "has verdict" true
          (match List.assoc_opt "verdict" fields with
          | Some (Flat_json.Str _) -> true
          | _ -> false))
    result.Campaign.verdicts

let test_flat_json_rejects_garbage () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true
        (Result.is_error (Flat_json.parse s)))
    [ ""; "{"; "{\"a\":}"; "{\"a\":1,}"; "{\"a\":1}x"; "[1]"; "{\"a\":{}}" ]

let test_flat_json_escapes () =
  match Flat_json.parse "{\"s\":\"a\\\"b\\n\\u0041\",\"n\":-3,\"b\":true}" with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok fields ->
    check_bool "string unescaped" true
      (List.assoc_opt "s" fields = Some (Flat_json.Str "a\"b\nA"));
    check_bool "negative int" true
      (List.assoc_opt "n" fields = Some (Flat_json.Int (-3)));
    check_bool "bool" true
      (List.assoc_opt "b" fields = Some (Flat_json.Bool true))

(* Satellite: encode -> parse -> re-encode is the identity on arbitrary
   field lists, byte for byte. Strings exercise the full escape table
   (quotes, backslashes, control bytes, high bytes pass through raw);
   floats are kept finite and must survive exactly, including integral
   values, which float_repr keeps float-shaped with a trailing '.'. *)
let prop_flat_json_roundtrip =
  let module J = Flat_json in
  let gen =
    let open QCheck.Gen in
    let any_char = map Char.chr (int_bound 255) in
    let any_string = string_size ~gen:any_char (int_bound 12) in
    let finite_float =
      map (fun f -> if Float.is_finite f then f else 0.5) float
    in
    let value =
      oneof
        [
          map (fun i -> J.Int i) int;
          map (fun b -> J.Bool b) bool;
          map (fun s -> J.Str s) any_string;
          map (fun f -> J.Float f) finite_float;
        ]
    in
    list_size (int_bound 8) (pair any_string value)
  in
  let print fields =
    String.concat ";"
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%S=%s" k
             (match v with
             | Flat_json.Str s -> Printf.sprintf "Str %S" s
             | Flat_json.Int i -> Printf.sprintf "Int %d" i
             | Flat_json.Bool b -> Printf.sprintf "Bool %b" b
             | Flat_json.Float f -> Printf.sprintf "Float %h" f))
         fields)
  in
  QCheck.Test.make ~name:"flat json encode/parse round-trip" ~count:300
    (QCheck.make ~print gen) (fun fields ->
      let line = Flat_json.to_string fields in
      match Flat_json.parse line with
      | Error m -> QCheck.Test.fail_reportf "unparseable %S: %s" line m
      | Ok back ->
        if back <> fields then
          QCheck.Test.fail_reportf "fields changed: %s <> %s" (print back)
            (print fields)
        else if Flat_json.to_string back <> line then
          QCheck.Test.fail_reportf "re-encode not byte-identical: %S <> %S"
            (Flat_json.to_string back) line
        else true)

(* --- small node counts ----------------------------------------------- *)

let test_small_node_counts () =
  let grid w n =
    { Campaign.default_grid with Campaign.workloads = [ w ]; node_counts = [ n ] }
  in
  let err g = match Campaign.validate_grid g with Ok () -> "" | Error m -> m in
  check_bool "avionics at 2 nodes" true
    (contains ~sub:"avionics needs >= 4 nodes" (err (grid "avionics" 2)));
  check_bool "scada at 2 nodes" true
    (contains ~sub:"scada needs >= 3 nodes" (err (grid "scada" 2)));
  check_string "scada at 3 nodes" "" (err (grid "scada" 3));
  check_string "random at 2 nodes" "" (err (grid "random" 2));
  check_bool "every workload must fit the smallest count" true
    (err
       {
         Campaign.default_grid with
         Campaign.workloads = [ "random"; "avionics" ];
         node_counts = [ 6; 3 ];
       }
    <> "");
  (* The library paths that never see validate_grid return, not raise. *)
  let small = { Campaign.default_params with Campaign.nodes = 2 } in
  let cache = Campaign.Cache.create ~seed:1 in
  check_bool "Cache.strategy is an Error" true
    (Result.is_error (Campaign.Cache.strategy cache small));
  (match Campaign.run_script ~cache small ~runtime_seed:1 [] with
  | Campaign.Rejected m -> check_bool "names the minimum" true (contains ~sub:">= 4" m)
  | o -> Alcotest.failf "small config judged %s" (Campaign.outcome_name o));
  let spec = Campaign.spec ~grid:(grid "avionics" 2) ~trials:3 () in
  check_int "compile does not raise" 3 (List.length (Campaign.compile spec));
  (* an artifact line edited down to 2 nodes is refused, not replayed *)
  let v =
    {
      Campaign.trial = List.hd (Campaign.compile (Campaign.spec ~trials:1 ()));
      outcome = Campaign.Rejected "-";
    }
  in
  let edited =
    List.map
      (function "nodes", _ -> ("nodes", Flat_json.Int 2) | kv -> kv)
      (Campaign.verdict_fields v)
  in
  check_bool "trial_of_fields refuses the edit" true
    (Result.is_error (Campaign.trial_of_fields edited))

(* --- oversized planning inputs --------------------------------------- *)

let test_oversized_inputs_refused () =
  let module Planner = Btr_planner.Planner in
  let module Generators = Btr_workload.Generators in
  let module Graph = Btr_workload.Graph in
  (* At the limit: one mode placing 2 x 999_999 lane/checker slots and
     2 guards; at f = 1, 101 modes of 3 x 6567 slots and 100 guards. *)
  let admits ~nodes ~f ~tasks = Result.is_ok (Planner.check_plan_size ~nodes ~f ~tasks) in
  check_bool "f = 0 at the limit" true (admits ~nodes:2 ~f:0 ~tasks:999_999);
  check_bool "f = 0 past the limit" false (admits ~nodes:2 ~f:0 ~tasks:1_000_000);
  check_bool "f = 1 under the limit" true (admits ~nodes:100 ~f:1 ~tasks:6567);
  check_bool "f = 1 past the limit" false (admits ~nodes:100 ~f:1 ~tasks:6568);
  check_bool "max_int nodes do not overflow" false (admits ~nodes:max_int ~f:3 ~tasks:1);
  check_bool "max_int f stops early" false (admits ~nodes:max_int ~f:max_int ~tasks:1);
  (* Every size the planner bench and perfbench's plan_admit plan. *)
  List.iter
    (fun (nodes, f) ->
      let tasks = Graph.task_count (Generators.fleet ~n_nodes:nodes) in
      check_bool (Printf.sprintf "fleet %d nodes f=%d admitted" nodes f) true
        (admits ~nodes ~f ~tasks))
    [ (10, 1); (100, 1); (1000, 0); (10000, 0); (40, 1); (16, 2) ];
  let grid n f =
    { Campaign.default_grid with Campaign.node_counts = [ n ]; fault_bounds = [ f ] }
  in
  let err g = match Campaign.validate_grid g with Ok () -> "" | Error m -> m in
  check_string "multihop-sized grid" "" (err { (grid 12 2) with workloads = [ "scada"; "random" ] });
  check_bool "99999 nodes at f = 1" true
    (contains ~sub:"99999 nodes at f = 1 would plan about 1e+10 task placements"
       (err (grid 99999 1)));
  check_bool "300 nodes at f = 2" true (contains ~sub:"past the limit" (err (grid 300 2)));
  (* an artifact line edited up to 99999 nodes is refused, not planned *)
  let v =
    {
      Campaign.trial = List.hd (Campaign.compile (Campaign.spec ~trials:1 ()));
      outcome = Campaign.Rejected "-";
    }
  in
  let edited =
    List.map
      (function "nodes", _ -> ("nodes", Flat_json.Int 99999) | kv -> kv)
      (Campaign.verdict_fields v)
  in
  check_bool "trial_of_fields refuses the edit" true
    (Result.is_error (Campaign.trial_of_fields edited))

(* --- R-derived strategies inside the pool --------------------------- *)

let test_pool_r_derived_verdicts () =
  (* Two R values per f: the pool's in-order resolution plans each f
     once and derives its R-neighbour through with_recovery_bound and
     the admission gate. Every verdict must equal run_script on a fresh
     cache holding nothing but that trial's config, which plans it from
     scratch. With R = 300 then 40 ms the derived neighbour is
     statically rejected, so a derivation that skipped the gate would
     deploy it instead. *)
  List.iter
    (fun rs ->
      let grid =
        {
          Campaign.default_grid with
          Campaign.fault_bounds = [ 1; 2 ];
          recovery_bounds = List.map Time.ms rs;
        }
      in
      let cache = Campaign.Cache.create ~seed:5 in
      List.iter
        (fun p -> ignore (Campaign.Cache.strategy cache p))
        (Campaign.grid_params grid);
      check_int "one R-neighbour derived per f" 2 (Campaign.Cache.derived cache);
      let spec = Campaign.spec ~grid ~trials:8 ~seed:5 ~shrink:false () in
      List.iter
        (fun jobs ->
          List.iter
            (fun (v : Campaign.verdict) ->
              let t = v.Campaign.trial in
              let fresh = Campaign.Cache.create ~seed:5 in
              let outcome =
                Campaign.run_script ~cache:fresh t.Campaign.params
                  ~runtime_seed:t.Campaign.runtime_seed t.Campaign.script
              in
              check_int "fresh cache planned from scratch" 0
                (Campaign.Cache.derived fresh);
              check_string
                (Printf.sprintf "trial %d at jobs=%d" t.Campaign.index jobs)
                (Campaign.verdict_json { v with Campaign.outcome })
                (Campaign.verdict_json v))
            (Campaign.run ~jobs spec).Campaign.verdicts)
        [ 1; 4 ])
    [ [ 150; 300 ]; [ 300; 40 ] ]

let test_report_renders () =
  let spec = Campaign.spec ~trials:10 ~seed:7 () in
  let r = orchestrated ~jobs:1 spec in
  let lines = r.Orchestrate.lines in
  check_int "header + verdicts + violations + summary"
    (1 + 10 + List.length r.Orchestrate.new_violations + 1)
    (List.length lines);
  match Orchestrate.render_report lines with
  | Error m -> Alcotest.failf "render failed: %s" m
  | Ok report ->
    let verdict_lines = List.filteri (fun i _ -> i >= 1 && i <= 10) lines in
    check_bool "mentions totals" true (contains ~sub:"10 trials" report);
    check_bool "mentions fingerprint" true
      (contains ~sub:(Fnv.to_hex (Fnv.hash64_lines verdict_lines)) report)

let test_report_rejects_garbage () =
  check_bool "malformed line" true
    (Result.is_error (Orchestrate.render_report [ "{\"trial\":" ]))

(* Byte-identity pin for relayed traffic: ring and dual-bus configs
   whose routes are multi-hop, run end to end. *)
let test_multihop_fingerprint () =
  let grid =
    {
      Campaign.default_grid with
      Campaign.workloads = [ "scada"; "random" ];
      topologies = [ "ring"; "dual-bus" ];
      node_counts = [ 5; 7 ];
      fault_bounds = [ 1; 2 ];
      recovery_bounds = [ Time.ms 150; Time.ms 300 ];
    }
  in
  let spec = Campaign.spec ~grid ~trials:40 ~seed:5 () in
  check_string "multi-hop campaign fingerprint" "8b8b15d160f2a851"
    (Campaign.fingerprint (Campaign.run ~jobs:1 spec))

let suite =
  [
    Alcotest.test_case "grid cross product" `Quick test_grid_cross_product;
    Alcotest.test_case "grid validation" `Quick test_grid_validation;
    Alcotest.test_case "classes axis validation" `Quick test_classes_validation;
    Alcotest.test_case "known classes all validate" `Quick test_known_classes_complete;
    Alcotest.test_case "single-class palette restricts scripts" `Quick
      test_classes_restrict_scripts;
    Alcotest.test_case "classes not part of cross product" `Quick
      test_classes_not_in_cross_product;
    Alcotest.test_case "compile is deterministic" `Quick test_compile_deterministic;
    Alcotest.test_case "trial_of_index = compile !! i" `Quick test_trial_of_index;
    Alcotest.test_case "scripts respect f and horizon" `Quick test_scripts_respect_f;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip_known;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_jobs_invariant;
    Alcotest.test_case "full artifact jobs-invariant" `Quick
      test_full_artifact_jobs_invariant;
    Alcotest.test_case "shrunk violations replay" `Quick test_shrunk_violations_replay;
    Alcotest.test_case "plan cache shared across trials" `Quick test_plan_cache_shared;
    Alcotest.test_case "cache counters exact at jobs 1 and 4" `Quick
      test_cache_counters_exact;
    Alcotest.test_case "cache derives R-axis neighbours" `Quick
      test_cache_derives_r_neighbours;
    Alcotest.test_case "plan_key semantics" `Quick test_plan_key_semantics;
    Alcotest.test_case "shrinker minimizes known violation" `Quick
      test_shrinker_minimizes_known_violation;
    Alcotest.test_case "shrink budget 0 keeps script" `Quick
      test_shrink_budget_zero_keeps_script;
    Alcotest.test_case "shrinker drops noise (unit)" `Quick test_shrinker_unit;
    Alcotest.test_case "shrinker weakens parameters" `Quick test_shrinker_weakens_params;
    Alcotest.test_case "obs events and counters" `Quick test_obs_events_and_counters;
    Alcotest.test_case "flat json parses verdicts" `Quick test_flat_json_parses_verdicts;
    Alcotest.test_case "flat json rejects garbage" `Quick test_flat_json_rejects_garbage;
    Alcotest.test_case "flat json unescapes" `Quick test_flat_json_escapes;
    QCheck_alcotest.to_alcotest prop_flat_json_roundtrip;
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "report rejects garbage" `Quick test_report_rejects_garbage;
    Alcotest.test_case "replay scripts name existing nodes" `Quick
      test_script_nodes_in_range;
    Alcotest.test_case "small node counts are errors, never exceptions" `Quick
      test_small_node_counts;
    Alcotest.test_case "pool verdicts on R-derived strategies" `Quick
      test_pool_r_derived_verdicts;
    Alcotest.test_case "oversized planning inputs are refused" `Quick
      test_oversized_inputs_refused;
    Alcotest.test_case "multi-hop campaign is pinned" `Quick
      test_multihop_fingerprint;
  ]
