(* Trial-level benchmark of the BTR stack.

     trialbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]

   One process runs one workload as a closed loop: the next unit of work
   starts when the previous one returns. A workload is a fixed list of
   inputs (campaigns, or admission cycles); a run makes whole passes over
   it. The program prints every metric by name and unit, then one JSON
   line with the result.

   [--trace 0] measures the end-to-end metrics with no instrumentation.
   [--trace 1] runs the same untraced loop for half the time, then
   drives the same inputs through each layer's public functions with a
   span around every call and a fresh [Obs] registry per trial. It
   reports the per-layer split and the tracing overhead. The libraries
   are not modified: spans live in this file and counters are read from
   each trial's registry.

   Inputs are generated from [--seed] alone. Timings are host wall time.
   Simulated quantities (recoveries, verdicts, bytes) are checked for
   identity and never reported as speed. README.md documents the
   workloads and every metric. *)

open Btr_util
module Campaign = Btr_campaign.Campaign
module Planner = Btr_planner.Planner
module Check = Btr_check.Check
module Incr = Btr_check.Incr
module Graph = Btr_workload.Graph
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Obs = Btr_obs.Obs
module Engine = Btr_sim.Engine
module Authlog = Btr_evidence.Authlog
module Runtime = Btr.Runtime
module Metrics = Btr.Metrics

(* btr-lint: allow wall-clock — benchmark timing is host wall time by
   definition; simulated results stay deterministic. *)
let now () = Unix.gettimeofday ()

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Host resources                                                      *)

(* Words allocated by every domain of the process. [Gc.minor_words]
   counts only the calling domain, so it misses the campaign's worker
   domains; [Gc.quick_stat] also folds in the counters of domains that
   have terminated. [alloc_self_test] pins the difference. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A worker domain allocates [words] words and exits. Returns what
   [Gc.quick_stat] and [Gc.minor_words] saw from the calling domain. *)
let alloc_self_test () =
  let words = 3_000_000 in
  let q0 = allocated_words () and m0 = Gc.minor_words () in
  let worker () =
    (* one cons cell is three words *)
    let l = ref [] in
    for i = 1 to words / 3 do
      l := i :: (if i land 1023 = 0 then [] else !l)
    done;
    ignore (Sys.opaque_identity !l)
  in
  Domain.join (Domain.spawn worker);
  (words, allocated_words () -. q0, Gc.minor_words () -. m0)

let peak_rss_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | status ->
      List.find_map
        (fun line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> Some (float_of_int kb /. 1024.0)
          | exception _ -> None)
        (String.split_on_char '\n' status)
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 131072.0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Spans are kept in memory while the traced loop runs and written out
   at the end. A span's parent is the innermost span open when it
   started; its self time is its duration minus its children's. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let on = ref false
  let spans = ref []
  let next_id = ref 0
  let stack = ref []

  let span name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          stack := List.tl !stack;
          spans := { id; parent; name; t0; t1 } :: !spans)
    end

  let dur s = s.t1 -. s.t0

  (* name -> (total seconds, self seconds, count) *)
  let totals () =
    let covered = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace covered s.parent
            (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
      !spans;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let tot, self, n =
          Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt by_name s.name)
        in
        let kids = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
        Hashtbl.replace by_name s.name (tot +. dur s, self +. dur s -. kids, n + 1))
      !spans;
    by_name

  let write file =
    let oc = open_out file in
    List.iter
      (fun s ->
        Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.1f,\"dur_us\":%.1f}\n"
          s.id s.parent s.name (s.t0 *. 1e6) (dur s *. 1e6))
      (List.rev !spans);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Sums, quantiles, output                                             *)

(* Named float accumulators for the traced loops. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)
let add k v = Hashtbl.replace acc k (get k +. v)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "  %-40s %16.4f %s\n" m.name m.value m.unit) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed
    (String.concat ","
       (List.map
          (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_float m.value) m.unit)
          metrics))

(* ------------------------------------------------------------------ *)
(* The measured window                                                 *)

type window = {
  items : int;  (** trials executed *)
  passes : int;
  wall : float;
  steady_wall : float;
      (** one pass, each input at its median time over the passes *)
  cpu : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  setups : float list;  (** wall time of each [between] call *)
}

(* Whole passes over the [units] inputs, at least [min_passes] and until
   [seconds] have elapsed, so every run measures the same input mix
   whatever the host speed. [run i] runs input [i] and returns the
   trials it executed. Each input is timed on every pass and the rate is
   taken from the per-input medians, so load from outside the process
   that hits one pass does not move it. [between], when given, runs
   after every input; its time is recorded apart and its allocation is
   not counted. *)
let measure ?between ~seconds ~min_passes ~units run =
  let times = Array.make units [] in
  let setups = ref [] and setup_words = ref 0.0 in
  let g0 = Gc.quick_stat () and c0 = cpu_seconds () and t0 = now () in
  let items = ref 0 and passes = ref 0 in
  while !passes < min_passes || now () -. t0 < seconds do
    for i = 0 to units - 1 do
      let t = now () in
      items := !items + run i;
      times.(i) <- (now () -. t) :: times.(i);
      Option.iter
        (fun f ->
          let w = allocated_words () and t = now () in
          f ();
          setups := (now () -. t) :: !setups;
          setup_words := !setup_words +. (allocated_words () -. w))
        between
    done;
    incr passes
  done;
  let wall = now () -. t0 and cpu = cpu_seconds () -. c0 in
  let g1 = Gc.quick_stat () in
  {
    items = !items;
    passes = !passes;
    wall;
    steady_wall = Array.fold_left (fun a ts -> a +. quantile 0.5 ts) 0.0 times;
    cpu;
    words =
      g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
      -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
      -. !setup_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    setups = !setups;
  }

let per_item w v = ratio v (float_of_int w.items)
let rate w = ratio (float_of_int w.items /. float_of_int w.passes) w.steady_wall

(* Metrics shared by every workload's traced report: the pool and GC
   behaviour of the untraced window, and the cost of tracing. *)
let pool_metrics ~jobs ~untraced ~traced =
  [
    ("campaign.pool.busy_frac", ratio untraced.cpu (float_of_int jobs *. untraced.wall));
    ("campaign.pool.cpu_ms_per_trial", per_item untraced (untraced.cpu *. 1000.0));
    ("gc.minor_collections_per_trial", per_item untraced (float_of_int untraced.minor_gcs));
    ("gc.major_collections_per_trial", per_item untraced (float_of_int untraced.major_gcs));
    ("trace.untraced_trials_per_s", rate untraced);
    ("trace.traced_trials_per_s", rate traced);
    ("trace.overhead_frac", ratio (rate untraced) (rate traced) -. 1.0);
  ]

let span_ms totals name ~per =
  match Hashtbl.find_opt totals name with
  | Some (tot, _, _) -> ratio (tot *. 1000.0) per
  | None -> 0.0

let self_ms totals name ~per =
  match Hashtbl.find_opt totals name with
  | Some (_, self, _) -> ratio (self *. 1000.0) per
  | None -> 0.0

let calls totals name =
  match Hashtbl.find_opt totals name with Some (_, _, n) -> float_of_int n | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Campaign workloads                                                  *)

type campaign_workload = {
  grid : Campaign.grid;
  trials : int;  (** per campaign *)
  campaigns : int;  (** per pass over the inputs *)
  shrink : bool;
  jobs : int;
  pins : (int * string) list;
      (** campaign seed -> its verdicts' [Campaign.fingerprint], for a
          campaign of [trials] trials over [grid] *)
}

(* The default avionics grid: 6-node clique, 10 Mb/s, 50us links, f = 1,
   R = 200ms, all seven fault classes. Seed 1 is the CLI default; seed
   4242 is held out. Both workloads share the pins, so the pool must
   reproduce the inline run's verdicts byte for byte. *)
let clique ~jobs =
  {
    grid = Campaign.default_grid;
    trials = 50;
    campaigns = 16;
    shrink = false;
    jobs;
    pins = [ (1, "a6b882105be4dc5f"); (4242, "f5543c3348f83a3b") ];
  }

(* 32 configurations on multi-hop topologies; about two thirds of the
   trials are statically rejected, and violations are shrunk at the CLI
   default budget. *)
let multihop =
  {
    grid =
      {
        Campaign.default_grid with
        Campaign.workloads = [ "scada"; "random" ];
        topologies = [ "ring"; "dual-bus" ];
        node_counts = [ 8; 12 ];
        fault_bounds = [ 1; 2 ];
        recovery_bounds = [ Time.ms 200; Time.ms 400 ];
      };
    trials = 96;
    campaigns = 16;
    shrink = true;
    jobs = 1;
    pins = [ (1, "1a1101ab988acfd7"); (4242, "eb30f0cc2a23c10a") ];
  }

(* Campaign [c] of a pass runs under campaign seed [c + 1], which fixes
   the generated graphs, so every run plans the same configurations. The
   run's seed picks which block of [trials] consecutive trials of that
   campaign runs, and with it the fault schedules and runtime seeds. A
   block starts at a multiple of [trials], so it covers every grid
   configuration equally. *)
let blocks = 16

let compile_block w ~seed c =
  let spec = Campaign.spec ~grid:w.grid ~trials:(blocks * w.trials) ~seed:(c + 1) ~shrink:w.shrink () in
  let b = seed mod blocks in
  (spec, List.filteri (fun i _ -> i / w.trials = b) (Campaign.compile spec))

type campaign_state = {
  inputs : (Campaign.spec * Campaign.trial list) array;
  reference : Campaign.result option array;
      (** each campaign's first result; later runs must match it *)
  mutable failed : int;
}

let errors (r : Campaign.result) =
  List.length
    (List.filter
       (fun (v : Campaign.verdict) ->
         match v.outcome with Campaign.Errored _ -> true | _ -> false)
       r.verdicts)

(* Trials executed: one per verdict, plus the shrinker's replays. Each
   shrunk violation was replayed once to confirm it, [shrink_runs] times
   while minimizing, and once more to record the minimal schedule. *)
let executed verdicts violations =
  List.length verdicts
  + List.fold_left (fun a (s : Campaign.shrunk_violation) -> a + s.shrink_runs + 2) 0 violations

let run_campaign w st i =
  let spec, trials = st.inputs.(i) in
  let r = Campaign.run_trials ~obs:(Obs.create ()) ~jobs:w.jobs spec trials in
  st.failed <- st.failed + errors r;
  (match st.reference.(i) with
  | None -> st.reference.(i) <- Some r
  | Some r0 ->
    if Campaign.fingerprint r0 <> Campaign.fingerprint r then st.failed <- st.failed + 1);
  executed r.verdicts r.violations

(* [Campaign.stats_of], rebuilt from the runtime's public accessors. *)
let bp f = int_of_float ((f *. 10_000.0) +. 0.5)

let stats_of rt : Campaign.run_stats =
  let m = Runtime.metrics rt in
  let recoveries = Metrics.recovery_times m in
  let ns = Runtime.net_stats rt in
  {
    worst_recovery = List.fold_left Time.max Time.zero recoveries;
    recoveries;
    incorrect = Metrics.incorrect_time m;
    deadline_miss_bp = bp (Metrics.deadline_miss_fraction m);
    correct_bp = bp (Metrics.correct_fraction m);
    bytes_sent = ns.Net.bytes_sent;
    control_bytes = ns.Net.control_bytes_sent;
    sim_events = Engine.events_processed (Runtime.engine rt);
    mode_changes = List.length (Runtime.mode_changes rt);
    periods = Metrics.periods_finalized m;
  }

(* Per-trial layer counters, read from the trial's own registry. *)
let record_layers rt strategy obs ~words =
  let counters = Obs.Registry.counters (Obs.registry obs) in
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  add "deployed" 1.0;
  add "words" words;
  add "fired" (c "sim.engine.fired");
  add "pool_reuse" (c "sim.engine.pool-reuse");
  add "cells" (c "sim.engine.cells");
  add "msgs" (c "net.msgs-sent");
  add "bytes_data" (c "net.bytes.data");
  add "bytes_control" (c "net.bytes.control");
  add "relay_dropped" (c "net.relay-dropped");
  add "missing" (c "detect.watchdog-missing");
  add "late" (c "detect.watchdog-late");
  add "corroborations" (c "detect.corroborations");
  add "admitted" (c "evidence.records-admitted");
  add "dedup" (c "evidence.dedup-hits");
  add "invalid" (c "evidence.validation-failures");
  add "authlog"
    (float_of_int
       (List.fold_left
          (fun a n -> a + Authlog.length (fst (Runtime.node_log rt n)))
          0
          (Topology.nodes (Planner.topology strategy))));
  add "periods" (float_of_int (Metrics.periods_finalized (Runtime.metrics rt)));
  add "mode_changes" (float_of_int (List.length (Runtime.mode_changes rt)))

(* One trial through the public calls [Campaign.run_script] makes:
   plan-cache lookup, deploy, run to the horizon, judge. *)
let traced_trial cache (t : Campaign.trial) : Campaign.outcome =
  Trace.span "trial" (fun () ->
      match Trace.span "campaign.plan_lookup" (fun () -> Campaign.Cache.strategy cache t.params) with
      | Error m -> Campaign.Rejected m
      | Ok strategy -> (
        try
          let obs = Obs.create () in
          let config = { Runtime.default_config with Runtime.seed = t.runtime_seed } in
          let w0 = allocated_words () in
          let rt =
            Trace.span "runtime.deploy" (fun () ->
                Runtime.create ~config ~script:t.script ~obs ~strategy ())
          in
          Trace.span "runtime.run" (fun () -> Runtime.run rt ~horizon:t.horizon);
          let words = allocated_words () -. w0 in
          let st = Trace.span "metrics.judge" (fun () -> stats_of rt) in
          record_layers rt strategy obs ~words;
          if List.exists (fun r -> Time.compare r t.params.r > 0) st.recoveries then
            Campaign.Violation st
          else Campaign.Pass st
        with e -> Campaign.Errored (Printexc.to_string e)))

(* Re-runs campaign [i] trial by trial and checks each verdict and
   shrunk violation against the bytes [Campaign.run_trials] produced. *)
let traced_campaign w ~seed st i =
  let (spec : Campaign.spec), trials =
    Trace.span "campaign.compile" (fun () -> compile_block w ~seed i)
  in
  let cache = Campaign.Cache.create ~seed:spec.seed in
  let verdicts =
    List.map (fun t -> { Campaign.trial = t; outcome = traced_trial cache t }) trials
  in
  let budget = if spec.shrink then spec.shrink_budget else 0 in
  let violations =
    List.filter_map
      (fun (v : Campaign.verdict) ->
        if Campaign.violates v.outcome then
          Trace.span "campaign.shrink" (fun () -> Campaign.shrink_violation ~cache ~budget v.trial)
        else None)
      verdicts
  in
  add "campaigns" 1.0;
  add "compiled" (float_of_int spec.trials);
  add "shrink_replays"
    (float_of_int
       (List.fold_left (fun a (s : Campaign.shrunk_violation) -> a + s.shrink_runs) 0 violations));
  add "cache_hits" (float_of_int (Campaign.Cache.hits cache));
  add "cache_misses" (float_of_int (Campaign.Cache.misses cache));
  add "derived" (float_of_int (Campaign.Cache.derived cache));
  let r0 = Option.get st.reference.(i) in
  let mismatches a b =
    if List.compare_lengths a b <> 0 then Stdlib.max 1 (List.length a)
    else List.length (List.filter Fun.id (List.map2 ( <> ) a b))
  in
  st.failed <-
    st.failed
    + mismatches
        (List.map Campaign.verdict_json verdicts)
        (List.map Campaign.verdict_json r0.verdicts)
    + mismatches
        (List.map Campaign.violation_json violations)
        (List.map Campaign.violation_json r0.violations);
  executed verdicts violations

let campaign_layer_metrics () =
  let t = Trace.totals () in
  let trials = calls t "trial" and deployed = get "deployed" in
  let per_deployed k = ratio (get k) deployed in
  let hits = get "cache_hits" and misses = get "cache_misses" in
  let admitted = get "admitted" and dedup = get "dedup" and invalid = get "invalid" in
  [
    ("campaign.compile_ms", span_ms t "campaign.compile" ~per:(get "compiled"));
    ("campaign.plan_lookup_ms", span_ms t "campaign.plan_lookup" ~per:trials);
    ("campaign.plan_cache_hit_ratio", ratio hits (hits +. misses));
    ("campaign.plan_derived", ratio (get "derived") (get "campaigns"));
    ("campaign.shrink_ms", span_ms t "campaign.shrink" ~per:trials);
    ("campaign.shrink_replays", ratio (get "shrink_replays") (get "campaigns"));
    ("runtime.deploy_ms", span_ms t "runtime.deploy" ~per:deployed);
    ("runtime.run_ms", span_ms t "runtime.run" ~per:deployed);
    ("runtime.alloc_words_per_trial", per_deployed "words");
    ("runtime.mode_changes", per_deployed "mode_changes");
    ("sim.events_per_trial", per_deployed "fired");
    ("sim.events_per_s",
      ratio (get "fired") (span_ms t "runtime.run" ~per:1.0 /. 1000.0));
    ("sim.words_per_event", ratio (get "words") (get "fired"));
    ("sim.pool_reuse_ratio",
      ratio (get "pool_reuse") (get "pool_reuse" +. get "cells"));
    ("net.msgs_per_trial", per_deployed "msgs");
    ("net.bytes_data_per_trial", per_deployed "bytes_data");
    ("net.bytes_control_per_trial", per_deployed "bytes_control");
    ("net.relay_dropped", per_deployed "relay_dropped");
    ("detect.watchdog_missing", per_deployed "missing");
    ("detect.watchdog_late", per_deployed "late");
    ("detect.corroborations", per_deployed "corroborations");
    ("evidence.records_admitted", per_deployed "admitted");
    ("evidence.dedup_hits", per_deployed "dedup");
    ("evidence.validation_failures", per_deployed "invalid");
    ("evidence.useful_ratio", ratio admitted (admitted +. dedup +. invalid));
    ("evidence.authlog_entries_per_trial", per_deployed "authlog");
    ("metrics.periods_per_trial", per_deployed "periods");
    ("metrics.judge_ms", span_ms t "metrics.judge" ~per:deployed);
    ("trace.root_self_ms", self_ms t "trial" ~per:trials);
  ]

(* Output checks that do not depend on the run's seed: the pinned
   fingerprints, at the workload's own [jobs]. *)
let check_pins w =
  List.fold_left
    (fun failed (seed, expected) ->
      let spec = Campaign.spec ~grid:w.grid ~trials:w.trials ~seed ~shrink:w.shrink () in
      let r = Campaign.run ~obs:(Obs.create ()) ~jobs:w.jobs spec in
      let got = Campaign.fingerprint r in
      if got = expected then failed
      else begin
        Printf.printf "check: campaign seed %d fingerprint %s, expected %s\n" seed got expected;
        failed + 1
      end)
    0 w.pins

(* ------------------------------------------------------------------ *)
(* plan_admit: the offline phase alone                                 *)

type admit_input = {
  cfg : Planner.config;
  workload : Graph.t;
  topology : Topology.t;
  edits : Incr.edit list;
}

(* Fleet sizes per fault bound. The seed draws bandwidth, R and the
   edit script, not the sizes, so every seed costs about the same. *)
let admit_sizes = [ (1, [ 16; 20; 24; 28; 32; 36; 40 ]); (2, [ 8; 10; 12; 14; 16 ]) ]

let admit_inputs ~seed () =
  Array.of_list
    (List.concat_map
       (fun (f, sizes) ->
         List.map
           (fun n ->
             let rng = Rng.create ((seed * 1000) + (f * 100) + n) in
             let workload = Generators.fleet ~n_nodes:n in
             let topology =
               Topology.dual_bus ~n
                 ~bandwidth_bps:(Rng.int_in rng 8 12 * 1_000_000 * n)
                 ~latency:(Time.us 50)
             in
             let r = Time.ms (Rng.int_in rng 80 160) in
             let flows = Array.of_list (Graph.flows workload) in
             let retuned = Rng.pick rng flows and template = Rng.pick rng flows in
             let fresh =
               1 + Array.fold_left (fun m (fl : Graph.flow) -> Stdlib.max m fl.flow_id) 0 flows
             in
             {
               cfg = Planner.default_config ~f ~recovery_bound:r;
               workload;
               topology;
               edits =
                 [
                   Incr.Set_recovery_bound (Time.add r (Time.ms (Rng.int_in rng 10 60)));
                   Incr.Retune_flow
                     {
                       flow = retuned.flow_id;
                       msg_size = Some (2 * retuned.msg_size);
                       deadline = None;
                     };
                   Incr.Add_flow { template with flow_id = fresh };
                   Incr.Remove_flow fresh;
                 ];
             })
           sizes)
       admit_sizes)

type admit_state = {
  admit_inputs : admit_input array;
  finals : (Planner.t * string) option array;
      (** first pass: the edited strategy and its incremental report *)
  passed : bool array;  (** each input's admission verdict *)
  mutable admit_failed : int;
  mutable admit_ms : float list;
  mutable reverify_ms : float list;
}

let admit_fail st what =
  Printf.printf "check: %s\n" what;
  st.admit_failed <- st.admit_failed + 1

(* One admission as [btr check] runs it (plan, then verify from
   scratch), then the edit session [btr check --delta] runs: a
   memo-filling verify and one incremental apply per edit. *)
let admit_cycle st i =
  let it = st.admit_inputs.(i) in
  Trace.span "cycle" (fun () ->
      let t0 = now () in
      let built = Trace.span "planner.build" (fun () -> Planner.build it.cfg it.workload it.topology) in
      let report =
        Result.map (fun s -> Trace.span "check.verify" (fun () -> Check.verify s)) built
      in
      if !Trace.on then st.admit_ms <- ((now () -. t0) *. 1000.0) :: st.admit_ms;
      st.passed.(i) <- (match report with Ok r -> Check.passed r | Error _ -> false);
      match (built, Trace.span "check.incr.init" (fun () -> Incr.init it.cfg it.workload it.topology)) with
      | Error _, Error _ -> ()
      | Ok _, Error _ | Error _, Ok _ -> admit_fail st "Planner.build and Incr.init disagree"
      | Ok s, Ok inc ->
        if !Trace.on then begin
          add "strategies" 1.0;
          add "modes" (float_of_int (Planner.stats s).Planner.modes)
        end;
        (match report with
        | Ok r when Check.report_to_json r <> Check.report_to_json (Incr.report inc) ->
          admit_fail st "Incr.init report differs from Check.verify"
        | _ -> ());
        Incr.reset_memo_stats inc;
        let apply state e =
          Option.bind state (fun s ->
              let t0 = now () in
              match Trace.span "check.incr.apply" (fun () -> Incr.apply s e) with
              | Ok (s', _) ->
                if !Trace.on then
                  st.reverify_ms <- ((now () -. t0) *. 1000.0) :: st.reverify_ms;
                Some s'
              | Error err ->
                admit_fail st (Format.asprintf "Incr.apply: %a" Incr.pp_apply_error err);
                None)
        in
        Option.iter
          (fun fin ->
            if !Trace.on then begin
              let m = Incr.memo_stats fin in
              add "memo_hits"
                (float_of_int
                   (m.static_hits + m.reserve_hits + m.rta_hits + m.sched_hits
                  + m.routes_hits + m.evb_hits + m.cuts_hits));
              add "memo_misses"
                (float_of_int
                   (m.static_misses + m.reserve_misses + m.rta_misses + m.sched_misses
                  + m.routes_misses + m.evb_misses + m.cuts_misses))
            end;
            let json = Check.report_to_json (Incr.report fin) in
            match st.finals.(i) with
            | None -> st.finals.(i) <- Some (Incr.strategy fin, json)
            | Some (_, json0) -> if json <> json0 then admit_fail st "edit session not deterministic")
          (List.fold_left apply (Some inc) it.edits))

(* The incremental report after the edit script must be byte-identical
   to planning and verifying the edited system from scratch. *)
let check_finals st =
  Array.iter
    (function
      | None -> ()
      | Some (s, json) -> (
        match Planner.build (Planner.config s) (Planner.workload s) (Planner.topology s) with
        | Error _ -> admit_fail st "edited system no longer plans from scratch"
        | Ok fresh ->
          if Check.report_to_json (Check.verify fresh) <> json then
            admit_fail st "Incr.report differs from a from-scratch Check.verify"))
    st.finals

let admit_layer_metrics st =
  let t = Trace.totals () in
  let calls = calls t in
  let hits = get "memo_hits" and misses = get "memo_misses" in
  [
    ("planner.build_ms", span_ms t "planner.build" ~per:(calls "planner.build"));
    ("planner.modes", ratio (get "modes") (get "strategies"));
    ("check.verify_ms", span_ms t "check.verify" ~per:(calls "check.verify"));
    ("check.incr.init_ms", span_ms t "check.incr.init" ~per:(calls "check.incr.init"));
    ("check.incr.apply_ms",
      span_ms t "check.incr.apply" ~per:(calls "check.incr.apply"));
    ("check.incr.memo_hit_ratio", ratio hits (hits +. misses));
    ("admit_p50_ms", quantile 0.5 st.admit_ms);
    ("admit_p90_ms", quantile 0.9 st.admit_ms);
    ("reverify_p50_ms", quantile 0.5 st.reverify_ms);
    ("reverify_p90_ms", quantile 0.9 st.reverify_ms);
    ("trace.root_self_ms", self_ms t "cycle" ~per:(calls "cycle"));
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* Every per-layer metric with its unit, in report order. A workload
   reports 0 for a layer it never calls. *)
let per_layer_units =
  [
    ("campaign.compile_ms", "ms");
    ("campaign.plan_lookup_ms", "ms");
    ("campaign.plan_cache_hit_ratio", "ratio");
    ("campaign.plan_derived", "count");
    ("campaign.shrink_ms", "ms");
    ("campaign.shrink_replays", "count");
    ("campaign.pool.busy_frac", "ratio");
    ("campaign.pool.cpu_ms_per_trial", "ms");
    ("gc.minor_collections_per_trial", "count");
    ("gc.major_collections_per_trial", "count");
    ("planner.build_ms", "ms");
    ("planner.modes", "count");
    ("check.verify_ms", "ms");
    ("check.incr.init_ms", "ms");
    ("check.incr.apply_ms", "ms");
    ("check.incr.memo_hit_ratio", "ratio");
    ("admit_p50_ms", "ms");
    ("admit_p90_ms", "ms");
    ("reverify_p50_ms", "ms");
    ("reverify_p90_ms", "ms");
    ("runtime.deploy_ms", "ms");
    ("runtime.run_ms", "ms");
    ("runtime.alloc_words_per_trial", "words");
    ("runtime.mode_changes", "count");
    ("sim.events_per_trial", "count");
    ("sim.events_per_s", "1/s");
    ("sim.words_per_event", "words");
    ("sim.pool_reuse_ratio", "ratio");
    ("net.msgs_per_trial", "count");
    ("net.bytes_data_per_trial", "bytes");
    ("net.bytes_control_per_trial", "bytes");
    ("net.relay_dropped", "count");
    ("detect.watchdog_missing", "count");
    ("detect.watchdog_late", "count");
    ("detect.corroborations", "count");
    ("evidence.records_admitted", "count");
    ("evidence.dedup_hits", "count");
    ("evidence.validation_failures", "count");
    ("evidence.useful_ratio", "ratio");
    ("evidence.authlog_entries_per_trial", "count");
    ("metrics.periods_per_trial", "count");
    ("metrics.judge_ms", "ms");
    ("trace.untraced_trials_per_s", "1/s");
    ("trace.traced_trials_per_s", "1/s");
    ("trace.overhead_frac", "ratio");
    ("trace.root_self_ms", "ms");
  ]

let per_layer measured =
  List.map
    (fun (name, unit) ->
      metric name unit (Option.value ~default:0.0 (List.assoc_opt name measured)))
    per_layer_units

type plan = {
  jobs : int;
  setup : unit -> unit;  (** builds the inputs *)
  rebuild : unit -> unit;  (** builds them again and drops them *)
  units : unit -> int;  (** inputs per pass *)
  run : int -> int;  (** runs input [i] untraced; returns its verdicts *)
  traced : int -> int;  (** the same, through the traced calls *)
  layers : unit -> (string * float) list;
  checks : unit -> unit;
  failed : unit -> int;
  summary : unit -> string;
}

let campaign_plan (w : campaign_workload) ~seed =
  let build () = Array.init w.campaigns (compile_block w ~seed) in
  let st = ref None in
  let state () = Option.get !st in
  {
    jobs = w.jobs;
    setup =
      (fun () ->
        let inputs = build () in
        st := Some { inputs; reference = Array.make w.campaigns None; failed = 0 });
    rebuild = (fun () -> ignore (Sys.opaque_identity (build ())));
    units = (fun () -> w.campaigns);
    run = (fun i -> run_campaign w (state ()) i);
    traced = (fun i -> traced_campaign w ~seed (state ()) i);
    layers = campaign_layer_metrics;
    checks = (fun () -> (state ()).failed <- (state ()).failed + check_pins w);
    failed = (fun () -> (state ()).failed);
    summary =
      (fun () ->
        let s = state () in
        let tally name =
          Array.fold_left
            (fun a r ->
              match r with
              | None -> a
              | Some (r : Campaign.result) ->
                a
                + List.length
                    (List.filter
                       (fun (v : Campaign.verdict) -> Campaign.outcome_name v.outcome = name)
                       r.verdicts))
            0 s.reference
        in
        let replays =
          Array.fold_left
            (fun a r ->
              match r with
              | None -> a
              | Some (r : Campaign.result) -> a + executed [] r.violations)
            0 s.reference
        in
        let fingerprints =
          Array.to_list
            (Array.map (function Some r -> Campaign.fingerprint r | None -> "") s.reference)
        in
        Printf.sprintf
          "verdicts per pass: pass %d, violation %d, rejected %d, error %d; shrinker replays \
           %d; fingerprint %s"
          (tally "pass") (tally "violation") (tally "rejected") (tally "error") replays
          (Fnv.to_hex (Fnv.hash64_lines fingerprints)));
  }

let admit_plan ~seed =
  let st = ref None in
  let state () = Option.get !st in
  {
    jobs = 1;
    setup =
      (fun () ->
        let inputs = admit_inputs ~seed () in
        st :=
          Some
            {
              admit_inputs = inputs;
              finals = Array.make (Array.length inputs) None;
              passed = Array.make (Array.length inputs) false;
              admit_failed = 0;
              admit_ms = [];
              reverify_ms = [];
            });
    rebuild = (fun () -> ignore (Sys.opaque_identity (admit_inputs ~seed ())));
    units = (fun () -> Array.length (state ()).admit_inputs);
    run = (fun i -> admit_cycle (state ()) i; 1);
    traced = (fun i -> admit_cycle (state ()) i; 1);
    layers = (fun () -> admit_layer_metrics (state ()));
    checks = (fun () -> check_finals (state ()));
    failed = (fun () -> (state ()).admit_failed);
    summary =
      (fun () ->
        let s = state () in
        Printf.sprintf "verdicts per pass: %d admissions, %d admitted, %d edits after each"
          (Array.length s.admit_inputs)
          (Array.fold_left (fun a ok -> if ok then a + 1 else a) 0 s.passed)
          (List.length s.admit_inputs.(0).edits));
  }

let workloads = [ "clique_campaign"; "clique_parallel"; "multihop_grid"; "plan_admit" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans_file = ref "" in
  let usage =
    "trialbench --workload {" ^ String.concat "|" workloads
    ^ "} --seed N --seconds S --trace 0|1 [--spans FILE]"
  in
  let args =
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured wall time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans_file, "FILE  write the traced run's spans here");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.0
     || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "host: nproc=%d ocaml=%s OCAMLRUNPARAM=%s\n" nproc Sys.ocaml_version
    (Option.value ~default:"(unset)" (Sys.getenv_opt "OCAMLRUNPARAM"));
  let words, quick, minor = alloc_self_test () in
  let alloc_ok = quick >= 0.95 *. float_of_int words in
  Printf.printf
    "alloc self-test: a worker domain allocated %d words; Gc.quick_stat saw %.0f, \
     Gc.minor_words saw %.0f (%s)\n"
    words quick minor (if alloc_ok then "ok" else "FAILED");
  let p =
    match !workload with
    | "clique_campaign" -> campaign_plan (clique ~jobs:1) ~seed:!seed
    | "clique_parallel" -> campaign_plan (clique ~jobs:nproc) ~seed:!seed
    | "multihop_grid" -> campaign_plan multihop ~seed:!seed
    | _ -> admit_plan ~seed:!seed
  in
  Printf.printf "workload %s: seed %d, jobs %d, %gs measured\n%!" !workload !seed p.jobs
    !seconds;
  let t0 = now () in
  p.setup ();
  let first_setup = now () -. t0 in
  let units = p.units () in
  (* Warm-up: the first input once, untimed. *)
  ignore (p.run 0);
  let metrics, attempted =
    if !trace = 0 then begin
      (* Set-up is repeated after every input of the window, so its
         median samples the same host conditions as the trials. *)
      let w = measure ~between:p.rebuild ~seconds:!seconds ~min_passes:3 ~units p.run in
      let setup_s = quantile 0.5 (first_setup :: w.setups) in
      let rss = peak_rss_mb () in
      Printf.printf "%d trials in %d passes, %.3fs\n" w.items w.passes w.wall;
      ( [
          metric "setup_s" "s" setup_s;
          metric "trials_per_s" "1/s" (rate w);
          metric "alloc_words_per_trial" "words" (per_item w w.words);
          metric "peak_rss_mb" "MB" rss;
        ],
        w.items )
    end
    else begin
      let half = !seconds /. 2.0 in
      let untraced = measure ~seconds:half ~min_passes:1 ~units p.run in
      Trace.on := true;
      let traced = measure ~seconds:half ~min_passes:1 ~units p.traced in
      Trace.on := false;
      if !spans_file <> "" then Trace.write !spans_file;
      Printf.printf "untraced: %d trials in %.3fs; traced: %d trials in %.3fs\n"
        untraced.items untraced.wall traced.items traced.wall;
      ( per_layer
          (pool_metrics ~jobs:p.jobs ~untraced ~traced @ p.layers ()),
        untraced.items + traced.items )
    end
  in
  p.checks ();
  print_endline (p.summary ());
  let failed = p.failed () + if alloc_ok then 0 else 1 in
  emit ~correct:(failed = 0) ~attempted ~failed metrics
