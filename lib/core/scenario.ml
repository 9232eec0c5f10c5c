open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Planner = Btr_planner.Planner
module Fault = Btr_fault.Fault

type spec = {
  workload : Graph.t;
  topology : Topology.t;
  f : int;
  recovery_bound : Time.t;
  script : Fault.script;
  horizon : Time.t;
  seed : int;
  behaviors : (Task.id * Behavior.fn) list;
  tune : Planner.config -> Planner.config;
  obs : Btr_obs.Obs.t option;
}

let spec ~workload ~topology ~f ~recovery_bound ?(script = []) ?horizon
    ?(seed = 1) ?(behaviors = []) ?(tune = Fun.id) ?obs () =
  let horizon =
    match horizon with
    | Some h -> h
    | None -> Time.mul (Graph.period workload) 100
  in
  {
    workload;
    topology;
    f;
    recovery_bound;
    script;
    horizon;
    seed;
    behaviors;
    tune;
    obs;
  }

(* The stack's "hello world": the avionics workload on a 6-node clique,
   one corrupt node injected mid-run, recovering within R = 200ms. The
   CLI's default command and the trace examples in the docs use it, so
   its telemetry exercises every subsystem. *)
let avionics_demo ?(seed = 1) ?obs () =
  let workload = Btr_workload.Generators.avionics ~n_nodes:6 in
  let topology =
    Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
      ~latency:(Time.us 50)
  in
  spec ~workload ~topology ~f:1 ~recovery_bound:(Time.ms 200)
    ~script:
      [ { Fault.at = Time.ms 250; node = 3; behavior = Fault.Corrupt_outputs } ]
    ~horizon:(Time.sec 1) ~seed ?obs ()

(* The planner config a spec will actually build with. [tune] is an
   opaque closure, so the spec itself cannot serve as a cache key; the
   resolved config can (via Planner.config_key). *)
let resolved_config s =
  s.tune (Planner.default_config ~f:s.f ~recovery_bound:s.recovery_bound)

(* The runtime config a deployment will use: the caller's (if any) with
   the spec's seed, which stays authoritative — campaigns vary it per
   trial and cache plans across seeds. *)
let runtime_config ?config s =
  match config with
  | Some c -> { c with Runtime.seed = s.seed }
  | None -> { Runtime.default_config with seed = s.seed }

(* Static verification gate (Def. 3.1): an infeasible strategy is
   rejected with diagnostics instead of being silently simulated. The
   verifier models the watchdog the runtime will actually deploy, so it
   needs the configured strike threshold. *)
let admit ?obs ?(config = Runtime.default_config) strategy =
  let report =
    Btr_check.Check.verify ?obs ~strikes:config.Runtime.omission_strikes strategy
  in
  match Btr_check.Check.to_planner_error report with
  | None -> Ok strategy
  | Some e -> Error e

let plan ?config s =
  match Planner.build (resolved_config s) s.workload s.topology with
  | Error _ as e -> e
  | Ok strategy -> admit ?obs:s.obs ?config strategy

let deploy ?config s strategy =
  Runtime.create
    ~config:(runtime_config ?config s)
    ~behaviors:s.behaviors ~script:s.script ?obs:s.obs ~strategy ()

let prepare ?config s =
  match plan ?config s with
  | Error e -> Error e
  | Ok strategy -> Ok (deploy ?config s strategy)

let run ?config s =
  match prepare ?config s with
  | Error e -> Error e
  | Ok rt ->
    Runtime.run rt ~horizon:s.horizon;
    Ok rt

let prepare_unchecked ?config s =
  match Planner.build (resolved_config s) s.workload s.topology with
  | Error e -> Error e
  | Ok strategy -> Ok (deploy ?config s strategy)

let run_unchecked ?config s =
  match prepare_unchecked ?config s with
  | Error e -> Error e
  | Ok rt ->
    Runtime.run rt ~horizon:s.horizon;
    Ok rt
