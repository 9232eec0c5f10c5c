(** Canned and randomized workloads.

    The avionics and SCADA workloads instantiate the two motivating
    scenarios in the paper's introduction and §2 case study; the random
    layered generator feeds property tests and the planner-scaling
    experiment (E7). *)

open Btr_util

val min_nodes : (string * int) list
(** The smallest [n_nodes] each generator accepts, by workload name:
    [avionics] 4, [scada] 3, [random] 1, [fleet] 4. Every generator
    raises [Invalid_argument] below its entry; callers taking a node
    count from the user check it with {!check_nodes} first. *)

val check_nodes : string -> n_nodes:int -> (unit, string) result
(** [Error] naming the minimum when [n_nodes] is below the
    {!min_nodes} entry of the named workload; [Ok ()] otherwise,
    including for names the table does not list. *)

val avionics : n_nodes:int -> Graph.t
(** Mixed-criticality flight-deck workload on [n_nodes] >= 4 nodes:
    - safety-critical flight-control loop: two redundant sensors →
      state estimator → control law → elevator actuator, 20ms period,
      tight sink deadlines;
    - high-criticality engine monitor → alarms;
    - medium navigation/display chain;
    - best-effort in-flight entertainment tasks (the paper's example of
      work to shed under faults).
    Sources/sinks are pinned across the first nodes. *)

val scada : n_nodes:int -> Graph.t
(** Pressure-vessel control (paper §2 "when a sensor indicates a
    pressure increase … the system may need to respond within seconds by
    opening a safety valve"): pressure sensor → PLC logic → relief-valve
    actuator at [Safety_critical]; trend logger and HMI at lower
    criticality. Period 50ms; valve flow deadline 200ms. *)

val random_layered :
  rng:Rng.t ->
  n_nodes:int ->
  layers:int ->
  width:int ->
  ?period:Time.t ->
  ?utilization_target:float ->
  unit ->
  Graph.t
(** A layered DAG: [layers] layers of up to [width] compute tasks
    between one source layer and one sink layer; each task feeds 1–2
    tasks of the next layer. WCETs are scaled so total utilization is
    roughly [utilization_target] (default 0.5 per node at n_nodes).
    Criticalities are drawn uniformly. Deterministic in [rng]. *)

val random_layered_max_tasks : layers:int -> width:int -> int
(** The most tasks {!random_layered} returns for any [rng]: up to two
    sources, [layers × width] compute tasks and two sinks. *)

val fleet : n_nodes:int -> Graph.t
(** Fleet-scale workload for the planner/verifier scaling bench (E7):
    one pinned telemetry→aggregator pair per vehicle (Low criticality,
    node-local flow) plus four protected control pipelines — pinned
    hazard sensor → migratable controller (High, replicated by the
    planner) → pinned actuator with a 15ms sink deadline. Task and flow
    counts grow linearly in [n_nodes]; cross-node traffic stays
    constant, so verification cost is dominated by per-mode analysis
    rather than by the workload encoding. Period 20ms. *)
