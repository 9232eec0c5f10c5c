(** The BTR runtime: a strategy deployed on the simulated CPS.

    Each node executes the static schedule of its current plan,
    exchanging signed task outputs over the reserved-bandwidth network.
    The four §4 components run exactly as sketched:

    - {b fault detector}: replica checkers replay outputs against the
      signed inputs each lane presented; per-node watchdogs turn the
      static schedule into arrival windows and report omissions (as
      path declarations) and timing faults; consumers cross-report
      received-value digests to checkers so equivocation between a
      replica's data and its digest is caught; invalid evidence is
      counted against its signer.
    - {b evidence distributor}: fresh valid evidence is signed,
      validated hop by hop, deduplicated and flooded on the control
      class, whose bandwidth is statically reserved.
    - {b mode switcher}: every node keeps an append-only fault set;
      valid evidence grows it; the strategy maps the grown set to the
      next plan; transitions stop/start/migrate tasks and take effect
      at period boundaries, waiting (boundedly) for migrated state.

    All outputs reaching the actuator sinks are judged against the
    {!Golden} executor in {!Metrics}. The whole run is deterministic in
    the seed. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Planner = Btr_planner.Planner
module Fault = Btr_fault.Fault
module Net = Btr_net.Net
module Topology = Btr_net.Topology

type config = {
  seed : int;
  residual_loss : float;
      (** per-hop message-loss probability surviving FEC; the paper's
          model assumes this is negligible (§2.1) *)
  omission_strikes : int;
      (** missing messages a path must accumulate before the watchdog
          declares it problematic; raise above 1 to tolerate residual
          loss at the price of slower omission detection *)
}

val default_config : config
(** seed 1, no residual loss, declare on the first missing message. *)

val state_wait_boundaries : int
(** 3: period boundaries a staged mode waits for migrating state before
    starting the task fresh anyway. *)

val forged_evidence_threshold : int
(** 3: invalid evidence records from one signer before a node accuses
    it of forgery. *)

type t

val create :
  ?config:config ->
  ?behaviors:(Task.id * Behavior.fn) list ->
  ?script:Fault.script ->
  ?obs:Btr_obs.Obs.t ->
  strategy:Planner.t ->
  unit ->
  t
(** Builds engine, network, keys, nodes (all starting in the fault-free
    plan) and schedules the fault script. [behaviors] override the
    default synthetic behaviours of the original workload. [obs]
    (default: a fresh null-sink context) is threaded through every
    layer — engine, network, watchdogs, evidence distributors, metrics —
    and receives the full event stream when a recording sink is
    attached; its registry carries the counters either way. *)

val obs : t -> Btr_obs.Obs.t
(** The observability context every layer of this runtime reports to. *)

val on_actuate :
  t -> orig_flow:int -> (period:int -> value:float array -> at:Time.t -> unit) -> unit
(** Called when the sink acts on a value for the given original sink
    flow (plant examples hook actuators here). *)

val run : t -> horizon:Time.t -> unit
(** Runs whole periods until the last period boundary <= horizon, then
    finalizes metrics. Can be called once. *)

val metrics : t -> Metrics.t
val golden : t -> Golden.t
val engine : t -> Btr_sim.Engine.t
val net_stats : t -> Net.stats
val strategy : t -> Planner.t

val node_fault_nodes : t -> int -> int list
(** The (attributed) fault set a node currently believes, sorted. *)

val node_mode : t -> int -> int list
(** The fault pattern of the plan the node is currently executing. *)

val evidence_seen : t -> int -> Btr_evidence.Evidence.record list
val mode_changes : t -> (Time.t * int * int list) list
(** (when, node, new mode) for every plan switch that happened. *)

val control_bytes : t -> int
(** Total bytes sent on the control class (evidence + state + acks). *)

val node_log : t -> int -> Btr_evidence.Authlog.t * Btr_evidence.Authlog.checkpoint list
(** The node's tamper-evident commitment log and the checkpoints it
    signed at each period boundary (oldest first); auditable with
    {!Btr_evidence.Authlog.audit}. *)

val auth : t -> Btr_crypto.Auth.t
(** The deployment's key authority, for verifying logs and evidence. *)
