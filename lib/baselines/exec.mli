(** Baseline fault-tolerance protocols on the same substrate.

    The paper positions BTR against masking BFT (PBFT [17], §3.1), the
    reactive-replication middle ground (ZZ [71], §5), self-stabilization
    ([28], §3.1) and, implicitly, running unprotected. To compare like
    with like, all four run here on the {e same} simulator, network
    model, workload, behaviours, golden reference and metrics as the
    BTR runtime — only the protocol differs.

    Unlike BTR these baselines schedule dynamically (data-driven
    execution with per-node CPU serialization): that is faithful to how
    these protocols are deployed, and the loss of static timing
    guarantees is precisely one of the paper's arguments (E4).

    - {!Unreplicated}: each task runs once; no detection, no recovery.
    - {!Pbft}: every protected task runs on a group of [3f+1] nodes;
      after computing, group members exchange signed digests all-to-all
      and release their value only with a [2f+1] matching quorum;
      consumers and sinks accept a value once [f+1] received copies
      match. Masks up to [f] Byzantine replicas, at 3f+1 execution cost
      and two extra message rounds on every dataflow edge.
    - {!Zz}: [f+1] active replicas; consumers accept when all [f+1]
      copies agree, and otherwise (mismatch or timeout) trigger [f]
      standby recomputations on spare nodes and take an [f+1] matching
      quorum of the enlarged set — cheap when fault-free, slow under
      attack.
    - {!Selfstab}: unreplicated, but a periodic audit exposes each
      faulty node independently with some probability, after which its
      tasks are reassigned. Converges {e eventually}; no bound. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Fault = Btr_fault.Fault

type style =
  | Unreplicated
  | Pbft of { f : int }
  | Zz of { f : int; timeout : Time.t }
  | Selfstab of { audit_interval : Time.t; expose_prob : float }

val style_name : style -> string

type t

val run :
  ?seed:int ->
  ?behaviors:(Task.id * Btr.Behavior.fn) list ->
  ?obs:Btr_obs.Obs.t ->
  workload:Graph.t ->
  topology:Topology.t ->
  style:style ->
  script:Fault.script ->
  horizon:Time.t ->
  unit ->
  t

val metrics : t -> Btr.Metrics.t

val replication_factor : t -> float
(** Mean executions per protected compute task per period. *)

val cpu_utilization : t -> float
(** Total busy CPU time across nodes / (nodes × horizon). *)

val bytes_sent : t -> int
