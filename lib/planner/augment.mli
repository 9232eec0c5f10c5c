(** Dataflow augmentation (paper §4.1, first planner step).

    The planner "first augments the dataflow graph with additional
    tasks": replicas, checking tasks and verification tasks. All of
    them consume CPU and bandwidth and are scheduled together with the
    workload — there are no extra resources for BTR.

    Replication model: each protected compute task is cloned into
    [degree] {e lanes} (lane 0 is the primary). Lane [i] of a task
    consumes from lane [i] of its producers (or from the unreplicated
    source), so the lanes form redundant, independent pipelines.
    Actuator sinks consume the primary lane's output — this is how BTR
    "can use the output of some replicas without waiting for the
    others" (§1). Every lane additionally sends a signed digest of its
    output to a {e checking task}, which detects divergence and — since
    tasks are deterministic functions of signed inputs — replays the
    computation to identify the culprit (the PeerReview insight, cited
    in §4.2). Checker WCET therefore includes one replay of the checked
    task. Per-node {e verification guard} tasks reserve the CPU needed
    to validate and endorse incoming evidence (§4.3).

    Sources and sinks are physical (sensors/actuators) and cannot be
    replicated in software; they stay pinned and unreplicated. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type role =
  | Original  (** an unreplicated original task (source/sink/unprotected) *)
  | Replica of { orig : Task.id; lane : int }
  | Checker of { orig : Task.id }  (** compares the lanes of [orig] *)
  | Guard of { node : int }  (** per-node evidence-verification reserve *)

type index
(** Roles, lanes, checkers and flow origins, indexed by id: the
    accessors below are O(1). *)

type t = {
  graph : Graph.t;  (** the augmented dataflow graph *)
  original : Graph.t;
  degree : int;  (** number of lanes *)
  index : index;
}

val role_of : t -> Task.id -> role
(** Raises [Invalid_argument] for an id that is not a task of [graph]. *)

val replicas_of : t -> Task.id -> Task.id list
(** Augmented ids of the lanes of an original task, by lane order;
    [[orig]] itself for unreplicated tasks. *)

val checker_of : t -> Task.id -> Task.id option
(** The checker watching an original task, if it is protected. *)

val orig_of : t -> Task.id -> Task.id
(** The original task behind an augmented id (itself for guards'
    pseudo-originals and unreplicated tasks). *)

val lane_of : t -> Task.id -> int
(** Lane index (0 for originals, checkers and guards). *)

val checkers : t -> Task.id list
(** In [graph]'s task order. *)

val guards : t -> (Task.id * int) list
(** Guard task ids with the node they are pinned to. *)

val digest_flow_ids : t -> int list
(** Flow ids of the replica→checker digest flows. *)

val is_protected : t -> Task.id -> bool
(** Whether the original task was replicated. *)

val orig_flow_of : t -> int -> (int * int) option
(** [(original flow id, lane)] behind an augmented data flow id;
    [None] for replica→checker digest flows. *)

val augment :
  Graph.t ->
  nodes:int list ->
  degree:int ->
  protect_level:Task.criticality ->
  checker_overhead:Time.t ->
  guard_wcet:Time.t ->
  digest_size:int ->
  t
(** Builds the augmented workload. [degree] >= 1 lanes for compute
    tasks with criticality >= [protect_level]; one checker per
    protected task (WCET = task WCET + [checker_overhead], modelling
    replay-based diagnosis); one guard per node in [nodes] with WCET
    [guard_wcet]. Raises [Invalid_argument] for degree < 1. *)
