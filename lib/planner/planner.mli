(** The offline planner (paper §4.1).

    Before the system runs, the planner computes a {e strategy}: one
    {e plan} (a distributed schedule) per anticipated fault pattern —
    every subset of at most [f] nodes — plus the mode {e transitions}
    between them. The strategy is installed in every node so that, at
    runtime, valid evidence of a fault deterministically selects the
    next plan with no online (re)scheduling and no central scheduler to
    attack.

    For each mode the planner:
    + drops tasks pinned to faulty nodes (their sensors/actuators are
      physically gone) and guards of faulty nodes;
    + places the augmented tasks on the surviving nodes under hard
      constraints — no two lanes of the same task on one node, a
      checker never co-located with a lane it checks — using locality
      and load-balance heuristics, preferring to keep the parent mode's
      assignment (minimal reassignment, so transitions move little
      state);
    + derives the static schedule; if unschedulable, sheds the lowest
      criticality level present and retries (mixed-criticality
      degradation, §1);
    + costs every transition into the mode (state to migrate, bounded
      transfer time) and derives a recovery-time bound, which is
      admitted against the requested R.

    The recovery bound for a transition decomposes exactly as the
    paper's architecture does: detection (≤ one period + margin, the
    checker runs every period) + evidence distribution (bounded by the
    reserved control bandwidth) + state migration + activation at the
    next period boundary. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Schedule = Btr_sched.Schedule
module Topology = Btr_net.Topology
module Net = Btr_net.Net

type reassignment = Minimal | Naive

type config = {
  f : int;  (** fault bound: plans exist for every ≤ f node subset *)
  recovery_bound : Time.t;  (** requested R *)
  protect_level : Task.criticality;  (** replicate at or above this *)
  degree : int;  (** replica lanes per protected task; use [f + 1] *)
  checker_overhead : Time.t;
  guard_wcet : Time.t;
  digest_size : int;
  evidence_size : int;
  detection_margin : Time.t;  (** watchdog slack beyond the schedule *)
  reassignment : reassignment;
  shares : Net.shares option;  (** must match the runtime network *)
}

val default_config : f:int -> recovery_bound:Time.t -> config
(** degree = f+1, protect Medium and above, 100µs checker overhead,
    200µs guards, 32B digests, 160B evidence, 1ms margin, Minimal. *)

val config_key : config -> string
(** A total, deterministic serialization of a config: equal fields give
    equal keys, regardless of how the config was produced (e.g. by
    different [Scenario.spec.tune] closures). Strategy caches — the
    campaign plan cache in particular — key on this, never on physical
    equality of configs or closures. Covers every field, including the
    bandwidth shares. *)

val config_build_key : config -> string
(** {!config_key} with [recovery_bound] zeroed: R is the one config
    field planning never reads, so configs with equal build keys get
    identical plans and differ at most in their admission answer (see
    {!with_recovery_bound}). *)

val fault_patterns : int list -> int -> int list list
(** [fault_patterns nodes f]: every subset of [nodes] of size at most
    [f] (none for a negative [f] but the empty one), each sorted,
    smallest first — the modes a strategy plans and the verifier
    checks. *)

val check_plan_size : nodes:int -> f:int -> tasks:int -> (unit, string) result
(** Refuses a strategy too large to plan: [Error] with a message naming
    the estimate when a [tasks]-task workload on [nodes] nodes at fault
    bound [f] would place more than 2,000,000 tasks. The estimate is
    Σ_{k ≤ f} C(nodes, k) modes, each placing up to [f + 1] lanes and a
    checker per task plus one guard per node, computed in floats so huge
    inputs cannot overflow. Planning and verification hold about 0.5 KB
    per placement (100 nodes at f = 1 peak near 40 MB), so the limit
    keeps a strategy near 1 GB; every size the benchmarks plan is far
    below it. Such inputs are refused up front instead of exhausting
    memory mid-plan. *)

type assignment
(** Augmented task → node, indexed by task id. *)

type plan = {
  faulty : int list;  (** this mode's fault pattern, sorted *)
  aug : Augment.t;  (** augmented workload actually running *)
  assignment : assignment;
  schedule : Schedule.t;
  shed_below : Task.criticality option;
      (** tasks strictly below this level were shed; [None] = nothing *)
  lost_tasks : Task.id list;
      (** original pinned tasks lost with their faulty node *)
}

val assignment_of : plan -> Task.id -> int option
(** The node a task runs on in this mode, in O(1); [None] when the task
    is not placed. *)

val assignments : plan -> (Task.id * int) list
(** Every placed task with its node, in the augmented graph's task
    order. *)

val assignment_of_list : (Task.id * int) list -> assignment

type transition = {
  from_faulty : int list;
  new_fault : int;
  to_faulty : int list;
  moved : (Task.id * int * int) list;  (** augmented task, from, to *)
  started : Task.id list;  (** newly running (previously shed/absent) *)
  stopped : Task.id list;
  state_bytes : int;  (** migrated from surviving nodes *)
  migration_bound : Time.t;
  recovery_bound : Time.t;
      (** detection + distribution + migration + activation *)
}

type stats = {
  modes : int;
  transitions : int;
  planning_seconds : float;
  worst_recovery : Time.t;
  total_moved_state : int;
}

type t

type error =
  | Unschedulable of { faulty : int list; reason : string }
      (** even the highest-criticality-only workload does not fit *)
  | Disconnected of { faulty : int list }
  | Bad_config of string
  | Rejected of { diagnostics : (string * string) list }
      (** the built strategy failed static verification
          ({!Btr_check.Check}); pairs are (error code, message). The
          planner itself never constructs this — the verifier does, and
          {!Btr.Scenario} surfaces it in place of a deployable strategy. *)

val pp_error : Format.formatter -> error -> unit

val evidence_bound : config -> Topology.t -> faulty:int list -> Time.t
(** Worst-case control-class transfer time of one evidence record
    between any two survivors of [faulty] over the config's reserved
    shares (the topology's defaults when [shares] is [None]) — the
    evidence-distribution term of every transition's recovery bound,
    and the verifier's check of it. *)

val build :
  ?evidence_cache:(string, Time.t) Hashtbl.t ->
  config ->
  Graph.t ->
  Topology.t ->
  (t, error) result
(** [evidence_cache] (keyed by the sorted fault pattern, as
    {!mode_fingerprint}'s [faulty]) memoizes evidence-distribution
    bounds across calls. Callers passing one must flush it whenever the
    topology, shares or evidence size change; results are identical
    either way. *)

(** {1 Incremental replanning}

    Dependency fingerprints let a rebuilt strategy reuse plans from a
    previous one when their inputs are unchanged — the planner half of
    the incremental verification story ({!Btr_check.Incr}). *)

type delta = {
  reused_modes : int;  (** plans taken verbatim from the previous strategy *)
  replanned_modes : int;
  reused_transitions : int;
  rebuilt_transitions : int;
  churn_moved_tasks : int;
      (** across replanned modes, assignments that differ from the
          previous strategy's plan for the same mode — the
          minimal-reassignment churn measure (E7) *)
}

val replan_delta :
  ?evidence_cache:(string, Time.t) Hashtbl.t ->
  t ->
  config ->
  Graph.t ->
  Topology.t ->
  (t * delta, error) result
(** Rebuild against edited inputs, reusing every plan whose dependency
    fingerprint (workload, topology, R-stripped config, fault pattern,
    chained through the parent mode) is unchanged. Reuse is sound
    because planning is deterministic in exactly those inputs: the
    result is the strategy {!build} would produce from scratch. *)

val with_recovery_bound : t -> Time.t -> t
(** The same strategy re-admitted against a different requested R.
    O(1) and sound: R is the one config field planning never reads —
    plans, schedules and transition bounds are all R-independent. The
    campaign plan cache uses this to derive R-grid neighbors without
    replanning. *)

val workload_fingerprint : Graph.t -> int64
(** FNV-1a over a total serialization of everything planning reads from
    the workload (period; task ids, names, kinds, WCETs, criticalities,
    state sizes, pins; flow endpoints, sizes, deadlines). *)

val topology_fingerprint : Topology.t -> int64
(** Likewise for the topology (nodes; link ids, members, bandwidths,
    latencies). *)

val mode_fingerprint : t -> faulty:int list -> int64 option
(** The dependency fingerprint of the mode's plan: equal fingerprints
    (across strategies) imply equal plans. {!Btr_check.Incr} keys its
    per-mode memo tables on this. [None] for unknown fault patterns. *)

val config : t -> config
val workload : t -> Graph.t
val topology : t -> Topology.t
val stats : t -> stats

val plan_for : t -> faulty:int list -> plan option
(** The plan for a fault pattern (order-insensitive); [None] if
    |faulty| > f or an unknown node is named. *)

val initial_plan : t -> plan
(** The fault-free mode. *)

val transition_for : t -> from_faulty:int list -> new_fault:int -> transition option

val all_plans : t -> plan list
val all_transitions : t -> transition list

val admitted : t -> bool
(** Whether every transition's recovery bound is within [recovery_bound]. *)
