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
    + costs every transition into the mode ({!moves}: the tasks that
      move, the state that migrates and its bounded transfer time) and
      derives a recovery-time bound; the static
      verifier ({!Btr_check.Check}) admits the strategy against the
      requested R.

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
  reassignment : reassignment;
  shares : Net.shares option;  (** must match the runtime network *)
}

val default_config : f:int -> recovery_bound:Time.t -> config
(** degree = f+1, protect Medium and above, Minimal, default shares. *)

val evidence_size : int
(** Bytes of one evidence record (160), in every evidence bound. *)

val detection_margin : Time.t
(** Detection slack beyond one period in every recovery bound (1ms). *)

val watchdog_margin : period:Time.t -> Time.t
(** The runtime watchdog's lateness allowance, which the verifier's
    omission analysis also assumes: {!detection_margin} plus a tenth of
    [period] of queueing slack. *)

val protected_sink_flows : config -> Graph.t -> Graph.flow list
(** Sink flows produced at or above [protect_level], in declaration
    order: the outputs Definition 3.1 guarantees. *)

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

type plan = {
  faulty : int list;  (** this mode's fault pattern, sorted *)
  aug : Augment.t;  (** augmented workload actually running *)
  schedule : Schedule.t;
      (** the mode's static table; {!Schedule.node_of} on it is where a
          task runs *)
  shed_below : Task.criticality option;
      (** tasks strictly below this level were shed; [None] = nothing *)
  lost_tasks : Task.id list;
      (** original pinned tasks lost with their faulty node *)
  dropped : int list;
      (** the workload's sink flows this mode does not carry (shed or
          lost), in {!Graph.sink_flows} order *)
}

val assignments : plan -> (Task.id * int) list
(** Every placed task with its node, in the augmented graph's task
    order. *)

type move = {
  task : Task.id;  (** augmented task, placed in both plans *)
  from_node : int;
  to_node : int;
  state_size : int;  (** the task's [state_size] in the new plan *)
  migrates : bool;
      (** [from_node] survives the new mode, so the state ships from
          it; otherwise the state is lost and the task restarts fresh *)
}

val moves : from_plan:plan -> to_plan:plan -> move list
(** Every augmented task placed in both plans on different nodes, in
    [from_plan]'s task order. This is the only derivation of a
    mode change's moves: {!transition} costs them, and the runtime ships
    ([from_node] sends the [state_size] bytes when it [migrates] and the
    task has state) and awaits state from the same list. *)

type transition = {
  from_faulty : int list;
  new_fault : int;
  to_faulty : int list;
  moved : move list;  (** {!moves} from the parent plan to this one *)
  state_bytes : int;  (** the [state_size] of every migrating move *)
  migration_bound : Time.t;
      (** the largest per-sender total control-class transfer time of
          the migrating moves, each charged at least one byte *)
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

type evidence
(** The evidence-bound structure of one topology under one config: the
    fault-free sweep of every source with its [f + 1] costliest
    control-class destinations ({!Topology.spread}), computed on the
    first bound asked of it. *)

val evidence : config -> Topology.sweeps -> evidence

val evidence_bound : evidence -> faulty:int list -> Time.t
(** Worst-case control-class transfer time of one evidence record
    between any two survivors of [faulty], over the routes of
    [Topology.router sweeps ~avoid:faulty] and the config's reserved
    shares (the topology's defaults when [shares] is [None]): the
    evidence-distribution term of every transition's recovery bound,
    and the verifier's check of it. O(n · (f + 1)) per fault pattern,
    plus a sweep for each survivor whose fault-free sweep a faulty node
    relays in. *)

val build :
  ?evidence_bound:(evidence -> int list -> Time.t) ->
  config ->
  Graph.t ->
  Topology.t ->
  (t, error) result
(** [evidence_bound ev faulty] supplies the evidence-distribution bound
    of each mode, asked once per mode with a nonempty, sorted fault
    pattern and the build's own {!evidence}; the default is
    {!evidence_bound}. A caller passing its own must return exactly
    that value (a memo over it, flushed whenever the topology or shares
    change), so the strategy is identical either way. A build allocates
    nothing per placement candidate or transfer probe. *)

val with_recovery_bound : t -> Time.t -> t
(** The same strategy re-admitted against a different requested R.
    O(1) and sound: R is the one config field planning never reads —
    plans, schedules and transition bounds are all R-independent. The
    campaign plan cache uses this to derive R-grid neighbors without
    replanning. *)

val kept : t -> plan -> Task.t list
(** The workload tasks the plan runs, in workload order: those at or
    above [shed_below] and not lost with a faulty node. Augmentation
    wires exactly these and the flows between them. *)

val config : t -> config
val workload : t -> Graph.t
val topology : t -> Topology.t
val stats : t -> stats

val plan_for : t -> faulty:int list -> plan option
(** The plan for a fault pattern (order-insensitive); [None] if
    |faulty| > f or an unknown node is named. *)

val initial_plan : t -> plan
(** The fault-free mode. *)

val all_plans : t -> plan list
val all_transitions : t -> transition list
