(** Multicore fault-injection campaigns: the empirical adversary.

    {!Btr_check.Check} proves the Definition 3.1 obligations offline;
    this module attacks them empirically. A campaign is a declarative
    spec — a parameter {!grid} (workload × topology × nodes × f × R ×
    bandwidth × protect level × control share) crossed with randomized
    fault-schedule generators that draw crash / omission / selective
    omission / delay / corruption / equivocation / babble events from a
    seeded per-trial RNG — compiled into a {!trial} list and executed by
    a pool of OCaml 5 domains claiming chunks of trial indices off one
    atomic counter.

    Determinism is load-bearing: every trial's schedule and runtime seed
    are derived from the campaign seed and the trial index {e at compile
    time}, each trial runs against its own fresh runtime, and all
    telemetry is emitted from the coordinating domain after the pool
    joins — so a campaign's verdict list (and its serialized artifact)
    is byte-identical for any [--jobs] value and any OS scheduling.

    The offline planner is the expensive stage, so strategies are cached
    across the trials that share a configuration, keyed on
    {!Btr_planner.Planner.config_key} of the resolved config (never on
    physical equality of specs — [Scenario.spec.tune] is an opaque
    closure). As in BTR itself, planning happens before deployment:
    every trial's strategy is resolved on the calling domain before the
    pool starts, so the workers share nothing mutable. Any trial that
    violates the bound — some measured recovery exceeds R — is handed
    to {!Shrink} and reported as a minimal schedule plus a
    self-contained OCaml reproducer snippet. *)

open Btr_util
module Task = Btr_workload.Task
module Planner = Btr_planner.Planner
module Fault = Btr_fault.Fault

(** {1 Parameter grids} *)

(** One point of the parameter grid: everything the offline phase
    depends on. [control_share] [None] keeps the topology's default
    bandwidth reservations; [Some c] reserves the fraction [c] of each
    link per member for the control (evidence) class, with 35% data —
    the E8 knob that under-provisions evidence distribution. *)
type params = {
  workload : string;  (** [avionics], [scada] or [random] *)
  topology : string;  (** [clique], [ring] or [dual-bus] *)
  nodes : int;
  f : int;
  r : Time.t;  (** requested recovery bound R *)
  bandwidth_bps : int;
  protect : Task.criticality;
  control_share : float option;
}

val default_params : params
(** The avionics demo configuration: avionics / clique / 6 nodes /
    f = 1 / R = 200ms / 10 MB/s / protect Medium / default shares. *)

val pp_params : Format.formatter -> params -> unit

type grid = {
  workloads : string list;
  topologies : string list;
  node_counts : int list;
  fault_bounds : int list;
  recovery_bounds : Time.t list;
  bandwidths : int list;
  protect_levels : Task.criticality list;
  control_shares : float option list;
  classes : string list;
      (** fault classes the schedule generator may draw from (subset of
          {!known_classes}). Not part of the config cross product — it
          restricts behavior generation for every trial. With the full
          default palette the generator keeps its historical weighted
          draw (seeded fixtures stay stable); any restriction switches
          to a uniform draw over the listed classes. *)
}

val known_classes : string list
(** [["crash"; "omit"; "omitto"; "delay"; "corrupt"; "equivocate";
    "babble"]] — the generator's full palette, in draw order. *)

val default_grid : grid
(** Every config axis a singleton of {!default_params}'s value;
    [classes] is {!known_classes}. *)

val grid_params : grid -> params list
(** The cross product, in a deterministic order (axes vary slowest to
    fastest in declaration order). Empty axes yield an empty list. *)

val validate_grid : grid -> (unit, string) result
(** Rejects empty axes, unknown workload/topology/fault-class names,
    non-positive counts/bounds, node counts below a workload's
    {!Btr_workload.Generators.min_nodes} entry, and (workload, nodes, f)
    points whose strategies {!Btr_planner.Planner.check_plan_size}
    refuses, so usage errors surface before any planning happens. *)

val point_grid : params -> grid
(** The one-point grid holding [p], with every fault class; its
    {!validate_grid} says whether [campaign run] accepts [p]. *)

(** {1 Generators by name}

    The one table from the names a grid or the command line uses to
    the generators. A campaign seeds its random workload with a seed
    derived from the campaign seed; the command line passes its own. *)

val known_workloads : string list
(** [["avionics"; "scada"; "random"]]. *)

val workload_of_name :
  string -> nodes:int -> seed:int -> (Btr_workload.Graph.t, string) Stdlib.result
(** The named workload on [nodes] nodes; [seed] seeds the random
    generator's stream. [Error] names a node count below the
    workload's {!Btr_workload.Generators.min_nodes} entry, or an
    unknown name. *)

val topology_of_name :
  string -> nodes:int -> bandwidth_bps:int -> (Btr_net.Topology.t, string) Stdlib.result
(** [clique], [ring] or [dual-bus] on [nodes] nodes, every link of
    [bandwidth_bps] with 50µs latency. [Error] names a node count below
    2 or an unknown name. *)

(** {1 Campaign specs and trials} *)

type spec = {
  grid : grid;
  trials : int;
  seed : int;
  shrink : bool;  (** minimize violations (default true) *)
  shrink_budget : int;  (** max predicate runs per violation *)
}

val spec :
  ?grid:grid -> ?trials:int -> ?seed:int -> ?shrink:bool -> ?shrink_budget:int ->
  unit -> spec
(** Defaults: {!default_grid}, 100 trials, seed 1, shrink with a
    150-run budget. *)

(** One executable trial. [runtime_seed] and [script] are pure functions
    of the campaign seed and [index], fixed at compile time. *)
type trial = {
  index : int;
  runtime_seed : int;
  params : params;
  script : Fault.script;
  horizon : Time.t;
}

val compile : spec -> trial list
(** Trials [0 .. trials-1]; trial [i] exercises grid configuration
    [i mod configs] with a schedule drawn from its own RNG — either a
    random batch of ≤ f faulty nodes with 1–2 events each, or a §3-style
    timed sequential attack (a fresh fault roughly every R). Fault
    bounds of 0 compile to fault-free trials. The horizon covers the
    last injection plus R plus settling slack, rounded to a period. *)

val trial_of_index : spec -> int -> trial option
(** [compile]d trial [i], without materializing the rest (replay). *)

(** {1 Running} *)

type run_stats = {
  worst_recovery : Time.t;
  recoveries : Time.t list;  (** one per injected fault, script order *)
  incorrect : Time.t;  (** total incorrect-output time (the k·R metric) *)
  deadline_miss_bp : int;  (** basis points, deterministic *)
  correct_bp : int;
  bytes_sent : int;
  control_bytes : int;
  sim_events : int;
  mode_changes : int;
  periods : int;
}

type outcome =
  | Pass of run_stats
  | Violation of run_stats  (** some measured recovery exceeded R *)
  | Rejected of string
      (** the planner or the static verifier refused the configuration —
          not a bound violation: nothing was deployed *)
  | Errored of string  (** unexpected exception; should not happen *)

val outcome_name : outcome -> string
(** ["pass"] / ["violation"] / ["rejected"] / ["error"]. *)

val violates : outcome -> bool

type verdict = { trial : trial; outcome : outcome }

type shrunk_violation = {
  source : trial;
  script : Fault.script;  (** minimized, canonically sorted *)
  stats : run_stats;  (** from replaying the minimized schedule *)
  shrink_runs : int;
  snippet : string;  (** self-contained OCaml reproducer *)
}

type result = {
  spec : spec;
  configs : int;
  jobs : int;
  verdicts : verdict list;  (** trial order *)
  violations : shrunk_violation list;  (** trial order *)
  cache_hits : int;
  cache_misses : int;
}

val plan_key : ?strikes:int -> seed:int -> params -> string
(** The strategy-cache key: workload/topology identity, node count,
    bandwidth, the workload-generator seed and
    {!Planner.config_key} of the resolved config. Equal keys mean the
    planner would build the identical strategy. [strikes] overrides the
    runtime omission-strike threshold (part of the admission answer, so
    part of the key); [None] keeps the historical key bytes. *)

(** The strategy cache. Keyed on the workload/topology identity plus
    {!Planner.config_key} of the resolved planner config; a plain hash
    table owned by one domain. {!run_trials} does all of its lookups
    before spawning workers, one per trial in trial order, so the
    hit/miss counts are the same at every [jobs]. A cached [Error]
    (planner rejection) is a hit like any other — hundreds of trials on
    an infeasible configuration plan it exactly once. *)
module Cache : sig
  type t

  val create : seed:int -> t
  (** [seed] fixes the workload-generator stream ([random] workloads),
      which is part of the cache key's identity. *)

  val strategy : ?strikes:int -> t -> params -> (Planner.t, string) Stdlib.result
  (** [strikes] plans and admits under a non-default omission-strike
      threshold (a distinct cache key — the frontier's strikes axis). *)

  val hits : t -> int
  val misses : t -> int

  val derived : t -> int
  (** Strategies served by O(1) R-derivation: the requested config
      differed from an already-planned one only in [recovery_bound], so
      the cached base was retuned with
      {!Planner.with_recovery_bound} and re-admitted through the static
      verifier instead of being planned from scratch. Grid neighbours
      along the R axis hit this path. Counted as misses by {!misses}
      (the full key was absent); this counter refines them. *)
end

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: [jobs] counts the domains that
    run trials, the calling domain included. *)

val run_script :
  ?strikes:int ->
  cache:Cache.t -> params -> runtime_seed:int -> Fault.script -> outcome
(** Plan (via the cache), deploy, inject, run to the derived horizon and
    judge. The single-trial path that the shrinker's predicate,
    [campaign replay] and the frontier share; {!run_trials} performs the
    same two steps with the lookups hoisted ahead of its pool. [strikes]
    overrides the runtime omission-strike threshold end to end
    (admission and deployment). *)

val shrink_violation :
  cache:Cache.t -> budget:int -> trial -> shrunk_violation option
(** Replays the trial; [None] if it does not actually violate. With
    [budget] 0 the original script is reported unshrunk. *)

val run : ?obs:Btr_obs.Obs.t -> ?jobs:int -> spec -> result
(** Compile, resolve every trial's strategy through a fresh {!Cache},
    execute on [jobs] domains (default {!default_jobs}): the calling
    domain runs a share of the trials alongside [jobs - 1] spawned ones
    (none at 1) and joins them after its share, even if it raises. Then
    shrink violations. [obs] (default fresh) receives
    [Campaign_started] / [Trial_verdict] / [Violation_shrunk] events
    and the [campaign.*] counters — all emitted post-join from the
    calling domain, in trial order, so traces are identical for every
    [jobs]. *)

val run_trials : ?obs:Btr_obs.Obs.t -> ?jobs:int -> spec -> trial list -> result
(** {!run} on an explicit trial list instead of [compile spec]: the
    orchestrator's shard and resume paths execute subsets through this.
    Verdicts come back in list order; telemetry (including the
    [campaign.trials] counter) covers exactly the given trials.
    [jobs] counts the domains that run trials, as in {!run}: the
    calling domain plus [jobs - 1] spawned ones.
    [run spec = run_trials spec (compile spec)]. *)

(** {1 Schedule codec}

    Canonical text form of a fault script, one event as
    [class[.param…]@node@at_us] joined with [;] — e.g.
    [corrupt@3@250000;babble.8@5@0;omitto.1.2@4@40000]. Used in JSON
    artifacts and [campaign replay --script]. *)

val script_to_string : Fault.script -> string
val script_of_string : string -> (Fault.script, string) Stdlib.result
(** Round-trips: [script_of_string (script_to_string s)] returns the
    canonically sorted [s]. *)

val validate_script : nodes:int -> Fault.script -> (unit, string) Stdlib.result
(** [Error] naming the first node outside [[0, nodes)] that an event
    injects into or an [Omit_to] event targets. *)

(** {1 Artifact fields}

    A campaign artifact is JSON lines of flat {!Btr_util.Flat_json}
    objects. This module owns the fields of its verdict and violation
    lines; the orchestrator owns the line layout (header, summary) and
    the only reader. *)

val criticality_of_name : string -> (Task.criticality, string) Stdlib.result
(** ["best-effort"], ["low"], ["medium"], ["high"],
    ["safety-critical"] — the names {!Task.pp_criticality} prints. *)

val share_name : float option -> string
(** ["default"] for [None], ["%.6f"] otherwise. *)

val share_of_name : string -> (float option, string) Stdlib.result
(** Inverse of {!share_name}. *)

val params_fields : params -> (string * Flat_json.value) list
(** The parameter fields exactly as {!verdict_json} embeds them
    ([workload] … [control_share], in order), for artifact writers that
    extend the schema — the orchestrator's frontier slice lines. *)

val params_of_fields : (string * Flat_json.value) list -> (params, string) Stdlib.result
(** Inverse of {!params_fields}; extra fields are ignored, so it reads
    verdict and frontier slice lines alike. *)

val verdict_fields : verdict -> (string * Flat_json.value) list
(** One trial's line: its index, {!params_fields}, runtime seed, script
    and horizon, the verdict name and either the run statistics or the
    rejection reason. *)

val verdict_json : verdict -> string
(** [Flat_json.to_string (verdict_fields v)]; byte-deterministic. *)

val trial_of_fields : (string * Flat_json.value) list -> (trial, string) Stdlib.result
(** The trial a verdict line records — inverse of the trial part of
    {!verdict_fields}. [Error] on a missing or ill-typed field, a
    configuration {!validate_grid} refuses, or a script naming a node
    outside the trial's node count. *)

val violation_json : shrunk_violation -> string
(** One flat JSON object per shrunk violation (the artifact's violation
    lines); byte-deterministic. *)

val fingerprint : result -> string
(** FNV-1a 64 over the verdict lines, hex — equal iff the verdict lists
    are byte-identical (the [--jobs] invariance check). *)

val grid_axes : grid -> string
(** The grid-axes summary string artifact headers embed (the ["grid"]
    field) — stable identity of the config cross product, axis values
    comma-joined. *)
