(** One-call assembly of a complete BTR deployment.

    Plans the workload onto the topology, deploys the strategy on the
    simulator, injects the fault script and runs to the horizon. This
    is the entry point the examples, tests and benchmarks share. *)

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
      (** applied to the default planner config before building *)
  obs : Btr_obs.Obs.t option;
      (** observability context handed to {!Runtime.create}; [None]
          means the runtime's default (fresh null sink) *)
}

val spec :
  workload:Graph.t ->
  topology:Topology.t ->
  f:int ->
  recovery_bound:Time.t ->
  ?script:Fault.script ->
  ?horizon:Time.t ->
  ?seed:int ->
  ?behaviors:(Task.id * Behavior.fn) list ->
  ?tune:(Planner.config -> Planner.config) ->
  ?obs:Btr_obs.Obs.t ->
  unit ->
  spec
(** Defaults: no faults, horizon = 100 periods, seed 1. *)

val avionics_demo : ?seed:int -> ?obs:Btr_obs.Obs.t -> unit -> spec
(** The stack's demo deployment: avionics workload, 6-node clique
    (10 Mbps, 50µs links), f = 1, R = 200ms, one node corrupting its
    outputs at t = 250ms, horizon 1s. Exercises detection, evidence
    flooding and a mode switch, so a trace of it contains events from
    every subsystem. *)

val resolved_config : spec -> Planner.config
(** The planner config {!plan} will build with: [spec.tune] applied to
    the defaults for [f] and [recovery_bound]. Because [tune] is an
    opaque closure, specs are incomparable; cache keys must be derived
    from this resolved config (see {!Planner.config_key}), which is what
    the campaign plan cache does. *)

val plan : ?config:Runtime.config -> spec -> (Planner.t, Planner.error) result
(** Just the offline phase: build the strategy, then statically verify
    it with {!Btr_check.Check}. A strategy with [Error]-severity
    diagnostics yields [Error (Planner.Rejected _)] instead of being
    deployed; the diagnostics are also emitted on [spec.obs]. [config]
    (default {!Runtime.default_config}) is the runtime configuration
    the deployment will use — the verifier reads its
    [omission_strikes] so the selective-omission analysis
    (BTR-E305/W306) models the watchdog actually deployed. In every
    entry point taking [config], [spec.seed] overrides the config's
    seed: campaigns vary the seed per trial while reusing one config. *)

val admit :
  ?obs:Btr_obs.Obs.t ->
  ?config:Runtime.config ->
  Planner.t ->
  (Planner.t, Planner.error) result
(** The admission gate {!plan} applies to a freshly built strategy,
    usable on its own for a strategy obtained some other way (the
    campaign cache's R-derived neighbours,
    {!Planner.with_recovery_bound}): {!Btr_check.Check.verify} under
    [config]'s [omission_strikes] (default {!Runtime.default_config}'s),
    [Error (Planner.Rejected _)] on any [Error]-severity diagnostic.
    Diagnostics are emitted on [obs]. *)

val deploy : ?config:Runtime.config -> spec -> Planner.t -> Runtime.t
(** Just the online phase: deploy an admitted strategy under [config]
    with the spec's seed, behaviours, fault script and [obs], ready to
    {!Runtime.run} to [spec.horizon]. *)

val prepare : ?config:Runtime.config -> spec -> (Runtime.t, Planner.error) result
(** Plan and deploy, but do not run — callers can hook actuators
    ({!Runtime.on_actuate}) first. *)

val run : ?config:Runtime.config -> spec -> (Runtime.t, Planner.error) result
(** Plan, deploy, inject, run to the horizon. *)

val prepare_unchecked :
  ?config:Runtime.config -> spec -> (Runtime.t, Planner.error) result
(** {!prepare} without the static verification gate: builds the plan
    and deploys it even when {!Btr_check.Check} would reject it. For
    adversarial conformance testing — forcing a statically rejected
    configuration into the simulator to confirm the rejection was
    genuine (a witness schedule really violates R) — and for baseline
    experiments that deliberately study under-provisioned strategies.
    Never use it on the happy path: acceptance is only meaningful
    because deployment implies the gate passed. *)

val run_unchecked :
  ?config:Runtime.config -> spec -> (Runtime.t, Planner.error) result
(** {!prepare_unchecked}, then inject and run to the horizon. *)
