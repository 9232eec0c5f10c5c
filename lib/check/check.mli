(** Static verification of recovery strategies (Definition 3.1).

    The paper's central promise is that a BTR system {e guarantees}
    recovery within [R(f)] for every fault set of size at most [f].
    That is a property of the offline strategy, so it should be proved
    or refuted before any simulation runs — the way FTOS-Verify argues
    fault-tolerance properties should be checked on the system model,
    and the way GeoShield pre-validates recovery plans. This module
    takes a built {!Planner.t} (or a raw {!view} of one, so tests can
    corrupt it) and statically discharges the obligations:

    - {b bandwidth} (§2.1): the per-member static reservations fit
      inside every link's raw capacity (the babbling-idiot guard), and
      in every mode the data traffic each sender must push per period
      fits inside its reserved slice;
    - {b schedulability} (§4.1): full independent re-validation of
      every mode's static table, the time-triggered schedule the
      runtime executes;
    - {b recovery coverage} (Def. 3.1): every fault set of size ≤ f has
      a plan; every single-fault extension has a transition whose
      staged state and activation path fit inside R;
    - {b mode-graph sanity} (§4.4): transitions connect known modes,
      no mode is unreachable from the fault-free root, and evidence can
      be distributed between every pair of survivors on the reserved
      control bandwidth.

    Verdicts are structured diagnostics with stable error codes
    (["BTR-E303"]); they are rendered as text, emitted on the
    {!Btr_obs.Obs} bus and serialized as JSON. [Btr.Scenario] runs the
    verifier after planning and refuses to deploy a strategy that fails
    ({!Planner.error.Rejected}). *)

module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Planner = Btr_planner.Planner

type severity = Error | Warning

val severity_name : severity -> string
(** ["error"] / ["warning"]. *)

(** Stable diagnostic codes. The numeric ranges group the Definition
    3.1 obligations: 1xx bandwidth, 2xx schedulability, 3xx recovery
    coverage, 4xx mode-graph sanity. Errors make {!passed} false;
    warnings do not. *)
type code =
  | Link_oversubscribed  (** BTR-E101: static reservations exceed a link's raw capacity *)
  | Data_reserve_exceeded
      (** BTR-E102: a sender's per-period data traffic does not fit its
          reserved slice in some mode *)
  | Control_reserve_tight
      (** BTR-W103: one evidence record cannot be serialized on some
          link's control reservation within a period *)
  | Schedule_invalid
      (** BTR-E203: a mode's static table fails independent validation
          ({!Btr_sched.Schedule.validate}), which also leaves no task
          unscheduled and no node's demand past the period *)
  | Mode_missing  (** BTR-E301: a fault set of size ≤ f has no plan *)
  | Transition_missing
      (** BTR-E302: a reachable mode extension has no staged transition *)
  | Recovery_bound_exceeded  (** BTR-E303: a transition's bound exceeds R *)
  | Recovery_bound_understated
      (** BTR-W304: a stored recovery bound is smaller than the
          detection + evidence + migration + activation decomposition
          recomputed from first principles *)
  | Selective_omission_undetectable
      (** BTR-E305: a sender can starve a protected sink flow by
          omitting toward a minimal watcher subset, and neither the
          per-watcher strike path nor multi-watcher corroboration
          detects it within R (§4.2 selective omission) *)
  | Omission_needs_corroboration
      (** BTR-W306: selective omission on this configuration is caught
          within R only because the minimal cut spans ≥ f+1 watchers
          whose sub-threshold suspicions corroborate — no single
          watchdog reaches its strike threshold in time *)
  | Transition_target_unknown
      (** BTR-E401: a transition names a mode that has no plan *)
  | Orphan_mode
      (** BTR-E402: a mode unreachable from the fault-free root via
          transitions *)
  | Evidence_unroutable
      (** BTR-E403: two survivors of some mode have no control-class
          route, so evidence cannot flood *)
  | Evidence_budget_dominant
      (** BTR-W404: recomputed evidence distribution alone consumes
          more than half of R *)

val all_codes : code list
val code_id : code -> string
(** ["BTR-E101"], ["BTR-W304"], … stable across releases. *)

val code_of_id : string -> code option
val severity_of : code -> severity
val describe : code -> string
(** One-line human description of the obligation the code checks. *)

(** Where a diagnostic points. Unset fields do not apply. *)
type locus = {
  faulty : int list option;  (** the mode (fault pattern) concerned *)
  node : int option;
  flow : int option;
  link : int option;
  new_fault : int option;  (** transition: the arriving fault *)
}

type diagnostic = { code : code; message : string; locus : locus }

type report = {
  diagnostics : diagnostic list;  (** errors first, then warnings *)
  modes : int;  (** plans examined *)
  transitions : int;
  fault_sets : int;  (** fault patterns enumerated for coverage *)
}

val passed : report -> bool
(** No [Error]-severity diagnostics. *)

val errors : report -> diagnostic list

(** A raw, correctable image of a strategy. {!verify} works on views so
    that tests can corrupt one field at a time and exercise every
    diagnostic; {!view_of_strategy} extracts the faithful view. *)
type view = {
  config : Planner.config;
  workload : Graph.t;
  topology : Topology.t;
  plans : Planner.plan list;
  transitions : Planner.transition list;
}

val view_of_strategy : Planner.t -> view

(** A concrete attack the selective-omission check could not rule out:
    from the mode running with [ow_mode] faulty, node [ow_sender]
    omitting toward exactly the hosts in [ow_targets] starves original
    sink flow [ow_flow] without any detection path fitting in R. The
    conformance suite replays these as [Omit_to] schedules past the
    admission gate to confirm each rejection is genuine. *)
type omission_witness = {
  ow_mode : int list;
  ow_sender : int;
  ow_targets : int list;
  ow_flow : int;
  ow_watchers : int;  (** [List.length ow_targets] *)
}

val selective_omission_witnesses : ?strikes:int -> view -> omission_witness list
(** One witness per BTR-E305 diagnostic {!verify_view} would raise,
    in the same order. [strikes] (default 1) is the watchdog
    declaration threshold the runtime will be configured with. *)

(** {1 Verification units}

    The verifier is composed from per-obligation functions so that the
    incremental layer ({!Btr_check.Incr}) can substitute memoizing
    wrappers for the {e same} functions: on a memo miss both paths run
    literally the same code, which is what makes [Incr.report]
    provably identical to {!verify_view} rather than a parallel
    implementation that could drift. The record holds only the units
    [Incr] memoizes; the link checks and survivor-route sweeps cost
    less to rerun than to key, so
    {!verify_units} always runs them directly. {!verify_units} builds
    the verifier's own fault-free sweeps once per pass, and on them a
    route table for each mode, which it hands to every unit that routes
    ([routes]), and one {!Planner.evidence}; it never reads the
    planner's. *)

type units = {
  u_data_reserves :
    view -> Planner.plan -> routes:Btr_net.Topology.router -> diagnostic list;
      (** BTR-E102 for one mode's routed per-sender demand, each hop
          charged to the node its route hands it to. *)
  u_schedule_valid :
    view -> Planner.plan -> routes:Btr_net.Topology.router -> diagnostic list;
      (** BTR-E203: independent re-validation of one mode's table. *)
  u_evb : Planner.evidence -> int list -> Btr_util.Time.t;
      (** Worst-case pairwise evidence-distribution bound for one
          (sorted) fault set — the §4.3 term of every recovery bound —
          over the pass's own {!Planner.evidence}, built on the pass's
          sweeps. The default is {!Planner.evidence_bound}, the very
          function the planner admits transitions with. *)
  u_omission_cuts :
    view -> Planner.plan -> sender:int -> (int * int list) option list;
      (** Per protected sink flow (in declaration order): the minimal
          watcher cut [sender] must omit toward to starve it in this
          mode, or [None] when the flow is shed or uncuttable. Pure in
          the mode structure; R and strikes enter only in the replayed
          selection, so this is the expensive memoizable core of
          BTR-E305/W306. *)
}

val default_units : units
(** The from-scratch implementations; {!verify_view} is
    [verify_units default_units]. *)

val verify_units :
  ?obs:Btr_obs.Obs.t -> ?strikes:int -> units -> view -> report
(** Runs every check through the given unit implementations, in the
    fixed historical emission order. Two [units] values whose
    functions are extensionally equal produce byte-identical
    reports. *)

val verify_view : ?obs:Btr_obs.Obs.t -> ?strikes:int -> view -> report
(** Runs every check. [strikes] (default 1) is the runtime watchdog's
    consecutive-miss declaration threshold, used by the
    selective-omission analysis (BTR-E305/W306). Each diagnostic is
    also emitted on [obs] (default null) as a [Check_diagnostic] event
    at simulated time 0. *)

val verify : ?obs:Btr_obs.Obs.t -> ?strikes:int -> Planner.t -> report
(** [verify_view] of [view_of_strategy]. *)

val to_planner_error : report -> Planner.error option
(** [Some (Rejected _)] carrying the error diagnostics when the report
    failed; [None] when it {!passed}. *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** [[BTR-E303] mode {1,3}: transition +3 recovery bound 210ms > R 200ms]. *)

val pp_report : Format.formatter -> report -> unit

val diagnostic_to_json : diagnostic -> string
val report_to_json : report -> string
(** One JSON object; diagnostics in a stable sorted order (severity,
    then code, locus, message) independent of internal emission order;
    deterministic byte-for-byte for a given view. *)
