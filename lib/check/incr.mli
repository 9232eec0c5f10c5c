(** Incremental verification: edits in, diagnostic deltas out.

    Fleet-scale configurations (10³–10⁴ nodes) make from-scratch
    {!Check.verify} runs the bottleneck of any edit-compile-check loop.
    This module keeps a persistent analysis {!state} whose memo tables
    cache the verification units an edit can reuse: per-mode data-reserve
    ledgers, table validations and per-(mode, sender) selective-omission
    cuts, keyed by the strategy's digest plus the fault pattern, so an
    R-only edit or an undo hits them; and per-fault-set evidence bounds,
    keyed by the fault pattern alone in one table that the planner fills
    and the verifier reads, so each bound is computed once per topology.
    Link checks, per-node response-time analyses and survivor-route
    sweeps are rerun on every pass: each costs less than the key a memo
    would need. Applying an {!edit} replans through {!Planner.build} (an
    R-only edit keeps the strategy) and re-verifies through
    {!Check.verify_units} with memoizing wrappers around
    {!Check.default_units}; on every memo miss the {e default} unit
    runs, so

    {v report st = Check.verify (strategy st) v}

    holds byte-for-byte by construction (see the [incr] equivalence
    property in the test suite). *)

module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Planner = Btr_planner.Planner

(** One elementary change to the verified system. Constructors edit
    exactly one of the three inputs (topology, workload, config). *)
type edit =
  | Add_node of int
  | Remove_node of int
      (** Also drops the node from link member lists; links left with
          fewer than two members disappear. *)
  | Add_link of Topology.link
  | Retune_link of {
      link : int;
      bandwidth_bps : int option;  (** [None] keeps the current value *)
      latency : Btr_util.Time.t option;
    }
  | Add_flow of Graph.flow
      (** The flow's id must be free and at most one past the largest
          flow id: ids stay dense. *)
  | Remove_flow of int
  | Retune_flow of {
      flow : int;
      msg_size : int option;
      deadline : Btr_util.Time.t option option;
          (** [None] keeps; [Some None] clears; [Some (Some d)] sets. *)
    }
  | Set_f of int
      (** Also re-derives [degree = max 1 (f+1)], matching
          {!Planner.default_config}. *)
  | Set_recovery_bound of Btr_util.Time.t
      (** The cheapest edit: planning never reads R, so the strategy is
          reused in O(1) and only the R-dependent admission checks
          replay. *)

type apply_error =
  | Invalid_edit of string
      (** The edit does not apply (unknown id, invariant violation, or a
          system past {!Planner.check_plan_size}). *)
  | Plan_failed of Planner.error
      (** The edited system admits no strategy. *)

val pp_apply_error : Format.formatter -> apply_error -> unit

type state
(** Persistent analysis state: current inputs, strategy, report, and
    the memo tables shared across every {!apply} so far. *)

type report_delta = {
  appeared : Check.diagnostic list;
      (** diagnostics in the new report but not the old (multiset
          difference, new-report order) *)
  disappeared : Check.diagnostic list;
}

val pp_report_delta : Format.formatter -> report_delta -> unit

val init :
  ?strikes:int ->
  Planner.config ->
  Graph.t ->
  Topology.t ->
  (state, Planner.error) result
(** Plan and verify from scratch, warming the memo tables. [strikes]
    (default 1) as in {!Check.verify_view}. *)

val apply : state -> edit -> (state * report_delta, apply_error) result
(** Apply one edit: rebuild the edited input, replan (keeping the
    strategy when only R changed), re-verify reusing every memoized
    analysis whose inputs are unchanged. An edit whose system fails
    {!Planner.check_plan_size} is an [Invalid_edit], refused before
    replanning. On [Error] the state is unchanged (memo tables may have
    warmed). *)

val report : state -> Check.report
(** The current report — byte-identical (including JSON rendering and
    omission witnesses) to [Check.verify] of a strategy built from
    scratch on the current inputs. *)

val strategy : state -> Planner.t
val view : state -> Check.view

(** Cumulative memo hit/miss counters per analysis family, for cone
    tests and the planner bench. Four families are memoized: reserves,
    table validation, evidence bounds and cuts. The static, RTA and
    route families are rerun on every pass instead (building an RTA key
    cost about 4.7x the analysis it saved; the link checks and route
    sweeps cost under 2 ms per pass); their six fields stay so that
    readers of this record keep compiling, and always read 0. *)
type memo_stats = {
  static_hits : int;
  static_misses : int;  (** always 0: link checks are not memoized *)
  reserve_hits : int;
  reserve_misses : int;  (** per-mode data-reserve ledgers *)
  rta_hits : int;
  rta_misses : int;  (** always 0: response-time analyses are not memoized *)
  sched_hits : int;
  sched_misses : int;  (** per-mode table re-validations *)
  routes_hits : int;
  routes_misses : int;  (** always 0: survivor-route sweeps are not memoized *)
  evb_hits : int;
  evb_misses : int;
      (** per-fault-set evidence bounds, the planner's lookups and the
          verifier's alike *)
  cuts_hits : int;
  cuts_misses : int;  (** per-(mode, sender) omission cut rows *)
}

val memo_stats : state -> memo_stats
val reset_memo_stats : state -> unit
(** Zero the counters (the cached entries stay). *)

val parse_edit : string -> (edit, string) result
(** One edit per line, e.g. [retune-flow 3 size=128],
    [add-link id=2 members=0,1,4 bw=1000000 lat-us=50],
    [set-recovery-bound-us 300000]. Inverse of {!edit_to_string}. *)

val edit_to_string : edit -> string
