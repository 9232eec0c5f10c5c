(** Distributed, resumable campaign orchestration with adaptive
    frontier search.

    {!Campaign} executes one trial list inside one process; this module
    is the layer above it that makes large sweeps cheap to distribute
    and impossible to lose:

    - {b sharding}: a campaign's compiled trial list is partitioned by
      a stable FNV-1a rule ({!shard_of_trial}), so [--shard i/n]
      invocations on different hosts each execute a disjoint,
      deterministic subset and the union of their artifacts is
      byte-identical to an unsharded run at any [--jobs];
    - {b resumability}: {!run} can be given a previously written
      artifact; after cross-checking its header fingerprint against the
      freshly compiled grid it skips every trial whose verdict is
      already recorded, so a killed campaign continues instead of
      restarting;
    - {b combining}: {!combine} merges shard artifacts into the one
      canonical artifact an unsharded run would have written, with
      fingerprint and disjointness cross-checks;
    - {b frontier search}: instead of exhausting a grid, {!frontier}
      bisects along one numeric axis per config slice to locate the
      admit/violate boundary of Def-3.1 within a tolerance, typically
      an order of magnitude fewer trials than the grid
      ({!grid_scan} is the exhaustive reference it is audited
      against).

    Everything here inherits the executor's determinism contract: equal
    specs produce byte-identical artifacts whatever the shard/job/resume
    partitioning was. *)

(** {1 Sharding} *)

(** Shard [index] of [count]; [count = 1] is the unsharded canonical
    artifact (what {!combine} reconstructs). *)
type shard = { index : int; count : int }

val unsharded : shard
(** [{ index = 0; count = 1 }]. *)

val shard_of_string : string -> (shard, string) result
(** Parses ["i/n"] with [0 <= i < n]; {!shard_to_string} inverts. *)

val shard_to_string : shard -> string

val shard_of_trial : seed:int -> count:int -> int -> int
(** The stable partitioning rule: trial [i] of a campaign with [seed]
    belongs to shard [Fnv.hash "trial:<seed>:<i>" mod count]. Pure,
    host-independent, and insensitive to how many trials exist — adding
    trials never moves old ones between shards of the same [count]. *)

val shard_trials : shard -> Campaign.spec -> Campaign.trial list
(** The compiled trials of [spec] that belong to [shard], in ascending
    trial order. The union over all indices of a [count] is exactly
    [Campaign.compile spec], disjointly. *)

(** {1 Artifacts} *)

val spec_fingerprint : Campaign.spec -> string
(** FNV-1a 64 (hex) over the full compiled trial list — every index,
    runtime seed, schedule, horizon and parameter point, plus the spec
    header fields. Two specs agree iff they would execute the identical
    campaign, so this is the resume/combine compatibility check. *)

(** One artifact line: its bytes as read, which resume and combine
    reuse verbatim, and its fields. *)
type entry = { raw : string; fields : (string * Btr_util.Flat_json.value) list }

(** A parsed artifact. *)
type artifact = {
  a_seed : int;  (** the campaign seed: fixes the [random] workload graph *)
  a_trials : int;  (** planned trials of the full (unsharded) spec *)
  a_configs : int;
  a_shrink : bool;
  a_grid : string;  (** the grid-axes summary string *)
  a_spec_fp : string;
  a_shard : shard;
  a_complete : bool;  (** summary line present and marked complete *)
  a_torn : bool;  (** the last line was incomplete and has been dropped *)
  a_fingerprint : string;  (** from the summary line; [""] if absent *)
  a_verdicts : (int * entry) list;  (** ascending trial index *)
  a_violations : (int * entry) list;  (** ascending source trial index *)
}

val parse_artifact : string list -> (artifact, string) result
(** Parses the lines of an orchestrated artifact. A final torn line
    (killed mid-write) is dropped and flagged in [a_torn] — resume
    continues from such an artifact, the readers below refuse it; any
    other malformed line is an error, as are duplicate trial indices, a
    missing header or a version-1 header. Total: [Error], never an
    exception. *)

val render_report : string list -> (string, string) result
(** The aggregate report of a campaign artifact — totals, the summary
    fingerprint, a per-configuration table and the violation schedules
    — rendered from {!parse_artifact}; a frontier artifact is handed to
    {!render_frontier}. [Error] on a malformed or torn artifact. *)

val replay : artifact -> int -> (Campaign.trial * Campaign.outcome, string) result
(** Re-run trial [index] exactly as recorded: the trial decoded from its
    verdict line, planned under the header's campaign seed. [Error] when
    the artifact is torn or does not record the trial. *)

(** {1 Orchestrated runs} *)

type run_result = {
  lines : string list;  (** the artifact to write *)
  total : int;  (** trials belonging to this shard *)
  executed : int;  (** trials actually run in this invocation *)
  skipped : int;  (** trials reused from the resume artifact *)
  complete : bool;  (** [skipped + executed = total] *)
  has_violations : bool;  (** over all verdict lines in [lines] *)
  new_violations : Campaign.shrunk_violation list;
      (** violations among the trials executed here (the resumed ones
          only exist as recorded lines) *)
}

val run :
  ?obs:Btr_obs.Obs.t ->
  ?jobs:int ->
  ?resume:artifact ->
  ?max_trials:int ->
  shard:shard ->
  Campaign.spec ->
  (run_result, string) result
(** Execute [spec]'s trials belonging to [shard] on the {!Campaign}
    pool and produce the shard artifact. With [resume], the artifact's
    header (seed, trial count, shard, shrink and {!spec_fingerprint})
    must match the compiled spec — [Error] otherwise — and recorded
    verdicts are skipped, their lines reused byte-for-byte.
    [max_trials] caps how many un-recorded trials this invocation
    executes (the orchestration equivalent of being killed mid-run: the
    artifact is well-formed but marked incomplete). [obs] additionally
    receives [Campaign_sharded] / [Campaign_resumed] events and the
    [campaign.shard.*] / [campaign.resume.skipped] counters;
    [campaign.trials] counts only the executed remainder, so
    skipped + executed = shard total holds on the registry. *)

val combine : string list list -> (string list * bool, string) result
(** Merge complete shard artifacts (their lines, in any shard order)
    into the canonical unsharded artifact. Cross-checks: headers agree
    (seed, trials, configs, shrink, grid, spec fingerprint), the shard
    set is exactly [0..n-1] for [n] inputs, every artifact is complete,
    trial indices are disjoint, land on their {!shard_of_trial} shard
    and cover [0..trials-1]. [Ok (lines, has_violations)] — the lines
    are byte-identical to an unsharded {!run} of the same spec;
    [has_violations] reports whether any merged verdict violated
    (callers map it to exit 3). *)

(** {1 Adaptive frontier search} *)

type axis = Axis_r | Axis_f | Axis_bandwidth | Axis_strikes

val axis_of_string : string -> (axis, string) result

type frontier_spec = {
  slice_grid : Campaign.grid;
      (** the config slices: its own values for the bisected axis are
          ignored (each slice spans [lo..hi] on that axis) *)
  axis : axis;
  lo : int;  (** µs for [Axis_r], bits/s, count for f/strikes *)
  hi : int;
  tolerance : int;  (** lattice step: points are [lo + k*tolerance] *)
  probes : int;  (** fault schedules drawn per evaluated point *)
  fseed : int;
}

(** One located boundary: the adjacent lattice points where the verdict
    flips. Which side is which depends on the axis direction (R and
    bandwidth admit above the boundary, f and strikes below). *)
type boundary = { admit_at : int; violate_at : int }

type slice_result = {
  slice : int;
  base : Campaign.params;  (** the slice's fixed parameters *)
  lo_admit : bool;
  hi_admit : bool;
  found : boundary option;  (** [None] when both endpoints agree *)
  evals : int;  (** lattice points evaluated *)
  probes_run : int;  (** trials executed (probes short-circuit) *)
}

type frontier_result = {
  fspec : frontier_spec;
  points : int;  (** lattice size: [(hi - lo) / tolerance + 1] *)
  slices : slice_result list;
  total_probes : int;
}

val frontier :
  ?obs:Btr_obs.Obs.t -> frontier_spec -> (frontier_result, string) result
(** Bisection per config slice: evaluate both lattice endpoints; when
    they disagree, binary-search the flip to adjacent lattice points
    (within [tolerance]) — O(log points) evaluations instead of the
    grid's O(points). A point {e admits} when the configuration is
    statically admitted and all its probe schedules pass; it
    {e violates} on a planner/verifier rejection, a measured Def-3.1
    violation, or an error. Each evaluated point is a pure function of
    (spec, axis value), so bisection and {!grid_scan} agree wherever
    the verdict is monotone along the axis. [obs] receives one
    [Frontier_located] event per slice and the [campaign.frontier.*]
    counters. *)

val grid_scan :
  ?obs:Btr_obs.Obs.t -> frontier_spec -> (frontier_result, string) result
(** The exhaustive reference: evaluate every lattice point of every
    slice and report the first verdict flip. Same result shape as
    {!frontier} so tests and benches can assert equal boundaries and
    compare [total_probes]. *)

val frontier_lines : frontier_result -> string list
(** The frontier artifact: a header line, one line per slice (its
    parameters plus the located boundary) and a summary line with a
    fingerprint over the slice lines. *)

val is_frontier_artifact : string list -> bool
(** True when the first parseable line carries the frontier header
    marker (how [campaign report] dispatches). *)

val render_frontier : string list -> (string, string) result
(** Parse frontier artifact lines and render the per-slice boundary
    table. [Error] on a malformed or torn artifact. *)
