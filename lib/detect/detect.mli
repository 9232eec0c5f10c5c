(** Runtime fault detection (paper §4.2).

    Three mechanisms cooperate:

    - {b Replay checking} (in the BTR runtime, using this module's
      verdict helpers): checking tasks recompute a replica's output from
      the signed inputs that replica presented; a mismatch is
      {e attributable} evidence against the replica's node.
    - {b Watchdogs} ({!Watchdog}): every expected message has a known
      arrival window, because schedules are static. A message that
      never arrives is an {e omission}; one that arrives outside its
      window (plus margin) is a {e timing} fault. Omissions cannot be
      pinned on an endpoint — the sender may have failed to send or the
      receiver may be lying — so they only yield {e path} declarations.
    - {b Attribution} ({!Attribution}): path declarations are counted
      per endpoint. A node that appears on at least [threshold]
      distinct problematic paths is attributed as faulty. With
      [threshold = f + 1], no correct node is ever falsely attributed:
      a correct endpoint acquires problematic paths only opposite
      faulty counterparties, and there are at most [f] of those. A
      faulty node that omits toward fewer than [f + 1] counterparties
      evades direct attribution; {e corroboration}
      ({!Attribution.note_suspicion}) closes that gap by combining
      sub-threshold watchdog observations from [threshold] distinct
      watchers of the same sender into admissible path evidence, while
      strike-account resets on timely arrivals keep sporadic link loss
      from ever looking like such a sender. *)

open Btr_util
module Evidence = Btr_evidence.Evidence

val path_statement_admissible : Evidence.statement -> bool
(** Per §4.2, a node may declare (without further proof) a problem only
    with a path {e it is an endpoint of}. Statements violating this are
    dropped — and a declared path always incriminates its declarer as
    one of the two suspects, so flooding bogus declarations
    self-incriminates. *)

module Watchdog : sig
  type t

  type late = { flow : int; period : int; from_node : int; lateness : Time.t }

  type miss = {
    miss_flow : int;
    miss_period : int;
    miss_from : int;
    account : int;  (** the sender's strike account after this sweep *)
    declared : bool;  (** [account >= strikes]: report as an omission *)
  }

  val create :
    node:int -> margin:Time.t -> ?strikes:int -> ?obs:Btr_obs.Obs.t -> unit -> t
  (** [margin] is slack added to scheduled arrival times before
      declaring anything; it absorbs queueing jitter. [strikes]
      (default 1) is how many {e consecutive} sweeps a sender must have
      at least one message overdue before it is reported: 1 matches the
      paper's FEC assumption ("losses are rare enough to be ignored");
      higher values trade detection latency for robustness to residual
      link loss. Strike accounts are kept {e per sender}, bumped at
      most once per sweep, and reset by any timely arrival from that
      sender, so unrelated losses spread over a long run never
      accumulate into a false declaration. [obs] (default null)
      receives [Watchdog_late]/[Watchdog_missing] events and the
      [detect.watchdog-late]/[detect.watchdog-missing]/
      [detect.strike-resets] counters. *)

  val expect :
    t -> flow:int -> period:int -> from_node:int -> deadline:Time.t -> unit
  (** Registers that a message on [flow] for [period] should arrive by
      [deadline] (absolute). Idempotent per (flow, period). Both are
      packed into one key ({!Btr_util.Inttbl.pack}): a negative one, or
      one of 2{^31} or more, raises [Invalid_argument], here and in
      {!note_arrival}. *)

  val note_arrival : t -> flow:int -> period:int -> at:Time.t -> late option
  (** Marks the expectation satisfied. Returns the timing violation if
      the arrival missed its window by more than the margin; a timely
      arrival additionally resets the sender's strike account to zero.
      Arrivals with no registered expectation return [None]. *)

  val sweep : t -> now:Time.t -> miss list
  (** Reports every expectation whose deadline (+margin) passed
      unsatisfied, each exactly once, in (flow, period) order. Sweeping
      bumps each overdue sender's strike account (once per sweep) and
      returns the account alongside each miss so callers can surface
      sub-threshold suspicions for corroboration; entries with
      [declared = true] have reached the strike threshold and warrant a
      path declaration on their own. *)

  val overdue : t -> now:Time.t -> (int * int * int) list
  (** [(flow, period, from_node)] for the [declared] subset of
      {!sweep}; kept for callers that only care about
      threshold-crossing omissions. *)

  val account : t -> from_node:int -> int
  (** Current strike account for a sender (0 if never missed). *)

  val pending : t -> int
  (** Expectations neither met by an arrival nor reported by a sweep. *)
end

module Attribution : sig
  type t

  val create : ?window:int -> threshold:int -> unit -> t
  (** [window] (default 4) is how many periods apart two watchers'
      suspicions of the same sender may be and still corroborate each
      other; it bounds how long a recovered glitch can linger as
      evidence. *)

  val note_path : t -> a:int -> b:int -> int list
  (** Records the unordered path and returns the nodes that became
      attributable {e because of this call} (newly crossed the
      threshold of distinct counterparties); [] otherwise. Duplicate
      declarations of the same path are idempotent. *)

  val note_suspicion : t -> sender:int -> watcher:int -> period:int -> int list
  (** Records that [watcher] holds a sub-threshold omission suspicion
      against [sender] as of [period]. When [threshold] distinct
      watchers hold suspicions within [window] periods of each other,
      returns the sorted list of corroborating watchers — exactly once,
      at the call that completes the quorum; [] otherwise. Corroborated
      suspicions justify {e path} workarounds (the sender is cut off
      from each corroborating watcher), not node attribution: with
      [threshold = f + 1] at least one corroborator is correct, but
      residual link loss could still explain each individual
      observation, so framing the sender as a {e node} would be
      unsound. *)

  val is_corroborated : t -> sender:int -> bool

  val counterparties : t -> int -> int list
  (** Distinct counterparties of [n]'s problematic paths, in first-seen
      order. *)

  val attributed : t -> int list
  val is_attributed : t -> int -> bool
end
