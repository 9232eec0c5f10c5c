(** Mode changes (paper §4.4): each node's view of who is faulty.

    No global agreement is needed to reconfigure: the next plan is a
    function of the set of attributed-faulty nodes, and that set is
    append-only (valid evidence can only add to it). So every correct
    node maintains a grow-only {!Fault_set}, and, as evidence reaches
    all correct nodes, their fault sets — and hence their plans —
    converge. What a change between two plans moves, and whose state
    ships, is the planner's alone ({!Btr_planner.Planner.moves}): the
    runtime ships and awaits state from the same list the transition's
    migration bound was costed on. *)

module Fault_set : sig
  type t

  val create : unit -> t

  val add_node : t -> int -> bool
  (** [true] if the node was not already in the set. *)

  val add_path : ?suspect:int -> t -> int * int -> bool
  (** [true] if the path was new {e or} a new suspect was recorded for
      it. [suspect] marks the endpoint the declarer believes is at
      fault (for omissions: the non-detector endpoint); it is ignored
      unless it is one of the path's endpoints. Paths without suspects
      (timing glitches) are tracked but never drive eviction. *)

  val nodes : t -> int list
  (** Sorted; this is the strategy lookup key. *)

  val mem_node : t -> int -> bool
  val mem_path : t -> int * int -> bool

  val target : t -> f:int -> int list
  (** The sorted node set the next plan should treat as faulty:
      attributed nodes, plus — when suspect-carrying paths remain
      unexplained and budget ([f] minus attributed) allows — a minimum
      cover of those paths by their endpoints, preferring covers made
      of declared suspects, then lexicographically smallest. A faulty
      declarer flooding bogus paths only adds paths it is an endpoint
      of, so the minimum cover converges on the declarer itself.
      All-or-nothing: if no cover fits the budget the result is just
      the attributed nodes. *)

  val union : t -> t -> bool
  (** Merge the second into the first; [true] if anything was new. *)
end
