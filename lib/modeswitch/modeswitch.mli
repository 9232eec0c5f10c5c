(** Mode changes (paper §4.4).

    No global agreement is needed to reconfigure: the next plan is a
    function of the set of attributed-faulty nodes, and that set is
    append-only (valid evidence can only add to it). So every correct
    node maintains a grow-only {!Fault_set}, and, as evidence reaches
    all correct nodes, their fault sets — and hence their plans —
    converge. {!diff} computes the local actions a node must take to
    move from one plan to the next: stop tasks that left it, migrate
    state for tasks that moved away, start tasks that arrived (waiting
    for their state if the old host survives). *)

module Task = Btr_workload.Task
module Planner = Btr_planner.Planner
module Augment = Btr_planner.Augment

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

  val paths : t -> (int * int) list
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

(** What one node must do to move between two plans. *)
type action =
  | Stop of Task.id
  | Start_fresh of Task.id
      (** begin running at the next boundary, no state needed (either a
          stateless task or its previous host is faulty — state lost) *)
  | Start_after_state of { task : Task.id; from_node : int; bytes : int }
      (** begin running once the previous host ships the state *)
  | Send_state of { task : Task.id; to_node : int; bytes : int }

val diff :
  node:int -> from_plan:Planner.plan -> to_plan:Planner.plan -> action list
(** Local action list for [node]. Tasks are matched by augmented id
    across the two plans (augmentation is deterministic per mode, so
    ids are stable for tasks that exist in both). State only moves for
    tasks with [state_size > 0] whose old host is not faulty in the new
    plan. *)
