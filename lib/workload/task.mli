(** Tasks of the periodic dataflow workload (paper §2.1, "Workload").

    The system has a period [P]; during each period every task releases
    one job. A task consumes inputs from sources and/or other tasks and
    produces at least one output toward a sink or another task. *)

open Btr_util

type id = int

type kind =
  | Source  (** reads the physical world; pinned to a node *)
  | Compute  (** placeable by the planner *)
  | Sink  (** drives an actuator; pinned to a node *)

(** Criticality levels, ordered: [Best_effort < Low < Medium < High <
    Safety_critical]. The planner sheds lower levels first when a
    post-fault mode is unschedulable. *)
type criticality = Best_effort | Low | Medium | High | Safety_critical

val criticality_rank : criticality -> int
val criticality_of_rank : int -> criticality
val compare_criticality : criticality -> criticality -> int
val pp_criticality : Format.formatter -> criticality -> unit
val all_criticalities : criticality list

type t = {
  id : id;
  name : string;
  kind : kind;
  wcet : Time.t;  (** worst-case execution time per job *)
  criticality : criticality;
  state_size : int;  (** bytes of state to migrate on reassignment *)
  pinned : int option;  (** node the task must run on (all sources/sinks) *)
}

val make :
  id:id ->
  name:string ->
  ?kind:kind ->
  wcet:Time.t ->
  ?criticality:criticality ->
  ?state_size:int ->
  ?pinned:int ->
  unit ->
  t
(** Defaults: [Compute], [Medium] criticality, 0 state, unpinned.
    Raises [Invalid_argument] when a source/sink lacks [pinned], or
    [wcet <= 0]. *)

val pp : Format.formatter -> t -> unit
