(** The periodic dataflow graph: tasks plus flows (paper §2.1).

    Each flow carries one message per period from a producer task to a
    consumer task. Flows whose consumer is a sink carry the system's
    outputs and have an end-to-end deadline by which the output must
    reach the sink. *)

open Btr_util

type flow = {
  flow_id : int;
  producer : Task.id;
  consumer : Task.id;
  msg_size : int;  (** bytes per period *)
  deadline : Time.t option;  (** end-to-end for sink flows, else None *)
}

type t

val create : period:Time.t -> tasks:Task.t list -> flows:flow list -> t
(** Validates the paper's workload model and raises [Invalid_argument]
    otherwise: task and flow ids distinct; flows reference declared
    tasks; the task graph is acyclic; sources have no incoming flows;
    sinks have no outgoing flows and at least one incoming; every
    non-sink task has at least one outgoing flow; sink flows have
    deadlines no larger than needed to be meaningful (0 < d). *)

val create_relaxed : period:Time.t -> tasks:Task.t list -> flows:flow list -> t
(** Like {!create} but permits tasks with no outputs and sinks with no
    inputs. Used for planner-augmented graphs, where checking/guard
    tasks consume CPU without producing dataflow outputs, and for
    degraded modes in which a flow endpoint has been shed. *)

val period : t -> Time.t
val tasks : t -> Task.t list
val flows : t -> flow list
val task : t -> Task.id -> Task.t
val flow : t -> int -> flow
val task_count : t -> int

val task_table : t -> 'a -> 'a Btr_util.Idtab.t
(** A table spanning the graph's task ids, every id mapped to the given
    default. *)

val producers_of : t -> Task.id -> flow list
(** Incoming flows of a task. *)

val consumers_of : t -> Task.id -> flow list
(** Outgoing flows of a task. *)

val sources : t -> Task.t list
val sinks : t -> Task.t list
val compute_tasks : t -> Task.t list

val topo_order : t -> Task.id list
(** Producers before consumers; deterministic (stable by id). *)

val sink_flows : t -> flow list
(** Flows delivering system outputs, i.e. consumer is a sink. *)

val utilization : t -> float
(** Sum over tasks of wcet/period — demand on a single-node system. *)

val restrict : t -> keep:(Task.t -> bool) -> t
(** Sub-workload containing the kept tasks and the flows among them.
    Used by the planner when shedding low-criticality tasks. Keeps the
    graph valid by also dropping flows that dangle. *)

val pp : Format.formatter -> t -> unit
