(** Static, time-triggered distributed schedules.

    A plan (paper §4) prescribes a schedule for each node. Because the
    workload releases every task once per system period [P], the
    hyperperiod is [P] and a schedule is a set of non-overlapping slots
    per node within [0, P), repeated every period. Slots are derived by
    list scheduling in dataflow order, so precedence constraints —
    including network transfer times between tasks on different nodes —
    are respected by construction. *)

open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type slot = { task : Task.id; start : Time.t; finish : Time.t }

type t

type failure =
  | Overload of { node : int; demand : Time.t; period : Time.t }
      (** a node's assigned work does not fit in the period *)
  | Deadline_miss of { flow_id : int; completion : Time.t; deadline : Time.t }
  | No_route of { src_node : int; dst_node : int }
      (** the placement needs a transfer between disconnected nodes *)

val pp_failure : Format.formatter -> failure -> unit

type xfer = src:int -> dst:int -> size_bytes:int -> Time.t option
(** Queueing-free network transfer-time oracle (see
    {!Btr_net.Net.transfer_time}); [src = dst] must give [Some 0]. *)

val list_schedule :
  Graph.t -> place:(Task.id -> int) -> xfer:xfer -> (t, failure) result
(** Greedy list scheduling in topological order: each task starts when
    all its inputs have arrived and its node is free. Fails with the
    first constraint violation found. *)

val period : t -> Time.t
val nodes : t -> int list
val slots_on : t -> int -> slot list
(** In increasing start order. *)

val window : t -> Task.id -> (Time.t * Time.t) option
(** [Some (start, finish)] of the task's slot; [None] if not scheduled. *)

val node_of : t -> Task.id -> int option
(** The node a task runs on, in O(1) and without allocating; [None]
    when the task has no slot. The table is the only record of
    placement. *)

val node_utilization : t -> int -> float
(** Busy time on the node divided by the period. *)

val validate : t -> Graph.t -> xfer:xfer -> (unit, string) result
(** Independent checker used by tests and the planner: slots within
    [0, period], no per-node overlap, each slot as long as its task's
    WCET, every task of the graph scheduled, every precedence edge
    satisfied with its transfer time, every scheduled sink flow meets
    its deadline. The first three imply that each node's demand fits
    the period. *)

val pp : Format.formatter -> t -> unit
