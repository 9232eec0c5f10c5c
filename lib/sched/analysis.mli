(** Classical uniprocessor schedulability analysis.

    The planner's static tables are built constructively, but admission
    reasoning about per-node task sets uses the standard real-time
    results (the paper situates BTR against this literature, §4.1 and
    [12]): fixed-priority response-time analysis with deadline-monotonic
    priorities, exact for synchronous release with deadline <= period.

    All functions are pure; times are {!Btr_util.Time.t}. *)

open Btr_util

type periodic = {
  wcet : Time.t;
  period : Time.t;
  deadline : Time.t;  (** relative; constrained: deadline <= period *)
}

val task : wcet:Time.t -> period:Time.t -> ?deadline:Time.t -> unit -> periodic
(** [deadline] defaults to the period (implicit deadline). Raises
    [Invalid_argument] on non-positive fields or deadline > period. *)

val utilization : periodic list -> float

val response_times : periodic list -> Time.t option list
(** Fixed-priority response-time analysis with deadline-monotonic
    priorities (list order is reordered internally; results match the
    input order). [None] when the recurrence diverges past the deadline
    — the task is unschedulable under fixed priorities. *)

val fp_schedulable : periodic list -> bool
(** All response times exist and meet their deadlines. *)
