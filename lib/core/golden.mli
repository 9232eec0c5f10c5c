(** The reference ("golden") executor.

    Defines what the system's outputs {e should} be each period:
    evaluate the original dataflow graph with the shared behaviour
    table, feeding it the values the physical sources actually emitted.
    The BTR definition (paper §3) judges outputs against "a system in
    which all nodes are correct" — given the same physical inputs —
    and this module is that system.

    Source values are recorded as the real sources produce them
    (including values corrupted by a compromised source node: attacks
    on sensors themselves are input, not computation, per the paper's
    threat-model scoping in §5). A source that emits nothing leaves its
    value absent, and downstream golden values degrade exactly as a
    correct distributed execution would. *)

module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type t

val create : Graph.t -> Behavior.table -> t
(** [Graph.t] is the {e original} workload (not augmented). Task ids and
    periods are table keys packed by {!Btr_util.Inttbl.pack}: a
    negative one, or one of 2{^31} or more, raises [Invalid_argument]. *)

val note_source : t -> task:Task.id -> period:int -> float array -> unit
(** Record what a source emitted. At most once per (task, period);
    later calls are ignored (first write wins, matching "the sensor
    reading of that period"). *)

val value : t -> task:Task.id -> period:int -> float array option
(** Expected output of the task for the period; memoized. *)

val digest : t -> task:Task.id -> period:int -> int64 option

val flow_value : t -> flow:int -> period:int -> float array option
(** Expected value carried by an original flow = its producer's value. *)
