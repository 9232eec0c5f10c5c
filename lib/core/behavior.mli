(** Task behaviours: what a task computes each period.

    The system model treats each task as a deterministic function from
    its per-period inputs to one output (paper §3's "expected
    behavior"). Determinism is what makes replay-based fault detection
    possible: given the signed inputs a replica presented, anyone can
    recompute what it should have sent.

    Behaviours are registered per {e original} task id; all replica
    lanes of a task share one behaviour, and the golden executor uses
    the same table — so "correct output" is defined once. *)

module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type input = { orig_flow : int; value : float array }

type fn = period:int -> inputs:input list -> float array option
(** [None] means the task produces no output this period (e.g. its
    triggering inputs are absent). Implementations must be
    deterministic in (period, inputs). The runtime and the golden
    executor pass at most one input per original flow, in ascending
    [orig_flow]. *)

val default_compute : Task.id -> fn
(** A deterministic synthetic computation: mixes the task id, period
    and all input values into a single float. Produces [None] when the
    task has inputs registered as a consumer but received none. *)

val value_digest : float array -> int64
(** Canonical digest of an output value: FNV-1a over the bytes of
    [Printf.sprintf "%h;"] of every element (exact, hex-rendered
    floats), computed without building the string. What replicas send
    to their checker. *)

val equal_value : float array -> float array -> bool

type table

val table : Graph.t -> overrides:(Task.id * fn) list -> table
(** Behaviour per task of the (original) workload: sources default to
    {!counter_source}, compute tasks to {!default_compute}; sinks have
    no behaviour. [overrides] replace the defaults (used by the plant
    examples to wire sensors and controllers). *)

val find : table -> Task.id -> fn
