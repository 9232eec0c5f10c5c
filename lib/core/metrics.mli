(** Output-correctness accounting.

    BTR is defined over the system's outputs (Definition 3.1), so the
    metrics track, for every original sink flow and every period,
    whether the output that reached the physical world was correct,
    wrong, missing, late, or intentionally shed by the current mode.
    From that timeline the experiments derive measured recovery times
    (per injected fault), the total incorrect-output time (the §3
    [k·R] bound), and deadline statistics. *)

open Btr_util
module Graph = Btr_workload.Graph

type status = Correct | Wrong | Missing | Late | Shed

type t

val create : ?obs:Btr_obs.Obs.t -> ?protected_flows:int list -> Graph.t -> t
(** Takes the original workload; follows all its sink flows.
    [protected_flows] (default: all sink flows) are the outputs the
    strategy actually replicates and detects on; the BTR guarantee —
    and hence {!incorrect_time} and {!recovery_times} — is stated over
    those, while per-flow timelines cover everything. [obs] (default
    null) receives [Fault_injected]/[Delivery]/[Shed]/[Verdict] events
    and the per-status [runtime.verdicts.*] counters, incremented once
    per (flow, period) on first judgment. Flow ids and periods are
    table keys packed by {!Btr_util.Inttbl.pack}: a negative one, or
    one of 2{^31} or more, raises [Invalid_argument]. *)

val record_injection : t -> at:Time.t -> node:int -> what:string -> unit

val record_delivery :
  t -> orig_flow:int -> period:int -> value:float array -> arrived:Time.t -> lane:int -> unit
(** What the sink actually acted on this period. *)

val finalize_period : t -> golden:Golden.t -> period:int -> shed:int list -> unit
(** Judge period [period]; call once per period after it ends. [shed]
    lists the sink flows the governing mode deliberately did not carry
    (a plan's {!Btr_planner.Planner.plan.dropped}): each is judged
    Shed, and emits a [Shed] event before the period's verdicts. *)

val periods_finalized : t -> int
val status : t -> orig_flow:int -> period:int -> status option
val timeline : t -> orig_flow:int -> status list
val lanes_used : t -> orig_flow:int -> (int * int) list
(** (lane, times used) for delivered periods — shows fallback in action. *)

val injections : t -> (Time.t * int * string) list

val correct_fraction : t -> float
(** Correct / (all non-shed) across all sink flows. *)

val protected_flows : t -> int list

val incorrect_time : t -> Time.t
(** Total simulated time covered by periods in which at least one
    non-shed {e protected} sink output was not Correct. The §3
    adversary can push this up to [k·R]. *)

val recovery_times : t -> Time.t list
(** For each injected fault: time from the injection until the start of
    the first period from which every non-shed output stays Correct
    until the next injection (or the horizon). 0 when outputs were
    never disturbed. *)

val deadline_miss_fraction : t -> float
(** (Late + Missing) / (all non-shed). *)

val pp_summary : Format.formatter -> t -> unit
