(** Deterministic discrete-event simulation engine.

    Drives everything in this repository: the network, node schedulers,
    plants, fault injection and the BTR runtime all execute as events on
    one engine. Execution order is total and reproducible: events fire
    in (time, insertion sequence) order, and all randomness flows from
    the engine's seeded {!Btr_util.Rng.t}.

    The event queue is a hierarchical timing wheel ({!Btr_util.Twheel}):
    amortized O(1) insert and extract, O(1) cancel, pooled cells. Equal
    deadlines pop in insertion order by the wheel's structure, not by a
    stored sequence number; [test/test_wheel.ml] checks the engine
    against a reference model that orders by an explicit counter.

    Telemetry flows through the engine's {!Btr_obs.Obs.t} context:
    every layer holding the engine reaches the event sinks and the
    metric registry via {!obs}, so one context covers the whole
    deployment. The default context has a null sink — counters work,
    events cost one branch. *)

open Btr_util
module Obs = Btr_obs.Obs

type t

type handle
(** A scheduled event that can be cancelled before it fires. *)

val create : ?seed:int -> ?obs:Obs.t -> unit -> t
(** [create ~seed ()] makes an engine at time 0. Default seed is 1;
    default [obs] is a fresh null-sink context ({!Obs.create}). *)

val now : t -> Time.t
val rng : t -> Rng.t

val obs : t -> Obs.t
(** The engine's observability context (shared by all layers built on
    this engine). *)

val schedule : t -> at:Time.t -> (t -> unit) -> handle
(** [schedule t ~at f] runs [f t] when simulated time reaches [at].
    Raises [Invalid_argument] if [at] is in the past. *)

val schedule_in : t -> delay:Time.t -> (t -> unit) -> handle
(** [schedule_in t ~delay f] is [schedule t ~at:(now t + delay) f].
    Requires [delay >= 0]. *)

val every : t -> period:Time.t -> ?start:Time.t -> (t -> unit) -> handle
(** Periodic event, first firing at [start] (default: next period
    boundary from now). Cancelling the handle stops future firings and
    also voids the already-queued next firing ({!pending} reflects it
    immediately). *)

val cancel : handle -> unit
(** Idempotent; the cancelled event leaves the queue at once. *)

val step : t -> bool
(** Fires the next pending event. [false] if none remained. *)

val run : ?until:Time.t -> t -> unit
(** Processes events until the queue drains or simulated time would
    exceed [until]. Events at exactly [until] still fire. Emits
    [Run_started]/[Run_finished] events when tracing is enabled. *)

val events_processed : t -> int

val pending : t -> int
(** Queued events that are still live (cancelled ones excluded). O(1):
    maintained as a counter on push/cancel/step, exact at all times. *)
