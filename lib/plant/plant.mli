(** Physical plant models.

    The paper's core argument (§1, §2) is that the physical side of a
    CPS has inertia: a short interval of missing or wrong control
    commands does not push it out of its safety envelope, so recovery
    within a bound R is as good as masking — provided R is small enough.
    These models make that argument quantitative (experiment E6): each
    plant integrates simple dynamics and a safety-envelope monitor
    records how far and how long the state strays.

    Integration is fixed-step RK4 on logical time; models are
    deterministic given their disturbance sequence. *)

open Btr_util

type model = {
  name : string;
  initial : float array;
  derivative : t:float -> state:float array -> input:float -> float array;
      (** time derivative of the state under control input [input];
          [t] is simulation time in seconds (for disturbances) *)
  output : float array -> float;  (** what the plant's sensor reads *)
  in_envelope : float array -> bool;
  envelope_distance : float array -> float;
      (** >= 0; 0 on the envelope boundary, grows with excursion depth;
          used to report "how close to disaster" *)
}

type t

val create : model -> dt:Time.t -> t
(** [dt] is the integration step (must divide the control period). *)

val state : t -> float array
(** A copy; mutating it does not affect the plant. *)

val output : t -> float

val set_input : t -> float -> unit
(** Zero-order hold: the value applies until changed. Faulty control is
    modelled by simply writing a wrong value (or never updating). *)

val input : t -> float

val advance : t -> until:Time.t -> unit
(** Integrates forward in [dt] steps. No-op if [until <= now]. *)

val in_envelope : t -> bool
val time_outside_envelope : t -> Time.t
(** Accumulated time spent outside the safety envelope so far. *)

val max_excursion : t -> float
(** Largest {!model.envelope_distance} observed. *)

val failed : t -> bool
(** Latches [true] once the excursion exceeds the hard limit (3x the
    envelope), modelling unrecoverable physical damage. *)

(** {1 Models} *)

val inverted_pendulum : unit -> model
(** Inverted pendulum: state [|theta; omega|], with a small periodic
    disturbance torque (so the upright equilibrium is not numerically
    metastable). Unstable — with control frozen, theta diverges within
    a second. Envelope |theta| <= 0.35 rad. Input is torque. *)

val pressure_vessel : ?inflow:float -> unit -> model
(** Vessel pressurized by a constant [inflow] (default 0.4 bar/s) and
    vented by a relief valve: input in [0,1] is valve opening. Envelope
    pressure <= 10 bar. Slow dynamics — the plant that tolerates
    "five seconds". *)

val cruise_control : unit -> model
(** First-order vehicle speed under drag; input is engine force.
    Starts at the 30 m/s set speed; envelope |v − 30| <= 5 m/s. *)

(** {1 Controllers} *)

module Controller : sig
  type ctl

  val compute : ctl -> dt_s:float -> measurement:float array -> float
  (** One control-period update. [measurement] is the full state for
      state feedback, or [[|y|]] for pid/bang-bang. *)

  val default_for : model -> ctl
  (** A stabilizing controller for each built-in model. *)
end
