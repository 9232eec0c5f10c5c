(** Byzantine fault injection.

    The threat model (paper §2.1) is an adversary with complete control
    over up to [f] compromised nodes. The network's hardware MAC still
    enforces bandwidth reservations and compromised nodes cannot forge
    other nodes' authenticators, but within those limits they can do
    anything: stay silent, send wrong values, delay, equivocate, or
    flood the control channel with bogus evidence. Each capability is a
    {!behavior}; a {!script} binds behaviours to nodes and activation
    times, and the BTR runtime applies them at the node hooks. *)

open Btr_util

type behavior =
  | Crash  (** stop executing and sending entirely *)
  | Omit_outputs  (** execute but never send *)
  | Omit_to of int list  (** drop messages to specific nodes only *)
  | Delay_outputs of Time.t  (** send everything late *)
  | Corrupt_outputs  (** send wrong values (correct timing) *)
  | Equivocate
      (** send corrupted values on data flows while reporting clean
          digests to checkers *)
  | Babble of { bogus_per_period : int }
      (** flood the control channel with invalid evidence records *)

val pp_behavior : Format.formatter -> behavior -> unit
val behavior_name : behavior -> string

type event = { at : Time.t; node : int; behavior : behavior }
type script = event list

val single : at:Time.t -> node:int -> behavior -> script

val sequential_attack :
  nodes:int list -> start:Time.t -> gap:Time.t -> behavior -> script
(** The §3 worst case: the adversary triggers a fresh fault every [gap]
    (set [gap = R] to force up to [k·R] of incorrect output). *)
