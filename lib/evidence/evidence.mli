(** Evidence of faults (paper §4.2–4.3).

    Because no node is trusted, a detected fault must be turned into
    {e evidence} that other nodes can verify independently; otherwise a
    compromised node could trigger mode changes at will by "detecting"
    nonexistent faults. An evidence record is a statement signed by the
    detecting node. Statements either accuse a specific node (commission
    faults identified by replay, timing faults, equivocation, evidence
    forgery) or declare a {e path} problematic (omissions, which cannot
    be attributed to an endpoint directly — §4.2's third challenge).

    The {!Distributor} implements §4.3's per-node admission logic:
    validate before forwarding, deduplicate, endorse, and count invalid
    evidence against whoever signed it (so bogus-evidence floods are
    self-incriminating). *)

open Btr_util
module Auth = Btr_crypto.Auth

type fault_class =
  | Wrong_value  (** output does not match replay of signed inputs *)
  | Omission  (** an expected message never arrived *)
  | Omission_suspected
      (** a sender has missed some — but fewer than the declaring
          watchdog's strike threshold of — consecutive sweeps; carries no
          weight alone, but [f + 1] distinct watchers' suspicions of the
          same sender corroborate into omission-grade path evidence *)
  | Timing  (** right message at the wrong time *)
  | Equivocation  (** different values for the same (flow, period) *)
  | Forged_evidence  (** signed an evidence record that fails validation *)

val fault_class_name : fault_class -> string
(** ["wrong-value"], ["omission"], ...: the name used in encodings and
    telemetry. *)

type accused =
  | Node of int
  | Path of int * int  (** unordered; constructors normalize order *)

val path : int -> int -> accused

val accused_name : accused -> string
(** ["node:3"] / ["path:1-4"]; used in telemetry and {!encode}. *)

type statement = {
  accused : accused;
  fault_class : fault_class;
  detector : int;  (** node that produced the evidence *)
  period : int;  (** workload period index of the observation *)
  detected_at : Time.t;
  detail : string;
}

val encode : statement -> string
(** Canonical byte string covered by the signature. Injective on all
    fields. *)

type record = { statement : statement; tag : Auth.tag }

val sign : Auth.t -> Auth.secret -> statement -> record
(** Raises [Invalid_argument] if the secret's owner differs from
    [statement.detector] — a node can only issue evidence as itself. *)

val validate : Auth.t -> record -> bool
val size_bytes : record -> int
(** Wire size for network accounting (statement + tag). *)

val dedup_key : record -> string
(** Two records with the same key describe the same observation. *)

module Distributor : sig
  type t

  type verdict =
    | Fresh  (** valid and not seen before: apply and forward *)
    | Duplicate
    | Invalid  (** failed validation: drop, count against the signer *)

  val create : node:int -> ?obs:Btr_obs.Obs.t -> unit -> t
  (** [obs] (default null) receives an [Evidence_admitted] event per
      {!admit} called with [~now], and the [evidence.records-admitted],
      [evidence.dedup-hits] and [evidence.validation-failures]
      counters. *)

  val admit : ?now:Time.t -> t -> Auth.t -> record -> verdict
  (** [now] timestamps the telemetry event; admission logic does not
      depend on it. A record is [Fresh] at most once per distributor, so
      forwarding only fresh records floods each at most once per node. *)

  val seen : t -> record list
  (** All fresh records admitted so far, oldest first. *)

  val invalid_count_from : t -> int -> int
  (** How many invalid records claimed to be signed by the given node —
      input for a [Forged_evidence] accusation. *)
end
