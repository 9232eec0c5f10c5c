(** Simulated message authentication.

    BTR's evidence machinery needs two things from cryptography: that a
    correct node's statements cannot be forged by other (possibly
    Byzantine) nodes, and that signing/verifying has a CPU cost that
    competes with the real-time workload (§4.1: "there are no extra
    resources for BTR"). Both are provided without real cryptography:

    - tags are 64-bit keyed digests; unforgeability holds because the
      simulator hands each node only its own {!secret}, so Byzantine
      code simply has no way to produce another node's tag (and guessing
      succeeds with probability 2{^-64});
    - every [sign]/[verify] reports its cost from the {!cost_model}, and
      callers charge it to the node's CPU budget.

    Real deployments would substitute Ed25519 or CBC-MAC authenticators;
    nothing above this module depends on the tag construction. *)

open Btr_util

type t
(** The key authority: generates keys and verifies tags. Conceptually
    this is "the PKI established at system integration time". *)

type secret
(** A node-held signing key. Possession is the only way to sign. *)

type tag
(** An authenticator over a message. *)

type cost_model = { sign_cost : Time.t; verify_cost : Time.t }

val create : ?costs:cost_model -> unit -> t
(** [costs] defaults to 50µs sign, 20µs verify — commodity-MCU ballpark
    for short MACs. *)

val gen_key : t -> owner:int -> secret
(** Registers and returns the signing key for principal [owner].
    Raises [Invalid_argument] if [owner] already has a key. *)

val owner_of_secret : secret -> int

val sign : t -> secret -> string -> tag
val verify : t -> signer:int -> string -> tag -> bool
(** [verify] is [false] for unknown signers rather than raising: a
    Byzantine node may well claim a nonexistent identity. *)

val sign_cost : t -> Time.t
val verify_cost : t -> Time.t

val forge_tag : unit -> tag
(** A structurally valid but unauthenticated tag. Used only by fault
    injection to model a Byzantine node fabricating evidence; [verify]
    rejects it (except with the 2{^-64} collision probability that real
    MACs also have — the simulation treats it as zero). *)

val digest : string -> int64
(** FNV-1a 64-bit content digest, used for hash chains and replica
    output comparison. *)

(** Tamper-evident logs: each record's digest covers its predecessor,
    as in PeerReview-style evidence logs. A record is folded into the
    chain one 64-bit word at a time. *)
module Chain : sig
  type link = int64

  val genesis : link

  val prime : int64
  (** The FNV-1a 64-bit prime, the multiplier of {!mix}. *)

  val mix : link -> int64 -> link
  (** One FNV-style word step, [(link lxor x) * prime]. The prime is odd,
      so for a fixed word the step is a bijection of the link, and for a
      fixed link a bijection of the word: changing any one word of a
      record changes the link after it, and every later step carries
      the difference through to the head. A caller folding many words
      in a hot loop writes the steps out with {!prime}: without
      cross-module inlining, each call returns its link boxed. *)
end
