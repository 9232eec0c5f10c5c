(** Tamper-evident commitment logs (the PeerReview mechanism the paper
    builds its detector on, §4.2).

    Each node appends every message send/receive and every task
    execution to a hash-chained log and periodically signs the chain
    head (a {e checkpoint}). A signed checkpoint commits the node to
    everything before it: presenting a log segment that does not
    reproduce the committed hash is itself evidence of tampering, and
    replaying a committed segment against the task's deterministic
    behaviour exposes wrong outputs. The BTR runtime's checkers perform
    that replay online; this module provides the offline commitment and
    audit machinery that makes the evidence independently verifiable. *)

module Auth = Btr_crypto.Auth

type entry =
  | Sent of { flow : int; period : int; digest : int64 }
  | Received of { flow : int; period : int; digest : int64; from_node : int }
  | Executed of { task : int; period : int; output_digest : int64 }

type t

val create : owner:int -> t
val append : t -> entry -> unit
val length : t -> int
val head : t -> Auth.Chain.link
(** Hash-chain head covering all entries appended so far. Each entry is
    folded in with {!Auth.Chain.mix} as its constructor tag (1 [Sent],
    2 [Received], 3 [Executed]) followed by its fields in declaration
    order, so editing any one field of any one entry changes the head. *)

val entries : t -> entry list
(** Oldest first. *)

type checkpoint = {
  cp_owner : int;
  cp_length : int;
  cp_head : Auth.Chain.link;
  cp_tag : Auth.tag;
}

val checkpoint_message : owner:int -> length:int -> head:Auth.Chain.link -> string
(** The bytes a checkpoint's tag covers:
    ["checkpoint|<owner>|<length>|<head in lowercase hex>"], integers
    in decimal. *)

val checkpoint : t -> Auth.t -> Auth.secret -> checkpoint
(** Sign the current head. Raises [Invalid_argument] if the secret does
    not belong to the log owner. *)

val verify_checkpoint : Auth.t -> checkpoint -> bool

type audit_result =
  | Consistent
  | Tampered of { at_length : int }
      (** the presented entries do not reproduce the committed head *)
  | Truncated
      (** fewer entries presented than the checkpoint commits to *)

val audit : checkpoint -> entry list -> audit_result
(** Replays the hash chain over the presented prefix of entries and
    compares with the commitment. The checkpoint must already have been
    verified with {!verify_checkpoint}. *)
