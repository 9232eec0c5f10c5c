(** FNV-1a hashing, 64-bit.

    The one string hash everything deterministic keys on: campaign
    artifact fingerprints, the orchestrator's trial-to-shard rule and
    the planner's dependency fingerprints. Stable across runs,
    processes and OCaml versions — unlike [Hashtbl.hash], which is
    explicitly unspecified — so hashes may appear in persisted artifacts
    and in CI assertions. *)

val hash64 : string -> int64
(** FNV-1a over the bytes of the string. *)

val hash64_lines : string list -> int64
(** FNV-1a over the lines with a ['\n'] mixed in after each — the
    campaign artifact fingerprint ({!Btr_campaign.Campaign.fingerprint}
    renders it with {!to_hex}). *)

val offset : int64
(** The FNV-1a offset basis: the state before anything is folded in. *)

val fold_int : int64 -> int -> int64
(** [fold_int h n] continues FNV-1a state [h] over the 8 bytes of [n],
    least significant first, with no decimal rendering in between. *)

val fold_string : int64 -> string -> int64
(** [fold_string h s] folds [String.length s] with {!fold_int}, then
    the bytes of [s]: the length prefix keeps a sequence of folds
    injective. *)

val hash : string -> int
(** {!hash64} truncated to a non-negative OCaml [int]; use for shard
    and bucket selection. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero-padded. *)
