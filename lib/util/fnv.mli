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

val hash : string -> int
(** {!hash64} truncated to a non-negative OCaml [int]; use for shard
    and bucket selection. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero-padded. *)
