(** Hash tables keyed by [int]: the stdlib functor over {!Int}, so a
    lookup hashes and compares one machine integer instead of walking
    the key with the polymorphic primitives. For keys that are not
    dense, such as node ids; dense task and flow ids use {!Idtab}. *)

include Hashtbl.S with type key = int

(** {1 Packed pair keys}

    A pair of ids, such as (flow, period) or (task, period), packed into
    one int, so a pair-keyed table needs no tuple per lookup. Both
    halves must lie in [0 .. 2^31 - 1]; packed keys then order like the
    pairs, first half first. *)

val pack : int -> int -> int
(** Raises [Invalid_argument] when either half is outside
    [0 .. 2^31 - 1]. *)

val hi : int -> int
(** [hi (pack a b) = a]. *)

val lo : int -> int
(** [lo (pack a b) = b]. *)

val sorted_keys : 'a t -> int list
(** Every key, ascending: the order-stable traversal (btr_lint's
    hashtbl-order rule flags [iter], [fold] and [to_seq*] here as it
    does for [Hashtbl]). *)
