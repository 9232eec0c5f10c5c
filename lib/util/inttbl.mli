(** Hash tables keyed by [int]: the stdlib functor over {!Int}, so a
    lookup hashes and compares one machine integer instead of walking
    the key with the polymorphic primitives. For keys that are not
    dense, such as node ids; dense task and flow ids use {!Idtab}. *)

include Hashtbl.S with type key = int
