(** Tables keyed by integer ids, stored as one array offset by the
    smallest id: O(1) lookups at one word per id of the range.

    Task and flow ids are dense — generators number them from 0 and
    augmentation allocates fresh ids just above the largest — so the
    range is about the number of ids. Tables are filled while the
    structure they index is built, and only read afterwards. Node ids
    are not dense (an edit may add any id), so node-keyed tables are
    {!Inttbl}s instead. *)

type 'a t

val span : lo:int -> hi:int -> 'a -> 'a t
(** A table whose range is [lo .. hi], every id mapped to the given
    default; empty when [hi < lo]. *)

val like : 'a t -> 'b -> 'b t
(** A table over the same range, every id mapped to the given default. *)

val get : 'a t -> int -> 'a
(** The value bound to an id; the default for ids never set, including
    every id outside the range. *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] for an id outside the range. *)

val fold_right : ('a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Folds over every slot of the range, defaults included, from the
    largest id down. *)
