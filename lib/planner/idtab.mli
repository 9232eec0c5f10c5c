(** Tables keyed by integer ids, stored as one array offset by the
    smallest id: O(1) lookups at one word per id of the range.

    Task and flow ids are dense — generators number them from 0 and
    augmentation allocates fresh ids just above the largest — so the
    range is about the number of ids. Tables are filled once, while the
    structure they index is built, and only read afterwards. *)

type 'a t

val of_ids : int list -> 'a -> 'a t
(** A table whose range spans the given ids, every id mapped to the
    given default. *)

val get : 'a t -> int -> 'a
(** The value bound to an id; the default for ids never set, including
    every id outside the range. *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] for an id outside the range. *)
