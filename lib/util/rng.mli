(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic choice in the library draws from an explicit [Rng.t]
    so that a simulation is a pure function of its seed. The generator
    supports {!split} to derive independent streams for subsystems
    without sharing mutable state across them. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split rng] advances [rng] and returns a new generator whose stream
    is independent of the remainder of [rng]'s. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng n] is uniform in [0, n). Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in rng lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float rng x] is uniform in [0, x). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample rng k xs] draws [min k (length xs)] distinct elements,
    preserving no particular order. *)
