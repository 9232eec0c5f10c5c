(** Logical time for the simulator, in integer microseconds.

    All BTR components run on deterministic logical time; there is no
    wall-clock anywhere in the library. Using integers keeps arithmetic
    exact, so schedule hyperperiods and deadlines never drift. *)

type t = int
(** A duration or an instant, in microseconds. Instants are durations
    since the simulation epoch. *)

val zero : t
val infinity : t
(** A sentinel later than any reachable simulated instant. *)

val us : int -> t
val ms : int -> t
val sec : int -> t

val of_sec_f : float -> t
(** [of_sec_f s] rounds [s] seconds to the nearest microsecond. *)

val to_sec_f : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> int -> t
val div : t -> int -> t
val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val lcm : t -> t -> t
(** Least common multiple; used to compute schedule hyperperiods. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: picks µs/ms/s units automatically. *)

val to_string : t -> string
