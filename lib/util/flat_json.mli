(** Flat JSON: objects of string / int / float / bool fields, one per
    line.

    The one JSON codec of the repository. Campaign and frontier
    artifacts are written and read through it, and the telemetry
    encoder ({!Btr_obs.Obs}) and the verifier's JSON report
    ({!Btr_check.Check}) escape their strings with {!escape}. *)

type value = Int of int | Float of float | Str of string | Bool of bool

val escape : Buffer.t -> string -> unit
(** Appends the string escaped for the inside of a JSON string: a
    backslash before each quote and backslash, the two-character
    escapes for newline, carriage return and tab, other bytes below
    0x20 as a four-digit [u] escape; every other byte (UTF-8 included)
    passes through raw. *)

val to_string : (string * value) list -> string
(** The canonical encoding {!parse} inverts:
    [parse (to_string fields) = Ok fields] and re-encoding is
    byte-identical, for any fields whose floats are finite. Field
    order is preserved. *)

val parse : string -> ((string * value) list, string) result
(** One object, surrounding whitespace allowed. Total: malformed input
    of any shape is an [Error] naming the byte offset, never an
    exception. *)

(** {1 Field accessors}

    [None] when the field is absent or holds another type. *)

val int_of : (string * value) list -> string -> int option
val str_of : (string * value) list -> string -> string option
val bool_of : (string * value) list -> string -> bool option
