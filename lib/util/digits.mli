(** Integers rendered straight into bytes.

    Signed and logged strings on the runtime path (evidence statements,
    checkpoint messages) are built by measuring every piece, allocating
    the result once and writing into it: no [Printf] format
    interpretation and no intermediate strings. Each writer takes the
    position to write at and returns the position after what it
    wrote. *)

val dec_width : int -> int
(** [String.length (string_of_int n)], for every [n]. *)

val put_dec : Bytes.t -> int -> int -> int
(** [put_dec b pos n] writes the bytes of [string_of_int n] at [pos]. *)

val hex64_width : int64 -> int
(** [String.length (Printf.sprintf "%Lx" h)], for every [h]. *)

val put_hex64 : Bytes.t -> int -> int64 -> int
(** Writes the bytes of [Printf.sprintf "%Lx" h]: lowercase, no
    leading zeros, the two's-complement bits of a negative [h]. *)

val put_string : Bytes.t -> int -> string -> int
(** Writes [s] at [pos]. *)
