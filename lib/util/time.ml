type t = int

let zero = 0
let infinity = max_int

let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000

let of_sec_f s = int_of_float (Float.round (s *. 1e6))
let to_sec_f t = float_of_int t /. 1e6
let to_ms_f t = float_of_int t /. 1e3

let add a b = if a = infinity || b = infinity then infinity else a + b
let sub a b = a - b
let mul t k = if t = infinity then infinity else t * k
let div t k = t / k
let max = Stdlib.max
let compare = Int.compare
let equal = Int.equal

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else a / gcd a b * b

let pp ppf t =
  if t = infinity then Format.pp_print_string ppf "inf"
  else if t mod 1_000_000 = 0 && t >= 1_000_000 then
    Format.fprintf ppf "%ds" (t / 1_000_000)
  else if t mod 1_000 = 0 && t >= 1_000 then Format.fprintf ppf "%dms" (t / 1_000)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fs" (to_sec_f t)
  else if t >= 1_000 then Format.fprintf ppf "%.3fms" (to_ms_f t)
  else Format.fprintf ppf "%dus" t

let to_string t = Format.asprintf "%a" pp t
