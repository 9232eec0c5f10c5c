type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let int t n =
  assert (n > 0);
  (* Keep 62 bits so the value fits OCaml's positive int range. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let int_in t lo hi = lo + int t (hi - lo + 1)

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  shuffle t a;
  let k = Stdlib.min k (Array.length a) in
  Array.to_list (Array.sub a 0 k)
