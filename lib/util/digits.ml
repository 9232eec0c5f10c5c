(* Widths and writers work on [n <= 0], where every int has a
   negation: [-min_int] does not exist. *)
let dec_width n =
  let rec go n w = if n > -10 then w else go (n / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Top level rather than local: a local loop would close over [b], one
   closure allocated per call. *)
let rec put_digits b n i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then put_digits b (n / 10) (i - 1)

let put_dec b pos n =
  let stop = pos + dec_width n in
  put_digits b (if n < 0 then n else -n) (stop - 1);
  if n < 0 then Bytes.unsafe_set b pos '-';
  stop

(* The 64 bits as two 32-bit halves, so no step handles an [Int64]
   beyond reading the argument. *)
let hex_width_32 x =
  let rec go x w = if x < 16 then w else go (x lsr 4) (w + 1) in
  go x 1

let hex64_width h =
  let hi = Int64.to_int (Int64.shift_right_logical h 32) in
  if hi <> 0 then 8 + hex_width_32 hi
  else hex_width_32 (Int64.to_int h land 0xFFFF_FFFF)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let put_hex64 b pos h =
  let stop = pos + hex64_width h in
  let hi = Int64.to_int (Int64.shift_right_logical h 32) in
  let lo = Int64.to_int h land 0xFFFF_FFFF in
  for i = stop - 1 downto pos do
    let k = stop - 1 - i in
    let nibble = if k < 8 then (lo lsr (4 * k)) land 15 else (hi lsr (4 * (k - 8))) land 15 in
    Bytes.unsafe_set b i (hex_digit nibble)
  done;
  stop

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s
