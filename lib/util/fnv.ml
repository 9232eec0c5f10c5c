let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let[@inline] mix h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let hash64 s =
  let h = ref offset in
  String.iter (fun c -> h := mix !h c) s;
  !h

let hash64_lines lines =
  let h = ref offset in
  List.iter
    (fun l ->
      String.iter (fun c -> h := mix !h c) l;
      h := mix !h '\n')
    lines;
  !h

let fold_int h n =
  let h = ref h in
  for i = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((n lsr (8 * i)) land 0xff))) prime
  done;
  !h

let fold_string h s =
  let h = ref (fold_int h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (String.unsafe_get s i)
  done;
  !h

let hash s = Int64.to_int (hash64 s) land max_int
let to_hex h = Printf.sprintf "%016Lx" h
