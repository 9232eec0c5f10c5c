include Hashtbl.Make (Int)

let half_bits = 31

let pack hi lo =
  if (hi lor lo) lsr half_bits <> 0 then
    invalid_arg (Printf.sprintf "Inttbl.pack: (%d, %d) outside 0..2^31-1" hi lo);
  (hi lsl half_bits) lor lo

let hi k = k lsr half_bits
let lo k = k land ((1 lsl half_bits) - 1)

let sorted_keys t = List.sort Int.compare (fold (fun k _ acc -> k :: acc) t [])
