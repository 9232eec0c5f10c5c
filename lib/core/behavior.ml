module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Inttbl = Btr_util.Inttbl

type input = { orig_flow : int; value : float array }
type fn = period:int -> inputs:input list -> float array option

let mix_int64 acc v =
  let open Int64 in
  let z = add acc (mul (of_int v) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  logxor z (shift_right_logical z 27)

let rec ascending = function
  | a :: (b :: _ as rest) -> a.orig_flow <= b.orig_flow && ascending rest
  | [] | [ _ ] -> true

let default_compute tid ~period ~inputs =
  match inputs with
  | [] -> None
  | _ ->
    (* Fold the inputs in flow order so the result is independent of
       arrival order; keep floats exact by mixing their bit patterns.
       The runtime passes them in flow order already. *)
    let sorted =
      if ascending inputs then inputs
      else List.sort (fun a b -> Int.compare a.orig_flow b.orig_flow) inputs
    in
    let acc =
      List.fold_left
        (fun acc { orig_flow; value } ->
          let acc = mix_int64 acc orig_flow in
          Array.fold_left
            (fun acc x -> mix_int64 acc (Int64.to_int (Int64.bits_of_float x)))
            acc value)
        (mix_int64 (Int64.of_int tid) period)
        sorted
    in
    (* Keep the magnitude tame so examples can still plot the values. *)
    Some [| Int64.to_float (Int64.rem acc 1_000_000L) /. 1_000.0 |]

(* [[| task; period |]]: recognizably unique per period, so corruption
   and staleness are observable. *)
let counter_source tid ~period ~inputs:_ =
  Some [| float_of_int tid; float_of_int period |]

(* FNV-1a, one byte per step, as in [Auth.digest]; a local, inlined
   step, so [value_digest]'s accumulator stays unboxed. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L
let[@inline] mix h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

let mix_string h s =
  let h = ref h in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let hex_digit d = if d < 10 then Char.code '0' + d else Char.code 'a' + d - 10

(* The bytes of [Printf.sprintf "%h;" x] for every element, fed to the
   accumulator as they would be rendered: an optional '-', then
   "infinity", "nan", or "0x", the leading digit, '.' and the fraction's
   hex digits without trailing zeros (none when the fraction is zero),
   'p' and the signed decimal exponent (denormals at p-1022, zero at
   p+0). No string is built. *)
let value_digest v =
  let h = ref fnv_offset in
  for k = 0 to Array.length v - 1 do
    let bits = Int64.bits_of_float (Array.unsafe_get v k) in
    if Int64.compare bits 0L < 0 then h := mix !h (Char.code '-');
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    let frac = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
    if biased = 0x7FF then h := mix_string !h (if frac = 0 then "infinity" else "nan")
    else begin
      h := mix (mix !h (Char.code '0')) (Char.code 'x');
      h := mix !h (if biased = 0 then Char.code '0' else Char.code '1');
      if frac <> 0 then begin
        h := mix !h (Char.code '.');
        let rest = ref frac and shift = ref 48 in
        while !rest <> 0 do
          h := mix !h (hex_digit ((!rest lsr !shift) land 15));
          rest := !rest land ((1 lsl !shift) - 1);
          shift := !shift - 4
        done
      end;
      let exp = if biased <> 0 then biased - 1023 else if frac <> 0 then -1022 else 0 in
      h := mix (mix !h (Char.code 'p')) (Char.code (if exp < 0 then '-' else '+'));
      let e = abs exp in
      if e >= 1000 then h := mix !h (Char.code '0' + (e / 1000));
      if e >= 100 then h := mix !h (Char.code '0' + (e / 100 mod 10));
      if e >= 10 then h := mix !h (Char.code '0' + (e / 10 mod 10));
      h := mix !h (Char.code '0' + (e mod 10))
    end;
    h := mix !h (Char.code ';')
  done;
  !h

let equal_value a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if Float.abs (x -. b.(i)) > 1e-9 then ok := false) a;
  !ok

type table = fn Inttbl.t

let table g ~overrides =
  let t = Inttbl.create 32 in
  List.iter
    (fun (x : Task.t) ->
      match x.kind with
      | Task.Source -> Inttbl.replace t x.id (counter_source x.id)
      | Task.Compute -> Inttbl.replace t x.id (default_compute x.id)
      | Task.Sink -> ())
    (Graph.tasks g);
  List.iter (fun (tid, fn) -> Inttbl.replace t tid fn) overrides;
  t

let find t tid =
  match Inttbl.find t tid with
  | fn -> fn
  | exception Not_found -> default_compute tid
