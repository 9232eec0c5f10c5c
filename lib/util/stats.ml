type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. float_of_int (List.length xs)
    in
    sqrt var

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
    {
      count = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = List.fold_left Stdlib.min Float.infinity xs;
      max = List.fold_left Stdlib.max Float.neg_infinity xs;
      p50 = percentile xs 50.0;
      p90 = percentile xs 90.0;
      p99 = percentile xs 99.0;
    }

let summarize_opt = function [] -> None | xs -> Some (summarize xs)
