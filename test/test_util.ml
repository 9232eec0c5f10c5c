open Btr_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Time *)

let test_time_units () =
  check_int "ms" 1_000 (Time.ms 1);
  check_int "sec" 1_000_000 (Time.sec 1);
  check_int "add" (Time.ms 3) (Time.add (Time.ms 1) (Time.ms 2));
  check_int "round-trip of_sec_f" (Time.ms 1500) (Time.of_sec_f 1.5);
  Alcotest.(check (float 1e-9)) "to_sec_f" 0.25 (Time.to_sec_f (Time.ms 250))

let test_time_infinity () =
  check_int "add inf" Time.infinity (Time.add Time.infinity (Time.sec 5));
  check_int "add to inf" Time.infinity (Time.add (Time.sec 5) Time.infinity);
  check_bool "inf is max" true (Time.compare Time.infinity (Time.sec 1000000) > 0)

let test_time_lcm () =
  check_int "lcm 4 6" 12 (Time.lcm 4 6);
  check_int "lcm periods" (Time.ms 20) (Time.lcm (Time.ms 4) (Time.ms 10));
  check_int "lcm same" (Time.ms 5) (Time.lcm (Time.ms 5) (Time.ms 5))

let test_time_pp () =
  Alcotest.(check string) "s" "2s" (Time.to_string (Time.sec 2));
  Alcotest.(check string) "ms" "15ms" (Time.to_string (Time.ms 15));
  Alcotest.(check string) "us" "7us" (Time.to_string 7);
  Alcotest.(check string) "inf" "inf" (Time.to_string Time.infinity)

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int child 1_000_000) in
  check_bool "split stream differs" true (xs <> ys)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 8 in
    check_bool "in [5,8]" true (w >= 5 && w <= 8);
    let f = Rng.float r 2.0 in
    check_bool "float in [0,2)" true (f >= 0.0 && f < 2.0)
  done

let test_rng_chance () =
  let a = Rng.create 5 and b = Rng.create 5 in
  List.iter
    (fun p ->
      for _ = 1 to 200 do
        check_bool "chance p = float 1.0 < p" (Rng.float a 1.0 < p) (Rng.chance b p)
      done)
    [ 0.0; 0.25; 0.5; 1.0 ]

let test_rng_sample () =
  let r = Rng.create 11 in
  let s = Rng.sample r 3 [ 1; 2; 3; 4; 5 ] in
  check_int "sample size" 3 (List.length s);
  check_int "distinct" 3 (List.length (List.sort_uniq Int.compare s));
  check_int "sample oversized" 2 (List.length (Rng.sample r 10 [ 1; 2 ]))

(* Stats *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check_int "count" 4 s.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 2.5 s.p50

let test_stats_percentile () =
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 100.0);
  Alcotest.(check (float 1e-9)) "singleton" 5.0 (Stats.percentile [ 5.0 ] 90.0)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within data range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let lo = List.fold_left Stdlib.min Float.infinity xs in
      let hi = List.fold_left Stdlib.max Float.neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* Table *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.render t in
  check_bool "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  check_bool "pads short rows" true (String.length s > 20)

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("time infinity", `Quick, test_time_infinity);
    ("time lcm", `Quick, test_time_lcm);
    ("time pp", `Quick, test_time_pp);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng sample", `Quick, test_rng_sample);
    ("rng chance draws as float does", `Quick, test_rng_chance);
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile", `Quick, test_stats_percentile);
    ("table render", `Quick, test_table_render);
    QCheck_alcotest.to_alcotest prop_percentile_within_range;
  ]
