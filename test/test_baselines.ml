open Btr_util
module Fault = Btr_fault.Fault
module Exec = Btr_baselines.Exec
module Topology = Btr_net.Topology

let check_bool = Alcotest.(check bool)

let run ?(style = Exec.Unreplicated) ?(script = []) ?(seed = 1)
    ?(horizon = Time.sec 1) () =
  Exec.run ~seed
    ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
    ~topology:
      (Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50))
    ~style ~script ~horizon ()

let corrupt3 = Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs
let crash3 = Fault.single ~at:(Time.ms 250) ~node:3 Fault.Crash

let all_styles =
  [
    Exec.Unreplicated;
    Exec.Pbft { f = 1 };
    Exec.Zz { f = 1; timeout = Time.ms 5 };
    Exec.Selfstab { audit_interval = Time.ms 100; expose_prob = 0.5 };
  ]

let test_fault_free_all_styles () =
  List.iter
    (fun style ->
      let t = run ~style () in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s fault-free correct" (Exec.style_name style))
        1.0
        (Btr.Metrics.correct_fraction (Exec.metrics t)))
    all_styles

let test_replication_cost_ordering () =
  let factor style = Exec.replication_factor (run ~style ()) in
  let unrep = factor Exec.Unreplicated in
  let zz = factor (Exec.Zz { f = 1; timeout = Time.ms 5 }) in
  let pbft = factor (Exec.Pbft { f = 1 }) in
  check_bool "no-ft ~1x" true (Float.abs (unrep -. 1.0) < 0.05);
  check_bool "zz ~f+1 = 2x" true (zz > 1.5 && zz < 3.2);
  check_bool "pbft ~3f+1 = 4x" true (pbft > 3.2);
  check_bool "ordering holds" true (unrep < zz && zz < pbft)

let test_cpu_ordering () =
  let cpu style = Exec.cpu_utilization (run ~style ()) in
  check_bool "BFT burns more CPU than running bare" true
    (cpu (Exec.Pbft { f = 1 }) > 2.0 *. cpu Exec.Unreplicated)

let test_pbft_masks_corruption () =
  let t = run ~style:(Exec.Pbft { f = 1 }) ~script:corrupt3 () in
  Alcotest.(check (float 1e-9)) "pbft masks wrong values" 1.0
    (Btr.Metrics.correct_fraction (Exec.metrics t))

let test_zz_masks_corruption () =
  let t = run ~style:(Exec.Zz { f = 1; timeout = Time.ms 5 }) ~script:corrupt3 () in
  Alcotest.(check (float 1e-9)) "zz masks wrong values via standby" 1.0
    (Btr.Metrics.correct_fraction (Exec.metrics t))

let test_noft_stays_broken () =
  let t = run ~style:Exec.Unreplicated ~script:corrupt3 () in
  let m = Exec.metrics t in
  check_bool "unreplicated never recovers" true
    (Btr.Metrics.correct_fraction m < 0.9);
  (* Incorrect output runs to the end of the horizon. *)
  let recoveries = Btr.Metrics.recovery_times m in
  check_bool "recovery takes the whole remaining horizon" true
    (List.exists (fun r -> Time.compare r (Time.ms 700) >= 0) recoveries)

let test_replicas_absorb_crash () =
  List.iter
    (fun style ->
      let t = run ~style ~script:crash3 () in
      let m = Exec.metrics t in
      (* Flows whose endpoints are pinned to the crashed node are lost
         physically; everything else must be masked. *)
      check_bool
        (Printf.sprintf "%s keeps most outputs" (Exec.style_name style))
        true
        (Btr.Metrics.correct_fraction m > 0.75))
    [ Exec.Pbft { f = 1 }; Exec.Zz { f = 1; timeout = Time.ms 5 } ]

let test_selfstab_eventually_recovers () =
  (* With expose probability 0.5 per 100ms audit, 20 seeds make a miss
     of every audit astronomically unlikely in a 2s run. *)
  let recovered = ref 0 in
  for seed = 1 to 10 do
    let t =
      run ~seed
        ~style:(Exec.Selfstab { audit_interval = Time.ms 100; expose_prob = 0.5 })
        ~script:corrupt3 ~horizon:(Time.sec 2) ()
    in
    let m = Exec.metrics t in
    if Btr.Metrics.correct_fraction m > 0.9 then incr recovered
  done;
  check_bool "most seeds recover" true (!recovered >= 8)

let test_selfstab_has_no_bound () =
  (* Across seeds, recovery times vary (geometric): the spread between
     fastest and slowest exceeds any single audit interval. *)
  let times =
    List.filter_map
      (fun seed ->
        let t =
          run ~seed
            ~style:
              (Exec.Selfstab { audit_interval = Time.ms 100; expose_prob = 0.3 })
            ~script:corrupt3 ~horizon:(Time.sec 2) ()
        in
        match Btr.Metrics.recovery_times (Exec.metrics t) with
        | [ r ] -> Some (Time.to_sec_f r)
        | _ -> None)
      (List.init 12 (fun i -> i + 1))
  in
  let lo = List.fold_left Stdlib.min Float.infinity times in
  let hi = List.fold_left Stdlib.max Float.neg_infinity times in
  check_bool "recovery time spread > one audit interval" true (hi -. lo > 0.1)

let test_pbft_latency_exceeds_unreplicated () =
  (* PBFT's price is its agreement traffic: check that it exists. *)
  let t_pbft = run ~style:(Exec.Pbft { f = 1 }) () in
  let t_bare = run ~style:Exec.Unreplicated () in
  check_bool "pbft sends much more traffic" true
    (Exec.bytes_sent t_pbft > 2 * Exec.bytes_sent t_bare)

let test_determinism () =
  let go () =
    let t = run ~style:(Exec.Pbft { f = 1 }) ~script:corrupt3 () in
    ( Btr.Metrics.correct_fraction (Exec.metrics t),
      Exec.bytes_sent t,
      Exec.replication_factor t )
  in
  check_bool "deterministic per seed" true (go () = go ())

let suite =
  [
    ("all styles perfect when fault-free", `Quick, test_fault_free_all_styles);
    ("replication cost ordering 1 < f+1 < 3f+1", `Quick, test_replication_cost_ordering);
    ("cpu cost ordering", `Quick, test_cpu_ordering);
    ("pbft masks corruption", `Quick, test_pbft_masks_corruption);
    ("zz masks corruption via standbys", `Quick, test_zz_masks_corruption);
    ("unreplicated never recovers", `Quick, test_noft_stays_broken);
    ("replicated styles absorb a crash", `Quick, test_replicas_absorb_crash);
    ("self-stabilization eventually recovers", `Slow, test_selfstab_eventually_recovers);
    ("self-stabilization has no bound", `Slow, test_selfstab_has_no_bound);
    ("pbft pays in traffic", `Quick, test_pbft_latency_exceeds_unreplicated);
    ("baseline runs are deterministic", `Quick, test_determinism);
  ]
