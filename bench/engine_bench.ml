(* Sim-engine hot-path throughput: every campaign trial spins on
   push/step, so regressions here multiply across thousands of trials.
   Three axes: raw schedule+drain throughput, steady-state throughput at
   increasing queue depths (periodic tasks re-arming themselves, the
   runtime's actual shape), and drain time under increasing cancelled
   fractions. Each row also reports the allocation diet — cells
   allocated fresh vs served from the wheel's pool. Writes
   BENCH_engine.json with --json. *)

open Btr_util
module Engine = Btr_sim.Engine

(* btr-lint: allow wall-clock — benchmark timing is inherently
   wall-clock; simulated results stay deterministic. *)
let now () = Unix.gettimeofday ()

let events_per_sec events dt = int_of_float ((float_of_int events /. dt) +. 0.5)

let engine_counter e name =
  match
    List.assoc_opt
      ("sim.engine." ^ name)
      (Btr_obs.Obs.Registry.counters (Btr_obs.Obs.registry (Engine.obs e)))
  with
  | Some v -> v
  | None -> 0

(* allocation columns: fresh cells vs pool reuses over the bench run *)
let alloc_stats e = (engine_counter e "cells", engine_counter e "pool-reuse")

(* One-shot events at scattered times, drained once: the push/step
   baseline with no re-arming and no cancellations. *)
let bench_drain n =
  let e = Engine.create () in
  let t0 = now () in
  for i = 1 to n do
    ignore (Engine.schedule e ~at:(i * 7919 mod 1_000_003) (fun _ -> ()))
  done;
  Engine.run e;
  let dt = now () -. t0 in
  assert (Engine.events_processed e = n);
  (dt, alloc_stats e)

(* [depth] periodic tasks re-arm themselves until ~[total] events have
   fired: sustained throughput with the queue pinned at [depth]. *)
let bench_depth ~depth ~total =
  let e = Engine.create () in
  let period = Time.ms 1 in
  let fired = ref 0 in
  for i = 0 to depth - 1 do
    (* stagger starts across one period so every task is live from the
       first period whatever the depth *)
    ignore
      (Engine.every e ~period ~start:(Time.us (i mod period)) (fun _ ->
           incr fired))
  done;
  let horizon = Time.mul period (total / depth) in
  let t0 = now () in
  Engine.run ~until:horizon e;
  let dt = now () -. t0 in
  (!fired, dt, alloc_stats e)

(* Schedule [n] events, cancel [pct]% of them up front, drain. The
   wheel unlinks cancelled cells eagerly, so drain cost must scale
   with the live events only. *)
let bench_cancelled ~n ~pct =
  let e = Engine.create () in
  let live = ref 0 in
  let handles =
    Array.init n (fun i ->
        Engine.schedule e ~at:(i * 7919 mod 1_000_003) (fun _ -> incr live))
  in
  Array.iteri (fun i h -> if i mod 100 < pct then Engine.cancel h) handles;
  let expected = Engine.pending e in
  let t0 = now () in
  Engine.run e;
  let dt = now () -. t0 in
  assert (Engine.events_processed e = expected && !live = expected);
  (expected, dt, alloc_stats e)

let run ?json_file ?max_depth () =
  let drain_n = 200_000 in
  let depths =
    let all = [ 100; 1_000; 10_000; 100_000; 1_000_000 ] in
    match max_depth with
    | None -> all
    | Some cap -> List.filter (fun d -> d <= cap) all
  in
  (* enough horizon that even the deepest row sustains two full periods
     (shallower rows just re-arm more often), and enough events that
     every row runs long enough to measure above scheduler noise *)
  let depth_total depth = max 1_000_000 (2 * depth) in
  let cancel_n = 100_000 in
  let cancel_pcts = [ 0; 25; 50; 90 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "EB  Engine throughput (%d-event workloads)" drain_n)
      ~header:
        [ "workload"; "events"; "seconds"; "events/sec"; "cells"; "pooled" ]
  in
  let row name events dt (cells, pooled) =
    Table.add_row table
      [
        name;
        string_of_int events;
        Printf.sprintf "%.3f" dt;
        string_of_int (events_per_sec events dt);
        string_of_int cells;
        string_of_int pooled;
      ]
  in
  let drain_dt, drain_alloc = bench_drain drain_n in
  row "schedule+drain" drain_n drain_dt drain_alloc;
  let depth_rows =
    List.map
      (fun depth ->
        let fired, dt, alloc = bench_depth ~depth ~total:(depth_total depth) in
        row (Printf.sprintf "steady depth %d" depth) fired dt alloc;
        (depth, fired, dt, alloc))
      depths
  in
  let cancel_rows =
    List.map
      (fun pct ->
        let fired, dt, alloc = bench_cancelled ~n:cancel_n ~pct in
        row (Printf.sprintf "cancelled %d%%" pct) fired dt alloc;
        (pct, fired, dt, alloc))
      cancel_pcts
  in
  Table.print table;
  match json_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    let drain_cells, drain_pooled = drain_alloc in
    Printf.fprintf oc
      "{\"bench\":\"engine\",\"drain_events\":%d,\"drain_millis\":%d,\"drain_events_per_sec\":%d,\"cells_allocated\":%d,\"cells_reused\":%d}\n"
      drain_n
      (int_of_float ((drain_dt *. 1000.0) +. 0.5))
      (events_per_sec drain_n drain_dt)
      drain_cells drain_pooled;
    List.iter
      (fun (depth, fired, dt, (cells, pooled)) ->
        Printf.fprintf oc
          "{\"mode\":\"depth\",\"depth\":%d,\"events\":%d,\"millis\":%d,\"events_per_sec\":%d,\"cells_allocated\":%d,\"cells_reused\":%d}\n"
          depth fired
          (int_of_float ((dt *. 1000.0) +. 0.5))
          (events_per_sec fired dt) cells pooled)
      depth_rows;
    List.iter
      (fun (pct, fired, dt, (cells, pooled)) ->
        Printf.fprintf oc
          "{\"mode\":\"cancelled\",\"cancelled_pct\":%d,\"live_events\":%d,\"millis\":%d,\"events_per_sec\":%d,\"cells_allocated\":%d,\"cells_reused\":%d}\n"
          pct fired
          (int_of_float ((dt *. 1000.0) +. 0.5))
          (events_per_sec fired dt) cells pooled)
      cancel_rows;
    close_out oc;
    Printf.printf "wrote %s\n" file
